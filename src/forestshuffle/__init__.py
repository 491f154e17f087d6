"""Exact-arithmetic shuffle products, coproducts and Rota-Baxter structures
on decorated non-planar rooted forests."""

from .forest import (
    Decoration,
    EMPTY,
    Forest,
    GuardExceeded,
    RootedTree,
    TreeSyntaxError,
    UNIT,
    VertexRef,
    atom,
    b_plus,
    canonical_key,
    concat,
    fertility_profile,
    graft_at,
    induced_subtree,
    leaf_refs,
    parse_forest,
    parse_tree,
    render_forest,
    subtree_at,
    vertex_refs,
)
from .linalg import LinComb, TensorComb, lincomb_json, render_lincomb, render_tensor, tensor, tensor_json
from .words import (
    EMPTY_WORD,
    Word,
    deconcatenation,
    deshuffle,
    is_linear,
    tree_to_word,
    word_concat,
    word_shuffle,
    word_to_tree,
)
from .shuffle import (
    diamond_product,
    find_nonassociativity_witness,
    forest_shuffle,
    shuffle_coefficient,
    shuffle_lin,
    star_product,
)
from .coalgebra import counit, right_antipode, trunk_coproduct
from .dual import (
    AdmissibleFamily,
    admissible_families,
    contraction_fertility,
    dual_combinatorial,
    dual_oracle,
    dual_recursive,
    graft_leaves,
    graft_linear,
    is_admissible_direct,
    reduced_dual,
)
from .primitives import (
    decorate_distinct,
    enumerate_shapes,
    is_primitive,
    primitive_count_brute,
    primitive_count_recursive,
)
from .rota_baxter import (
    RotaBaxterAlgebra,
    forest_algebra,
    forest_rb_operator,
    phi_bar,
    word_P,
    word_algebra,
    word_diamond,
    word_embedding,
)

__version__ = "0.1.0"
