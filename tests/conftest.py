from __future__ import annotations

import hypothesis.strategies as st

from forestshuffle.forest import Decoration, Forest, RootedTree

ATOMS = ("a", "b", "c")

decorations = st.builds(lambda a: Decoration((a,)), st.sampled_from(ATOMS))

# every kind of decoration: the unit 1, single atoms and composites such as a*b
any_decorations = st.builds(Decoration, st.lists(st.sampled_from(ATOMS), max_size=2))


def _trees(decs):
    return st.recursive(
        st.builds(RootedTree, decs),
        lambda inner: st.builds(RootedTree, decs, st.lists(inner, min_size=1, max_size=3)),
        max_leaves=5,
    )


trees = _trees(decorations)

forests = st.builds(lambda ts: Forest(ts), st.lists(trees, max_size=3))

nonempty_forests = st.builds(lambda ts: Forest(ts), st.lists(trees, min_size=1, max_size=3))

any_trees = _trees(any_decorations)

any_forests = st.builds(lambda ts: Forest(ts), st.lists(any_trees, max_size=4))

weights = st.sampled_from([0, 1, -1])
