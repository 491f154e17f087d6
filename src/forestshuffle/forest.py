"""Canonical data model for decorated non-planar rooted forests.

Forests are multisets of rooted trees, trees carry a decoration at every
vertex, and decorations are elements of the free commutative monoid on atom
symbols.  Everything here works with isomorphism classes: two trees compare
equal exactly when they are isomorphic as decorated rooted trees.  This is
achieved by keeping children in canonical order (lexicographic on canonical
keys, built bottom-up) at every construction site.

Canonical-order invariant: a tree's ``children`` and a forest's ``trees`` are
sorted by canonical key, and tree keys contain no whitespace (a forest key
joins its tree keys with single spaces, so a one-tree forest's key is its
tree's).  The public constructors sort whatever they are given.  Only the
private builders ``RootedTree._build``, ``Forest._build`` and ``_grafted``,
and ``concat`` on two runs already in order, may skip the sort, and only on
parts that are already canonical: the trees of an existing forest, a
subsequence of a sorted tuple, a merge of two sorted tuples, or two sorted
tuples whose keys meet in order (the last key of one at most the first of
the other), which ``concat`` joins with their forest keys as they are.

Canonical values are hash-consed: ``Decoration``, ``RootedTree._build``
and ``Forest._build`` return the object already built for a value of at
most ``_MEMO_SIZE_LIMIT`` vertices (or atoms), from one table per class
keyed on the canonical key, and they are the only places a tree or forest
is made: every other builder (``as_forest``, ``b_plus``, ``_grafted``,
``concat``) goes through one of them.  A full table takes no new entries,
so it stays bounded in any loop, inside a public entry or not (parsing,
enumeration).  Equality and hashing stay by key; sharing only saves memory
and collector work.  ``parse_forest`` looks its text up in the forest table
first: canonical text of a shared value returns it unparsed.

Every value class (``Decoration``, ``RootedTree``, ``Forest`` and
``words.Word``) takes its value rules from ``_Keyed``: it is immutable, and
equal, hashed and ordered by its canonical key.  A decoration's key is its
text, which starts the key of each tree whose root it decorates, so
decorations sort as the canonical child sort orders their one-vertex
trees.  Every operation is a pure function.
"""

from __future__ import annotations

import gc
import re
import threading
from functools import wraps
from operator import attrgetter
from typing import Callable, Iterable, Sequence

__all__ = [
    "Decoration",
    "RootedTree",
    "Forest",
    "VertexRef",
    "TreeSyntaxError",
    "GuardExceeded",
    "MAX_TREE_DEPTH",
    "b_plus",
    "concat",
    "parse_forest",
    "vertex_refs",
    "leaf_refs",
    "graft_at",
    "induced_subtree",
]

# Path of child indices from the root inside the canonical layout of one
# tree.  () is the root.  Any structural edit invalidates outstanding refs.
VertexRef = tuple[int, ...]

_ATOM_RE = re.compile(r"[A-Za-z0-9_]+")

_by_key = attrgetter("key")


class TreeSyntaxError(ValueError):
    """Raised on malformed tree-expression text; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GuardExceeded(RuntimeError):
    """Raised when a count is over its guard; only ``check`` raises it."""

    @staticmethod
    def check(count: int, bound: int, what: str) -> None:
        """Refuse ``count`` of ``what`` when it is over ``bound``.  The one
        place a guard is worded; the pass path builds no message."""
        if count > bound:
            raise GuardExceeded(f"{what} is guarded to {bound}, got {count}")


def _gc_paused(fn):
    """Run ``fn`` as a public entry, the one owner of the entry protocol:
    pause the cyclic garbage collector, and drop the call-tier memo entries
    ``fn`` wrote when it returns.

    The library makes no reference cycles, so reference counting frees all
    it drops, and a collection inside a product or a dual would only rescan
    the memos.  The pause is process-wide.  The collector's prior state is
    restored in ``finally``; when it is already off it stays off, so a
    nested entry never switches it back on early.  In ``finally``, each
    entry drops the call-tier keys (see ``_Memo.put``) that its thread
    recorded after the entry started: a nested entry, such as a suite's
    call to ``forest_shuffle``, drops its own at its own exit, and a call
    that raises drops them too.  Nothing empties a memo.  Wrap only public
    entry points, never a recursion: the wrapper costs one stack frame per
    call (see ``MAX_TREE_DEPTH``).
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        keys = _call_tier.keys
        mark = len(keys)
        enabled = gc.isenabled()
        if enabled:
            gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if len(keys) > mark:
                for memo, key in keys[mark:]:
                    memo.pop(key, None)
                del keys[mark:]
            if enabled:
                gc.enable()

    return paused


# A memo entry bounds terms, not bytes, and a product entry of 7-8 vertices
# holds many: at a bound of 8, a seed-1 `products` benchmark pass ended with
# 13,798 lasting product entries of 118,750 terms, and its 4,243 entries of 7-8
# vertices served 1,868 of their 24,998 hits.  At 6 it ends with 9,555 entries
# of 52,552 terms and peaks at 38.6 MiB against 61.4 MiB, and a 7-12-vertex
# sub-pair that repeats inside one call is still served by the call tier (see
# `_Memo.put`).
_MEMO_SIZE_LIMIT = 6
# 2**13 is the smallest power of two above every memo one seed-7 `products` or
# `verify` benchmark pass fills (4,139 and 4,397 entries), so in neither does a
# memo fill; at 2**15, 12,000 random 8-12-vertex duals held 176 MiB against 80
# MiB.  The hash-consing tables share the bound: a `duality` benchmark pass
# (seeds 1-9) builds at most 5,439 distinct small forests, so its tables never
# fill.
# Call-tier entries (see `_Memo.put`) leave when their public call returns, so
# between calls a memo holds at most _MEMO_ENTRIES entries, none of more than
# _MEMO_SIZE_LIMIT vertices.
_MEMO_ENTRIES = 2**13


class _CallTier(threading.local):
    """Per thread, the (memo, key) of every call-tier entry written and not
    yet dropped, in the order written.  A thread's own list, so one
    thread's entry never drops, or leaves behind, another thread's keys."""

    def __init__(self):
        self.keys: list[tuple[dict, object]] = []


_call_tier = _CallTier()


class _Memo(dict):
    """A table on canonical keys: a recursion's memo, or the hash-consing
    table of a value class.  Look up with the C method ``get``, which adds no
    frame per level.  Nothing empties one: each takes lasting entries only
    while it holds fewer than ``_MEMO_ENTRIES``.

    A memo's ``put`` keeps a result for good when its operands total at most
    ``_MEMO_SIZE_LIMIT`` vertices and the memo is not full.  Any other
    result of up to twice that goes into the same dict for the length of
    the public call that wrote it: ``put`` records its key and
    ``_gc_paused`` drops it when that call returns or raises.  So a full
    memo keeps what it holds and still serves each call whole.  Within one
    call a product reaches the same 7-12-vertex sub-pair along several
    recursion paths (5,874 of 13,305 such sub-calls in a seed-1 `products`
    pass).  Larger results are never stored: with no bound,
    ``forest_shuffle`` of a 398-level comb and one vertex peaked at 541 MiB
    against 266 MiB.  ``shuffle._coeff`` puts every result at size 0, as one
    query revisits its sub-problems: two 190-vertex chains take 36,100,
    about C(380, 190) paths if they were dropped.  Keeping a full memo beat
    emptying it and filling it again: a seed-1 `duality` pass makes 20,843
    ``_coeff`` evaluations against 22,360.  A hash-consing table is written
    through ``share``, which takes no entry once the table is full and
    records no key: emptying a full table instead kept each value it would
    drop alive through the collector's generations, and a `products` pass,
    which then built small forests enough to fill its forest table 17 times
    over (7 times at the bound 6), spent 0.43-0.49 s in collections against
    0.30-0.36 s."""

    def put(self, key, size, value):
        if size <= _MEMO_SIZE_LIMIT and len(self) < _MEMO_ENTRIES:
            self[key] = value
        elif size <= 2 * _MEMO_SIZE_LIMIT:
            self[key] = value
            _call_tier.keys.append((self, key))
        return value

    def share(self, key, value):
        if len(self) < _MEMO_ENTRIES:
            self[key] = value
        return value


# The hash-consing tables: the one shared object of each canonical value of
# at most _MEMO_SIZE_LIMIT vertices (a decoration: atoms).
_decoration_table = _Memo()  # sorted atom tuple -> Decoration
_tree_table = _Memo()  # tree key -> RootedTree
_forest_table = _Memo()  # forest key -> Forest


class _Keyed:
    """The value rules of ``Decoration``, ``RootedTree``, ``Forest`` and
    ``words.Word``: a subclass's constructors fill its ``key`` slot once
    with its canonical text, a value is equal, hashed and ordered by that
    key (a ``str`` keeps its own hash once computed, so no slot copies it),
    and values of two classes differ even on one key (a decoration and its
    one-vertex tree, a tree and its one-tree forest, the empty word and
    ``EMPTY``)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __lt__(self, other: "_Keyed") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.key!r})"


class Decoration(_Keyed):
    """A multiset of atom symbols; the unit is the empty multiset.

    The product is multiset union, so it is commutative and associative
    with the unit as neutral element.  ``key`` renders it: the atoms sorted
    lexicographically and joined by '*', or "1" for the unit.  Atoms hold
    no '*' and none is "1", so the key determines the atoms.
    """

    __slots__ = ("atoms", "key")

    atoms: tuple[str, ...]
    key: str

    def __new__(cls, atoms: Iterable[str] = ()):
        atoms = tuple(sorted(atoms))
        shared = len(atoms) <= _MEMO_SIZE_LIMIT
        if shared and (hit := _decoration_table.get(atoms)) is not None:
            return hit
        for a in atoms:
            if a == "1" or not _ATOM_RE.fullmatch(a):
                raise ValueError(f"invalid atom {a!r}")
        self = object.__new__(cls)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "key", "*".join(atoms) if atoms else "1")
        return _decoration_table.share(atoms, self) if shared else self

    def __mul__(self, other: "Decoration") -> "Decoration":
        return Decoration(self.atoms + other.atoms)


UNIT = Decoration()


class RootedTree(_Keyed):
    """An isomorphism class of decorated non-planar rooted trees.

    Children are stored sorted by canonical key, so any permutation of the
    children at construction yields an identical value.  ``key`` is the
    canonical text of the tree and determines equality; it is built
    bottom-up, making canonicalization O(n log n) overall.
    """

    __slots__ = ("decoration", "children", "key", "size")

    decoration: Decoration
    children: tuple["RootedTree", ...]
    key: str
    size: int

    def __new__(cls, decoration: Decoration, children: Sequence["RootedTree"] = ()):
        children = tuple(sorted(children, key=_by_key))
        if children:
            key = decoration.key + "[" + ",".join([c.key for c in children]) + "]"
        else:
            key = decoration.key
        return cls._build(decoration, children, key, 1 + sum([c.size for c in children]))

    @classmethod
    def _build(
        cls, decoration: Decoration, children: tuple["RootedTree", ...], key: str, size: int
    ) -> "RootedTree":
        """Set every field from already-canonical parts, without sorting.

        ``children`` must be sorted by key, and ``key`` and ``size`` must be
        the ones the public constructor would compute from them.  A tree of
        at most ``_MEMO_SIZE_LIMIT`` vertices is the shared one of its key.
        """
        shared = size <= _MEMO_SIZE_LIMIT
        if shared and (hit := _tree_table.get(key)) is not None:
            return hit
        self = object.__new__(cls)
        set_decoration, set_children, set_key, set_size = _TREE_SETTERS
        set_decoration(self, decoration)
        set_children(self, children)
        set_key(self, key)
        set_size(self, size)
        return _tree_table.share(key, self) if shared else self

    def as_forest(self) -> "Forest":
        """The one-tree forest; a one-tree forest's key is its tree's."""
        return Forest._build((self,), self.size, self.key)


def _below(tree: RootedTree) -> "Forest":
    """The forest below the root: F for the tree B+^a(F).  The children are
    already canonical, so it skips the sort."""
    return Forest._build(tree.children, tree.size - 1)


class Forest(_Keyed):
    """A multiset of rooted trees; may be empty.

    Concatenation is multiset union, hence commutative and associative with
    the empty forest as unit.  Equality is equality of canonical keys, i.e.
    isomorphism of decorated forests.
    """

    __slots__ = ("trees", "key", "size")

    trees: tuple[RootedTree, ...]
    key: str
    size: int

    def __new__(cls, trees: Sequence[RootedTree] = ()):
        trees = tuple(sorted(trees, key=_by_key))
        return cls._build(trees, sum([t.size for t in trees]))

    @classmethod
    def _build(cls, trees: tuple[RootedTree, ...], size: int, key: str | None = None) -> "Forest":
        """Set every field from already-canonical parts, without sorting.

        ``trees`` must be sorted by key and ``size`` must be their total size;
        ``key``, when given, must be their keys joined by single spaces.  A
        forest of at most ``_MEMO_SIZE_LIMIT`` vertices is the shared one of
        its key.
        """
        if key is None:
            key = " ".join([t.key for t in trees]) if trees else "()"
        shared = size <= _MEMO_SIZE_LIMIT
        if shared and (hit := _forest_table.get(key)) is not None:
            return hit
        self = object.__new__(cls)
        set_trees, set_key, set_size = _FOREST_SETTERS
        set_trees(self, trees)
        set_key(self, key)
        set_size(self, size)
        return _forest_table.share(key, self) if shared else self

    @property
    def is_empty(self) -> bool:
        return not self.trees

    @property
    def is_tree(self) -> bool:
        return len(self.trees) == 1

    @property
    def is_connected(self) -> bool:
        """Empty forests and single trees count as connected."""
        return len(self.trees) <= 1

    def single_tree(self) -> RootedTree:
        if len(self.trees) != 1:
            raise ValueError(f"forest {self.key!r} is not a single tree")
        return self.trees[0]


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each slot, in ``__slots__`` order.  The builders
    write fields through them: faster than ``object.__setattr__``, and still
    past the ``__setattr__`` that keeps instances immutable."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


_TREE_SETTERS = _slot_setters(RootedTree)
_FOREST_SETTERS = _slot_setters(Forest)

EMPTY = Forest(())


def _b_plus_key(decoration: Decoration, forest: Forest) -> str:
    """The key of B+^decoration(forest).  Tree keys hold no whitespace, so
    this turns the forest key into the comma-joined child keys."""
    if forest.trees:
        return decoration.key + "[" + forest.key.replace(" ", ",") + "]"
    return decoration.key


def b_plus(decoration: Decoration, forest: Forest) -> RootedTree:
    """Graft a new root decorated by ``decoration`` below ``forest``."""
    return RootedTree._build(decoration, forest.trees, _b_plus_key(decoration, forest), forest.size + 1)


def _grafted(decoration: Decoration, forest: Forest) -> Forest:
    """B+^decoration(forest) as a one-tree forest: one key, no sort.  A
    one-tree forest's key is its tree's, so a shared forest is returned
    before the tree is built or looked up."""
    key = _b_plus_key(decoration, forest)
    size = forest.size + 1
    if size <= _MEMO_SIZE_LIMIT and (hit := _forest_table.get(key)) is not None:
        return hit
    return RootedTree._build(decoration, forest.trees, key, size).as_forest()


def concat(first: Forest, second: Forest) -> Forest:
    """Multiset union of the two forests."""
    if first.is_empty:
        return second
    if second.is_empty:
        return first
    if first.trees[-1].key > second.trees[0].key:
        if second.trees[-1].key > first.trees[0].key:
            # merging two interleaved runs; sorted() finds the runs and merges them
            trees = tuple(sorted(first.trees + second.trees, key=_by_key))
            return Forest._build(trees, first.size + second.size)
        first, second = second, first
    # two runs in order: their trees and keys join as they are
    return Forest._build(first.trees + second.trees, first.size + second.size, first.key + " " + second.key)


# ---------------------------------------------------------------------------
# vertex references and structural operations on a single tree


def _spine(tree: RootedTree, ref: VertexRef) -> list[RootedTree]:
    """The vertices from the root down to ``ref``, in order; a ref that
    does not resolve raises ``ValueError``."""
    spine = [tree]
    for i in ref:
        try:
            spine.append(spine[-1].children[i])
        except IndexError:
            raise ValueError(f"vertex ref {ref} does not resolve in {tree.key!r}") from None
    return spine


def subtree_at(tree: RootedTree, ref: VertexRef) -> RootedTree:
    """The vertex-plus-all-descendants subtree rooted at ``ref``."""
    return _spine(tree, ref)[-1]


def _preorder(tree: RootedTree) -> list[tuple[VertexRef, RootedTree]]:
    """(ref, subtree) for every vertex, in preorder over the canonical
    layout.  Iterative, so any depth of tree is walked."""
    out: list[tuple[VertexRef, RootedTree]] = []
    stack = [((), tree)]
    while stack:
        path, node = stack.pop()
        out.append((path, node))
        kids = node.children
        # pushed last-first, so the first child is popped next
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i]))
    return out


def _fold(walk: list[tuple[VertexRef, RootedTree]], combine: Callable) -> object:
    """Fold a tree bottom-up over its ``_preorder`` walk: the value at each
    vertex is ``combine(ref, node, values)``, where ``values`` are the
    values at its children in order.  Iterative, like the walk."""
    values: list = []
    # in reversed preorder a vertex comes right after its subtrees, last
    # child first, so it finds its children's values on top, first on top
    for ref, node in reversed(walk):
        kids = [values.pop() for _ in node.children]
        values.append(combine(ref, node, kids))
    return values[0]


def _redecorate(tree: RootedTree, fn: Callable[[Decoration], Decoration]) -> RootedTree:
    """The tree with every decoration d replaced by fn(d); fn is called on
    the vertices in preorder over the canonical layout."""
    walk = _preorder(tree)
    new = {ref: fn(node.decoration) for ref, node in walk}
    return _fold(walk, lambda ref, _, kids: RootedTree(new[ref], kids))


def vertex_refs(tree: RootedTree) -> tuple[VertexRef, ...]:
    """All vertex refs of the tree, in preorder over the canonical layout."""
    return tuple([ref for ref, _ in _preorder(tree)])


def leaf_refs(tree: RootedTree) -> tuple[VertexRef, ...]:
    return tuple([ref for ref, node in _preorder(tree) if not node.children])


def _scion_forest(scion: RootedTree | Forest) -> Forest:
    """The scion of a grafting as a forest of at most one tree; a forest of
    two or more trees raises ``ValueError``."""
    if isinstance(scion, RootedTree):
        return scion.as_forest()
    if len(scion.trees) > 1:
        raise ValueError(
            "the scion must be a tree, a one-tree forest or the empty forest, "
            f"got a forest of {len(scion.trees)} trees: {scion.key!r}"
        )
    return scion


def graft_at(tree: RootedTree, ref: VertexRef, scion: RootedTree | Forest) -> RootedTree:
    """Graft the root of ``scion`` as a new direct descendant of ``ref``.

    The scion is a tree, a one-tree forest or the empty forest; a forest of
    two or more trees raises ``ValueError``.  Grafting the empty forest
    returns the tree unchanged.  The result is re-canonicalized, so refs
    issued for the input are invalidated.
    """
    scion_f = _scion_forest(scion)
    spine = _spine(tree, ref)
    if scion_f.is_empty:
        return tree
    # rebuilt from ref upwards
    node = spine.pop()
    rebuilt = b_plus(node.decoration, concat(_below(node), scion_f))
    for node, i in zip(reversed(spine), reversed(ref)):
        children = list(node.children)
        children[i] = rebuilt
        rebuilt = RootedTree(node.decoration, children)
    return rebuilt


def induced_subtree(tree: RootedTree, refs: Iterable[VertexRef]) -> Forest:
    """The forest induced by a vertex subset.

    Vertices keep their decorations; v1 -> v2 is an edge of the result when
    v1 is a strict ancestor of v2 in the tree and no selected vertex lies
    strictly between them.  The result need not be connected.
    """
    selected = set(refs)
    walk = _preorder(tree)
    unresolved = selected - {ref for ref, _ in walk}
    if unresolved:
        raise ValueError(f"vertex ref {unresolved.pop()} does not resolve in {tree.key!r}")

    def hanging(ref: VertexRef, node: RootedTree, kids: list[list[RootedTree]]) -> list[RootedTree]:
        # the induced trees hanging in this vertex's subtree
        below = [t for trees in kids for t in trees]
        return [RootedTree(node.decoration, below)] if ref in selected else below

    return Forest(_fold(walk, hanging))


# ---------------------------------------------------------------------------
# tree-expression text format
#
#   forest := "()" | tree (WS tree)*
#   tree   := dec | dec "[" tree ("," tree)* "]"
#   dec    := atom ("*" atom)*
#   atom   := [A-Za-z0-9_]+        ("1" alone denotes the monoid unit)


# Deepest root-to-leaf path, in vertices, that the parser accepts.  The
# structural recursions take up to two stack frames per level (a tree, then
# the forest of its children): on trees with a branch at every level the
# shuffle, dual and families verbs fail near depth 500 at CPython's default
# recursion limit of 1000, so the limit leaves room for the caller's frames.
# A product recurses through both operands; the CLI bounds their depth sum
# by the same limit.  Deeper input exits with a guard error.
MAX_TREE_DEPTH = 400


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> TreeSyntaxError:
        return TreeSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_atom(self) -> str:
        m = _ATOM_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected an atom")
        self.pos = m.end()
        return m.group()

    def parse_decoration(self) -> Decoration:
        atoms = [self.parse_atom()]
        while self.peek() == "*":
            self.pos += 1
            atoms.append(self.parse_atom())
        if len(atoms) == 1 and atoms[0] == "1":
            return UNIT
        if "1" in atoms:
            raise self.error('the unit atom "1" may not appear inside a composite decoration')
        return Decoration(atoms)

    def parse_tree(self) -> RootedTree:
        self.depth += 1
        GuardExceeded.check(self.depth, MAX_TREE_DEPTH, "tree depth")
        dec = self.parse_decoration()
        children: list[RootedTree] = []
        if self.peek() == "[":
            self.pos += 1
            self.skip_ws()
            children.append(self.parse_tree())
            self.skip_ws()
            while self.peek() == ",":
                self.pos += 1
                self.skip_ws()
                children.append(self.parse_tree())
                self.skip_ws()
            if self.peek() != "]":
                raise self.error('expected "," or "]"')
            self.pos += 1
        self.depth -= 1
        return RootedTree(dec, children)

    def parse_forest(self) -> Forest:
        self.skip_ws()
        if not self.text[self.pos :].strip():
            raise self.error("empty input (the empty forest is written \"()\")")
        if self.text[self.pos :].startswith("()"):
            self.pos += 2
            self.skip_ws()
            if self.pos != len(self.text):
                raise self.error('trailing input after "()"')
            return EMPTY
        trees = [self.parse_tree()]
        while self.pos < len(self.text):
            start = self.pos
            self.skip_ws()
            if self.pos == start:
                raise self.error("expected whitespace or end of input")
            if self.pos < len(self.text):
                trees.append(self.parse_tree())
        return Forest(trees)


def parse_forest(text: str) -> Forest:
    """Parse tree-expression text into a canonical forest.

    parse_forest(s).key == s whenever s is already canonical.  So canonical
    text that keys the shared value of a small forest returns that value
    without parsing; any other text (another spelling, extra whitespace, a
    larger value, malformed input) runs the grammar.
    """
    if (hit := _forest_table.get(text)) is not None:
        return hit
    return _Parser(text).parse_forest()


def parse_tree(text: str) -> RootedTree:
    forest = parse_forest(text)
    if not forest.is_tree:
        raise TreeSyntaxError("expected a single tree", 0)
    return forest.single_tree()
