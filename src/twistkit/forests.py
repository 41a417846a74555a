"""Rooted trees and forests encoding twist tori.

A primitive twist torus is recorded as a rooted tree: the plain circle is a
single vertex, a k-fold twist is a bush with k+1 leaves, and an iterated
twist glues a bush onto a leaf of the tree built so far.  Products of
primitive tori are forests.  Planar order is kept while a twist word is
applied (the gluing rule counts leaves from the left) but isomorphism is of
abstract rooted trees, so children order is forgotten by canonical forms.

Every `RootedTree` is a frozen, slotted value that stores its canonical key
and its leaf count, both built once from the children's stored values, so
neither is ever recomputed by walking the tree.  The ample trees with n
leaves are built level by level, each from the levels below.  A tree with
a leaf under its root is one step from a tree with n - 1 leaves: put a leaf
in front of that tree's root children, or set a leaf beside the whole tree.
The leaf comes first among the children and its key "()" sorts last, so
the new key is a suffix edit of the old one.  The other trees take one
multiset of smaller ample trees per partition of n into at least two parts
>= 2, joined by itertools.  Each family is built in bulk: a private
builder sets the three slots directly, skipping the public constructor
(every leaf count on level n is n).

Text grammar (whitespace insignificant)::

    forest := factor ("*" factor)*
    factor := tree | word
    tree   := "L" | "point" | "(" tree+ ")"
    word   := "twist(" k1 (";" kj "@" lj)* ")"
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator

from ._value import Value
from .errors import CapExceeded, InvalidLeafIndex, ParseError

DEFAULT_ENUMERATION_CAP = 16


_key_of = operator.attrgetter("canonical_key")
_leaves_of = operator.attrgetter("leaf_count")
_concat = functools.partial(sum, start=())
_consume = functools.partial(collections.deque, maxlen=0)


def _joined_key(children) -> str:
    """The canonical key of a tree with these children."""
    return "(" + ",".join(sorted(map(_key_of, children))) + ")"


class RootedTree(Value):
    """A finite rooted tree; an empty children tuple is a leaf.

    The single-vertex tree stands for the plain circle factor.  Equality,
    hashing and repr see `children` only; `canonical_key` (the string of
    `canonical_form`) and `leaf_count` are derived from it on construction.
    Equality, hash and repr are those a frozen dataclass would generate,
    computed over an explicit stack, and pickling and copying go through a
    flat list of child counts, so that depth is unbounded.  Each vertex keeps
    its hash once it is first asked for, so a hash walks only the vertices
    not hashed before.
    """

    _fields = ("children",)
    # _hash is hash((children,)), filled by the first __hash__; unset until then
    __slots__ = ("children", "canonical_key", "leaf_count", "_hash")

    def __init__(self, children=()):
        if children:
            key = _joined_key(children)
            leaves = sum(map(_leaves_of, children))
        else:
            key, leaves = "()", 1
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "canonical_key", key)
        object.__setattr__(self, "leaf_count", leaves)

    @property
    def vertex_count(self) -> int:
        count, stack = 0, [self]
        while stack:
            count += 1
            stack.extend(stack.pop().children)
        return count

    def __str__(self) -> str:
        return print_tree(self)

    def __repr__(self) -> str:
        out = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            kids = item.children
            out.append(f"{type(item).__qualname__}(children=(")
            stack.append(",))" if len(kids) == 1 else "))")
            for k, child in enumerate(reversed(kids)):
                if k:
                    stack.append(", ")
                stack.append(child)
        return "".join(out)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or len(a.children) != len(b.children):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # hash((children,)), filled bottom-up over the vertices not hashed
        # yet: once a vertex's children all hold theirs, its tuple hash only
        # reads them back
        stack = [self]
        while stack:
            node = stack[-1]
            todo = [c for c in node.children if _hash_of(c) is None]
            if todo:
                stack += todo
                continue
            stack.pop()
            if _hash_of(node) is None:  # a shared subtree is pushed once per parent
                _set_hash(node, hash((node.children,)))
        return self._hash

    def __reduce__(self):
        # each vertex's child count in pre-order; see _unflatten
        counts, stack = [], [self]
        while stack:
            kids = stack.pop().children
            counts.append(len(kids))
            stack.extend(reversed(kids))
        return _unflatten, (counts,)


_set_slots = tuple(
    getattr(RootedTree, name).__set__ for name in ("children", "canonical_key", "leaf_count")
)
_set_hash = RootedTree._hash.__set__


def _hash_of(tree):
    """The tree's stored hash, or None while it is unset."""
    return getattr(tree, "_hash", None)


def _new_trees(children, keys, leaf_counts) -> tuple[RootedTree, ...]:
    """One tree per entry of `children`, made without the constructor: each
    of the three slots is set directly, in one C-level pass over its
    values, so the caller vouches that `keys` and `leaf_counts` are those
    the children give.  The hash slot stays unset
    until the first `__hash__`."""
    trees = tuple(map(object.__new__, itertools.repeat(RootedTree, len(children))))
    for set_slot, values in zip(_set_slots, (children, keys, leaf_counts)):
        _consume(map(set_slot, trees, values))
    return trees


LEAF = RootedTree()


def _unflatten(child_counts) -> RootedTree:
    """The tree `RootedTree.__reduce__` flattened to its pre-order child
    counts, rebuilt bottom-up: read backwards, each vertex comes right after
    its subtrees, whose roots are then on top of the stack, leftmost last."""
    stack = []
    for count in reversed(child_counts):
        if not count:
            stack.append(LEAF)
            continue
        kids = tuple(stack[:-count - 1:-1])
        del stack[-count:]
        stack += _new_trees((kids,), (_joined_key(kids),), (sum(map(_leaves_of, kids)),))
    return stack[0]


def bush(leaves: int) -> RootedTree:
    """Root with `leaves` leaf children (the tree of a single k-fold twist, leaves = k+1)."""
    if leaves < 1:
        raise ValueError("a bush needs at least one leaf")
    return RootedTree((LEAF,) * leaves)


class TwistWord(Value):
    """An iterated-twist recipe: steps (k_j, l_j), where step j glues a bush
    with k_j + 1 leaves onto leaf l_j (1-based, counted from the left).

    The first step must have l_1 = 1; step j may address leaves
    1 .. k_1 + ... + k_{j-1} + 1.  The empty word is the plain circle.
    """

    __slots__ = _fields = ("steps",)

    def __init__(self, steps=()):
        self._init(steps)
        leaves = 1
        for j, (k, l) in enumerate(steps, start=1):
            if k < 1:
                raise ValueError(f"twist multiplicity k_{j} = {k} must be >= 1")
            if j == 1 and l != 1:
                raise InvalidLeafIndex(f"l_1 = {l}; the first twist must act on leaf 1")
            if not 1 <= l <= leaves:
                raise InvalidLeafIndex(
                    f"l_{j} = {l} out of range 1..{leaves} for step {j}"
                )
            leaves += k

    @property
    def dimension(self) -> int:
        return 1 + sum(k for k, _ in self.steps)


class ProductSpec(Value):
    """A product of primitive twist tori, each given by a twist word."""

    __slots__ = _fields = ("factors",)

    def __init__(self, factors):
        self._init(factors)
        if not factors:
            raise ValueError("a product needs at least one factor")

    def to_forest(self) -> "RootedForest":
        return RootedForest(tuple(word_to_tree(w) for w in self.factors))


class RootedForest:
    """An unordered multiset of rooted trees; dimension = total leaf count.

    Trees are stored sorted by their planar serialization, so structural
    equality is multiset equality of planar trees.
    """

    __slots__ = ("trees",)

    def __init__(self, trees):
        trees = tuple(trees)
        if not trees:
            raise ValueError("a forest needs at least one tree")
        object.__setattr__(self, "trees", tuple(sorted(trees, key=print_tree)))

    @property
    def dimension(self) -> int:
        return sum(t.leaf_count for t in self.trees)

    def __eq__(self, other):
        return isinstance(other, RootedForest) and self.trees == other.trees

    def __hash__(self):
        return hash(self.trees)

    def __repr__(self):
        return f"RootedForest({print_forest(self)!r})"

    def __str__(self):
        return print_forest(self)


def word_to_tree(word: TwistWord) -> RootedTree:
    """Apply the gluing rule: start from the first bush, then replace the
    l_j-th leaf (left to right) by a bush with k_j + 1 leaves.

    The planar tree is grown as nested lists beside its left-to-right leaf
    list, then frozen bottom-up, so each vertex becomes one `RootedTree`
    however deep the tree is."""
    root: list = []
    leaves = [root]
    glued = []  # in gluing order, so every vertex comes after its parent
    for k, l in word.steps:
        vertex = leaves[l - 1]
        vertex.extend([] for _ in range(k + 1))
        leaves[l - 1:l] = vertex
        glued.append(vertex)
    frozen = {}
    for vertex in reversed(glued):
        frozen[id(vertex)] = RootedTree(tuple(frozen.get(id(c), LEAF) for c in vertex))
    return frozen.get(id(root), LEAF)


# ---------------------------------------------------------------------------
# canonical form and isomorphism


def canonical_form(tree: RootedTree) -> str:
    """Planarity-free canonical string: a leaf is "()", an inner vertex is its
    children's strings sorted, comma-joined and parenthesised.

    Two trees have equal canonical form iff they are isomorphic as abstract
    rooted trees.  The string is the tree's stored `canonical_key`, so each
    subtree is serialized once however often it is asked for.
    """
    return tree.canonical_key


def forest_canonical_form(forest: RootedForest) -> tuple[str, ...]:
    return tuple(sorted(canonical_form(t) for t in forest.trees))


def is_isomorphic(f1, f2) -> bool:
    """Forest isomorphism: a bijection of trees matching canonical forms."""
    if isinstance(f1, RootedTree):
        f1 = RootedForest((f1,))
    if isinstance(f2, RootedTree):
        f2 = RootedForest((f2,))
    return forest_canonical_form(f1) == forest_canonical_form(f2)


def is_ample(tree: RootedTree) -> bool:
    """True for the single point, and for trees with root valency >= 2 whose
    other internal vertices have valency >= 3 (the parent edge counts)."""
    stack = [tree]
    while stack:
        children = stack.pop().children
        if len(children) == 1:
            return False
        stack.extend(children)
    return True


# ---------------------------------------------------------------------------
# enumeration


def enumerate_ample_trees(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[RootedTree]:
    """All ample rooted trees with exactly n leaves, one per isomorphism
    class, sorted by canonical form."""
    check_enumeration_size(n, cap)
    return list(_ample_trees(n))


def check_enumeration_size(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """The checks `enumerate_ample_trees` makes before building anything:
    ValueError for n < 1, then CapExceeded for n > cap."""
    if n < 1:
        raise ValueError("leaf count must be >= 1")
    if n > cap:
        raise CapExceeded(f"{n} leaves exceeds the enumeration cap {cap}")


@functools.lru_cache(maxsize=None)
def _ample_trees(n: int) -> tuple[RootedTree, ...]:
    """The ample trees with n leaves, sorted by canonical key.

    The subtrees under the root of an ample tree with n >= 2 leaves are at
    least two smaller ample trees (the leaf, or a tree whose root then has
    valency >= 3).  The children tuple holds them by leaf count in ascending
    order, each leaf count's trees as a non-decreasing run in that level's
    order, so every tree is built exactly once, in one of three families:

    (a) a leaf and at least two more subtrees under the root: without that
        leaf the root is the root of a tree T' on level n - 1;
    (b) a leaf and one more subtree, any tree S on level n - 1;
    (c) no leaf under the root: for each partition of n into at least two
        parts >= 2, a part size s taken m times contributes a multiset of m
        trees from level s.

    A leaf has the smallest leaf count, so it comes first among the
    children, and its key "()" is the greatest key (every other key begins
    with "(("), so it joins last.  So each tree of (a) and (b) is one step
    from its tree on level n - 1, with no sort or join: (a) has children
    (LEAF,) + T'.children and the key of T' with ",()" put before its last
    ")", and (b) has children (LEAF, S) and key "(" + S's key + ",())".
    Each family, and in (c) each partition, is built in bulk: its children
    tuples come from one comprehension, `zip` or itertools (a single part
    size's combinations as they are, two part sizes' products joined by
    `operator.add`), and `_new_trees` makes them with their keys and leaf
    count n.  The level is sorted by key once, at the end.  Only one
    family's or partition's children list is alive at a time, none longer
    than level n - 1, and keys are made one at a time as they are set, so
    the build's peak memory stays that of the per-tree build it replaced.
    """
    if n == 1:
        return (LEAF,)
    below = _ample_trees(n - 1)
    level = []
    if n >= 3:
        # (a) one more leaf in front of the root's children
        level += _new_trees([(LEAF,) + tree.children for tree in below],
                            (tree.canonical_key[:-1] + ",())" for tree in below),
                            itertools.repeat(n))
    # (b) a leaf beside one tree
    level += _new_trees(list(zip(itertools.repeat(LEAF), below)),
                        ("(" + tree.canonical_key + ",())" for tree in below),
                        itertools.repeat(n))
    # (c) no leaf under the root
    for parts in _partitions(n, 2):
        if parts == ((n, 1),):
            continue
        runs = [itertools.combinations_with_replacement(_ample_trees(s), m) for s, m in parts]
        if len(runs) == 1:
            children = list(runs[0])
        elif len(runs) == 2:
            children = list(itertools.starmap(operator.add, itertools.product(*runs)))
        else:
            children = list(map(_concat, itertools.product(*runs)))
        level += _new_trees(children, map(_joined_key, children), itertools.repeat(n))
    level.sort(key=_key_of)
    return tuple(level)


def _partitions(n: int, smallest: int):
    """Partitions of n into parts >= smallest, each as ((size, multiplicity), ...)
    in ascending size."""
    if n == 0:
        yield ()
        return
    for size in range(smallest, n + 1):
        for m in range(1, n // size + 1):
            for rest in _partitions(n - size * m, size + 1):
                yield ((size, m),) + rest


# a(k), b(k) and c(k) for k < len(a); index 0 is a placeholder for a and c
_COUNT_PREFIX: tuple[list[int], list[int], list[int]] = ([0, 1], [1, 1], [0, 1])


def count_ample_trees(n: int) -> int:
    """Number of ample rooted trees with n leaves (OEIS A000669), counted
    without building them; cross-checks the enumerator.

    For n >= 2 the count is half the Euler transform of the sequence itself:
    with c(k) = sum over d | k of d * a(d), b(0) = 1 and
    n * b(n) = sum_{k=1..n} c(k) * b(n - k), a(n) = b(n) / 2.  Each new term
    costs O(n) big-int operations, and terms are kept in a prefix that grows
    on demand.
    """
    if n < 1:
        raise ValueError("leaf count must be >= 1")
    a, b, c = _COUNT_PREFIX
    for m in range(len(a), n + 1):
        # c(m) contains m * a(m) = m * b(m) / 2; moving it to the left leaves
        # m * b(m) / 2 = m * a(m) = (proper-divisor part of c(m)) + the rest
        c_proper = sum(d * a[d] for d in range(1, m // 2 + 1) if m % d == 0)
        a.append((c_proper + sum(c[k] * b[m - k] for k in range(1, m))) // m)
        b.append(2 * a[m])
        c.append(c_proper + m * a[m])
    return a[n]


# ---------------------------------------------------------------------------
# printing


def print_tree(tree: RootedTree) -> str:
    """Planar text: "L" for a leaf, the children space-separated in
    parentheses otherwise.  Walks an explicit stack, so depth is unbounded."""
    out = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif not item.children:
            out.append("L")
        else:
            first, *rest = item.children
            out.append("(")
            stack.append(")")
            for child in reversed(rest):
                stack += (child, " ")
            stack.append(first)
    return "".join(out)


def print_forest(forest: RootedForest) -> str:
    return " * ".join(print_tree(t) for t in forest.trees)


def print_word(word: TwistWord) -> str:
    if not word.steps:
        return "L"
    (k1, _), *rest = word.steps
    parts = [str(k1)] + [f"{k}@{l}" for k, l in rest]
    return "twist(" + ";".join(parts) + ")"


# ---------------------------------------------------------------------------
# parsing

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, expected):
        found = self.peek() or "end of input"
        raise ParseError(f"unexpected {found!r}", self.pos, expected)

    def eat(self, literal: str):
        self._skip_ws()
        if not self.text.startswith(literal, self.pos):
            self.error({literal})
        self.pos += len(literal)

    def try_eat(self, literal: str) -> bool:
        self._skip_ws()
        if self.text.startswith(literal, self.pos):
            # keyword tokens must not run into a longer identifier
            end = self.pos + len(literal)
            if literal.isalpha() and end < len(self.text) and self.text[end].isalpha():
                return False
            self.pos += len(literal)
            return True
        return False

    def integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error({"integer"})
        return int(self.text[start:self.pos])

    def factor(self) -> RootedTree:
        self._skip_ws()
        if self.try_eat("twist"):
            return word_to_tree(self.word_body())
        return self.tree()

    def word_body(self) -> TwistWord:
        self.eat("(")
        steps = [(self.integer(), 1)]
        while self.try_eat(";"):
            k = self.integer()
            self.eat("@")
            l = self.integer()
            steps.append((k, l))
        self.eat(")")
        return TwistWord(tuple(steps))

    def tree(self) -> RootedTree:
        open_children: list[list[RootedTree]] = []  # one list per open "("
        while True:
            self._skip_ws()
            if self.try_eat("("):
                open_children.append([])
                continue
            if not (self.try_eat("L") or self.try_eat("point")):
                self.error({"L", "point", "("})
            node = LEAF
            while open_children:
                open_children[-1].append(node)
                self._skip_ws()
                if not self.try_eat(")"):
                    if self.peek() in ("", "*"):
                        self.error({")", "L", "point", "("})
                    break
                node = RootedTree(tuple(open_children.pop()))
            else:
                return node

    def forest(self) -> RootedForest:
        trees = [self.factor()]
        while self.try_eat("*"):
            trees.append(self.factor())
        self._skip_ws()
        if self.pos != len(self.text):
            self.error({"*", "end of input"})
        return RootedForest(tuple(trees))


def parse_forest(text: str) -> RootedForest:
    """Parse a forest expression; factors may be tree literals or twist words."""
    return _Parser(text).forest()


def parse_word(text: str) -> TwistWord:
    """Parse a single `twist(...)` word (or `L`/`point` for the circle)."""
    p = _Parser(text)
    p._skip_ws()
    if p.try_eat("twist"):
        word = p.word_body()
    elif p.try_eat("L") or p.try_eat("point"):
        word = TwistWord(())
    else:
        p.error({"twist", "L", "point"})
    p._skip_ws()
    if p.pos != len(text):
        p.error({"end of input"})
    return word
