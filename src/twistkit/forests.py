"""Rooted trees and forests encoding twist tori.

A primitive twist torus is recorded as a rooted tree: the plain circle is a
single vertex, a k-fold twist is a bush with k+1 leaves, and an iterated
twist glues a bush onto a leaf of the tree built so far.  Products of
primitive tori are forests.  Planar order is kept while a twist word is
applied (the gluing rule counts leaves from the left) but isomorphism is of
abstract rooted trees, so children order is forgotten by canonical forms.

Every `RootedTree` is a frozen, slotted value that stores its canonical key,
built once from the children's stored keys, so it is never recomputed by
walking the tree.  Its leaf count is read off that key: each leaf writes
"()", and no inner vertex does.  Its hash is the key's hash, which Python
keeps with the string once it is first computed.  The ample trees with n
leaves are built level by level, each from the levels below.  A tree with a
leaf under its root is one step from a tree with n - 1 leaves: put a leaf in
front of that tree's root children, or set a leaf beside the whole tree.
The leaf comes first among the children and its key "()" sorts last, so the
new key is a suffix edit of the old one.  The other trees take one multiset
of smaller ample trees per partition of n into at least two parts >= 2,
joined by itertools.  Each family is built in bulk: a private builder sets
the children and key slots directly, skipping the public constructor.

A tree is walked one way: `_child_counts` lists its vertices' child counts
in pre-order, over an explicit stack.  That list fixes a planar tree
exactly, so equality compares it, `is_ample` looks for a 1 in it, pickling
writes it and `_unflatten` builds a tree back from it; `print_tree` and
`repr` are one writer over it with their own tokens.  `word_to_tree` builds
at most `WORD_LEAF_BUDGET` leaves and raises `CapExceeded` before building a
larger word.  The keys of a tree built from its child counts (a literal, a
word, an unpickled or deep-copied tree) total at most `KEY_TEXT_BUDGET`
characters, or `CapExceeded` is raised: a chain of depth d holds about
2.5 * d**2 of them.

Text grammar (whitespace insignificant)::

    forest := factor ("*" factor)*
    factor := tree | word
    tree   := "L" | "point" | "(" tree+ ")"
    word   := "twist(" k1 (";" kj "@" lj)* ")"

Text is read in two steps.  One regular expression scans it into tokens,
each with its offset: "L", "point", "twist", a run of decimal digits, or any
other single character, whitespace dropped, so "(LL)" is "(", "L", "L", ")".
A tree literal is then read into its vertices' child counts in pre-order,
the list a pickled tree holds, and `_unflatten` builds it bottom-up without
recursion, as it does on unpickling and for `word_to_tree`.  `parse_word`
and the `twist(...)` factors of `parse_forest` share one word reader.  An
error is a `ParseError` at the offset of the token met, naming its first
character and the tokens that were expected there.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import re

from ._value import Value
from .errors import CapExceeded, InvalidLeafIndex, ParseError
from .matrices import as_int

DEFAULT_ENUMERATION_CAP = 16
# Most leaves `word_to_tree` builds for one twist word; a larger word raises
# CapExceeded before any vertex is made.
WORD_LEAF_BUDGET = 1_000_000
# Most key characters `_unflatten` makes for one tree, summed over its inner
# vertices; past it, CapExceeded.  A chain 6,000 deep makes 90,027,000.
KEY_TEXT_BUDGET = 100_000_000
# `word_to_tree` keeps its leaf list in chunks of at most twice this many
# leaves and splices one chunk per step.
LEAF_CHUNK = 2048


_key_of = operator.attrgetter("canonical_key")
_concat = functools.partial(sum, start=())
_consume = functools.partial(collections.deque, maxlen=0)


def _joined_key(children) -> str:
    """The canonical key of a tree with these children."""
    return "(" + ",".join(sorted(map(_key_of, children))) + ")"


class RootedTree(Value):
    """A finite rooted tree; an empty children tuple is a leaf.

    The single-vertex tree stands for the plain circle factor.  A tree
    keeps two slots: `children`, and `canonical_key` (the string of
    `canonical_form`), derived from it on construction; `leaf_count` is read
    off that key.  Equality and repr are those a frozen dataclass would
    generate over `children`; they read the tree's child counts in pre-order
    (`_child_counts`), and pickling and copying go through that list, so
    that depth is unbounded.  The hash is that of `canonical_key`: equal
    trees are isomorphic, so they hash equal, while isomorphic trees in
    another planar order share a hash and still compare unequal.
    """

    _fields = ("children",)
    __slots__ = ("children", "canonical_key")

    def __init__(self, children=()):
        children = tuple(children)
        for child in children:
            if not isinstance(child, RootedTree):
                raise ValueError(f"{child!r} is not a RootedTree")
        self._init(children, _joined_key(children) if children else "()")

    @property
    def leaf_count(self) -> int:
        """The number of leaves, read off the key: each leaf writes "()",
        and an inner vertex's "(" is always followed by its first child's."""
        return self.canonical_key.count("()")

    def __str__(self) -> str:
        return print_tree(self)

    def __repr__(self) -> str:
        name = type(self).__qualname__
        return _written(self, f"{name}(children=())", f"{name}(children=(", ", ", "))", ",))")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the pre-order child counts fix a planar tree exactly
        return self is other or _child_counts(self) == _child_counts(other)

    def __hash__(self):
        return hash(self.canonical_key)

    def __reduce__(self):
        return _unflatten, (_child_counts(self),)


def _new_trees(children, keys) -> tuple[RootedTree, ...]:
    """One tree per entry of `children`, made without the constructor: the
    children and key slots are each set directly, in one C-level pass over
    their values, so the caller vouches that `keys` are those the children
    give."""
    trees = tuple(map(object.__new__, itertools.repeat(RootedTree, len(children))))
    for set_slot, values in zip(RootedTree._setters, (children, keys)):
        _consume(map(set_slot, trees, values))
    return trees


LEAF = RootedTree()


def _child_counts(tree: RootedTree) -> list[int]:
    """Each vertex's child count in pre-order: the one walk over a tree,
    over an explicit stack, so depth is unbounded.  Pickling writes this
    list, `_unflatten` builds from it, and equality, `is_ample`, `repr` and
    `print_tree` read it."""
    counts, stack = [], [tree]
    while stack:
        kids = stack.pop().children
        counts.append(len(kids))
        stack += kids[::-1]
    return counts


def _written(tree, leaf, open_, separator, close, close_one) -> str:
    """The tree as text from its child counts: `leaf` for a leaf, and for
    an inner vertex `open_`, its children joined by `separator`, then
    `close`, or `close_one` if it has one child.  `after` holds what follows
    each child still to write, the next one on top; a separator ends a run
    of closes, so it must differ from both close tokens."""
    out, after = [], []
    for count in _child_counts(tree):
        if count:
            out.append(open_)
            after += [close_one if count == 1 else close] + [separator] * (count - 1)
            continue
        out.append(leaf)
        while after:
            out.append(after.pop())
            if out[-1] == separator:
                break
    return "".join(out)


def _unflatten(child_counts) -> RootedTree:
    """The tree whose vertices have these child counts in pre-order, the
    list `_child_counts` walks and the parser and `word_to_tree` write,
    built bottom-up: read backwards, each vertex comes right after its
    subtrees, whose roots are then on top of the stack, leftmost last.

    Every vertex keeps its own key, so the keys made add up; once their
    length passes `KEY_TEXT_BUDGET` characters, `CapExceeded` is raised."""
    stack, text = [], 0
    for count in reversed(child_counts):
        if not count:
            stack.append(LEAF)
            continue
        kids = tuple(stack[:-count - 1:-1])
        del stack[-count:]
        key = _joined_key(kids)
        text += len(key)
        if text > KEY_TEXT_BUDGET:
            raise CapExceeded("forests", text, "key characters", KEY_TEXT_BUDGET)
        stack.append(RootedTree._new(kids, key))
    return stack[0]


def bush(leaves: int) -> RootedTree:
    """Root with `leaves` leaf children (the tree of a single k-fold twist, leaves = k+1)."""
    leaves = as_int(leaves)
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
        steps = tuple(map(_twist_step, steps))
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


def _twist_step(step) -> tuple[int, int]:
    """`step` as a (k, l) pair of ints; anything else raises ValueError."""
    try:
        k, l = step
    except (TypeError, ValueError):
        raise ValueError(f"twist step {step!r} is not a (k, l) pair") from None
    return as_int(k), as_int(l)


class RootedForest(Value):
    """An unordered multiset of rooted trees; dimension = total leaf count.

    Trees are stored sorted by their planar serialization, so structural
    equality is multiset equality of planar trees.
    """

    __slots__ = _fields = ("trees",)

    def __init__(self, trees):
        trees = tuple(trees)
        if not trees:
            raise ValueError("a forest needs at least one tree")
        self._init(tuple(sorted(trees, key=print_tree)))

    @property
    def dimension(self) -> int:
        return sum(t.leaf_count for t in self.trees)

    def __repr__(self):
        return f"RootedForest({print_forest(self)!r})"

    def __str__(self):
        return print_forest(self)


def word_to_tree(word: TwistWord) -> RootedTree:
    """Apply the gluing rule: start from the first bush, then replace the
    l_j-th leaf (left to right) by a bush with k_j + 1 leaves.

    The planar tree is grown as nested lists beside its left-to-right leaf
    list, then read into its vertices' child counts in pre-order, which
    `_unflatten` builds bottom-up however deep the tree is.  The leaf list
    is kept in chunks of at most 2 * `LEAF_CHUNK` leaves: a step walks the
    chunk lengths to its leaf and splices that chunk alone, and a chunk
    past 2 * `LEAF_CHUNK` leaves is cut into chunks of `LEAF_CHUNK`, so a
    word that keeps gluing near the front does not slow down as it grows.
    A word of more than `WORD_LEAF_BUDGET` leaves raises `CapExceeded`
    before any list is built; a word whose tree's keys pass
    `KEY_TEXT_BUDGET` raises it from `_unflatten`, after the lists are
    built."""
    if word.dimension > WORD_LEAF_BUDGET:
        raise CapExceeded("forests", word.dimension, "twist-word leaves", WORD_LEAF_BUDGET)
    root: list = []
    chunks = [[root]]
    for k, l in word.steps:
        l -= 1
        c = 0
        while l >= len(chunks[c]):
            l -= len(chunks[c])
            c += 1
        chunk = chunks[c]
        vertex = chunk[l]
        vertex.extend([] for _ in range(k + 1))
        chunk[l:l + 1] = vertex
        if len(chunk) > 2 * LEAF_CHUNK:
            chunks[c:c + 1] = [chunk[i:i + LEAF_CHUNK] for i in range(0, len(chunk), LEAF_CHUNK)]
    counts, stack = [], [root]
    while stack:
        vertex = stack.pop()
        counts.append(len(vertex))
        stack += reversed(vertex)
    return _unflatten(counts)


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
    """Forest isomorphism: a bijection of trees matching canonical forms.
    A tree counts as the forest of itself alone."""

    def key(f):
        return (f.canonical_key,) if isinstance(f, RootedTree) else forest_canonical_form(f)

    return key(f1) == key(f2)


def is_ample(tree: RootedTree) -> bool:
    """True for the single point, and for trees with root valency >= 2 whose
    other internal vertices have valency >= 3 (the parent edge counts)."""
    return 1 not in _child_counts(tree)


# ---------------------------------------------------------------------------
# enumeration


def enumerate_ample_trees(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> list[RootedTree]:
    """All ample rooted trees with exactly n leaves, one per isomorphism
    class, sorted by canonical form."""
    return list(_ample_trees(check_enumeration_size(n, cap)))


def check_enumeration_size(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """The checks `enumerate_ample_trees` makes before building anything,
    returning `n` as an int: ValueError for an `n` or `cap` that is not an
    integer (`as_int`) and for n < 1, then CapExceeded for n > cap."""
    n, cap = as_int(n), as_int(cap)
    if n < 1:
        raise ValueError("leaf count must be >= 1")
    if n > cap:
        raise CapExceeded("forests", n, "leaves to enumerate", cap)
    return n


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
    `operator.add`), and `_new_trees` makes them with their keys.  The level
    is sorted by key once, at the end.  Only one family's or partition's
    children list is alive at a time, none longer than level n - 1, and
    keys are made one at a time as they are set, so the build's peak memory
    stays that of the per-tree build it replaced.
    """
    if n == 1:
        return (LEAF,)
    below = _ample_trees(n - 1)
    level = []
    if n >= 3:
        # (a) one more leaf in front of the root's children
        level += _new_trees([(LEAF,) + tree.children for tree in below],
                            (tree.canonical_key[:-1] + ",())" for tree in below))
    # (b) a leaf beside one tree
    level += _new_trees(list(zip(itertools.repeat(LEAF), below)),
                        ("(" + tree.canonical_key + ",())" for tree in below))
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
        level += _new_trees(children, map(_joined_key, children))
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
    n = as_int(n)
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
    parentheses otherwise.  Written from the child counts, so depth is
    unbounded."""
    return _written(tree, "L", "(", " ", ")", ")")


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

# "L", "point", "twist", a run of decimal digits, any other single character,
# or the empty match that marks the end; whitespace between tokens is dropped
_TOKEN = re.compile(r"L|point|twist|\d+|\S|\Z")


def _scan(text: str) -> list[tuple[int, str]]:
    """The (offset, token) pairs of `text`, last first, so that the next
    token is on top and the end marker (len(text), "") at the bottom."""
    return [(m.start(), m.group()) for m in _TOKEN.finditer(text)][::-1]


def _fail(tokens, expected):
    """Raise the ParseError at the next token, naming its first character."""
    offset, token = tokens[-1]
    raise ParseError(f"unexpected {token[:1] or 'end of input'!r}", offset, expected)


def _take(tokens, expected) -> str:
    """Take the next token, which must be one of `expected`."""
    if tokens[-1][1] not in expected:
        _fail(tokens, expected)
    return tokens.pop()[1]


def _skip(tokens, token) -> bool:
    """Take the next token if it is `token`."""
    if tokens[-1][1] != token:
        return False
    tokens.pop()
    return True


def _integer(tokens) -> int:
    if not tokens[-1][1].isdecimal():
        _fail(tokens, {"integer"})
    return int(tokens.pop()[1])


def _read_word(tokens) -> TwistWord:
    """The word after its "twist": "(" k1 (";" kj "@" lj)* ")"."""
    _take(tokens, {"("})
    steps = [(_integer(tokens), 1)]
    while _skip(tokens, ";"):
        k = _integer(tokens)
        _take(tokens, {"@"})
        steps.append((k, _integer(tokens)))
    _take(tokens, {")"})
    return TwistWord(steps)


def _read_tree(tokens) -> RootedTree:
    """A tree literal, read as its vertices' child counts in pre-order (the
    list `RootedTree.__reduce__` writes) and built by `_unflatten`.  Each
    "(", "L" or "point" starts a vertex, one more child of the innermost
    vertex still open; a "(" opens its vertex, and each ")" closes one."""
    counts, open_vertices = [], []
    while True:
        token = _take(tokens, {"(", "L", "point"})
        if open_vertices:
            counts[open_vertices[-1]] += 1
        counts.append(0)
        if token == "(":
            open_vertices.append(len(counts) - 1)
            continue
        while open_vertices and _skip(tokens, ")"):
            open_vertices.pop()
        if not open_vertices:
            return _unflatten(counts)
        if tokens[-1][1] in ("", "*"):  # the text or the factor ends inside the tree
            _fail(tokens, {")", "L", "point", "("})


def _read_factor(tokens) -> RootedTree:
    if _skip(tokens, "twist"):
        return word_to_tree(_read_word(tokens))
    return _read_tree(tokens)


def parse_forest(text: str) -> RootedForest:
    """Parse a forest expression; factors may be tree literals or twist words."""
    tokens = _scan(text)
    trees = [_read_factor(tokens)]
    while _skip(tokens, "*"):
        trees.append(_read_factor(tokens))
    if tokens[-1][1]:
        _fail(tokens, {"*", "end of input"})
    return RootedForest(trees)


def parse_word(text: str) -> TwistWord:
    """Parse a single `twist(...)` word (or `L`/`point` for the circle)."""
    tokens = _scan(text)
    if _take(tokens, {"twist", "L", "point"}) == "twist":
        word = _read_word(tokens)
    else:
        word = TwistWord()
    if tokens[-1][1]:
        _fail(tokens, {"end of input"})
    return word
