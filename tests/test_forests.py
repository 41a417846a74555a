import copy
import dataclasses
import functools
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistkit.errors import CapExceeded, InvalidLeafIndex, ParseError
from twistkit.forests import (
    _hash_of,
    LEAF,
    ProductSpec,
    RootedForest,
    RootedTree,
    TwistWord,
    bush,
    canonical_form,
    count_ample_trees,
    enumerate_ample_trees,
    forest_canonical_form,
    is_ample,
    is_isomorphic,
    parse_forest,
    parse_word,
    print_forest,
    print_tree,
    print_word,
    word_to_tree,
)

# ---------------------------------------------------------------------------
# independent oracles (planar enumeration, direct degree counts, permutation
# isomorphism); kept separate from the library code paths on purpose


def planar_trees(n):
    """All planar rooted trees with n leaves whose internal vertices have at
    least two children (a finite superset of the ample trees)."""
    if n == 1:
        yield LEAF
        return
    for comp in _compositions(n):
        pools = [list(planar_trees(k)) for k in comp]
        for kids in itertools.product(*pools):
            yield RootedTree(tuple(kids))


def _compositions(n):
    # compositions of n with at least two parts
    def rec(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in rec(total - first):
                yield (first,) + rest

    for comp in rec(n):
        if len(comp) >= 2:
            yield comp


def ample_by_degrees(tree, is_root=True):
    if not tree.children:
        return True
    degree = len(tree.children) + (0 if is_root else 1)
    if degree < (2 if is_root else 3):
        return False
    return all(ample_by_degrees(c, is_root=False) for c in tree.children)


def iso_by_permutation(a, b):
    if len(a.children) != len(b.children):
        return False
    if not a.children:
        return True
    return any(
        all(iso_by_permutation(x, y) for x, y in zip(a.children, perm))
        for perm in itertools.permutations(b.children)
    )


def shuffled(tree, rng):
    if not tree.children:
        return tree
    kids = [shuffled(c, rng) for c in tree.children]
    rng.shuffle(kids)
    return RootedTree(tuple(kids))


def recursive_canonical(tree):
    """The canonical string recomputed from scratch at every vertex."""
    if not tree.children:
        return "()"
    return "(" + ",".join(sorted(recursive_canonical(c) for c in tree.children)) + ")"


@functools.cache
def partition_count(n):
    """Ample-tree count as a sum over the partitions of n into >= 2 parts:
    a part of size m taken j times contributes multiset-choose(a(m), j)."""
    if n == 1:
        return 1
    total = 0
    for partition in _partitions(n, n - 1):
        ways = 1
        for part in set(partition):
            mult = partition.count(part)
            ways *= math.comb(partition_count(part) + mult - 1, mult)
        total += ways
    return total


def _partitions(n, max_part):
    if n == 0:
        yield ()
        return
    for part in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def random_word(rng, max_steps=5, max_k=3):
    steps = []
    leaves = 1
    for j in range(rng.randint(0, max_steps)):
        k = rng.randint(1, max_k)
        l = 1 if not steps else rng.randint(1, leaves)
        steps.append((k, l))
        leaves += k
    return TwistWord(tuple(steps))


# ---------------------------------------------------------------------------
# word_to_tree


def test_single_twist_gives_bush():
    tree = word_to_tree(TwistWord(((1, 1),)))
    assert tree == bush(2)
    assert tree.leaf_count == 2


def test_trivial_word_gives_point():
    tree = word_to_tree(TwistWord(()))
    assert tree == LEAF
    assert tree.leaf_count == 1


def test_iterated_twist_replaces_first_leaf():
    tree = word_to_tree(TwistWord(((1, 1), (1, 1))))
    assert tree == RootedTree((bush(2), LEAF))
    assert print_tree(tree) == "((L L) L)"


def test_leaf_index_validation():
    with pytest.raises(InvalidLeafIndex):
        TwistWord(((1, 1), (1, 3)))  # only leaves 1..2 exist after one step
    with pytest.raises(InvalidLeafIndex):
        TwistWord(((2, 2),))  # first step must hit leaf 1
    with pytest.raises(ValueError):
        TwistWord(((0, 1),))


def test_leaf_count_formula():
    rng = random.Random(7)
    for _ in range(100):
        word = random_word(rng)
        assert word_to_tree(word).leaf_count == 1 + sum(k for k, _ in word.steps)


def test_words_give_ample_trees_exhaustive_small():
    # every valid word with total twist <= 5
    def words(total_left, leaves):
        yield ()
        for k in range(1, total_left + 1):
            for l in range(1, leaves + 1):
                for rest in words(total_left - k, leaves + k):
                    yield ((k, l),) + rest

    seen = 0
    for raw in words(5, 1):
        if raw and raw[0][1] != 1:
            continue
        word = TwistWord(raw)
        assert is_ample(word_to_tree(word))
        seen += 1
    assert seen > 100


def test_words_give_ample_trees_sampled():
    rng = random.Random(11)
    for _ in range(200):
        word = random_word(rng, max_steps=6, max_k=4)
        assert is_ample(word_to_tree(word))


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_bush():
    forest = parse_forest("(L L)")
    assert forest == RootedForest((bush(2),))


def test_parse_twist_word():
    forest = parse_forest("twist(1;1@1)")
    assert forest.trees == (RootedTree((bush(2), LEAF)),)


def test_parse_product_with_circle():
    forest = parse_forest("twist(1) * L")
    assert forest == RootedForest((bush(2), LEAF))
    assert forest.dimension == 3


def test_parse_point_alias_and_whitespace():
    assert parse_forest(" point ") == parse_forest("L")
    assert parse_forest("( L  ( L L ) )") == parse_forest("(L (L L))")


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_forest("(L L")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_forest("()")
    assert err.value.offset == 1
    with pytest.raises(ParseError) as err:
        parse_forest("")
    assert err.value.offset == 0
    with pytest.raises(ParseError):
        parse_forest("(L L) & L")
    with pytest.raises(ParseError, match=r"'\*' at offset 5 \(expected \(, \), L, point\)"):
        parse_forest("((L) * L)")  # a factor break inside an open tree
    with pytest.raises(InvalidLeafIndex):
        parse_forest("twist(1;2@5)")
    # twist words parse on their own too
    for text, offset, expected in (
        ("twist(;1@1)", 6, "integer"),
        ("twist(1;1@)", 10, "integer"),
        ("tw", 0, "L, point, twist"),
        ("", 0, "L, point, twist"),
        ("L L", 2, "end of input"),
        ("point x", 6, "end of input"),
    ):
        with pytest.raises(ParseError, match=rf"offset {offset} \(expected {expected}\)") as err:
            parse_word(text)
        assert err.value.offset == offset


def test_print_parse_roundtrip_known():
    for text in ["(L L)", "((L L) L)", "(L L) * L", "((L L L) (L L)) * (L L) * L"]:
        forest = parse_forest(text)
        assert parse_forest(print_forest(forest)) == forest


def test_word_text_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        word = random_word(rng)
        assert parse_word(print_word(word)) == word


def test_random_forest_roundtrip():
    rng = random.Random(19)
    for _ in range(100):
        words = [random_word(rng) for _ in range(rng.randint(1, 4))]
        forest = ProductSpec(tuple(words)).to_forest()
        assert parse_forest(print_forest(forest)) == forest
        assert forest.dimension == sum(w.dimension for w in words)
        # the same product written as mixed word/tree factors
        text = " * ".join(print_word(w) for w in words)
        assert parse_forest(text) == forest


def test_product_spec_needs_a_factor():
    with pytest.raises(ValueError):
        ProductSpec(())


# ---------------------------------------------------------------------------
# canonical form and isomorphism


def test_canonical_form_of_bush():
    assert canonical_form(bush(2)) == "((),())"
    with pytest.raises(ValueError, match="at least one leaf"):
        bush(0)
    with pytest.raises(ValueError, match="at least one tree"):
        RootedForest(())


def test_canonical_form_forgets_planarity():
    left = RootedTree((bush(2), LEAF))
    right = RootedTree((LEAF, bush(2)))
    assert canonical_form(left) == canonical_form(right)


def test_canonical_form_matches_permutation_iso_oracle():
    a = RootedTree((bush(2), bush(3)))
    b = RootedTree((bush(3), bush(2)))
    assert iso_by_permutation(a, b)
    assert canonical_form(a) == canonical_form(b)
    c = RootedTree((bush(2), bush(2)))
    assert not iso_by_permutation(a, c)
    assert canonical_form(a) != canonical_form(c)


def test_canonical_form_agrees_with_oracle_on_all_pairs_up_to_6():
    trees = [t for n in range(1, 7) for t in planar_trees(n)]
    rng = random.Random(5)
    sample = rng.sample(trees, 40)
    for a in sample[:20]:
        for b in sample[20:]:
            assert (canonical_form(a) == canonical_form(b)) == iso_by_permutation(a, b)


@given(st.integers(min_value=0, max_value=2**30))
def test_canonical_form_invariant_under_shuffles(seed):
    rng = random.Random(seed)
    word = random_word(rng)
    tree = word_to_tree(word)
    assert canonical_form(shuffled(tree, rng)) == canonical_form(tree)


def test_forest_isomorphism_examples():
    assert is_isomorphic(
        RootedForest((RootedTree((bush(2), LEAF)),)),
        RootedForest((RootedTree((LEAF, bush(2))),)),
    )
    assert not is_isomorphic(bush(3), RootedTree((bush(2), LEAF)))
    assert is_isomorphic(
        RootedForest((bush(2), LEAF)), RootedForest((LEAF, bush(2)))
    )


def test_forest_value_is_a_multiset():
    f1 = RootedForest((bush(2), LEAF, bush(2)))
    f2 = RootedForest((LEAF, bush(2), bush(2)))
    assert f1 == f2
    assert forest_canonical_form(f1) == forest_canonical_form(f2)


# ---------------------------------------------------------------------------
# ampleness


def test_point_is_ample():
    assert is_ample(LEAF)


def test_unary_root_is_not_ample():
    assert not is_ample(RootedTree((LEAF,)))


def test_internal_vertex_needs_valency_three():
    assert is_ample(RootedTree((bush(2), LEAF)))  # internal vertex has degree 3
    assert not is_ample(RootedTree((RootedTree((LEAF,)), LEAF)))  # degree-2 inside


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_one_leaf():
    assert enumerate_ample_trees(1) == [LEAF]


def test_enumerate_three_leaves():
    trees = enumerate_ample_trees(3)
    assert len(trees) == 2
    forms = {canonical_form(t) for t in trees}
    assert forms == {canonical_form(bush(3)), canonical_form(RootedTree((bush(2), LEAF)))}


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_ample_trees(17)
    with pytest.raises(CapExceeded):
        enumerate_ample_trees(5, cap=4)
    with pytest.raises(ValueError):
        enumerate_ample_trees(0)


def test_enumeration_is_sorted_and_duplicate_free():
    for n in range(1, 9):
        forms = [canonical_form(t) for t in enumerate_ample_trees(n)]
        assert forms == sorted(forms)
        assert len(set(forms)) == len(forms)
        assert all(t.leaf_count == n for t in enumerate_ample_trees(n))
        assert all(is_ample(t) for t in enumerate_ample_trees(n))


def test_enumeration_matches_planar_oracle_small():
    # full pipeline independence: planar generation, degree-count filter,
    # permutation-search dedupe
    for n in range(1, 7):
        reps = []
        for t in planar_trees(n):
            if not ample_by_degrees(t):
                continue
            if not any(iso_by_permutation(t, r) for r in reps):
                reps.append(t)
        assert len(enumerate_ample_trees(n)) == len(reps)


def test_counts_match_count_recursion():
    for n in range(1, 11):
        assert count_ample_trees(n) == len(enumerate_ample_trees(n))


def test_frozen_counts():
    # verified against the planar permutation-search oracle (n <= 8) and the
    # independent multiset-count recursion
    expected = [1, 1, 2, 5, 12, 33, 90, 261, 766, 2312, 7068, 21965]
    assert [count_ample_trees(n) for n in range(1, 13)] == expected


def test_counts_match_partition_sum():
    for n in range(1, 31):
        assert count_ample_trees(n) == partition_count(n)


def test_large_count_is_a_positive_int():
    count = count_ample_trees(500)
    assert type(count) is int and count > 0
    with pytest.raises(ValueError):
        count_ample_trees(0)


def test_enumeration_order_matches_recursive_canonical_sort():
    for n in range(1, 11):
        trees = enumerate_ample_trees(n)
        assert trees == sorted(trees, key=recursive_canonical)


def test_stored_canonical_form_matches_recursive_on_shuffles():
    rng = random.Random(23)
    for n in range(1, 9):
        for tree in enumerate_ample_trees(n):
            twin = shuffled(tree, rng)
            assert canonical_form(twin) == recursive_canonical(twin)
            assert canonical_form(twin) == recursive_canonical(tree)
    for _ in range(100):
        tree = shuffled(word_to_tree(random_word(rng, max_steps=6, max_k=4)), rng)
        assert canonical_form(tree) == recursive_canonical(tree)


# ---------------------------------------------------------------------------
# reference copies of the code paths the level-by-level construction, the
# list-based gluing and the stack-based printer replaced


def reference_ample_trees(n, memo={}):
    """Depth-first choice of non-decreasing (size, index) candidates under the
    root, then one sort of the level by canonical form."""
    if n == 1:
        return (LEAF,)
    if n in memo:
        return memo[n]
    candidates = [(1, LEAF)]
    for m in range(2, n):
        candidates.extend((m, t) for t in reference_ample_trees(m))
    found = []

    def extend(start, remaining, chosen):
        if remaining == 0:
            if len(chosen) >= 2:
                found.append(RootedTree(tuple(chosen)))
            return
        for idx in range(start, len(candidates)):
            size, sub = candidates[idx]
            if size > remaining:
                break
            chosen.append(sub)
            extend(idx, remaining - size, chosen)
            chosen.pop()

    extend(0, n, [])
    memo[n] = tuple(sorted(found, key=recursive_canonical))
    return memo[n]


def reference_word_to_tree(word):
    """Path copying: rebuild the root-to-leaf path for every gluing step."""

    def replace_leaf(tree, index, replacement):
        if not tree.children:
            return replacement
        kids = list(tree.children)
        for i, child in enumerate(kids):
            size = len(list(leaves_of(child)))
            if index < size:
                kids[i] = replace_leaf(child, index, replacement)
                return RootedTree(tuple(kids))
            index -= size

    def leaves_of(tree):
        if not tree.children:
            yield tree
        for child in tree.children:
            yield from leaves_of(child)

    if not word.steps:
        return LEAF
    (k1, _), *rest = word.steps
    tree = bush(k1 + 1)
    for k, l in rest:
        tree = replace_leaf(tree, l - 1, bush(k + 1))
    return tree


def recursive_print(tree):
    if not tree.children:
        return "L"
    return "(" + " ".join(recursive_print(c) for c in tree.children) + ")"


def size_partitions(n, smallest=1):
    """Partitions of n into parts >= smallest as ((size, multiplicity), ...)."""
    if n == 0:
        yield ()
        return
    for size in range(smallest, n + 1):
        for m in range(1, n // size + 1):
            for rest in size_partitions(n - size * m, size + 1):
                yield ((size, m),) + rest


@functools.lru_cache(maxsize=None)
def per_tree_ample_trees(n):
    """The level-by-level build before levels were built in bulk: one public
    `RootedTree(children)` call per tree, then a sort by the stored key."""
    if n == 1:
        return (LEAF,)
    level = []
    for parts in size_partitions(n):
        if parts == ((n, 1),):
            continue
        runs = [itertools.combinations_with_replacement(per_tree_ample_trees(s), m)
                for s, m in parts]
        level.extend(RootedTree(sum(kids, ())) for kids in itertools.product(*runs))
    level.sort(key=lambda t: t.canonical_key)
    return tuple(level)


class _Hashed:
    """Hashes to a given value, so a tuple of these hashes like a tuple of
    the objects whose hashes they carry."""

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def walked_hash(tree):
    """`RootedTree.__hash__` before hashes were kept: hash((children,)) over
    the whole tree, bottom-up, without reading any stored hash."""
    hashes = {}
    stack = [tree]
    while stack:
        node = stack[-1]
        if id(node) in hashes:
            stack.pop()
            continue
        todo = [c for c in node.children if id(c) not in hashes]
        if todo:
            stack += todo
            continue
        stack.pop()
        kids = hash(tuple(_Hashed(hashes[id(c)]) for c in node.children))
        hashes[id(node)] = hash((_Hashed(kids),))
    return hashes[id(tree)]


def test_bulk_levels_match_the_per_tree_build():
    for n in range(1, 13):
        got = enumerate_ample_trees(n)
        want = per_tree_ample_trees(n)
        assert [print_tree(t) for t in got] == [print_tree(t) for t in want]
        assert [t.canonical_key for t in got] == [t.canonical_key for t in want]
        assert [t.leaf_count for t in got] == [n] * len(want)
        for tree in got:
            rebuilt = RootedTree(tree.children)
            assert tree == rebuilt
            assert tree.canonical_key == rebuilt.canonical_key
            assert tree.leaf_count == rebuilt.leaf_count
            assert hash(tree) == walked_hash(tree) == hash(rebuilt)
            if n <= 10:  # repr walks the whole tree: seconds on the top levels
                assert repr(tree) == repr(rebuilt)


def test_the_leaf_key_is_the_greatest():
    # a tree with a leaf under its root is built from one on the level
    # below by a suffix edit of its key, which needs "()" to join last
    for n in range(2, 12):
        assert all(t.canonical_key < "()" for t in enumerate_ample_trees(n))


def test_root_leaf_trees_are_two_per_tree_below():
    # each tree on level n - 1 gives one tree with a leaf in front of its
    # root children and one with a leaf beside it, and nothing else has a
    # leaf under the root
    for n in range(3, 13):
        with_leaf = sum(LEAF in t.children for t in enumerate_ample_trees(n))
        assert with_leaf == 2 * count_ample_trees(n - 1)


def test_level_13_matches_the_per_tree_build():
    # 2.3 s alone on a 2-vCPU machine (1.5 s once the levels below are
    # cached), most of it the per-tree build; repr and the per-tree rebuild
    # would add seconds here, so only levels 1..12 check them
    got = enumerate_ample_trees(13)
    want = per_tree_ample_trees(13)
    assert [t.canonical_key for t in got] == [t.canonical_key for t in want]
    assert [print_tree(t) for t in got] == [print_tree(t) for t in want]


def test_enumeration_matches_reference_dfs():
    for n in range(1, 12):
        got = enumerate_ample_trees(n)
        want = reference_ample_trees(n)
        assert [print_tree(t) for t in got] == [recursive_print(t) for t in want]
        assert [canonical_form(t) for t in got] == [recursive_canonical(t) for t in want]
        assert got == list(want)


def test_word_to_tree_matches_path_copying_reference():
    rng = random.Random(31)
    for _ in range(300):
        word = random_word(rng, max_steps=8, max_k=3)
        assert word_to_tree(word) == reference_word_to_tree(word)


def test_print_tree_matches_recursive_printer():
    rng = random.Random(37)
    trees = [shuffled(t, rng) for n in range(1, 8) for t in enumerate_ample_trees(n)]
    trees += [word_to_tree(random_word(rng, max_steps=8, max_k=3)) for _ in range(100)]
    for tree in trees:
        assert print_tree(tree) == recursive_print(tree)


# ---------------------------------------------------------------------------
# the frozen, slotted tree value


def test_rooted_tree_is_frozen_and_slotted():
    tree = RootedTree((bush(2), LEAF))
    for name, value in (("children", ()), ("canonical_key", "()"), ("leaf_count", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tree, name, value)
    assert not hasattr(tree, "__dict__")
    assert not hasattr(LEAF, "__dict__")


def test_equality_and_hash_ignore_the_stored_key():
    left = RootedTree((bush(2), LEAF))
    right = RootedTree((LEAF, bush(2)))
    assert canonical_form(left) == canonical_form(right)
    assert left != right
    twin = RootedTree((bush(2), LEAF))
    object.__setattr__(twin, "canonical_key", "tampered")
    object.__setattr__(twin, "leaf_count", 0)
    assert twin == left and hash(twin) == hash(left)


def test_repr_shows_children_only():
    assert repr(LEAF) == "RootedTree(children=())"
    assert repr(bush(2)) == (
        "RootedTree(children=(RootedTree(children=()), RootedTree(children=())))"
    )


def test_pickle_and_deepcopy_keep_the_stored_fields():
    tree = word_to_tree(TwistWord(((2, 1), (1, 3), (3, 2))))
    for twin in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert twin == tree and twin is not tree
        assert twin.canonical_key == tree.canonical_key == recursive_canonical(tree)
        assert twin.leaf_count == tree.leaf_count == 7


def test_deep_tree_pickles_and_deepcopies():
    steps = ((1, 1),) + tuple((1, j) for j in range(2, 1501))  # each on the last leaf
    tree = word_to_tree(TwistWord(steps))
    twins = [pickle.loads(pickle.dumps(tree, protocol=p))
             for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    twins += [copy.deepcopy(tree), copy.copy(tree)]
    for twin in twins:
        assert twin == tree and twin is not tree
        assert print_tree(twin) == print_tree(tree)
        assert twin.canonical_key == tree.canonical_key
        assert twin.leaf_count == tree.leaf_count == 1501
    wide = RootedTree((bush(3), word_to_tree(TwistWord(((2, 1), (1, 3)))), LEAF))
    for twin in (pickle.loads(pickle.dumps(wide)), copy.deepcopy(wide)):
        assert print_tree(twin) == print_tree(wide) == "((L L L) (L L (L L)) L)"
        assert twin.canonical_key == recursive_canonical(wide)
    assert copy.deepcopy(LEAF) == LEAF


def test_deep_word_builds_without_recursion():
    steps = ((1, 1),) + tuple((1, j) for j in range(2, 1501))  # each on the last leaf
    tree = word_to_tree(TwistWord(steps))
    assert tree.leaf_count == 1501
    assert print_tree(tree) == "(L " * 1500 + "L" + ")" * 1500
    key = "()"
    for _ in range(1500):
        key = "(" + key + ",())"  # "((" sorts before "()"
    assert canonical_form(tree) == key
    assert is_isomorphic(tree, tree)
    assert is_ample(tree)
    assert tree.vertex_count == 1500 + 1501
    unary = RootedTree((LEAF,))
    for _ in range(1500):
        unary = RootedTree((LEAF, unary))
    assert not is_ample(unary)  # the one unary vertex is the deepest
    assert unary.vertex_count == 2 * 1500 + 2


@dataclasses.dataclass(frozen=True)
class GeneratedTree:
    """What the dataclass decorator generates for a tree: recursive equality,
    hash and repr over `children`."""

    children: tuple = ()


def generated(tree):
    return GeneratedTree(tuple(generated(c) for c in tree.children))


def test_eq_hash_and_repr_match_the_generated_ones():
    rng = random.Random(4242)
    trees = [t for n in range(1, 7) for t in enumerate_ample_trees(n)]
    trees += [word_to_tree(random_word(rng, 6)) for _ in range(40)]
    trees += [RootedTree((LEAF,)), RootedTree((RootedTree((LEAF,)),))]
    mirrors = [generated(t) for t in trees]
    for tree, mirror in zip(trees, mirrors):
        assert hash(tree) == hash(mirror) == hash((tree.children,))
        assert repr(tree) == repr(mirror).replace("GeneratedTree(", "RootedTree(")
    for (a, ma), (b, mb) in itertools.product(zip(trees, mirrors), repeat=2):
        assert (a == b) is (ma == mb)
    assert RootedTree().__eq__(GeneratedTree()) is NotImplemented


def test_deep_tree_repr_hash_equality_and_literal():
    steps = ((1, 1),) + tuple((1, j) for j in range(2, 1501))  # each on the last leaf
    tree = word_to_tree(TwistWord(steps))
    twin = word_to_tree(TwistWord(steps))
    literal = "(L " * 1500 + "L" + ")" * 1500
    parsed = parse_forest(literal).trees[0]
    leaf = "RootedTree(children=())"
    assert repr(tree) == f"RootedTree(children=({leaf}, " * 1500 + leaf + "))" * 1500
    assert tree == twin == parsed and twin is not tree
    assert hash(tree) == hash(twin) == hash(parsed) == hash((tree.children,))
    assert len({tree, twin, parsed}) == 1
    other = word_to_tree(TwistWord(steps[:-1] + ((2, 1500),)))
    assert tree != other and other.leaf_count == tree.leaf_count + 1
    assert RootedForest((tree, LEAF)) == RootedForest((LEAF, parsed))


def test_kept_hashes_match_the_walked_hash():
    rng = random.Random(99)
    steps = ((1, 1),) + tuple((1, j) for j in range(2, 1501))  # each on the last leaf
    deep = word_to_tree(TwistWord(steps))
    trees = [deep, pickle.loads(pickle.dumps(deep)), copy.deepcopy(deep)]
    trees += [word_to_tree(random_word(rng, max_steps=8, max_k=3)) for _ in range(200)]
    trees += [shuffled(t, rng) for t in enumerate_ample_trees(8)]
    shared = bush(3)
    trees += [RootedTree((shared, shared, RootedTree((shared, LEAF))))]
    for tree in trees:
        assert tree is LEAF or _hash_of(tree) is None  # new trees, pickled ones too
        want = walked_hash(tree)
        assert hash(tree) == want and _hash_of(tree) == want
        assert hash(tree) == want  # read back from the slot
