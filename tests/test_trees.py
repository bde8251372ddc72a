import itertools
import math
import random

import pytest

from elemdiff.errors import MismatchError, PreconditionError
from elemdiff.labelling import canonicalize_labelled
from elemdiff.multiindex import enumerate_multi_indices, project_arities
from elemdiff.relations import _orbit_rows
from elemdiff.trees import (Permutation, Tree, _layout, chain_tree, enumerate_trees,
                            find_sigma, parent_lists, relabel, retarget, retarget_edges,
                            trees_with_arities)
from oracles import acyclic_parent_lists, all_permutations, graft_sum, is_linear

# Cayley: n^(n-1) labelled rooted trees on n vertices.
TREE_COUNTS = {1: 1, 2: 2, 3: 9, 4: 64, 5: 625, 6: 7776}

# Orbit counts under vertex relabelling = unlabelled rooted trees.
ORBIT_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 9}


def lex_min(tree, colours=None):
    # the orbit's name: its lex-min member, one colour unless colours are given
    return canonicalize_labelled(tree, colours or (1,) * tree.size)


def test_enumeration_counts():
    for n, count in TREE_COUNTS.items():
        trees = enumerate_trees(n)
        assert len(trees) == count
        assert len(set(trees)) == count


def test_enumerated_trees_are_valid_and_deterministic():
    trees = enumerate_trees(4)
    assert trees == enumerate_trees(4)  # stable order, callers may index into it
    for t in trees:
        assert t.size == 4
        assert tuple(t.vertices) == (1, 2, 3, 4)
        assert t.parents[t.root - 1] == 0


def test_orbit_rows_are_the_enumeration_filtered_by_orbit():
    # the builder over an orbit's vectors keeps `enumerate_trees` order
    for n in range(1, 6):
        trees = enumerate_trees(n)
        for code in {mi.orbit_code() for mi in enumerate_multi_indices(n)}:
            vectors = [mi.arities for mi in enumerate_multi_indices(n)
                       if mi.orbit_code() == code]
            assert trees_with_arities(vectors) == [
                t for t in trees if project_arities(t).orbit_code() == code]


def test_chain_orbit_rows_are_the_linear_trees():
    for n in range(1, 7):
        linear = [t for t in enumerate_trees(n) if is_linear(t)]
        assert _orbit_rows(n, ",".join(["1"] * (n - 1) + ["0"])) == linear
        assert len(linear) == math.factorial(n)
        # one arity vector per choice of the leaf: n of them
        assert len({project_arities(t) for t in linear}) == n


def test_trees_with_arities_past_the_full_enumeration():
    # at n = 7 the 7^6 = 117,649 trees are never built
    assert len(trees_with_arities([(1, 1, 1, 1, 1, 1, 0)])) == 720
    assert len(trees_with_arities([(2, 1, 1, 1, 1, 0, 0)])) == 360


def test_trees_with_arities_validation():
    assert trees_with_arities([]) == []
    with pytest.raises(PreconditionError):
        trees_with_arities([(1, 1)])  # sums to 2, needs 1
    with pytest.raises(PreconditionError):
        trees_with_arities([(1, 0), (2, 0, 0)])  # two vertex counts


def test_parent_list_round_trip():
    for t in enumerate_trees(4):
        assert Tree(list(t.parents)) == t


def test_tree_from_a_list_is_its_tuple():
    # a list of parents is stored as a tuple: hashable, equal to the tuple's
    # tree, and found among the enumerated trees
    t = Tree([0, 1])
    assert t.parents == (0, 1)
    assert hash(t) == hash(Tree((0, 1)))
    assert t == Tree((0, 1))
    assert t in enumerate_trees(2)
    assert t in set(enumerate_trees(2))


def test_tree_validation():
    with pytest.raises(PreconditionError):
        Tree([])
    with pytest.raises(PreconditionError):
        Tree([0, 0])  # two roots
    with pytest.raises(PreconditionError):
        Tree([2, 1])  # no root, 1 <-> 2 cycle
    with pytest.raises(PreconditionError):
        Tree([0, 5])  # parent not a vertex
    for parents in ((), (0, -1), (2, 1)):  # empty; parent below 0; no root
        with pytest.raises(PreconditionError):
            Tree(parents)
    for order in ([], [2, 3], [1, 1]):  # a chain lists each of 1..n once
        with pytest.raises(PreconditionError):
            chain_tree(order)


def test_validator_accepts_exactly_the_cayley_trees():
    # of the (n+1)^n tuples over 0..n, exactly the n^(n-1) parent lists are trees
    for n in range(1, 6):
        trees = set(parent_lists(n))
        assert len(trees) == n ** (n - 1)
        accepted = set()
        for parents in itertools.product(range(n + 1), repeat=n):
            try:
                Tree(parents)
            except PreconditionError:
                continue
            accepted.add(parents)
        assert accepted == trees


class _CountingParents(tuple):
    """A parent list that counts its reads, by index or by iteration."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)

    def __iter__(self):
        for p in super().__iter__():
            self.lookups += 1
            yield p


def test_layout_reads_each_parent_once():
    # a chain with its leaf at vertex 1: a walk from each vertex down to the
    # root takes quadratically many lookups in all; the breadth-first layout
    # that checks for cycles reads each parent once
    n = 2000
    chain = _CountingParents((*range(2, n + 1), 0))
    child_lists, order = _layout(chain)
    assert chain.lookups == n
    assert order == tuple(range(n, 0, -1))
    assert Tree(chain).order == order
    for parents in ((0, 3, 4, 2),   # a cycle off the root
                    (0, 1, 3)):     # a self-loop
        assert _layout(parents) is None
        with pytest.raises(PreconditionError):
            Tree(parents)
    assert _layout((0, 1, 1, 3)) == (((1,), (2, 3), (), (4,), ()), (1, 2, 3, 4))
    # a retarget that closes a cycle gives no tree
    assert retarget(chain_tree([1, 2, 3]), Permutation.from_cycles(3, (2, 3))) is None


def test_parent_lists_are_the_acyclic_candidates_in_order():
    # the rejection-free walk against the filter over all n^(n-1) candidates
    # per root, plain and for every arity vector's parent multiset
    for n in range(1, 7):
        assert list(parent_lists(n)) == acyclic_parent_lists(n)
        for mi in enumerate_multi_indices(n):
            multiset = [tuple(v for v, a in enumerate(mi.arities, start=1) for _ in range(a))]
            assert (list(parent_lists(n, multiset))
                    == acyclic_parent_lists(n, multiset)), mi.arities


def test_order_is_breadth_first_with_children_ascending():
    t = Tree([3, 0, 2, 2, 1, 3])
    assert t.order == (2, 3, 4, 1, 6, 5)
    for t in enumerate_trees(4):
        level, want = [t.root], []
        while level:  # level by level, each vertex's children ascending
            want += level
            level = [c for v in level
                     for c in sorted(c for c, p in enumerate(t.parents, start=1) if p == v)]
        assert t.order == tuple(want)


def test_children_sorted_and_consistent():
    t = Tree([0, 1, 1, 3, 1])
    assert t.root == 1
    assert t.children(1) == (2, 3, 5)
    assert t.children(3) == (4,)
    assert t.children(4) == ()
    assert set(t.edges()) == {(1, 2), (1, 3), (3, 4), (1, 5)}


# ---------------------------------------------------------------------------
# permutations


def test_permutation_basics():
    s = Permutation.from_cycles(5, (1, 2), (3, 4, 5))
    assert s(1) == 2 and s(2) == 1 and s(3) == 4 and s(5) == 3
    assert s.cycle_type() == (3, 2)
    assert s.sign() == -1
    assert s.fixed_points() == 0
    assert Permutation.identity(5).cycle_type() == (1, 1, 1, 1, 1)
    assert Permutation.identity(5).fixed_points() == 5


def test_permutation_group_laws():
    rng = random.Random(7)
    perms = all_permutations(4)
    assert len(perms) == 24
    for _ in range(30):
        a, b, c = (rng.choice(perms) for _ in range(3))
        assert a.compose(a.inverse()) == Permutation.identity(4)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))
        # compose(other) applies other first
        v = rng.randrange(1, 5)
        assert a.compose(b)(v) == a(b(v))


def test_permutation_sign_multiplicative():
    perms = all_permutations(4)
    for a, b in itertools.product(perms[:10], perms[:10]):
        assert a.compose(b).sign() == a.sign() * b.sign()


# ---------------------------------------------------------------------------
# relabelling (vertex names move, shape stays)


def test_relabel_is_group_action():
    trees = enumerate_trees(3)
    perms = all_permutations(3)
    for t in trees:
        assert relabel(t, Permutation.identity(3)) == t
        for s1, s2 in itertools.product(perms, repeat=2):
            assert relabel(relabel(t, s1), s2) == relabel(t, s2.compose(s1))


def test_relabel_action_sampled_n4():
    rng = random.Random(3)
    trees = enumerate_trees(4)
    perms = all_permutations(4)
    for _ in range(50):
        t = rng.choice(trees)
        s1, s2 = rng.choice(perms), rng.choice(perms)
        assert relabel(relabel(t, s1), s2) == relabel(t, s2.compose(s1))


def test_relabel_and_retarget_need_the_tree_degree():
    # a permutation of another degree would move the tree off {1..n}
    t = Tree([0, 1])
    for sigma in (Permutation((1, 3, 2)), Permutation((1,))):
        with pytest.raises(MismatchError):
            relabel(t, sigma)
        with pytest.raises(MismatchError):
            retarget(t, sigma)


def test_relabel_preserves_shape():
    t = Tree([0, 1, 2, 2])
    s = Permutation.from_cycles(4, (1, 4, 2))
    u = relabel(t, s)
    assert lex_min(u) == lex_min(t)
    assert u.root == s(t.root)


def test_orbit_counts_via_lex_min_member():
    for n, count in ORBIT_COUNTS.items():
        names = {lex_min(t) for t in enumerate_trees(n)}
        assert len(names) == count


def test_lex_min_member_separates_orbits():
    # two trees share a lex-min member iff some relabelling maps one onto the other
    trees = enumerate_trees(4)
    perms = all_permutations(4)
    for t1, t2 in itertools.combinations(trees[:20], 2):
        same_orbit = any(relabel(t1, s) == t2 for s in perms)
        assert same_orbit == (lex_min(t1) == lex_min(t2))
    # coloured: the relabelling must carry colours along as well
    def transported(colours, s):
        out = [0] * len(colours)
        for v, c in enumerate(colours, start=1):
            out[s(v) - 1] = c
        return tuple(out)

    coloured = [(t, c) for t in enumerate_trees(3)
                for c in itertools.product((1, 2, 12), repeat=3)]
    orbit = {x: {(relabel(x[0], s), transported(x[1], s)) for s in all_permutations(3)}
             for x in coloured}
    for x, y in itertools.combinations(coloured, 2):
        assert (y in orbit[x]) == (lex_min(*x) == lex_min(*y))


# ---------------------------------------------------------------------------
# retargeting (edges move their child endpoint, vertex degrees stay)


def test_retarget_identity_and_composition():
    trees = enumerate_trees(4)
    perms = all_permutations(4)
    rng = random.Random(5)
    for _ in range(60):
        t = rng.choice(trees)
        ident = Permutation.identity(4)
        assert retarget(t, ident) == t
        s1, s2 = rng.choice(perms), rng.choice(perms)
        edges = t.edges()
        assert retarget_edges(retarget_edges(edges, s1), s2) == retarget_edges(
            edges, s2.compose(s1)
        )


def test_retarget_preserves_arity_profile():
    t = Tree([0, 1, 1, 2])
    for s in all_permutations(4):
        res = retarget(t, s)
        if res is None:
            continue
        before = project_arities(t)
        after = project_arities(res)
        assert before == after  # out-degrees never move


def test_retarget_can_leave_the_tree_world():
    # swapping a parent-child pair creates a 2-cycle unless the pair is at the root
    t = chain_tree([1, 2, 3])
    sigma = Permutation.from_cycles(3, (2, 3))
    res = retarget(t, sigma)
    assert res is None
    assert len(retarget_edges(t.edges(), sigma)) == 2


def test_find_sigma_round_trip_exhaustive():
    for n in (2, 3, 4):
        groups = {}
        for t in enumerate_trees(n):
            groups.setdefault(tuple(project_arities(t).arities), []).append(t)
        for members in groups.values():
            for t1, t2 in itertools.product(members, repeat=2):
                sigma = find_sigma(t1, t2)
                res = retarget(t1, sigma)
                assert res is not None
                assert res == t2


def test_find_sigma_rejects_arity_mismatch():
    t1 = chain_tree([1, 2, 3])          # arities 1,1,0
    t2 = Tree([0, 1, 1])   # arities 2,0,0
    with pytest.raises(PreconditionError):
        find_sigma(t1, t2)
    with pytest.raises(MismatchError):
        find_sigma(t1, chain_tree([1, 2]))


# ---------------------------------------------------------------------------
# grafting


def test_graft_sum_structure():
    stock = Tree([0, 1])
    scion = Tree([0, 1])  # its vertex w is vertex 2 + w of a graft
    grafts = graft_sum(scion, stock)
    assert len(grafts) == stock.size
    roots = set()
    for g in grafts:
        assert g.size == 4
        assert g.root == stock.root
        # stock and scion edges survive; one new edge lands on scion's root
        assert set(stock.edges()) <= set(g.edges())
        assert {(2 + p, 2 + w) for p, w in scion.edges()} <= set(g.edges())
        roots.add(g.parents[2 + scion.root - 1])
    assert roots == set(stock.vertices)


def test_chain_tree_and_linearity():
    c = chain_tree([3, 1, 2])
    assert c.root == 3
    assert c.parents == (3, 1, 0)
    assert is_linear(c)
    assert not is_linear(Tree([0, 1, 1]))
    # a linear tree is an ordering of its labels root-down, so n! of them
    assert sum(1 for t in enumerate_trees(5) if is_linear(t)) == 120
    assert sum(1 for t in enumerate_trees(4) if is_linear(t)) == 24
