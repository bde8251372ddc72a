import itertools
import math
import random

import pytest

from elemdiff.errors import PreconditionError
from elemdiff.multiindex import MultiIndex, enumerate_multi_indices, project_arities
from elemdiff.trees import Permutation, enumerate_trees, relabel, trees_with_arities
from oracles import all_permutations, relabel_multi_index


def test_enumeration_counts():
    # weak compositions of n-1 into n parts: C(2n-2, n-1)
    for n in range(1, 6):
        mis = enumerate_multi_indices(n)
        assert len(mis) == math.comb(2 * n - 2, n - 1)
        assert len(set(mis)) == len(mis)
        for mi in mis:
            assert sum(mi.arities) == n - 1


def test_validation():
    with pytest.raises(PreconditionError):
        MultiIndex((1, 1))  # sums to 2, needs 1
    with pytest.raises(PreconditionError):
        MultiIndex((2, -1, 1, 0))
    with pytest.raises(PreconditionError):
        MultiIndex(())


def test_projection_fibers_cover_everything():
    # every multi-index is hit, and fiber sizes add up to the tree count
    for n in (3, 4):
        fibers = {mi: 0 for mi in enumerate_multi_indices(n)}
        for t in enumerate_trees(n):
            fibers[project_arities(t)] += 1
        assert all(size > 0 for size in fibers.values())
        assert sum(fibers.values()) == n ** (n - 1)


def test_projection_reads_off_child_counts():
    trees = trees_with_arities([(2, 0, 1, 0)])
    assert trees
    for t in trees:
        assert project_arities(t) == MultiIndex((2, 0, 1, 0))
        for v in t.vertices:
            assert len(t.children(v)) == (2, 0, 1, 0)[v - 1]


def test_trees_with_arities_exhaustive():
    # rooted trees on [n] with vertex v parenting a_v others: (n-1)!/prod a_v!
    # (Stanley, EC2 5.3); over all vectors they are Cayley's n^(n-1)
    for n in range(1, 7):
        total = 0
        for mi in enumerate_multi_indices(n):
            trees = trees_with_arities([mi.arities])
            assert len(trees) == (math.factorial(n - 1)
                                  // math.prod(map(math.factorial, mi.arities)))
            assert all(t.size == n and project_arities(t) == mi for t in trees)
            total += len(trees)
        assert total == n ** (n - 1)


def test_relabel_equivariance():
    # projecting after a relabel = permuting the arity vector
    rng = random.Random(19)
    trees = enumerate_trees(4)
    perms = all_permutations(4)
    for _ in range(60):
        t = rng.choice(trees)
        s = rng.choice(perms)
        assert project_arities(relabel(t, s)) == relabel_multi_index(project_arities(t), s)


def test_relabel_multi_index_is_group_action():
    mis = enumerate_multi_indices(3)
    perms = all_permutations(3)
    for mi in mis:
        assert relabel_multi_index(mi, Permutation.identity(3)) == mi
        for s1, s2 in itertools.product(perms, repeat=2):
            once = relabel_multi_index(relabel_multi_index(mi, s1), s2)
            assert once == relabel_multi_index(mi, s2.compose(s1))


def test_orbit_codes():
    # orbits of MI(5) under relabelling = partitions of 4 into at most 5 parts
    codes = {mi.orbit_code() for mi in enumerate_multi_indices(5)}
    assert len(codes) == 5
    for mi in enumerate_multi_indices(4):
        for s in all_permutations(4):
            assert relabel_multi_index(mi, s).orbit_code() == mi.orbit_code()


def test_text_round_trip():
    for mi in enumerate_multi_indices(4):
        assert MultiIndex.parse(mi.text()) == mi
    assert MultiIndex.parse("z[(1,2)(2,0)(3,1)(4,0)]") == MultiIndex((2, 0, 1, 0))
    with pytest.raises(PreconditionError):
        MultiIndex.parse("z[(1,1)(2,1)]")  # sums to 2, needs 1


def test_json_dict():
    obj = MultiIndex((2, 0, 1, 1, 0)).to_json_dict()
    assert obj == {"n": 5, "arity": [2, 0, 1, 1, 0]}
