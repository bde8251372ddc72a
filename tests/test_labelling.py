import itertools
import math
import random
import sys

import pytest

from elemdiff import (
    LabelledObject,
    MismatchError,
    PreconditionError,
    RunConfig,
    SizeLimitError,
    canonicalize_labelled,
    chain_tree,
    dimension_labelled,
    enumerate_labelled,
    enumerate_trees,
    relabel,
)
from elemdiff.trees import ROOT
from oracles import (all_colourings, all_permutations, eval_tree_labelled, identify,
                     multiplicities, random_jet)

CFG = RunConfig()


def sn_lex_min(base, labels):
    # oracle: the least (parent list, colours) over all n! relabellings
    n = base.size

    def moved(sigma):  # vertex v renamed sigma[v-1], colours carried along
        parents, colours = [ROOT] * n, [0] * n
        for v, (p, colour) in enumerate(zip(base.parents, labels)):
            parents[sigma[v] - 1] = ROOT if p == ROOT else sigma[p - 1]
            colours[sigma[v] - 1] = colour
        return tuple(parents), tuple(colours)

    return min(map(moved, itertools.permutations(range(1, n + 1))))


def orbit_count_brute(n, ell):
    # Burnside over the diagonal action: tree fixed and labels constant on cycles
    perms = all_permutations(n)
    total = 0
    for s in perms:
        fixed_trees = sum(1 for t in enumerate_trees(n) if relabel(t, s) == t)
        ncycles = len({tuple(sorted(_cycle(s, v))) for v in range(1, n + 1)})
        total += fixed_trees * ell ** ncycles
    return total // math.factorial(n)


def _cycle(s, v):
    out = [v]
    w = s(v)
    while w != v:
        out.append(w)
        w = s(w)
    return out


def test_validation():
    t = chain_tree([1, 2, 3])
    with pytest.raises(MismatchError):
        LabelledObject(t, (1, 2))
    with pytest.raises(PreconditionError):
        LabelledObject(t, (1, 0, 2))


def test_canonicalize_matches_the_sn_search():
    # every tree with n <= 4 under up to 3 colours, then samples at n = 5, 6
    for n in range(1, 5):
        for t in enumerate_trees(n):
            for labels in itertools.product((1, 2, 3), repeat=n):
                obj = canonicalize_labelled(t, labels)
                assert (obj.tree.parents, obj.labels) == sn_lex_min(t, labels)
    rng = random.Random(5)
    for n, samples in ((5, 150), (6, 60)):
        trees = enumerate_trees(n)
        for _ in range(samples):
            t = rng.choice(trees)
            labels = tuple(rng.randint(1, 3) for _ in range(n))
            obj = canonicalize_labelled(t, labels)
            assert (obj.tree.parents, obj.labels) == sn_lex_min(t, labels)


def test_canonicalize_walks_a_chain_past_the_recursion_limit():
    n = sys.getrecursionlimit() + 1
    obj = canonicalize_labelled(chain_tree(range(n, 0, -1)), range(1, n + 1))
    assert obj.tree.parents == tuple(range(n))
    assert obj.labels == tuple(range(n, 0, -1))


def test_canonicalize_idempotent_and_orbit_invariant():
    rng = random.Random(1)
    perms = all_permutations(4)
    for _ in range(40):
        t = rng.choice(enumerate_trees(4))
        labels = tuple(rng.randint(1, 3) for _ in range(4))
        obj = canonicalize_labelled(t, labels)
        assert canonicalize_labelled(obj.tree, obj.labels) == obj
        s = rng.choice(perms)
        moved = relabel(t, s)
        transported = [0] * 4
        for v in range(1, 5):
            transported[s(v) - 1] = labels[v - 1]
        assert canonicalize_labelled(moved, tuple(transported)) == obj


def test_enumeration_matches_burnside():
    for n, ell in ((2, 2), (3, 2), (3, 3), (4, 2)):
        assert len(all_colourings(n, ell)) == orbit_count_brute(n, ell)


def test_enumeration_is_partitioned_by_profile():
    n, ell = 3, 2
    whole = {(o.tree, o.labels) for o in all_colourings(n, ell)}
    pieces = set()
    for profile in ((3, 0), (2, 1), (1, 2), (0, 3)):
        part = enumerate_labelled(profile)
        for o in part:
            assert multiplicities(o, ell) == profile
            pieces.add((o.tree, o.labels))
    assert pieces == whole


def _compositions_of(n):
    # every colour profile of n vertices with no empty colour
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions_of(n - first):
            yield (first,) + rest


def test_enumeration_matches_brute_force_lex_min():
    # oracle: the S_n search on every (tree, labels) pair, deduplicated
    for n in range(1, 5):
        for profile in _compositions_of(n):
            brute = set()
            for tree in enumerate_trees(n):
                for labels in set(itertools.permutations(
                        [c for c, k in enumerate(profile, start=1) for _ in range(k)])):
                    brute.add(sn_lex_min(tree, labels))
            got = enumerate_labelled(profile)
            assert len(set(got)) == len(got)
            assert {(o.tree.parents, o.labels) for o in got} == brute
            assert got == sorted(got, key=lambda o: (o.tree.parents, o.labels))
    assert len(enumerate_labelled((3, 2))) == 63
    assert len(enumerate_labelled((4, 1))) == 35
    with pytest.raises(SizeLimitError):
        enumerate_labelled((9,))


@pytest.mark.parametrize("profile", [*_compositions_of(5), (6,), (3, 3)],
                         ids=lambda p: ",".join(map(str, p)))
def test_enumeration_past_n4_is_canonical_distinct_and_sorted(profile):
    # the S_n search fixes every representative, so no two share an orbit
    got = enumerate_labelled(profile)
    for o in got:
        assert sn_lex_min(o.tree, o.labels) == (o.tree.parents, o.labels)
    assert len(set(got)) == len(got)
    assert got == sorted(got, key=lambda o: (o.tree.parents, o.labels))
    if sum(profile) == 6:
        assert len(got) == {(6,): 20, (3, 3): 268}[profile]


def test_trees_come_root_first_then_by_parent_list():
    # enumerate_trees' order: one block per root, parent lists ascending
    for n in range(1, 7):
        trees = enumerate_trees(n)
        assert trees == sorted(trees, key=lambda t: (t.root, t.parents))
        lead = n ** (n - 1) // n
        assert all(t.root == 1 for t in trees[:lead])
        assert all(t.root != 1 for t in trees[lead:])


def test_walk_budget_refuses_before_enumerating(monkeypatch):
    from elemdiff import labelling

    def fail(tree, labels):
        raise AssertionError("enumerated past the budget")

    monkeypatch.setattr(labelling, "_lex_min", fail)  # grows the shapes
    with pytest.raises(SizeLimitError):
        enumerate_labelled((1,) * 7)      # 7^5 x 7! colourings
    with pytest.raises(SizeLimitError):
        enumerate_labelled((9,))          # 9^7 alone
    with pytest.raises(SizeLimitError):
        enumerate_labelled((10**9,))


def test_enumeration_validation():
    with pytest.raises(PreconditionError, match="need n >= 1"):
        enumerate_labelled((0, 0))
    with pytest.raises(PreconditionError, match="colour counts must be nonnegative"):
        enumerate_labelled((2, -1, 2))


def test_multiplicities():
    obj = LabelledObject(chain_tree([1, 2, 3]), (2, 1, 2))
    assert multiplicities(obj) == (1, 2)
    assert multiplicities(obj, 4) == (1, 2, 0, 0)
    with pytest.raises(PreconditionError):
        multiplicities(obj, 1)


def test_identify_functorial():
    rng = random.Random(2)
    objs = all_colourings(4, 3)
    phi = {1: 2, 2: 1, 3: 2}   # [3] -> [2]
    psi = {1: 1, 2: 3, 3: 2}   # [3] -> [3]
    for obj in rng.sample(objs, 25):
        assert identify(lambda x: x, obj) == obj
        assert identify(phi, identify(psi, obj)) == identify(
            {k: phi[psi[k]] for k in psi}, obj)


def test_identify_multiplicity_law():
    phi = {1: 2, 2: 1, 3: 2}
    for obj in all_colourings(3, 3)[:30]:
        m = multiplicities(obj, 3)
        m2 = multiplicities(identify(phi, obj), 2)
        assert m2 == (m[1], m[0] + m[2])


def test_identify_commutes_with_evaluation():
    # pushing colours through phi = feeding the composed input list
    rng = random.Random(3)
    jets2 = [random_jet(rng, 2, 5, 3) for _ in range(2)]
    phi = {1: 2, 2: 1, 3: 2}
    jets3 = [jets2[phi[i] - 1] for i in (1, 2, 3)]
    for obj in rng.sample(all_colourings(4, 3), 20):
        pushed = identify(phi, obj)
        lhs = eval_tree_labelled(pushed.tree, pushed.labels, jets2)
        rhs = eval_tree_labelled(obj.tree, obj.labels, jets3)
        assert lhs == rhs


def test_canonical_representative_evaluates_like_the_original():
    rng = random.Random(4)
    jets = [random_jet(rng, 2, 5, 3) for _ in range(2)]
    for _ in range(20):
        t = rng.choice(enumerate_trees(4))
        labels = tuple(rng.randint(1, 2) for _ in range(4))
        obj = canonicalize_labelled(t, labels)
        assert (eval_tree_labelled(t, labels, jets)
                == eval_tree_labelled(obj.tree, obj.labels, jets))


# ---------------------------------------------------------------------------
# labelled dimensions


def test_dimension_all_ones_matches_plain():
    from elemdiff import dimension_w
    lab = dimension_labelled(2, 3, (1, 1, 1), config=CFG)
    plain = dimension_w(2, 3, config=CFG)
    assert lab.certified and plain.certified
    assert lab.dimension == plain.dimension == 9


def test_dimension_single_colour():
    # one colour: rows are the unlabelled shapes
    cert = dimension_labelled(2, 3, (3,), config=CFG)
    assert cert.certified
    assert len(cert.rows) == 2
    assert cert.dimension == 2


def test_dimension_repeated_colour_collapses_in_one_variable():
    cert = dimension_labelled(1, 3, (2, 1), config=CFG)
    assert cert.certified
    assert len(cert.rows) == 5
    assert cert.dimension == 4
    cert2 = dimension_labelled(2, 3, (2, 1), config=CFG)
    assert cert2.certified
    assert cert2.dimension == 5  # the second variable separates the collapsed pair


@pytest.mark.parametrize("profile", [(2,), (3,), (2, 1), (4,), (3, 1), (2, 2), (2, 1, 1)],
                         ids=lambda p: ",".join(map(str, p)))
def test_repeated_colour_certificates_never_disagree(profile):
    # jets with coefficients in [-1, 1] make thin samples and false candidate
    # relations; the exact verifier must refuse those, at every seed
    n = sum(profile)
    truth = dimension_labelled(1, n, profile, config=CFG)
    assert truth.certified
    for seed in range(200):
        cfg = RunConfig(seed=seed, random_bound=1)
        cert = dimension_labelled(1, n, profile, config=cfg)
        assert cert.dimension in (None, truth.dimension), seed


def test_dimension_guard():
    # n <= 5 for every d; d ** n = 6 ** 5 = 7,776 component assignments exceed 4,096
    with pytest.raises(SizeLimitError):
        dimension_labelled(2, 6, (1,) * 6, config=CFG)
    with pytest.raises(SizeLimitError):
        dimension_labelled(6, 5, (2, 2, 1), config=CFG)
