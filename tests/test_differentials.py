import itertools
import random
import sys

import pytest

from elemdiff.differentials import (eval_multiindex, eval_tree, standard_identity_terms,
                                    standard_identity_tree_terms)
from elemdiff.errors import MismatchError, PreconditionError
from elemdiff.jets import Jet, add, monomials_up_to, truncate
from elemdiff.multiindex import enumerate_multi_indices, project_arities
from elemdiff.trees import Tree, chain_tree, enumerate_trees, find_sigma, relabel, retarget
from oracles import (
    all_permutations,
    corolla_witness_family,
    eval_at_zero,
    eval_tree_labelled,
    find_distinguishing_witness,
    graft_sum,
    is_zero,
    left_chain,
    monomial_inputs_as_jets,
    monomial_jet,
    monomial_term,
    pre_lie,
    random_jet,
    scale,
    standard_identity,
    tree_polynomial,
    tree_value_at_zero,
)


def test_single_vertex_is_the_input():
    rng = random.Random(1)
    f = random_jet(rng, 2, 3, 5)
    t = Tree([0])
    assert eval_tree(t, [f]) == f


def test_result_degree_is_worst_vertex():
    # each vertex spends one derivative per child on its input's degree
    D = 5
    rng = random.Random(2)
    star = Tree([0, 1, 1, 1])  # root has 3 children
    chain = chain_tree([1, 2, 3, 4])
    jets = [random_jet(rng, 2, D, 3) for _ in range(4)]
    assert eval_tree(star, jets).degree == D - 3
    assert eval_tree(chain, jets).degree == D - 1


def test_eval_walks_a_chain_past_the_recursion_limit():
    # each vertex of a chain reads 3 + x and differentiates it once, so the
    # value is the leaf's 3 times 1 per vertex above it
    n = sys.getrecursionlimit() + 1
    chain = chain_tree(range(1, n + 1))
    f = Jet(1, 1, [{(0,): 3, (1,): 1}])
    out = eval_tree(chain, [f] * n)
    assert out == Jet(1, 0, [{(0,): 3}])
    assert eval_at_zero(out) == tree_value_at_zero(chain, [f] * n)


def test_eval_rejects_shape_mismatch():
    rng = random.Random(3)
    t = Tree([0, 1])
    with pytest.raises(MismatchError):
        eval_tree(t, [random_jet(rng, 2, 3, 3), random_jet(rng, 3, 3, 3)])
    with pytest.raises(MismatchError):
        eval_tree(t, [random_jet(rng, 2, 3, 3)])


def test_eval_refuses_inputs_that_are_not_jets():
    # a mapping on the vertices is read as its keys; each is refused as
    # input, not failed on as an attribute
    rng = random.Random(3)
    t = Tree([0, 1])
    f, g = random_jet(rng, 2, 3, 3), random_jet(rng, 2, 3, 3)
    for inputs in ({1: f, 2: g}, [f, g.comps]):
        with pytest.raises(MismatchError, match="must be jets"):
            eval_tree(t, inputs)


def test_closed_form_matches_jet_route():
    # monomial inputs: closed-form falling factorials vs full jet evaluation
    rng = random.Random(4)
    d, D = 2, 4
    monos = monomials_up_to(d, D)
    for t in enumerate_trees(3):
        for _ in range(12):
            slots = {v: (rng.choice(monos), rng.randint(1, d)) for v in t.vertices}
            val = monomial_term(t, slots)
            jet = eval_tree(t, monomial_inputs_as_jets(t, slots, d, D))
            if val.coeff == 0:
                assert is_zero(jet)
                continue
            assert all(e >= 0 for e in val.exponent)
            if sum(val.exponent) <= jet.degree:
                assert jet.coeff(val.exponent, val.comp) == val.coeff
            # nothing else appears
            others = {
                (al, k)
                for k in range(1, d + 1)
                for al in jet.comps[k - 1]
                if jet.coeff(al, k) and (al, k) != (val.exponent, val.comp)
            }
            assert not others


def test_value_at_zero_matches_eval():
    rng = random.Random(5)
    for d in (1, 2, 3):
        for t in enumerate_trees(3):
            jets = [random_jet(rng, d, 3, 3) for _ in t.vertices]
            assert tree_value_at_zero(t, jets) == eval_at_zero(eval_tree(t, jets))


def test_tree_polynomial_matches_eval():
    rng = random.Random(6)
    d, D = 2, 5
    t = Tree([0, 1, 1])
    monos = monomials_up_to(d, 2)
    fam = {
        v: [(rng.randint(-2, 2), rng.choice(monos), rng.randint(1, d)) for _ in range(2)]
        for v in t.vertices
    }
    poly = tree_polynomial(t, fam)
    jets = []
    for v in t.vertices:
        acc = None
        for c, al, k in fam[v]:
            m = monomial_jet(d, D, al, k, coeff=c)
            acc = m if acc is None else add(acc, m)
        jets.append(acc)
    out = eval_tree(t, jets)
    for (exponent, comp), q in poly.items():
        if sum(exponent) <= out.degree:
            assert out.coeff(exponent, comp) == q
    for k in range(1, d + 1):
        for al, q in out.comps[k - 1].items():
            if q:
                assert poly.get((al, k), 0) == q


# ---------------------------------------------------------------------------
# the d=1 factorization: the tree value only sees child counts


def fixed_scalar_tuple(rng, n, D):
    return [random_jet(rng, 1, D, 4) for _ in range(n)]


def test_scalar_eval_factors_through_arities_exhaustive():
    rng = random.Random(7)
    for n in (2, 3, 4):
        jets = fixed_scalar_tuple(rng, n, n + 1)
        seen = {}
        for t in enumerate_trees(n):
            mi = project_arities(t)
            got = eval_tree(t, jets)
            assert got == eval_multiindex(mi, jets)
            if mi in seen:
                assert seen[mi] == got
            else:
                seen[mi] = got


def test_scalar_eval_factors_n5_sampled():
    rng = random.Random(8)
    jets = fixed_scalar_tuple(rng, 5, 6)
    for t in enumerate_trees(5):
        assert eval_tree(t, jets) == eval_multiindex(project_arities(t), jets)


def test_multiindex_values_separate_multi_indices():
    # scalar values pin down the arity vector: distinct z^m disagree somewhere
    rng = random.Random(9)
    for n in (3, 4):
        tuples = [fixed_scalar_tuple(rng, n, n + 1) for _ in range(3)]
        signatures = {}
        for mi in enumerate_multi_indices(n):
            sig = tuple(eval_multiindex(mi, tup) for tup in tuples)
            assert sig not in signatures.values()
            signatures[mi] = sig


def test_eval_multiindex_demands_scalars():
    rng = random.Random(10)
    mi = enumerate_multi_indices(3)[0]
    with pytest.raises(MismatchError):
        eval_multiindex(mi, [random_jet(rng, 2, 3, 3) for _ in range(3)])


def test_eval_multiindex_refuses_inputs_that_are_not_jets():
    rng = random.Random(10)
    mi = enumerate_multi_indices(3)[0]
    f = random_jet(rng, 1, 3, 3)
    for inputs in ({1: f, 2: f, 3: f}, [f, f, f.comps[0]]):
        with pytest.raises(MismatchError, match="must be jets"):
            eval_multiindex(mi, inputs)


# ---------------------------------------------------------------------------
# symmetry of the evaluation


def test_relabel_equivariance():
    rng = random.Random(11)
    for n in (3, 4):
        trees = enumerate_trees(n)
        perms = all_permutations(n)
        for _ in range(15):
            t = rng.choice(trees)
            s = rng.choice(perms)
            jets = [random_jet(rng, 2, n + 1, 3) for _ in range(n)]
            left = eval_tree(relabel(t, s), jets)
            right = eval_tree(t, [jets[s(v) - 1] for v in t.vertices])
            assert left == right


def test_retargeted_trees_share_values_only_in_one_variable():
    # in d=1 retargeting moves the tree inside one fiber, value is unchanged;
    # the corolla witnesses then separate the same pair once d=2 is allowed
    rng = random.Random(12)
    jets1 = fixed_scalar_tuple(rng, 4, 5)
    separated = 0
    for t in enumerate_trees(4):
        for s in all_permutations(4)[:8]:
            res = retarget(t, s)
            if res is None or res == t:
                continue
            assert eval_tree(t, jets1) == eval_tree(res, jets1)
            w = find_distinguishing_witness(t, res)
            assert w is not None
            separated += 1
    assert separated > 0


def test_witness_none_for_equal_trees():
    t = Tree([0, 1, 2])
    assert find_distinguishing_witness(t, t) is None


def test_corolla_family_shape():
    t = Tree([0, 1, 1, 2])
    fam = corolla_witness_family(t, 1)
    assert set(fam) == {1, 2, 3, 4}
    assert len(fam[1]) == 2  # watched vertices carry the two-term input
    assert len(fam[4]) == 1


# ---------------------------------------------------------------------------
# grafting and the product on jets


def sum_to_common_degree(values):
    dd = min(v.degree for v in values)
    acc = None
    for v in values:
        v = truncate(v, dd)
        acc = v if acc is None else add(acc, v)
    return acc


def test_grafting_turns_into_pre_lie():
    rng = random.Random(13)
    stock = Tree([0, 1])
    scion = Tree([0, 1])  # vertices 3 and 4 of each graft
    for d in (1, 2):
        jets = [random_jet(rng, d, 5, 2) for _ in range(4)]
        vals = [eval_tree(g, jets) for g in graft_sum(scion, stock)]
        rhs = pre_lie(eval_tree(stock, jets[:2]), eval_tree(scion, jets[2:]))
        dd = min(min(v.degree for v in vals), rhs.degree)
        lhs = sum_to_common_degree([truncate(v, dd) for v in vals])
        assert lhs == truncate(rhs, dd)


def test_pre_lie_right_symmetry():
    # associator symmetric in the last two arguments, any d
    rng = random.Random(14)
    for d in (1, 2, 3):
        f, g, h = (random_jet(rng, d, 4, 2) for _ in range(3))
        a1, a2 = pre_lie(pre_lie(f, g), h), pre_lie(f, pre_lie(g, h))
        b1, b2 = pre_lie(pre_lie(f, h), g), pre_lie(f, pre_lie(h, g))
        dd = min(x.degree for x in (a1, a2, b1, b2))
        lhs = add(truncate(a1, dd), scale(-1, truncate(a2, dd)))
        rhs = add(truncate(b1, dd), scale(-1, truncate(b2, dd)))
        assert lhs == rhs


def test_pre_lie_not_associative():
    rng = random.Random(15)
    f, g, h = (random_jet(rng, 2, 4, 2) for _ in range(3))
    a1, a2 = pre_lie(pre_lie(f, g), h), pre_lie(f, pre_lie(g, h))
    dd = min(a1.degree, a2.degree)
    assert truncate(a1, dd) != truncate(a2, dd)


# ---------------------------------------------------------------------------
# chains and the alternating identity


def test_left_chain_is_a_chain_tree():
    rng = random.Random(16)
    for d in (1, 2):
        jets = [random_jet(rng, d, 6, 2) for _ in range(4)]
        order = [2, 3, 1]
        via_chain = left_chain(order, jets)
        t = chain_tree(order + [4])
        via_tree = eval_tree(t, jets)
        assert via_chain == via_tree


def test_left_chain_validates_order():
    rng = random.Random(17)
    jets = [random_jet(rng, 1, 4, 2) for _ in range(3)]
    with pytest.raises(PreconditionError):
        left_chain([1, 1], jets)
    with pytest.raises(PreconditionError):
        left_chain([1, 2, 3], jets)


def test_standard_identity_terms_alternate():
    terms = standard_identity_terms(2)
    assert len(terms) == 24
    assert sum(sign for sign, _ in terms) == 0
    assert ({order for _, order in terms}
            == set(itertools.permutations(range(1, 5))))


def test_standard_identity_tree_route_agrees():
    rng = random.Random(18)
    for d in (1, 2):
        jets = [random_jet(rng, d, 5, 2) for _ in range(3)]
        direct = standard_identity(jets)
        via_trees = None
        for q, t in standard_identity_tree_terms(1):
            v = scale(q, eval_tree(t, jets))
            via_trees = v if via_trees is None else add(via_trees, v)
        assert direct == via_trees


def test_alternating_sum_on_three_vanishes_in_one_variable():
    rng = random.Random(19)
    for _ in range(5):
        jets = [random_jet(rng, 1, 5, 3) for _ in range(3)]
        assert is_zero(standard_identity(jets))


def test_alternating_sum_on_three_survives_two_variables():
    rng = random.Random(20)
    hits = 0
    for _ in range(8):
        jets = [random_jet(rng, 2, 5, 3) for _ in range(3)]
        if not is_zero(standard_identity(jets)):
            hits += 1
    assert hits > 0


def test_alternating_sum_on_five_vanishes_in_two_variables():
    # spot check on random jets; the exhaustive certificate lives elsewhere
    rng = random.Random(21)
    jets = [random_jet(rng, 2, 5, 2) for _ in range(5)]
    assert is_zero(standard_identity(jets))


# ---------------------------------------------------------------------------
# labelled evaluation


def test_labelled_eval_routes_inputs():
    rng = random.Random(22)
    t = Tree([0, 1, 1])
    jets = [random_jet(rng, 2, 4, 3) for _ in range(2)]
    lab = eval_tree_labelled(t, [2, 1, 1], jets)
    plain = eval_tree(t, [jets[1], jets[0], jets[0]])
    assert lab == plain
    with pytest.raises(PreconditionError):
        eval_tree_labelled(t, [1, 3, 1], jets)
    with pytest.raises(MismatchError):
        eval_tree_labelled(t, [1, 2], jets)


def test_labelled_eval_retarget_invariant_in_one_variable():
    # retargeting rewires parents but keeps each vertex's child count, and a
    # scalar value only reads (child count, label) per vertex
    rng = random.Random(23)
    jets = [random_jet(rng, 1, 5, 3) for _ in range(2)]
    labels = [1, 2, 1]
    t1 = chain_tree([1, 2, 3])
    t2 = chain_tree([2, 1, 3])
    find_sigma(t1, t2)  # same arity profile, so the pair is retarget-connected
    assert (eval_tree_labelled(t1, labels, jets)
            == eval_tree_labelled(t2, labels, jets))
