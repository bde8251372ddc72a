"""Acceptance gate: one test per numbered criterion, one verdict line each.

Run with -v to get the per-criterion PASS/FAIL lines from pytest itself.
Criteria 5 and 7 compare computed values against externally supplied
reference numbers.

Criterion 5 keeps the stated character rows as data.  Their (12)(34)
entries are errata: the stated fixed-point row fails Burnside's lemma, so
the test asserts the value that Burnside forces, and the difference-row
entry that the trace on the certified span gives, in their place.

Criterion 7 asserts the stated survivor set, the point stabilizer alone,
and fails.  The sieve in `constraint_scan` also admits the cyclic class
order4c under the stated difference row, not only under the computed one,
so this failure is independent of criterion 5.  The repo does not hold the
paper's own statement of the sieve, so the assertion is left as stated.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from elemdiff.cli import main as cli_main
from elemdiff.config import RunConfig
from elemdiff.differentials import eval_multiindex, eval_tree, standard_identity_tree_terms
from elemdiff.groups import (CharacterRow, conjugacy_classes, constraint_scan,
                             reduced_tree_character, sign_natural_character, subgroup_classes,
                             tree_fixed_character)
from elemdiff.jets import add, truncate
from elemdiff.labelling import canonicalize_labelled
from elemdiff.multiindex import enumerate_multi_indices, project_arities
from elemdiff.relations import (_orbit_rows, certify_relation, dimension_certificate, exact_rank,
                                trace_on_span)
from elemdiff.trees import Permutation, enumerate_trees, find_sigma, relabel, retarget
from oracles import (
    all_permutations,
    eval_tree_labelled,
    find_distinguishing_witness,
    graft_sum,
    identify,
    in_relation_span,
    monomial_jet,
    point_stabilizer_class,
    pre_lie,
    random_jet,
    scale,
)

CFG = RunConfig()


@pytest.fixture(scope="module")
def full_span_5():
    rows = enumerate_trees(5)
    cert = dimension_certificate(rows, 2, CFG)
    return rows, cert


@pytest.fixture(scope="module")
def linear_span_5():
    rows = _orbit_rows(5, "1,1,1,1,0")
    cert = dimension_certificate(rows, 2, CFG)
    return rows, cert


def verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------


def test_criterion_01_tree_counts():
    t0 = time.time()
    counts = [len(enumerate_trees(n)) for n in range(1, 6)]
    elapsed = time.time() - t0
    ok = counts == [1, 2, 9, 64, 625] and elapsed < 1.0
    verdict(1, ok, f"|RT(1..5)| = {counts} in {elapsed:.2f}s")
    assert counts == [1, 2, 9, 64, 625]
    assert elapsed < 1.0


def test_criterion_02_dimension_620_two_sided(full_span_5):
    rows, cert = full_span_5
    ok = (cert.certified and cert.dimension == 620
          and len(cert.minor_rows) == 620 and len(cert.minor_cols) == 620
          and len(cert.relations) == 5
          and all(rel.verified for rel in cert.relations))
    verdict(2, ok, f"status={cert.status} dim={cert.dimension} "
            f"minor={len(cert.minor_rows)}x{len(cert.minor_cols)} "
            f"relations={len(cert.relations)} all verified")
    assert cert.certified
    assert cert.dimension == 620
    assert len(cert.minor_rows) == len(cert.minor_cols) == 620
    assert len(cert.relations) == 5
    assert all(rel.verified for rel in cert.relations)


def test_criterion_03_nullspace_is_the_alternating_span(full_span_5):
    rows, cert = full_span_5
    nrows = len(rows)
    row_pos = {t: i for i, t in enumerate(rows)}

    # the 120 relabellings of the 24-term alternating chain sum
    base = standard_identity_tree_terms(2)
    perm_vectors = []
    for s in all_permutations(5):
        vec = [Fraction(0)] * nrows
        for q, t in base:
            vec[row_pos[relabel(t, s)]] += q
        perm_vectors.append(vec)

    members = all(in_relation_span(v, cert.relations) for v in perm_vectors)
    rank_perm = exact_rank([[int(x) for x in v] for v in perm_vectors],
                           method="gauss")[0]
    ok = len(cert.relations) == 5 and members and rank_perm == 5
    verdict(3, ok, f"nullspace dim={len(cert.relations)}, "
            f"all 120 permuted identities inside, their rank={rank_perm}")
    assert len(cert.relations) == 5
    assert members            # span(permuted identities) <= nullspace
    assert rank_perm == 5     # equal dimensions, so the spans coincide


def test_criterion_04_identity_certificates():
    r1 = certify_relation(standard_identity_tree_terms(1), 1)
    r2 = certify_relation(standard_identity_tree_terms(2), 2)
    r3 = certify_relation(standard_identity_tree_terms(2), 3)
    ok = r1.holds and r2.holds and (not r3.holds) and r3.witness is not None
    verdict(4, ok, f"arity3/d1 holds={r1.holds}; arity5/d2 holds={r2.holds} "
            f"({r2.tuples_checked} tuples); arity5/d3 holds={r3.holds} "
            f"witness={r3.witness.to_json_dict() if r3.witness else None}")
    assert r1.holds and r1.witness is None
    assert r2.holds and r2.witness is None
    assert not r3.holds
    w = r3.witness
    assert w is not None and w.value != 0
    # the witness names explicit monomials: slots are (exponent, component)
    assert all(len(alpha) == 3 for alpha, _ in w.slots)


def test_criterion_05_character_table_reference_values(full_span_5):
    rows, cert = full_span_5
    classes = conjugacy_classes(5)
    i_double = [cc.label for cc in classes].index("(12)(34)")
    stated_inf = (625, 27, 4, 3, 1, 0, 0)
    stated_v = (5, -3, 2, 1, -1, 0, 0)
    stated_2 = (620, 30, 2, 2, 2, 0, 0)
    got_inf = tree_fixed_character(5).values
    got_v = sign_natural_character(2).values
    got_2 = reduced_tree_character(2).values
    cross = trace_on_span(cert, Permutation.from_cycles(5, (1, 2, 3)))

    # The stated (12)(34) entries are errata.  Burnside: the class-size
    # weighted fixed-point counts sum to 5! times the 9 unlabelled rooted
    # trees on five vertices (A000081), and the stated row sums to 1050,
    # not 1080.  The other six stated entries force the (12)(34) value; by
    # hand, a tree fixed by (12)(34) has root 5, and 5 parent maps qualify.
    stated_sum = sum(cc.size * v for cc, v in zip(classes, stated_inf))
    others = stated_sum - classes[i_double].size * stated_inf[i_double]
    burnside_double, remainder = divmod(math.factorial(5) * 9 - others,
                                        classes[i_double].size)
    # the difference-row entry, read off the certified span itself
    trace_double = trace_on_span(cert, Permutation.from_cycles(5, (1, 2), (3, 4)))
    agree = [i for i in range(len(classes)) if i != i_double]

    ok = (cross == 2 == got_2[2] and got_v == stated_v
          and all(got_inf[i] == stated_inf[i] and got_2[i] == stated_2[i]
                  for i in agree)
          and got_inf[i_double] == burnside_double
          and got_2[i_double] == trace_double)
    verdict(5, ok, f"fixed-points {got_inf}; sign*natural {got_v}; "
            f"difference {got_2}; trace of (123) on the span = {cross}; "
            f"(12)(34): Burnside gives {burnside_double}, trace on the span "
            f"gives {trace_double}; erratum: stated {stated_inf} and "
            f"{stated_2} (Burnside sum {stated_sum}, not a multiple of 120)")
    assert cross == 2 == got_2[2]  # the cross-check itself agrees
    assert got_v == stated_v
    for i in agree:
        assert got_inf[i] == stated_inf[i]
        assert got_2[i] == stated_2[i]
    assert stated_sum == 1050 and stated_sum % math.factorial(5) != 0
    assert remainder == 0
    assert got_inf[i_double] == burnside_double     # 5, stated 3
    assert got_2[i_double] == trace_double          # 4, stated 2
    assert burnside_double - got_v[i_double] == trace_double


def test_criterion_06_linear_span_trace(linear_span_5):
    rows, cert = linear_span_5
    three_cycle = Permutation.from_cycles(5, (1, 2, 3))
    tr3 = trace_on_span(cert, three_cycle)
    tr_id = trace_on_span(cert, Permutation.identity(5))
    five_cycle = Permutation.from_cycles(5, (1, 2, 3, 4, 5))
    tr5 = trace_on_span(cert, five_cycle)
    ok = cert.certified and cert.dimension == 115 and tr3 == -2 and tr_id == 115
    verdict(6, ok, f"dim={cert.dimension} trace(123)={tr3} "
            f"trace(id)={tr_id} trace(12345)={tr5}")
    assert cert.certified
    assert cert.dimension == 115
    assert tr3 == -2
    assert tr_id == 115
    assert tr5 == 0


def test_criterion_07_subgroup_scan():
    t0 = time.time()
    classes = subgroup_classes(5)
    report = constraint_scan()
    elapsed = time.time() - t0
    survivor_labels = {s.subgroup.label for s in report.survivors}
    stabilizer = point_stabilizer_class(5)
    stab_row = next((s for s in report.survivors
                     if s.subgroup.label == stabilizer.label), None)
    ok = (len(classes) == 19 and survivor_labels == {stabilizer.label}
          and stab_row is not None and stab_row.final_lhs == 4
          and stab_row.final_rhs == 2 and stab_row.contradiction
          and elapsed < 10.0)

    # The sieve admits the cyclic class order4c, coset row (30,0,0,2,2,0,0),
    # under the computed difference row and under the stated one alike, so
    # this failure does not follow from the criterion-5 erratum.  Only the
    # fixed-point control row leaves the stated survivor set.
    def survivors_under(values, name):
        scan = constraint_scan(reference=CharacterRow(5, name, values))
        return sorted(s.subgroup.label for s in scan.survivors)

    under_stated = survivors_under((620, 30, 2, 2, 2, 0, 0), "stated")
    under_control = survivors_under(tree_fixed_character(5).values, "control")
    verdict(7, ok, f"{len(classes)} classes; survivors={sorted(survivor_labels)} "
            f"vs stated {{{stabilizer.label}}}; under the stated difference "
            f"row {under_stated}; under the fixed-point control row "
            f"{under_control}; stabilizer final test "
            f"{stab_row.final_lhs if stab_row else '?'} > "
            f"{stab_row.final_rhs if stab_row else '?'}; {elapsed:.2f}s")
    assert len(classes) == 19
    assert elapsed < 10.0
    assert stab_row is not None
    assert stab_row.final_lhs == 4 > stab_row.final_rhs == 2
    assert stab_row.contradiction
    # stated survivor set: the natural point stabilizer alone (fails on
    # order4c, independently of criterion 5; see above)
    assert survivor_labels == {stabilizer.label}


# ---------------------------------------------------------------------------
# criterion 8: the property suites


def _sum_common_degree(values):
    dd = min(v.degree for v in values)
    acc = None
    for v in values:
        v = truncate(v, dd)
        acc = v if acc is None else add(acc, v)
    return acc


def _suite_factorization(rng):
    for n in (2, 3, 4):
        jets = [random_jet(rng, 1, n, 4) for _ in range(n)]
        for t in enumerate_trees(n):
            assert eval_tree(t, jets) == eval_multiindex(project_arities(t), jets)
    jets = [random_jet(rng, 1, 5, 4) for _ in range(5)]
    for t in rng.sample(enumerate_trees(5), 30):
        assert eval_tree(t, jets) == eval_multiindex(project_arities(t), jets)


def _suite_pre_lie(rng):
    for d in (1, 2, 3):
        for _ in range(3):
            f, g, h = (random_jet(rng, d, 4, 2) for _ in range(3))
            a1, a2 = pre_lie(pre_lie(f, g), h), pre_lie(f, pre_lie(g, h))
            b1, b2 = pre_lie(pre_lie(f, h), g), pre_lie(f, pre_lie(h, g))
            dd = min(x.degree for x in (a1, a2, b1, b2))
            lhs = add(truncate(a1, dd), scale(-1, truncate(a2, dd)))
            rhs = add(truncate(b1, dd), scale(-1, truncate(b2, dd)))
            assert lhs == rhs


def _suite_morphism(rng):
    def check(stock, scion, d):
        # a graft numbers the stock 1..k and the scion k+1..k+m
        k = stock.size
        jets = [random_jet(rng, d, 6, 2) for _ in range(k + scion.size)]
        vals = [eval_tree(g, jets) for g in graft_sum(scion, stock)]
        rhs = pre_lie(eval_tree(stock, jets[:k]), eval_tree(scion, jets[k:]))
        dd = min(min(v.degree for v in vals), rhs.degree)
        assert _sum_common_degree([truncate(v, dd) for v in vals]) == truncate(rhs, dd)

    for k in (1, 2, 3):           # exhaustive with up to 4 vertices in play
        for m in (1, 2):
            if k + m > 4:
                continue
            for stock in enumerate_trees(k):
                for scion in enumerate_trees(m):
                    check(stock, scion, 2)
    for _ in range(6):            # randomized at 5 vertices total
        stock = rng.choice(enumerate_trees(3))
        scion = rng.choice(enumerate_trees(2))
        check(stock, scion, 2)


def _suite_round_trip(rng):
    for n in (2, 3, 4):
        fibers = {}
        for t in enumerate_trees(n):
            fibers.setdefault(project_arities(t), []).append(t)
        for members in fibers.values():
            for t1, t2 in itertools.product(members, repeat=2):
                assert retarget(t1, find_sigma(t1, t2)) == t2
    trees5 = enumerate_trees(5)
    fibers5 = {}
    for t in trees5:
        fibers5.setdefault(project_arities(t), []).append(t)
    for _ in range(40):
        members = fibers5[project_arities(rng.choice(trees5))]
        t1, t2 = rng.choice(members), rng.choice(members)
        assert retarget(t1, find_sigma(t1, t2)) == t2


def _suite_geofixed(rng):
    for n in (3, 4):
        for t in enumerate_trees(n):
            for s in all_permutations(n):
                res = retarget(t, s)
                if res is not None and res != t:
                    assert find_distinguishing_witness(t, res) is not None
    trees5 = enumerate_trees(5)
    perms5 = all_permutations(5)
    found = 0
    while found < 25:
        t, s = rng.choice(trees5), rng.choice(perms5)
        res = retarget(t, s)
        if res is not None and res != t:
            assert find_distinguishing_witness(t, res) is not None
            found += 1


def _suite_identification_square(rng):
    phi = {1: 2, 2: 1, 3: 2}
    jets2 = [random_jet(rng, 2, 5, 2) for _ in range(2)]
    jets3 = [jets2[phi[i] - 1] for i in (1, 2, 3)]

    def square(tree, labels):
        obj = canonicalize_labelled(tree, labels)
        pushed = identify(phi, obj)
        lhs = eval_tree_labelled(pushed.tree, pushed.labels, jets2)
        rhs = eval_tree_labelled(obj.tree, obj.labels, jets3)
        assert lhs == rhs
        # and the canonical representative is evaluation-neutral
        assert rhs == eval_tree_labelled(tree, labels, jets3)

    for n in (2, 3, 4):          # exhaustive over trees, sampled labelling
        for t in enumerate_trees(n):
            square(t, tuple(rng.randint(1, 3) for _ in range(n)))
    for _ in range(15):          # randomized at n=5
        square(rng.choice(enumerate_trees(5)),
               tuple(rng.randint(1, 3) for _ in range(5)))


def _suite_equivariance_and_dual_basis(rng):
    for n in (2, 3, 4):
        jets = [random_jet(rng, 2, n, 2) for _ in range(n)]
        cache = {t: eval_tree(t, jets) for t in enumerate_trees(n)}
        for t, base in cache.items():
            for s in all_permutations(n):
                assert (eval_tree(t, [jets[s(v) - 1] for v in t.vertices])
                        == cache[relabel(t, s)])
    jets = [random_jet(rng, 2, 5, 2) for _ in range(5)]
    trees5, perms5 = enumerate_trees(5), all_permutations(5)
    for _ in range(10):
        t, s = rng.choice(trees5), rng.choice(perms5)
        assert (eval_tree(relabel(t, s), jets)
                == eval_tree(t, [jets[s(v) - 1] for v in t.vertices]))

    # dual basis in one variable: x^(m_v)/m_v! reads off exactly one arity vector
    def dual_inputs(mi):
        return [monomial_jet(1, mi.n - 1, (a,), 1, ncomps=1,
                             coeff=Fraction(1, math.factorial(a)))
                for a in mi.arities]

    for n in (2, 3, 4):
        mis = enumerate_multi_indices(n)
        for m in mis:
            inputs = dual_inputs(m)
            for mp in mis:
                val = eval_multiindex(mp, inputs).coeff((0,))
                assert val == (1 if mp == m else 0)
    mis5 = enumerate_multi_indices(5)
    for m in rng.sample(mis5, 12):
        inputs = dual_inputs(m)
        for mp in mis5:
            val = eval_multiindex(mp, inputs).coeff((0,))
            assert val == (1 if mp == m else 0)


def test_criterion_08_property_suites():
    rng = random.Random(2024)
    suites = [
        ("factorization in one variable", _suite_factorization),
        ("pre-Lie relation d=1,2,3", _suite_pre_lie),
        ("grafting morphism", _suite_morphism),
        ("retarget round trip", _suite_round_trip),
        ("retargeted twins separated", _suite_geofixed),
        ("identification square", _suite_identification_square),
        ("equivariance + dual basis", _suite_equivariance_and_dual_basis),
    ]
    passed = []
    for name, suite in suites:
        suite(rng)
        passed.append(name)
    verdict(8, len(passed) == 7, f"{len(passed)}/7 suites: {', '.join(passed)}")
    assert len(passed) == 7


def test_criterion_09_reproducibility(tmp_path, capsys):
    invocations = [
        ["dim", "w", "--dim", "2", "--n", "4", "--seed", "777"],
        ["dim", "w", "--dim", "1", "--n", "3", "--seed", "777"],
        ["char", "table"],
        ["groups", "scan"],
        ["trees", "enum", "--n", "4", "--format", "json"],
    ]
    artifacts = []
    for argv in invocations:
        outs = []
        for run in (0, 1):
            target = tmp_path / f"a{len(artifacts)}_{run}"
            code = cli_main(argv + ["--out", str(target)])
            assert code == 0
            outs.append(target.read_bytes())
        artifacts.append(outs)
    identical = all(a == b for a, b in artifacts)
    # and the seed genuinely matters where randomness is involved
    alt = tmp_path / "alt"
    cli_main(["dim", "w", "--dim", "2", "--n", "4", "--seed", "778",
              "--out", str(alt)])
    differs = alt.read_bytes() != artifacts[0][0]
    verdict(9, identical and differs,
            f"{len(artifacts)} artifact kinds byte-identical across reruns; "
            f"changing the seed changes the certificate")
    assert identical
    assert differs
