import collections
import itertools
import operator
import random
import sys
from fractions import Fraction

import pytest

from elemdiff.config import RunConfig
from elemdiff.errors import MismatchError, PreconditionError, SizeLimitError, SpanInstabilityError
from elemdiff.jets import Jet, monomials_up_to, random_jet_tuple
from elemdiff.labelling import enumerate_labelled
from elemdiff.multiindex import MultiIndex, enumerate_multi_indices, project_arities
from elemdiff.relations import (JetStream, MAX_ROW_VERTICES, PRIME, _block_key, _labelled,
                                _layer_ranks, _row_polynomial, block_basis, build_matrix,
                                certify_relation, dimension_certificate, dimension_labelled,
                                dimension_w, eliminate_mod, exact_rank, minor_is_nonsingular_mod,
                                rational_reconstruct, trace_on_span)
from elemdiff.trees import Permutation, Tree, chain_tree, enumerate_trees
from oracles import (
    check_entry,
    in_relation_span,
    monomial_term,
    reduce_against,
    relation_vector,
    tree_value_at_zero,
)

CFG = RunConfig()


# ---------------------------------------------------------------------------
# evaluation matrices


def test_build_matrix_shape_and_entries():
    rows = enumerate_trees(3)
    m = build_matrix(rows, 2, JetStream(99), 6)
    # each tuple holds one input per colour, d integer tables over the degree-2 monomials
    assert all(len(tup) == 3 and len(inputs) == 2 for tup in m.tuples for inputs in tup)
    assert all(list(table) == monomials_up_to(2, 2)
               for tup in m.tuples for inputs in tup for table in inputs)
    assert m.ncols == 12
    assert len(m.data) == 9
    assert all(isinstance(x, int) for row in m.data for x in row)
    rng = random.Random(0)
    for _ in range(25):
        r, c = rng.randrange(9), rng.randrange(12)
        assert check_entry(m, r, c)


def test_build_matrix_reproducible():
    rows = enumerate_trees(3)
    a = build_matrix(rows, 2, JetStream(7), 4)
    b = build_matrix(rows, 2, JetStream(7), 4)
    assert a.data == b.data
    c = build_matrix(rows, 2, JetStream(8), 4)
    assert a.data != c.data


def test_batched_and_exact_entry_paths_agree():
    # every kernel entry against the independent tree_value_at_zero oracle:
    # small jets give small entries, bound 10**6 entries beyond 2^63; rows
    # with repeated colours, the n = 5 corolla (one vertex with four
    # children, the recursion's widest step) and d = 3
    small = build_matrix(enumerate_trees(3), 2, JetStream(31), 5)
    large = build_matrix(enumerate_trees(4), 2, JetStream(31, bound=10**6), 3)
    assert max(abs(x) for row in large.data for x in row) >= 2**63
    coloured = [(o.tree, o.labels) for o in enumerate_labelled((2, 2))]
    assert any(len(set(labels)) < len(labels) for _, labels in coloured)
    corolla = Tree([0, 1, 1, 1, 1])
    for m in (small, large, build_matrix(coloured, 2, JetStream(32), 3),
              build_matrix([corolla, chain_tree(range(1, 6))], 3, JetStream(33), 2),
              build_matrix(enumerate_trees(3), 3, JetStream(34), 3)):
        for r in range(len(m.rows)):
            for c in range(m.ncols):
                assert check_entry(m, r, c)


def test_build_matrix_walks_a_chain_past_the_recursion_limit():
    # one colour on every vertex: the chain's value at the origin is
    # f'(0)^(n-1) f(0) = a_1^(n-1) a_0 of the tuple's one jet
    n = sys.getrecursionlimit() + 1
    m = build_matrix([(chain_tree(range(1, n + 1)), (1,) * n)], 1, JetStream(0), 3)
    for c, (table,) in enumerate(m.tuples):
        jet = Jet(1, n - 1, table)
        assert m.data[0][c] == jet.coeff((1,)) ** (n - 1) * jet.coeff((0,))
        assert check_entry(m, 0, c)


def test_build_matrix_reads_a_shared_stream():
    # matrices on one stream share their first columns; a stream drawn for
    # another row shape is refused
    rows = enumerate_trees(3)
    stream = JetStream(5)
    long = build_matrix(rows, 2, stream, 7)
    short = build_matrix(rows, 2, stream, 3)
    assert [row[:6] for row in long.data] == short.data
    assert long.data == build_matrix(rows, 2, JetStream(5), 7).data
    with pytest.raises(MismatchError):
        build_matrix(enumerate_trees(4), 2, stream, 3)
    with pytest.raises(MismatchError):
        build_matrix(rows, 3, stream, 3)
    assert stream.describe() == {"scheme": "randomColumns", "tuples": 7,
                                 "seed": 5, "bound": 3}


@pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (2, 4)])
def test_plain_row_is_the_row_labelled_one_to_n(d, n):
    # a plain tree is the (tree, labels) row whose vertex v reads input v
    plain = enumerate_trees(n)
    pairs = [(t, tuple(range(1, n + 1))) for t in plain]
    assert (dimension_certificate(plain, d, CFG).to_json_dict()
            == dimension_certificate(pairs, d, CFG).to_json_dict())
    assert (build_matrix(plain, d, JetStream(3), 4).data
            == build_matrix(pairs, d, JetStream(3), 4).data)
    for (t1, t2), (p1, p2) in zip(zip(plain, plain[1:]), zip(pairs, pairs[1:])):
        assert certify_relation([(1, t1), (-1, t2)], d) == certify_relation(
            [(1, p1), (-1, p2)], d)


def test_build_matrix_respects_budget():
    with pytest.raises(SizeLimitError):
        build_matrix(enumerate_trees(3), 2, JetStream(1), 10**6)


# ---------------------------------------------------------------------------
# rank machinery


def random_int_matrix(rng, nrows, ncols, rank):
    a = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(nrows)]
    b = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(a[i][k] * b[k][j] for k in range(rank)) for j in range(ncols)]
            for i in range(nrows)]


def test_exact_rank_methods_agree():
    rng = random.Random(17)
    for _ in range(10):
        target = rng.randint(1, 4)
        m = random_int_matrix(rng, 6, 5, target)
        rb = exact_rank(m, method="bareiss")
        rg = exact_rank(m, method="gauss")
        assert rb[0] == rg[0] <= target


def test_exact_rank_known_cases():
    assert exact_rank([[1, 2], [2, 4]])[0] == 1
    assert exact_rank([[0, 0], [0, 0]])[0] == 0
    assert exact_rank([[1, 0], [0, 1]])[0] == 2
    rank, prows, pcols = exact_rank([[0, 1, 1], [0, 2, 2], [1, 0, 3]])
    assert rank == 2
    assert len(prows) == len(pcols) == 2


def test_exact_rank_refuses_an_unknown_method():
    for method in ("auto", "lu"):
        with pytest.raises(PreconditionError):
            exact_rank([[1, 0], [0, 1]], method=method)


def test_eliminate_mod_agrees_with_exact_rank():
    rng = random.Random(23)
    p = PRIME
    for _ in range(10):
        m = random_int_matrix(rng, 7, 6, rng.randint(1, 5))
        elim = eliminate_mod(m, p)
        assert elim.rank == exact_rank(m)[0]  # entries tiny next to p, no bad prime


def test_eliminate_mod_nullspace_annihilates():
    rng = random.Random(29)
    p = PRIME
    m = random_int_matrix(rng, 8, 5, 3)
    elim = eliminate_mod(m, p)
    assert len(elim.null_rows) == 8 - elim.rank
    solved = minor_is_nonsingular_mod(m, elim.pivot_rows, elim.pivot_cols, p)
    assert sorted(solved) == elim.null_rows
    for pos in elim.null_rows:
        # the null row minus its combination of pivot rows, on every column
        assert len(solved[pos]) == elim.rank
        for j in range(5):
            combo = sum(c * m[r][j] for r, c in zip(elim.pivot_rows, solved[pos]))
            assert (m[pos][j] - combo) % p == 0


def test_minor_recheck():
    rng = random.Random(31)
    p = PRIME
    m = random_int_matrix(rng, 6, 6, 4)
    elim = eliminate_mod(m, p)
    solved = minor_is_nonsingular_mod(m, elim.pivot_rows, elim.pivot_cols, p)
    assert sorted(solved) == elim.null_rows
    assert all(len(coeffs) == elim.rank for coeffs in solved.values())
    # a full-rank matrix has no other rows: nothing to solve, but not None
    assert minor_is_nonsingular_mod([[2, 1], [1, 1]], [0, 1], [0, 1], p) == {}
    # a deliberately dependent row choice fails
    if elim.rank >= 2:
        bad_rows = [elim.pivot_rows[0]] * 2 + list(elim.pivot_rows[2:])
        assert minor_is_nonsingular_mod(m, bad_rows, elim.pivot_cols, p) is None


def test_rational_reconstruct_round_trip():
    p = PRIME
    for q in [Fraction(3, 7), Fraction(-22, 5), Fraction(0), Fraction(10**8),
              Fraction(1, 911)]:
        residue = q.numerator * pow(q.denominator, -1, p) % p
        assert rational_reconstruct(residue, p) == q
    # a residue with no small representation comes back None
    assert rational_reconstruct(pow(2, 101, p) + 12345, p) is None


# ---------------------------------------------------------------------------
# identity certification


def same_fiber_pair():
    # equal arity vectors, different wiring: indistinguishable iff d=1
    return chain_tree([1, 2, 3]), chain_tree([2, 1, 3])


def test_certify_true_relation_d1():
    t1, t2 = same_fiber_pair()
    res = certify_relation([(1, t1), (-1, t2)], 1)
    assert res.holds
    assert res.witness is None
    assert res.tuples_checked > 0
    assert res.tuples_skipped_off_layer > 0


def _rows_of(d, n, profile):
    """(rows, input count, weights) of a plain span or of one colour profile."""
    if profile is None:
        return enumerate_trees(n), n, (1,) * n
    rows = [(o.tree, o.labels) for o in enumerate_labelled(profile)]
    return rows, len(profile), profile


def _profile_id(value):
    """Test id of a colour profile or weight vector: "2,1"; "plain" for None."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return "plain" if value is None else None


@pytest.mark.parametrize("d,n,profile", [
    (1, 4, None), (2, 3, None), (3, 3, None), (2, 3, (2, 1)), (2, 3, (3,)),
    (3, 4, None), (2, 4, (2, 2)), (1, 5, None), (3, 4, (2, 1, 1)), (2, 3, (1, 1, 1)),
], ids=_profile_id)
def test_layer_vector_is_tree_value_at_zero(d, n, profile):
    # each row polynomial, read as a polynomial in the jet coefficients and
    # evaluated on random integer jets, is the row's value at the origin
    rows, ell, weights = _rows_of(d, n, profile)
    slot_of = [i for i in range(ell) for _ in range(weights[i])]
    rng = random.Random(41)
    for _ in range(3):
        jets = [Jet(d, n - 1, tables) for tables in random_jet_tuple(rng, ell, d, n - 1, 5)]
        for row in rows:
            tree, labels = _labelled(row)
            got = [Fraction(0)] * d
            for (comp, tup), q in _row_polynomial((tree, labels), d).items():
                for p, (alpha, k) in enumerate(tup):
                    q *= jets[slot_of[p]].coeff(alpha, k)
                got[comp - 1] += q
            want = tree_value_at_zero(tree, {v: jets[labels[v - 1] - 1] for v in tree.vertices})
            assert tuple(got) == want


def test_plain_row_polynomial_has_one_monomial_per_assignment():
    # distinct labels give every component assignment a key of its own
    for n in range(1, 5):
        for d in range(1, 4):
            for tree in enumerate_trees(n):
                assert len(_row_polynomial(_labelled(tree), d)) == d ** n


@pytest.mark.parametrize("profile", [(2, 1), (2, 2), (3, 1)], ids=_profile_id)
def test_layer_keys_are_sorted_within_each_slot(profile):
    # `_layer_ranks` ranks a tuple whose slot of weight m holds m items in
    # nondecreasing item order (degree, alpha, component); a key out of that
    # order would move the witness without failing any relation check
    d = 2
    rows, _, weights = _rows_of(d, sum(profile), profile)
    starts = list(itertools.accumulate(weights, initial=0))
    mixed = 0
    for row in rows:
        for _, tup in _row_polynomial(_labelled(row), d):
            for lo, hi in zip(starts, starts[1:]):
                order = [(sum(alpha), alpha, k) for alpha, k in tup[lo:hi]]
                assert order == sorted(order)
                mixed += len(set(order)) > 1
    assert mixed  # the check saw slots whose items differ


def _brute_force_holds(terms, d, n):
    """Sweep every monomial tuple of degree <= n-1 with `monomial_term`."""
    items = [(alpha, k) for alpha in monomials_up_to(d, n - 1) for k in range(1, d + 1)]
    for tup in itertools.product(items, repeat=n):
        sums = {}
        for coeff, tree in terms:
            val = monomial_term(tree, {v: tup[v - 1] for v in tree.vertices})
            if val.coeff and not any(val.exponent):
                sums[val.comp] = sums.get(val.comp, 0) + coeff * val.coeff
        if any(sums.values()):
            return False
    return True


@pytest.mark.parametrize("d,n,pairs", [(1, 3, None), (1, 4, 40), (2, 2, None), (2, 3, 12)])
def test_certify_matches_brute_force_sweep(d, n, pairs):
    trees = enumerate_trees(n)
    combos = list(itertools.combinations(trees, 2))
    if pairs is not None:
        combos = random.Random(43).sample(combos, pairs)
    verdicts = set()
    for t1, t2 in combos:
        terms = [(1, t1), (-1, t2)]
        holds = certify_relation(terms, d).holds
        assert holds == _brute_force_holds(terms, d, n)
        verdicts.add(holds)
    assert verdicts == ({False} if d > 1 else {True, False})


def _layer_tuples(d: int, slots: int, weights, total: int):
    """Monomial tuples of total degree `total` (off it every row vanishes at
    the origin) in witness order: lexicographic in the items (alpha,
    component), ordered by degree, then alpha, then component.  Slot i of
    weight m takes a multiset of m items, nondecreasing.  The reference walk
    that `_layer_ranks` counts without walking."""
    items = [(alpha, k) for alpha in monomials_up_to(d, total) for k in range(1, d + 1)]
    spend = [sum(alpha) for alpha, _ in items]
    owner = [i for i in range(slots) for _ in range(weights[i])]

    def rec(p, first, remaining):
        if p == len(owner):
            if remaining == 0:
                yield ()
            return
        lo = first if p and owner[p] == owner[p - 1] else 0
        for idx in range(lo, len(items)):
            if spend[idx] > remaining:
                break
            for rest in rec(p + 1, idx, remaining - spend[idx]):
                yield (items[idx],) + rest

    yield from rec(0, 0, total)


@pytest.mark.parametrize("d,weights", [
    (1, (1, 1, 1)), (2, (1, 1, 1)), (3, (1, 1, 1, 1)), (2, (2, 1)), (3, (3,)),
    (2, (2, 2)), (2, (1, 2, 1)), (2, (3, 2)), (1, (0, 2, 1)),
], ids=_profile_id)
def test_layer_ranks_count_the_walk(d, weights):
    total = sum(weights) - 1
    walk = list(_layer_tuples(d, len(weights), weights, total))
    size, rank = _layer_ranks(d, weights, total)
    assert size == len(walk)
    for pos, tup in enumerate(walk, start=1):
        assert rank(tup) == pos


def test_certify_repeated_colour_is_exact():
    # f'(0)^2 f(0): the chain fed one input thrice is not the zero map, so
    # the monomial f'(0)^2 f(0) must show up as the witness
    chain = chain_tree([1, 2, 3])
    res = certify_relation([(1, (chain, (1, 1, 1)))], 1)
    assert not res.holds
    assert res.witness.slots == (((0,), 1), ((1,), 1), ((1,), 1))
    assert res.witness.value == 1
    assert res.tuples_checked == 2


def test_component_assignment_guard():
    # 17 ** 3 > 8 ** 4 component assignments per row, for both callers
    t1, t2 = enumerate_trees(3)[:2]
    with pytest.raises(SizeLimitError):
        certify_relation([(1, t1), (-1, t2)], 17)
    with pytest.raises(SizeLimitError):
        dimension_certificate(enumerate_trees(3), 17, CFG)
    assert certify_relation([(1, t1), (-1, t2)], 16).witness is not None
    # at d = 1 the vertex count is the bound
    chain = chain_tree(range(1, MAX_ROW_VERTICES + 1))
    assert certify_relation([(1, chain)], 1).witness is not None
    with pytest.raises(SizeLimitError):
        certify_relation([(1, chain_tree(range(1, MAX_ROW_VERTICES + 2)))], 1)


def test_certify_false_relation_yields_checkable_witness():
    t1, t2 = same_fiber_pair()
    res = certify_relation([(1, t1), (-1, t2)], 2)
    assert not res.holds
    w = res.witness
    assert w is not None
    slots1 = {v: w.slots[v - 1] for v in t1.vertices}
    v1, v2 = monomial_term(t1, slots1), monomial_term(t2, slots1)
    total = Fraction(0)
    for val, sgn in ((v1, 1), (v2, -1)):
        if val.coeff and val.comp == w.component and not any(val.exponent):
            total += sgn * val.coeff
    assert total == w.value != 0


def test_certify_scale_invariance():
    t1, t2 = same_fiber_pair()
    res = certify_relation([(Fraction(2, 3), t1), (Fraction(-2, 3), t2)], 1)
    assert res.holds


@pytest.mark.parametrize("c1,c2", [(1, -1), (Fraction(3, 2), Fraction(-1, 3))],
                         ids=["integer", "fractional"])
def test_witness_is_the_first_nonzero_layer_tuple(c1, c2):
    """The witness is the first layer tuple, in `_layer_tuples` order, on
    which the combination is nonzero, and the tuple count is that tuple's
    1-based position.  Its value, divided back from the integer check's
    scale, is the combination of the rows' `monomial_term`s there."""
    t1, t2 = same_fiber_pair()
    n = t1.size
    res = certify_relation([(c1, t1), (c2, t2)], 2)
    for position, tup in enumerate(_layer_tuples(2, n, (1,) * n, n - 1), start=1):
        sums = {}
        for tree, coeff in ((t1, c1), (t2, c2)):
            val = monomial_term(tree, {v: tup[v - 1] for v in tree.vertices})
            if val.coeff and not any(val.exponent):
                sums[val.comp] = sums.get(val.comp, 0) + coeff * val.coeff
        nonzero = sorted(k for k, q in sums.items() if q)
        if nonzero:
            break
    else:
        pytest.fail("the combination vanishes on the whole layer")
    assert res.tuples_checked == position
    assert res.witness.slots == tup
    assert res.witness.component == nonzero[0]
    assert res.witness.value == sums[nonzero[0]]
    assert isinstance(res.witness.value, Fraction)


def test_dimension_below_one_is_refused():
    t1, t2 = same_fiber_pair()
    with pytest.raises(PreconditionError):
        certify_relation([(1, t1), (-1, t2)], 0)
    with pytest.raises(PreconditionError):
        dimension_certificate(enumerate_trees(3), 0, CFG)


# ---------------------------------------------------------------------------
# dimension certificates


def test_dimension_n3_full():
    cert = dimension_certificate(enumerate_trees(3), 2, CFG)
    assert cert.certified
    assert cert.dimension == 9
    assert cert.lower == cert.upper == 9
    assert not cert.relations
    assert len(cert.minor_rows) == 9


def test_dimension_certificate_json_shape():
    cert = dimension_certificate(enumerate_trees(3), 2, CFG)
    obj = cert.to_json_dict()
    for key in ("status", "dimension", "certified", "lower", "upper", "rank",
                "minorRows", "minorCols", "relations", "prime", "seed",
                "scheme", "columns", "rows", "blocks"):
        assert key in obj
    assert obj["certified"] is True
    assert obj["dimension"] == 9
    assert obj["blocks"] == 6  # the arity vectors of three vertices


def test_certificate_records_its_rows_and_d():
    # plain trees and labelled pairs, in input order, normalised to pairs
    plain = enumerate_trees(3)[::-1]
    pairs = [(t, (1, 1, 2)) for t in plain[:2]]
    for rows, d in ((plain, 2), (pairs, 1)):
        cert = dimension_certificate(rows, d, RunConfig(seed=5))
        assert cert.rows == tuple(_labelled(row) for row in rows)
        assert cert.d == d
        assert cert.columns == cert.scheme["tuples"] * cert.d
        obj = cert.to_json_dict()
        assert obj["rows"] == len(cert.rows)
        assert obj["seed"] == cert.scheme["seed"] == 5
        assert obj["prime"] == PRIME == 2**61 - 1
        assert obj["columns"] == cert.columns
        with pytest.raises(AttributeError):
            cert.d = d + 1


def test_certificate_scheme_is_read_only():
    cert = dimension_w(2, 3, config=CFG)
    columns, obj = cert.columns, cert.to_json_dict()
    assert cert.scheme["tuples"] * 2 == columns == 16
    with pytest.raises(TypeError):
        cert.scheme["tuples"] = 0
    assert (cert.columns, cert.to_json_dict()) == (columns, obj)


def test_dimension_d1_sees_only_arities():
    # 9 trees on 3 vertices collapse onto the 6 arity vectors
    assert dimension_w(1, 3, config=CFG).dimension == 6
    cert = dimension_w(1, 4, config=CFG)
    assert cert.certified
    assert cert.dimension == 20
    assert len(cert.relations) == 64 - 20
    assert all(rel.verified for rel in cert.relations)


def test_certificate_builds_each_row_polynomial_once(monkeypatch):
    # dim w --dim 1 --n 5 verifies 555 relations, most of them sharing rows
    built = collections.Counter()

    def counted(row, d):
        built[row] += 1
        return _row_polynomial(row, d)

    monkeypatch.setattr("elemdiff.relations._row_polynomial", counted)
    cert = dimension_w(1, 5, config=CFG)
    assert cert.dimension == 70
    assert len(cert.relations) == 555 and all(r.verified for r in cert.relations)
    assert built and max(built.values()) == 1
    assert sum(built.values()) < sum(len(r.coeffs) for r in cert.relations)


def _exact_inverse(square):
    """Inverse of a nonsingular integer matrix over Q, by Gauss-Jordan."""
    k = len(square)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(square)]
    for i in range(k):
        piv = next(r for r in range(i, k) if a[r][i])
        a[i], a[piv] = a[piv], a[i]
        a[i] = [x / a[i][i] for x in a[i]]
        for r in range(k):
            if r != i and a[r][i]:
                f = a[r][i]
                a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return [row[k:] for row in a]


def _single_matrix_route(rows, d, seed):
    """The route before blocks: one matrix over all rows, one elimination
    modulo PRIME, and each null row's relation solved over Q against the
    pivot rows on the pivot columns, then checked on every column."""
    tuples = -(-3 * len(rows) // d)  # twice the old first batch
    data = build_matrix(rows, d, JetStream(seed), tuples).data
    elim = eliminate_mod(data, PRIME)
    if not elim.null_rows:
        return tuple(elim.pivot_rows), []
    inverse = _exact_inverse([[data[r][c] for c in elim.pivot_cols] for r in elim.pivot_rows])
    relations = []
    for pos in elim.null_rows:
        # data[pos] = sum_i coeffs[i] * data[pivot_rows[i]] on the pivot columns
        coeffs = [sum(data[pos][c] * inverse[j][i] for j, c in enumerate(elim.pivot_cols))
                  for i in range(elim.rank)]
        vec = {pos: Fraction(1), **{r: -q for r, q in zip(elim.pivot_rows, coeffs)}}
        assert not any(sum(q * data[r][c] for r, q in vec.items())
                       for c in range(len(data[0])))
        relations.append((pos, tuple(sorted((r, q) for r, q in vec.items() if q))))
    return tuple(elim.pivot_rows), relations


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("d,n,profile", [
    (2, 3, None), (1, 4, None), (2, 4, None), (3, 4, None),
    (1, 3, (2, 1)), (1, 4, (3, 1)), (1, 4, (2, 2)), (1, 4, (2, 1, 1)),
    (2, 4, (2, 1, 1)),
], ids=_profile_id)
def test_block_route_matches_single_matrix(d, n, profile, seed):
    rows, _, _ = _rows_of(d, n, profile)
    cert = dimension_certificate(rows, d, RunConfig(seed=seed))
    assert cert.certified
    pivots, relations = _single_matrix_route(rows, d, seed)
    assert cert.minor_rows == pivots
    assert [(r.leading, r.coeffs) for r in cert.relations] == relations
    assert all(r.verified for r in cert.relations)


@pytest.mark.parametrize("d,n", [(2, 3), (1, 4)])
def test_block_ranks_add_to_the_stacked_rank(d, n):
    # blocks by arity vector, grouped here without the package's helper; the
    # stacked matrix holds every row on as many tuples as the single-matrix
    # route reads, and its rank over Q is the span's dimension
    rows = enumerate_trees(n)
    by_arity = {}
    for row in rows:
        by_arity.setdefault(project_arities(row), []).append(row)
    ranks = [dimension_certificate(block, d, CFG).rank for block in by_arity.values()]
    cert = dimension_certificate(rows, d, CFG)
    assert cert.blocks == len(by_arity)
    stacked = build_matrix(rows, d, JetStream(0), -(-3 * len(rows) // d))
    assert sum(ranks) == cert.rank == exact_rank(stacked)[0] == cert.dimension


@pytest.mark.parametrize("d,n,profile", [(1, 4, None), (2, 4, None), (1, 4, (2, 1, 1))],
                         ids=_profile_id)
def test_block_records_partition_the_certificate(d, n, profile):
    # the certificate is the sum of its blocks' records: bounds add, the
    # records' pivots are the minor, and each relation lies in one block
    rows, _, _ = _rows_of(d, n, profile)
    cert = dimension_certificate(rows, d, CFG)
    keys = [_block_key(_labelled(row)) for row in rows]
    records = cert.block_bounds
    assert len({r.key for r in records}) == len(records) == cert.blocks
    assert (cert.lower, cert.upper) == (sum(r.lower for r in records),
                                        sum(r.upper for r in records))
    assert sorted(p for r in records for p in r.pivots) == list(
        zip(cert.minor_rows, cert.minor_cols))
    assert len(cert.relations) == len(rows) - cert.upper  # 0 at d = 2, n = 4
    for rel in cert.relations:
        holders = [r for r in records if rel in r.relations]
        assert len(holders) == 1
        assert {keys[rel.leading], *(keys[pos] for pos, _ in rel.coeffs)} == {holders[0].key}
    assert sum(len(r.relations) for r in records) == len(cert.relations)
    for record in records:
        assert all(keys[pos] == record.key for pos, _ in record.pivots)
        assert record.certified and record.dimension == len(record.pivots)


def test_dimension_guard():
    # n <= 5 for every d; d ** n = 6 ** 5 = 7,776 component assignments exceed 4,096
    with pytest.raises(SizeLimitError):
        dimension_w(2, 6, config=CFG)
    with pytest.raises(SizeLimitError):
        dimension_w(6, 5, config=CFG)


def test_span_rows_counts():
    # dimension_w's rows: all n^(n-1) trees, or the n! chains of the orbit 1,...,1,0
    assert len(dimension_w(1, 3, config=CFG).rows) == 9
    assert len(dimension_w(1, 4, config=CFG).rows) == 64
    assert len(dimension_w(1, 3, linear=True, config=CFG).rows) == 6
    assert len(dimension_w(1, 4, linear=True, config=CFG).rows) == 24
    assert len(dimension_w(1, 5, linear=True, config=CFG).rows) == 120


def test_linear_span_n3_has_no_relations_in_two_variables():
    cert = dimension_w(2, 3, linear=True, config=CFG)
    assert cert.certified
    assert cert.dimension == 6


# ---------------------------------------------------------------------------
# relations as vectors


def test_nullspace_relations_reduce_to_zero():
    rows = enumerate_trees(4)
    cert = dimension_certificate(rows, 1, CFG)
    rels = cert.relations
    assert cert.certified
    assert len(rels) == 44
    nrows = len(rows)
    for rel in rels[:6]:
        vec = relation_vector(rel, nrows)
        assert in_relation_span(vec, rels)
        assert all(q == 0 for q in reduce_against(vec, rels))
    # a lone basis row is not in the span of the relations
    basis_vec = [Fraction(0)] * nrows
    basis_vec[cert.minor_rows[0]] = Fraction(1)
    assert not in_relation_span(basis_vec, rels)


def test_relation_leading_structure():
    rows = enumerate_trees(4)
    cert = dimension_certificate(rows, 1, CFG)
    assert cert.certified
    rels = cert.relations
    leadings = [rel.leading for rel in rels]
    assert len(set(leadings)) == len(leadings)  # echelon: distinct leading rows
    for rel in rels:
        assert dict(rel.coeffs)[rel.leading] == 1


def test_failed_lift_leaves_the_certificate_inconclusive(monkeypatch):
    # a relation whose residues do not lift is kept unverified and empty, so
    # the upper bound stays at the row count instead of a silent answer
    from elemdiff import relations
    real = relations.rational_reconstruct
    monkeypatch.setattr(relations, "rational_reconstruct",
                        lambda a, p: real(a, p) if a % p in (0, 1) else None)
    cert = dimension_w(1, 4)
    assert cert.status == "inconclusive"
    assert cert.dimension is None
    assert (cert.lower, cert.upper) == (20, 64)
    assert len(cert.relations) == 44
    assert all(rel.verified is False and rel.coeffs == () for rel in cert.relations)


# ---------------------------------------------------------------------------
# traces


def test_trace_identity_is_dimension():
    rows = enumerate_trees(3)
    assert trace_on_span(dimension_certificate(rows, 2, CFG), Permutation.identity(3)) == 9


def test_trace_transposition_counts_fixed_trees():
    # no relations at n=3, d=2, so the trace counts relabel-fixed basis rows
    rows = enumerate_trees(3)
    s = Permutation.from_cycles(3, (1, 2))
    assert trace_on_span(dimension_certificate(rows, 2, CFG), s) == 1


def test_trace_rejects_unstable_span():
    rows = [chain_tree([1, 2, 3])]
    with pytest.raises(SpanInstabilityError):
        trace_on_span(dimension_certificate(rows, 2, CFG), Permutation.from_cycles(3, (1, 2)))


def test_trace_needs_a_permutation_of_the_row_degree():
    # a permutation of S_4 would move 3-vertex rows off {1..3}
    cert = dimension_w(1, 3, config=CFG)
    for images in ((1, 2, 3, 4), (1, 2, 4, 3)):
        with pytest.raises(MismatchError):
            trace_on_span(cert, Permutation(images))


def test_trace_is_read_off_its_own_certificate():
    # one set of trees, two spans: at d = 1 the nine trees span 6 and (12)
    # traces 2 there; at d = 2 they are independent and (12) fixes one tree
    s = Permutation.from_cycles(3, (1, 2))
    assert trace_on_span(dimension_w(1, 3, config=CFG), s) == 2
    assert trace_on_span(dimension_w(2, 3, config=CFG), s) == 1


def test_trace_refuses_labelled_rows():
    cert = dimension_labelled(2, 3, (1, 1, 1), config=CFG)
    assert cert.certified
    with pytest.raises(PreconditionError):
        trace_on_span(cert, Permutation.identity(3))


def test_trace_refuses_an_inconclusive_certificate(monkeypatch):
    from elemdiff import relations
    real = relations._certify_block
    records = []

    def one_block_apart(*args):
        record = real(*args)
        if not records:
            record = relations.BlockCertificate(record.key, record.lower, record.upper + 1,
                                                record.pivots, record.relations)
        records.append(record)
        return record

    monkeypatch.setattr(relations, "_certify_block", one_block_apart)
    cert = dimension_w(1, 3, config=CFG)
    assert not cert.certified
    with pytest.raises(PreconditionError):
        trace_on_span(cert, Permutation.identity(3))


# ---------------------------------------------------------------------------
# blocks


def test_block_basis_selector_validation():
    with pytest.raises(PreconditionError):
        block_basis(2, 3, orbit_code="x", config=CFG)


def _records_with_bases(cert):
    """The certificate's block records by key, each with its basis trees:
    the rows at its pivots."""
    return [(b, tuple(cert.rows[r][0] for r, _ in b.pivots))
            for b in sorted(cert.block_bounds, key=operator.attrgetter("key"))]


def test_single_block_dimensions_d1():
    for code in sorted({mi.orbit_code() for mi in enumerate_multi_indices(3)}):
        cert = block_basis(1, 3, orbit_code=code, config=CFG)
        for block, basis in _records_with_bases(cert):
            assert block.dimension == 1  # one variable: the arity vector is everything
            assert len(basis) == 1


def _per_multi_index_blocks(d, n, code, config):
    """The route `block_basis` replaced: one certificate per multi-index."""
    trees = enumerate_trees(n)
    out = []
    for mi in enumerate_multi_indices(n):
        if mi.orbit_code() != code:
            continue
        rows = [t for t in trees if project_arities(t) == mi]
        cert = dimension_certificate(rows, d, config)
        out.append((mi, cert.status, cert.lower, cert.upper,
                    tuple(rows[i] for i in cert.minor_rows)))
    return out


def _block_cases():
    for d, n in [(1, 4), (2, 4), (3, 4)]:
        for code in sorted({mi.orbit_code() for mi in enumerate_multi_indices(n)}):
            yield d, n, code
    for d in (1, 2):
        for code in ("2,1,1,0,0", "4,0,0,0,0"):
            yield d, 5, code


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("d,n,code", list(_block_cases()),
                         ids=lambda v: v if isinstance(v, str) else str(v))
def test_block_basis_matches_one_certificate_per_multi_index(d, n, code, seed):
    config = RunConfig(seed=seed)
    cert = block_basis(d, n, orbit_code=code, config=config)
    got = [(MultiIndex(tuple(a for (a,) in b.key)), b.status, b.lower, b.upper, basis)
           for b, basis in _records_with_bases(cert)]
    assert got == _per_multi_index_blocks(d, n, code, config)


def test_block_basis_makes_one_certificate(monkeypatch):
    from elemdiff import relations
    calls = []
    real = relations.dimension_certificate

    def counted(rows, d, config):
        calls.append(len(rows))
        return real(rows, d, config)

    monkeypatch.setattr(relations, "dimension_certificate", counted)
    blocks = block_basis(2, 4, orbit_code="2,1,0,0", config=CFG).block_bounds
    assert len(blocks) == 12
    assert calls == [sum(1 for t in enumerate_trees(4)
                         if project_arities(t).orbit_code() == "2,1,0,0")]


@pytest.mark.parametrize("d, n", [(2, 3), (1, 4), (2, 4), (3, 4)],
                         ids=["d2-n3", "d1-n4", "d2-n4", "d3-n4"])
def test_orbit_blocks_sum_to_full_dimension(d, n):
    total = 0
    for code in sorted({mi.orbit_code() for mi in enumerate_multi_indices(n)}):
        cert = block_basis(d, n, orbit_code=code, config=CFG)
        for block, basis in _records_with_bases(cert):
            assert block.status == "certified"
            assert block.lower == block.upper == block.dimension == len(basis)
            total += block.dimension
    assert total == dimension_w(d, n, config=CFG).dimension


@pytest.mark.parametrize("seed", [12345, 3, 5, 8, 9, 10])
def test_star_blocks_certify_with_the_batch_floor(seed):
    # one-row blocks: the star vanishes on about half of all tuples, and with
    # 2 columns a batch and a stop once two batches agreed on the rank, these
    # seeds left a block inconclusive
    cert = block_basis(1, 5, orbit_code="4,0,0,0,0", config=RunConfig(seed=seed))
    blocks = cert.block_bounds
    assert [b.status for b in blocks] == ["certified"] * 5
    assert [b.dimension for b in blocks] == [1] * 5


def test_seed_sweep_has_no_inconclusive_certificate():
    # seeds 0..29, and the seeds where a floor of 1 column a batch leaves one
    # of these spans inconclusive (10, 31, 55, 61, 74, 75, 85, 88; 31 at 4)
    spans = [(enumerate_trees(5), 1, 70)]
    labelled = [(o.tree, o.labels) for o in enumerate_labelled((2, 1, 1))]
    spans += [(labelled, 1, 13), (labelled, 2, 34)]
    for seed in [*range(30), 31, 55, 61, 74, 75, 85, 88]:
        for rows, d, dimension in spans:
            cert = dimension_certificate(rows, d, RunConfig(seed=seed))
            assert (seed, cert.status, cert.dimension) == (seed, "certified", dimension)


@pytest.mark.parametrize("seed", [0, 4, 6])
def test_thin_blocks_grow_past_a_stable_rank(seed):
    # at bound 1 a one-row block vanishes on most tuples; stopping once two
    # batches agreed on its rank, or a floor of 8 columns, left these seeds
    # inconclusive
    cert = dimension_w(1, 5, config=RunConfig(seed=seed, random_bound=1))
    assert (cert.status, cert.dimension) == ("certified", 70)


def test_block_basis_size_guard():
    for d, n, code in [(3, 7, "1,1,1,1,1,1,0"), (4, 6, "2,1,1,1,0,0"), (1, 6, "5,0,0,0,0,0"),
                       (6, 5, "2,1,1,0,0")]:
        with pytest.raises(SizeLimitError):
            block_basis(d, n, orbit_code=code, config=CFG)
