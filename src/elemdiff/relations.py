"""Exact linear algebra over evaluation columns.

Soundness layout:
  * entries are exact integers (random integer tables, value at the origin);
  * a nonsingular square minor modulo the prime `PRIME` proves the same
    minor is nonsingular over the rationals, so modular rank is an exact
    lower bound once the minor is re-checked;
  * the recheck also solves, by back-substitution against that minor, each
    row that reduced to zero as a combination of the pivot rows mod p; the
    minor is nonsingular, so that candidate relation is unique.  It is
    lifted by rational reconstruction and verified exactly: a row's value at
    the origin is a polynomial in its inputs' jet coefficients, one monomial
    per component assignment of its vertices, built at most once per
    certificate, and a relation holds iff the combination of its rows'
    polynomials vanishes, in integers: `_scaled_combination`, the one exact
    check, scales by the lcm of the denominators once.  The columns and those
    polynomials come from one Butcher recursion (`_butcher`), over integer
    lists and over sparse polynomials;
  * upper bound = rows - verified independent relations.  `_Bounds` states
    the one status rule: certified iff the two bounds meet, and then the
    dimension is their common value; otherwise it is inconclusive, with no
    dimension.  A wrong number is never emitted.

Block lemma: the monomial of a component assignment js names, for each
input, the multiset of (gamma_v, js_v) over the vertices v reading it, and
|gamma_v| is v's arity.  So rows with different `_block_key`s (per colour,
the sorted arities of its vertices; a plain tree is the row whose n
vertices read n distinct colours) have disjoint row-polynomial supports.  The
span is the direct sum of its blocks: ranks add, every relation splits into
one relation per block, and a row is independent of the rows before it iff
it is so within its block.  A certificate is therefore the sum of its
blocks' records (`BlockCertificate`: bounds, pivots and relations, each
certified on its own): its bounds are their sums, and its pivots and
relations their union.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from math import isqrt
from types import MappingProxyType

from .config import DEFAULT_RANDOM_BOUND, RunConfig
from .errors import (MismatchError, PreconditionError, ReadOnly, SizeLimitError,
                     SpanInstabilityError)
from .jets import monomial_basis_size, monomials_up_to, random_jet_tuple
from .labelling import enumerate_labelled
from .multiindex import enumerate_multi_indices, project_arities
from .trees import Tree, Permutation, enumerate_trees, relabel, trees_with_arities

# ---------------------------------------------------------------------------
# rows: (Tree, labels) with labels[v-1] = the input slot vertex v reads


def _labelled(row) -> tuple:
    """The row as a (tree, labels) pair: a plain tree reads labels 1..n."""
    return row if isinstance(row, tuple) else (row, tuple(range(1, row.size + 1)))


def _rows_shape(rows):
    """(n, input_count, weights) shared by all (tree, labels) rows; raises on
    mixtures."""
    if not rows:
        raise PreconditionError("need at least one row")
    n = rows[0][0].size
    colours = sorted(rows[0][1])
    for tree, labels in rows:
        if tree.size != n or len(labels) != n:
            raise MismatchError("rows must share one arity")
        if sorted(labels) != colours:
            raise MismatchError("labelled rows must share one multiplicity profile")
    ell = colours[-1]
    return n, ell, tuple(colours.count(i) for i in range(1, ell + 1))


def _block_key(row):
    """The row's block: per colour, the sorted arities of the vertices of
    that colour; ((a_1,), ..., (a_n,)) for a plain row of arities a."""
    tree, labels = row
    by_colour = [[] for _ in range(max(labels))]
    for a, c in zip(project_arities(tree).arities, labels):
        by_colour[c - 1].append(a)
    return tuple(tuple(sorted(arities)) for arities in by_colour)


def _blocks(rows) -> dict:
    """`_block_key` -> positions of its rows, blocks in order of first row."""
    out = {}
    for pos, row in enumerate(rows):
        out.setdefault(_block_key(row), []).append(pos)
    return out


# ---------------------------------------------------------------------------
# the column source and the evaluation matrix

class JetStream:
    """Random input tuples, each input d tables {alpha: int} in [-bound,
    bound], drawn in order from one `random.Random(seed)`: the only holder
    of a certificate's seed and bound.  Its ints stay ints up to the one
    exact check, `_scaled_combination`.  The first draw fixes the tuples'
    shape (inputs, d, degree).  `prefix(t, shape)` draws only the tuples it
    lacks, and drawing is sequential, so every matrix built on one stream
    reads the same tuple behind the same column."""

    def __init__(self, seed: int, bound: int = DEFAULT_RANDOM_BOUND):
        self.seed = seed
        self.bound = bound
        self.shape = None
        self._rng = random.Random(seed)
        self._drawn = []

    def __len__(self) -> int:
        """Tuples drawn so far: the longest prefix any matrix has read."""
        return len(self._drawn)

    def prefix(self, t: int, shape: tuple) -> tuple:
        if self.shape is None:
            self.shape = shape
        elif shape != self.shape:
            raise MismatchError("jet stream drawn for another row shape")
        while len(self._drawn) < t:
            self._drawn.append(random_jet_tuple(self._rng, *shape, self.bound))
        return tuple(self._drawn[:t])

    def describe(self) -> dict:
        """The certificate's `scheme`: the tuples drawn so far, seed and bound."""
        return {"scheme": "randomColumns", "tuples": len(self),
                "seed": self.seed, "bound": self.bound}


class EvalMatrix:
    __slots__ = ("rows", "d", "data", "tuples")

    def __init__(self, rows: tuple, d: int, data: list, tuples: tuple):
        self.rows = rows        # (tree, labels) pairs
        self.d = d
        self.data = data        # integer row vectors: column c is tuple c // d, component c % d + 1
        self.tuples = tuples    # the input tuples behind the columns

    @property
    def ncols(self) -> int:
        return len(self.tuples) * self.d


def build_matrix(rows, d: int, stream: JetStream, tuples: int) -> EvalMatrix:
    """Evaluate every row on the first `tuples` input tuples of `stream`,
    reading values at the origin."""
    rows = tuple(_labelled(row) for row in rows)
    n, ell, _weights = _rows_shape(rows)
    if tuples * d > MAX_COLUMNS:
        raise SizeLimitError(f"{tuples * d} columns exceed the budget {MAX_COLUMNS}")
    jets = stream.prefix(tuples, (ell, d, n - 1))
    return EvalMatrix(rows=rows, d=d, data=_column_entries(rows, jets, d), tuples=jets)


def _butcher(tree: Tree, labels, d: int, factor, times, plus) -> list:
    """The row's value at the origin, one ring element per output component,
    by Butcher's recursion F(T)(0) = f_root^(k)(0)[F(T_1)(0), ..., F(T_k)(0)]
    over the root's subtrees T_i, bottom-up.  A vertex's value in component
    k sums, over its children's components js, factor(label, k, gamma) times
    the children's values in components js, where gamma counts js per
    component and factor stands for gamma! [x^gamma] f_label(k); so a vertex
    with m children costs d^(m+1) products.  A leaf's value is its factors.
    `plus` may reuse its first argument, always a fresh product.  It walks
    `Tree.order` backwards, with no recursion."""
    values = {}
    for v in reversed(tree.order):
        label, kids = labels[v - 1], [values.pop(c) for c in tree.children(v)]
        if not kids:
            gamma = (0,) * d  # shared by d memo keys, not d tuples of length d
            values[v] = [factor(label, k, gamma) for k in range(1, d + 1)]
            continue
        out = values[v] = [None] * d
        for js in itertools.product(range(d), repeat=len(kids)):
            gamma = tuple(map(js.count, range(d)))
            below = functools.reduce(times, map(operator.getitem, kids, js))
            for k in range(d):
                term = times(factor(label, k + 1, gamma), below)
                out[k] = term if out[k] is None else plus(out[k], term)
    return values[tree.root]


def _column_entries(rows, tuples, d):
    """Value at the origin of every row on every tuple of integer tables, one
    column per output component, in exact Python integers: `_butcher` over
    lists with one entry per tuple, each factor computed on first use."""

    @functools.cache
    def factor(label, k, gamma):
        w = math.prod(map(math.factorial, filter(None, gamma)))
        return [tup[label - 1][k - 1][gamma] * w for tup in tuples]

    def times(a, b):
        return list(map(operator.mul, a, b))

    def plus(a, b):
        return list(map(operator.add, a, b))

    return [[x for column in zip(*_butcher(tree, labels, d, factor, times, plus))
             for x in column] for tree, labels in rows]


# ---------------------------------------------------------------------------
# modular elimination and exact rank

class Elimination:
    __slots__ = ("rank", "pivot_rows", "pivot_cols", "null_rows")

    def __init__(self, rank: int, pivot_rows: list, pivot_cols: list, null_rows: list):
        self.rank = rank
        self.pivot_rows = pivot_rows
        self.pivot_cols = pivot_cols
        self.null_rows = null_rows      # positions of rows that reduced to zero


def eliminate_mod(matrix, p: int) -> Elimination:
    """Left-looking, no row swaps: each row is reduced against the pivots in
    creation order, so a vanishing row depends on earlier pivot rows only.
    Its relation is read off the pivot minor by `minor_is_nonsingular_mod`."""
    ncols = len(matrix[0]) if matrix else 0
    pivots = []  # (row position, pivot column, reduced row)
    null_rows = []
    for pos, raw in enumerate(matrix):
        row = [x % p for x in raw]
        for _, pcol, prow in pivots:
            f = row[pcol]
            if f:
                row[pcol:] = [(a - f * b) % p for a, b in zip(row[pcol:], prow[pcol:])]
        lead = next((c for c in range(ncols) if row[c]), None)
        if lead is None:
            null_rows.append(pos)
            continue
        inv = pow(row[lead], p - 2, p)
        row[lead:] = [a * inv % p for a in row[lead:]]
        pivots.append((pos, lead, row))
    return Elimination(
        rank=len(pivots),
        pivot_rows=[t[0] for t in pivots],
        pivot_cols=[t[1] for t in pivots],
        null_rows=null_rows,
    )


def minor_is_nonsingular_mod(matrix, row_positions, col_positions,
                             p: int) -> dict | None:
    """Fresh elimination (with pivoting) of the selected square minor mod p,
    transposed, beside the matrix's other rows at the same columns.  None
    if the minor is singular mod p.  Otherwise, by back-substitution, each
    other row's coefficients on the minor's rows (aligned with
    `row_positions`) mod p, keyed by its position: those of the unique
    combination of the minor's rows that agrees with it on the minor's
    columns.  A nonzero determinant mod p proves one over the integers."""
    k = len(row_positions)
    if k != len(col_positions):
        raise PreconditionError("minor must be square")
    chosen = set(row_positions)
    others = [r for r in range(len(matrix)) if r not in chosen]
    # one equation per minor column: the minor's rows, then the others, there
    sub = [[matrix[r][c] % p for r in (*row_positions, *others)] for c in col_positions]
    for i in range(k):
        piv = next((r for r in range(i, k) if sub[r][i]), None)
        if piv is None:
            return None
        sub[i], sub[piv] = sub[piv], sub[i]
        inv = pow(sub[i][i], p - 2, p)
        sub[i][i:] = [x * inv % p for x in sub[i][i:]]
        for r in range(i + 1, k):
            f = sub[r][i]
            if f:
                sub[r][i:] = [(a - f * b) % p for a, b in zip(sub[r][i:], sub[i][i:])]
    solved = [None] * k  # solved[i][j]: other row j's coefficient on minor row i
    for i in reversed(range(k)):
        x = sub[i][k:]
        for j in range(i + 1, k):
            f = sub[i][j]
            if f:
                x = [(a - f * b) % p for a, b in zip(x, solved[j])]
        solved[i] = x
    return {r: tuple(x[j] for x in solved) for j, r in enumerate(others)}


# kept in the package only because bench/tracing.py traces it, which
# tests/test_bench_layers.py checks; the tests use it as the rank oracle
def exact_rank(matrix, method: str = "bareiss") -> tuple:
    """Exact rank of a small matrix; returns (rank, pivot_rows, pivot_cols).

    method "bareiss" runs fraction-free integer elimination, "gauss" rational
    elimination in a different sweep order; they are each other's oracle and,
    together, the independent check on the modular route.  Every emitted
    number comes from `dimension_certificate`, never from here.
    """
    if isinstance(matrix, EvalMatrix):
        matrix = matrix.data
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if nrows * ncols > 2_000_000:
        raise SizeLimitError("exact_rank is for desk-size matrices; use certificates")
    if method == "bareiss":
        return _rank_bareiss(matrix)
    if method == "gauss":
        return _rank_gauss(matrix)
    raise PreconditionError(f"unknown method {method!r}")


def _rank_bareiss(matrix):
    lcm = 1
    for row in matrix:
        for x in row:
            q = Fraction(x)
            lcm = lcm * q.denominator // math.gcd(lcm, q.denominator)
    m = [[int(Fraction(x) * lcm) for x in row] for row in matrix]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivot_rows, pivot_cols = [], []
    denom = 1
    used_rows = set()
    for c in range(ncols):
        piv = next((i for i in range(nrows) if i not in used_rows and m[i][c]), None)
        if piv is None:
            continue
        used_rows.add(piv)
        pivot_rows.append(piv)
        pivot_cols.append(c)
        pv = m[piv][c]
        for i in range(nrows):
            if i in used_rows:
                continue
            f = m[i][c]
            m[i] = [(pv * a - f * b) // denom for a, b in zip(m[i], m[piv])]
        denom = pv
    return len(pivot_rows), pivot_rows, pivot_cols


def _rank_gauss(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivot_rows, pivot_cols = [], []
    used = set()
    for pos in range(nrows):
        row = m[pos]
        lead = next((c for c in range(ncols) if row[c]), None)
        if lead is None:
            continue
        inv = 1 / row[lead]
        row = [x * inv for x in row]
        m[pos] = row
        pivot_rows.append(pos)
        pivot_cols.append(lead)
        used.add(pos)
        for i in range(nrows):
            if i not in used and m[i][lead]:
                f = m[i][lead]
                m[i] = [a - f * b for a, b in zip(m[i], row)]
    return len(pivot_rows), pivot_rows, pivot_cols


# ---------------------------------------------------------------------------
# rational reconstruction

def rational_reconstruct(a: int, p: int) -> Fraction | None:
    """Wang lifting: the unique fraction with |num|, den <= sqrt(p/2), or None."""
    a %= p
    if a == 0:
        return Fraction(0)
    bound = isqrt(p // 2)
    r0, t0, r1, t1 = p, 0, a, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(r1, abs(t1)) != 1:
        return None
    cand = Fraction(r1, t1)
    if (cand.numerator - a * cand.denominator) % p != 0:
        return None
    return cand


# ---------------------------------------------------------------------------
# identity certification by exact sparse layer vectors

class LayerWitness(ReadOnly):
    __slots__ = ("slots", "component", "value")

    def __init__(self, slots: tuple, component: int, value: Fraction):
        # ((alpha, component), ...): m per input of multiplicity m
        object.__setattr__(self, "slots", slots)
        # output coordinate carrying the nonzero value
        object.__setattr__(self, "component", component)
        # the monomial's coefficient there
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.slots, self.component, self.value)
                == (other.slots, other.component, other.value))

    def to_json_dict(self) -> dict:
        return {
            "inputs": [{"exponent": list(a), "component": k} for a, k in self.slots],
            "outputComponent": self.component,
            "value": str(self.value),
        }


class CertifyResult(ReadOnly):
    __slots__ = ("holds", "witness", "tuples_checked", "tuples_skipped_off_layer")

    def __init__(self, holds: bool, witness: LayerWitness | None, tuples_checked: int,
                 tuples_skipped_off_layer: int):
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "tuples_checked", tuples_checked)
        object.__setattr__(self, "tuples_skipped_off_layer", tuples_skipped_off_layer)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.holds, self.witness, self.tuples_checked, self.tuples_skipped_off_layer)
                == (other.holds, other.witness, other.tuples_checked,
                    other.tuples_skipped_off_layer))


@functools.lru_cache(maxsize=1)  # repeated certify_relation calls of one shape
def _layer_ranks(d: int, weights, total: int):
    """(size, rank): how many monomial tuples of total degree `total` there
    are (off it every row vanishes at the origin), and the 1-based position
    of one of them in witness order: lexicographic in the items (alpha,
    component), ordered by degree, then alpha, then component, where slot i
    of weight m takes a nondecreasing multiset of m items.  tables[p][s][b]
    counts the ways to finish a tuple from flat position p with degree b
    left and an item index of at least s there: a suffix sum over p + 1."""
    items = [(alpha, k) for alpha in monomials_up_to(d, total) for k in range(1, d + 1)]
    spend = [sum(alpha) for alpha, _ in items]
    index = {item: i for i, item in enumerate(items)}
    runs = [r > 0 for m in weights for r in range(m)] + [False]  # continues a slot
    tables = [[[int(b == 0) for b in range(total + 1)]] * (len(items) + 1)]  # past the end
    for p in reversed(range(len(runs) - 1)):
        table = [[0] * (total + 1) for _ in range(len(items) + 1)]
        for s in reversed(range(len(items))):
            after = tables[0][s if runs[p + 1] else 0]
            for b in range(total + 1):
                table[s][b] = table[s + 1][b] + (after[b - spend[s]] if spend[s] <= b else 0)
        tables.insert(0, table)

    def rank(tup):
        position, left, lo = 1, total, 0
        for p, item in enumerate(tup):
            lo, i = (lo if runs[p] else 0), index[item]
            position += tables[p][lo][left] - tables[p][i][left]
            left, lo = left - spend[i], i
        return position
    return tables[0][0][total], rank


# `_row_polynomial`'s factor, one memo for every row: `_butcher`'s `plus`
# mutates only fresh products, so a cached factor is never mutated
@functools.cache
def _monomial_factor(label, k, gamma) -> dict:
    return {((label, sum(gamma), gamma, k),): math.prod(map(math.factorial, gamma))}


def _row_polynomial(row, d: int) -> dict:
    """A (tree, labels) row's value at the origin as a polynomial in the
    inputs' jet coefficients, keyed (output component, layer tuple).  It runs
    `_butcher` over sparse polynomials: a monomial is a tuple of (label,
    |gamma|, gamma, component) factors, one per vertex reading [x^gamma] of
    that component of its input, with coefficient gamma!; a product
    concatenates monomials.  A root monomial's factors, sorted, are its
    (gamma, component) items slot by slot in item order: a layer tuple."""

    def times(p, q):
        return {a + b: x * y for a, x in p.items() for b, y in q.items()}

    def plus(p, q):
        for mono, c in q.items():
            p[mono] = p.get(mono, 0) + c
        return p

    poly = {}
    for k, value in enumerate(_butcher(*row, d, _monomial_factor, times, plus), start=1):
        for mono, c in value.items():
            key = (k, tuple((gamma, j) for _, _, gamma, j in sorted(mono)))
            poly[key] = poly.get(key, 0) + c
    return poly


def _combination(terms) -> dict:
    """Nonzero coefficients of the sum of coeff * polynomial over the
    (coeff, polynomial) terms."""
    vec = {}
    for coeff, poly in terms:
        for key, c in poly.items():
            vec[key] = vec.get(key, 0) + coeff * c
    return {key: q for key, q in vec.items() if q}


def _scaled_combination(terms, poly) -> tuple:
    """The one exact check: (scale, vector) for a list of (Fraction, row)
    terms, scale the lcm of the denominators and vector the nonzero integer
    coefficients of scale times the combination of the rows' polynomials
    `poly(row)`, each asked for only as it is added."""
    scale = math.lcm(*(q.denominator for q, _ in terms))
    return scale, _combination((q.numerator * (scale // q.denominator), poly(row))
                               for q, row in terms)


def certify_relation(terms, d: int) -> CertifyResult:
    """True iff the rational combination of rows is the zero map in dimension d.

    Exact for every row shape: it holds iff `_scaled_combination` of its
    rows' `_row_polynomial`s vanishes.  The witness is the first nonzero
    layer tuple in `_layer_ranks`' witness order, with the least output
    component nonzero there; when every input feeds one vertex, it is a
    monomial input tuple and the value is the combination's value on it at
    the origin.  `tuples_checked` is its 1-based position, or the layer size
    when the relation holds.
    """
    _check_dimension(d)
    terms = [(Fraction(c), _labelled(row)) for c, row in terms]
    n, _, weights = _rows_shape([row for _, row in terms])
    _check_assignments(d, n)
    size, rank = _layer_ranks(d, weights, n - 1)
    scale, vec = _scaled_combination(terms, lambda row: _row_polynomial(row, d))
    if not vec:
        items = monomial_basis_size(d, n - 1)
        tuples = math.prod(math.comb(items + m - 1, m) for m in weights)
        return CertifyResult(holds=True, witness=None, tuples_checked=size,
                             tuples_skipped_off_layer=tuples - size)
    comp, tup = min(vec, key=lambda key: (rank(key[1]), key[0]))
    witness = LayerWitness(slots=tup, component=comp, value=Fraction(vec[comp, tup], scale))
    return CertifyResult(holds=False, witness=witness, tuples_checked=rank(tup),
                         tuples_skipped_off_layer=0)


def _check_dimension(d: int):
    if d < 1:
        raise PreconditionError(f"dimension must be at least 1, got {d}")


# d ** n monomials, one per component assignment, in a plain row's verifier
# polynomial; certificates check it first
MAX_COMPONENT_ASSIGNMENTS = 4096
# vertices per row; binds at d = 1, where the verifier's rank table grows as n^3
MAX_ROW_VERTICES = 128


def _check_assignments(d: int, n: int):
    if n > MAX_ROW_VERTICES:
        raise SizeLimitError(f"{n} vertices per row exceed {MAX_ROW_VERTICES}")
    if d ** n > MAX_COMPONENT_ASSIGNMENTS:
        raise SizeLimitError(
            f"d ** n = {d ** n} component assignments per row exceed "
            f"{MAX_COMPONENT_ASSIGNMENTS}")


# ---------------------------------------------------------------------------
# two-sided dimension certificates

class CertifiedRelation(ReadOnly):
    __slots__ = ("leading", "coeffs", "verified")

    def __init__(self, leading: int, coeffs: tuple, verified: bool):
        # row position the relation eliminates
        object.__setattr__(self, "leading", leading)
        # ((row position, Fraction), ...) incl. leading 1
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "verified", verified)

    def to_json_dict(self) -> dict:
        return {
            "coeffs": [[pos, str(q)] for pos, q in self.coeffs],
            "leading": self.leading,
            "verified": self.verified,
        }


class _Bounds(ReadOnly):
    """The status rule and JSON record of anything with a `lower` and an `upper` bound."""

    __slots__ = ()

    @property
    def certified(self) -> bool:
        return self.lower == self.upper

    @property
    def status(self) -> str:
        return "certified" if self.certified else "inconclusive"

    @property
    def dimension(self) -> int | None:
        return self.lower if self.certified else None

    def to_json_dict(self) -> dict:
        return {"status": self.status, "dimension": self.dimension,
                "lower": self.lower, "upper": self.upper}


class BlockCertificate(_Bounds):
    __slots__ = ("key", "lower", "upper", "pivots", "relations")

    def __init__(self, key: tuple, lower: int, upper: int, pivots: tuple, relations: tuple):
        # the block's `_block_key`
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        # (global row position, column in the block), ascending
        object.__setattr__(self, "pivots", pivots)
        # CertifiedRelation, global row positions
        object.__setattr__(self, "relations", relations)


class DimensionCertificate(_Bounds):
    __slots__ = ("rows", "d", "lower", "upper", "minor_rows", "minor_cols", "relations",
                 "scheme", "block_bounds")

    def __init__(self, rows: tuple, d: int, lower: int, upper: int, minor_rows: tuple,
                 minor_cols: tuple, relations: tuple, scheme: MappingProxyType,
                 block_bounds: tuple):
        # the (tree, labels) rows certified, in input order
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "minor_rows", minor_rows)
        # each pivot row's column in its block's matrix
        object.__setattr__(self, "minor_cols", minor_cols)
        # CertifiedRelation, echelon leadings
        object.__setattr__(self, "relations", relations)
        # read-only: `columns` and the JSON read it
        object.__setattr__(self, "scheme", scheme)
        # BlockCertificate, blocks in order of first row
        object.__setattr__(self, "block_bounds", block_bounds)

    @property
    def rank(self) -> int:
        return self.lower

    @property
    def columns(self) -> int:
        """d x the jet tuples the widest block read."""
        return self.scheme["tuples"] * self.d

    @property
    def blocks(self) -> int:
        return len(self.block_bounds)

    def to_json_dict(self) -> dict:
        return {
            **super().to_json_dict(),
            "certified": self.certified,
            "rank": self.rank,
            "minorRows": list(self.minor_rows),
            "minorCols": list(self.minor_cols),
            "relations": [r.to_json_dict() for r in self.relations],
            "prime": PRIME,
            "seed": self.scheme["seed"],
            "scheme": dict(self.scheme),
            "columns": self.columns,
            "rows": len(self.rows),
            "blocks": self.blocks,
        }


# column batches one block may build before it reports inconclusive
MAX_BATCHES = 4
# evaluation columns per batch at least: a one-row block at d = 1 vanishes
# on about half of all tuples (87 % at bound 1).  Over seeds 0..99, 4 left
# `dim w --dim 1 --n 5` inconclusive once, and at bound 1, 8 left it so 23
# times; 16 certified every bench span at both bounds
MIN_BATCH_COLUMNS = 16
# evaluation columns one matrix may hold
MAX_COLUMNS = 6000
# modular prime of the elimination: the Mersenne prime 2^61 - 1
PRIME = (1 << 61) - 1


def dimension_certificate(rows, d: int,
                          config: RunConfig) -> DimensionCertificate:
    """Two-sided dimension of the span of the rows' evaluation maps.

    Each `_block_key` block is certified on its own (the module docstring's
    block lemma), on a prefix of one jet stream, so column c names the same
    (tuple, component) in every block.  The certificate sums the blocks'
    records, kept in `block_bounds`: the bounds are their sums, so they
    meet iff every block's do, and the pivots and relations their union, in
    global row positions, with each pivot's column its column in its block.
    It also records the rows, as (tree, labels) pairs, and d: the span it
    certifies.
    """
    _check_dimension(d)
    rows = tuple(_labelled(row) for row in rows)
    n, _, _ = _rows_shape(rows)
    _check_assignments(d, n)
    stream = JetStream(config.seed, config.random_bound)
    records = tuple(_certify_block(rows, key, positions, d, stream)
                    for key, positions in _blocks(rows).items())
    pivots = sorted(p for b in records for p in b.pivots)
    relations = sorted((r for b in records for r in b.relations),
                       key=operator.attrgetter("leading"))
    return DimensionCertificate(
        rows=rows, d=d,
        lower=sum(b.lower for b in records), upper=sum(b.upper for b in records),
        minor_rows=tuple(r for r, _ in pivots), minor_cols=tuple(c for _, c in pivots),
        relations=tuple(relations), scheme=MappingProxyType(stream.describe()),
        block_bounds=records,
    )


def _certify_block(rows, key, positions, d, stream) -> BlockCertificate:
    """The record of the block `key` of `rows`, at `positions`.

    Columns grow in batches (1.5x the row count, and at least
    `MIN_BATCH_COLUMNS`) until the bounds meet, for at most `MAX_BATCHES`
    batches.  A rank that two batches agree on does not end the loop: a
    one-row block at d = 1 and bound 1 vanishes on 87 % of all tuples, so
    two thin batches often agree on rank 0.  Each null row's relation is
    read off the rechecked pivot minor and checked against its rows'
    polynomials, each built on first use and kept for later batches.
    """
    block = [rows[i] for i in positions]
    if MAX_COLUMNS < len(block):
        raise PreconditionError(
            "certified answers need a column budget of at least the block's row count")
    poly = functools.cache(lambda r: _row_polynomial(block[r], d))  # once per row
    # 1.5 columns per row and at least MIN_BATCH_COLUMNS, in whole tuples
    batch_tuples = -(-max(3 * len(block), 2 * MIN_BATCH_COLUMNS) // (2 * d))
    total_tuples = 0
    for _ in range(MAX_BATCHES):
        want = min(total_tuples + batch_tuples, MAX_COLUMNS // d)
        if want <= total_tuples:
            break
        total_tuples = want
        data = build_matrix(block, d, stream, total_tuples).data
        elim = eliminate_mod(data, PRIME)
        solved = minor_is_nonsingular_mod(data, elim.pivot_rows, elim.pivot_cols, PRIME)
        if solved is None:
            raise PreconditionError("pivot minor failed its own recheck")
        relations = []
        for pos in elim.null_rows:
            # row pos minus its combination of pivot rows vanishes mod p
            residues = dict(zip(elim.pivot_rows, map(operator.neg, solved[pos])))
            residues[pos] = 1
            lifted = [(r, rational_reconstruct(a, PRIME))
                      for r, a in sorted(residues.items()) if a]
            if any(q is None for _, q in lifted):
                relations.append(CertifiedRelation(leading=positions[pos], coeffs=(),
                                                   verified=False))
                continue
            ok = not _scaled_combination([(q, r) for r, q in lifted], poly)[1]
            relations.append(CertifiedRelation(
                leading=positions[pos], coeffs=tuple((positions[r], q) for r, q in lifted),
                verified=ok))
        upper = len(block) - sum(r.verified for r in relations)
        if elim.rank == upper:
            break
    pivots = tuple((positions[r], c) for r, c in zip(elim.pivot_rows, elim.pivot_cols))
    return BlockCertificate(key=key, lower=elim.rank, upper=upper, pivots=pivots,
                            relations=tuple(relations))


# ---------------------------------------------------------------------------
# named spans

def _orbit_rows(n: int, orbit_code: str) -> list:
    """The trees whose arity vector lies in the orbit, in enumeration order."""
    return trees_with_arities([mi.arities for mi in enumerate_multi_indices(n)
                               if mi.orbit_code() == orbit_code])


def _check_span(n: int):
    """The one size rule of `dimension_w`, `dimension_labelled` and
    `block_basis`; `_check_assignments` bounds d.  n = 6 waits for transport."""
    if n > 5:
        raise SizeLimitError("named spans need n <= 5")


def dimension_w(d: int, n: int, linear: bool = False,
                config: RunConfig | None = None) -> DimensionCertificate:
    """Certified dimension of the span of all arity-n rows, or of the
    linear ones: the chain orbit 1,...,1,0."""
    config = config or RunConfig()
    _check_span(n)
    rows = _orbit_rows(n, ",".join(["1"] * (n - 1) + ["0"])) if linear else enumerate_trees(n)
    return dimension_certificate(rows, d, config)


def dimension_labelled(d: int, n: int, multiplicities,
                       config: RunConfig | None = None) -> DimensionCertificate:
    """Certified dimension of the span of one colour profile's evaluations.

    Each representative is evaluated with vertex v reading input number
    labels[v-1], so repeated colours mean repeated functions.
    """
    config = config or RunConfig()
    _check_span(n)
    if sum(multiplicities) != n:
        raise MismatchError("colour counts must sum to the vertex count")
    reps = enumerate_labelled(multiplicities)
    return dimension_certificate([(o.tree, o.labels) for o in reps], d, config)


# ---------------------------------------------------------------------------
# traces of the relabelling action on a span

def trace_on_span(certificate: DimensionCertificate, sigma: Permutation) -> Fraction:
    """Trace of the induced action of sigma on the span the certificate
    certified, read off the certificate alone.

    Basis: rows that are not eliminated by a relation; a certified
    certificate verified every one.  A permuted basis row is again a row
    (exact set check); if it lands on an eliminated row its expansion is
    read straight off that relation.
    """
    if not certificate.certified:
        raise PreconditionError("trace needs a certified span")
    if any(row != _labelled(row[0]) for row in certificate.rows):
        raise PreconditionError("traces are defined for plain tree rows")
    rows = [tree for tree, _ in certificate.rows]
    position = {row: i for i, row in enumerate(rows)}
    image = [position.get(relabel(row, sigma)) for row in rows]
    if None in image:
        raise SpanInstabilityError("relabelled row left the row set")
    # row_lead = -sum of the other coefficients times their rows
    expansions = {rel.leading: {pos: -q for pos, q in rel.coeffs if pos != rel.leading}
                  for rel in certificate.relations}
    basis = [i for i in range(len(rows)) if i not in expansions]
    trace = Fraction(0)
    for b in basis:
        j = image[b]
        if j == b:
            trace += 1
        elif j in expansions:
            trace += expansions[j].get(b, Fraction(0))
    return trace


# ---------------------------------------------------------------------------
# block decomposition by arity multi-index

def block_basis(d: int, n: int, orbit_code: str,
                config: RunConfig | None = None) -> DimensionCertificate:
    """Certificate of the span of the trees whose arity multi-index lies in
    one orbit, in enumeration order.  Its records are the orbit's
    multi-index blocks: a plain row's key is ((a_1,), ..., (a_n,)), and a
    block's pivot rows are its greedy basis in enumeration order.
    """
    config = config or RunConfig()
    _check_span(n)
    rows = _orbit_rows(n, orbit_code)
    if not rows:
        raise PreconditionError(f"no multi-index matches orbit {orbit_code!r}")
    return dimension_certificate(rows, d, config)
