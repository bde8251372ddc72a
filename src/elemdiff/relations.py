"""Exact linear algebra over evaluation columns.

Soundness layout:
  * entries are exact integers (random integer jets, value at the origin);
  * a nonsingular square minor modulo the prime `PRIME` proves the same
    minor is nonsingular over the rationals, so modular rank is an exact
    lower bound once the minor is re-checked;
  * candidate row relations are lifted from the modular nullspace by
    rational reconstruction and verified exactly: a row's value at the
    origin is a polynomial in its inputs' jet coefficients, one monomial per
    component assignment of its vertices, and a relation holds iff its
    sparse vector of monomial coefficients vanishes;
  * upper bound = rows - verified independent relations.  The two bounds
    either meet ("certified") or the result is reported inconclusive; a
    wrong number is never emitted.

Block lemma: the monomial of a component assignment js names, for each
input, the multiset of (gamma_v, js_v) over the vertices v reading it, and
|gamma_v| is v's arity.  So rows with different `_block_key`s (the arity
multi-index of a plain row; per colour, the sorted vertex arities of a
labelled one) have disjoint layer-vector supports.  The span is the direct
sum of its blocks: ranks add, every relation splits into one relation per
block, and a row is independent of the rows before it iff it is so within
its block.  `dimension_certificate` therefore certifies block by block and
adds the bounds.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence

from .config import RunConfig
from .differentials import tree_value_at_zero
from .errors import (MismatchError, PreconditionError, SizeLimitError,
                     SpanInstabilityError)
from .jets import monomial_basis_size, monomials_up_to, random_jet_tuple
from .labelling import enumerate_labelled
from .multiindex import MultiIndex, enumerate_multi_indices, project_arities
from .trees import Tree, Permutation, enumerate_trees, is_linear, relabel

# ---------------------------------------------------------------------------
# rows: a plain Tree, or (Tree, labels) with labels[v-1] = input slot of v


def _row_tree(row) -> Tree:
    return row[0] if isinstance(row, tuple) else row


def _row_labels(row, n: int) -> tuple[int, ...]:
    if isinstance(row, tuple):
        return tuple(row[1])
    return tuple(range(1, n + 1))


def _rows_shape(rows):
    """(n, input_count, weights) shared by all rows; raises on mixtures."""
    if not rows:
        raise PreconditionError("need at least one row")
    n = _row_tree(rows[0]).size
    labelled = isinstance(rows[0], tuple)
    if labelled:
        ell = max(max(row[1]) for row in rows)
        profile = None
        for row in rows:
            tree, labels = row
            if tree.size != n or len(labels) != n:
                raise MismatchError("rows must share one arity")
            counts = tuple(list(labels).count(i) for i in range(1, ell + 1))
            if profile is None:
                profile = counts
            elif counts != profile:
                raise MismatchError("labelled rows must share one multiplicity profile")
        return n, ell, profile
    for row in rows:
        if row.size != n:
            raise MismatchError("rows must share one arity")
    return n, n, tuple([1] * n)


def _block_key(row):
    """The row's block: its arity multi-index, or for a labelled row, per
    colour, the sorted arities of the vertices of that colour."""
    arities = project_arities(_row_tree(row))
    if not isinstance(row, tuple):
        return arities
    labels = row[1]
    return tuple(tuple(sorted(a for a, c in zip(arities.arities, labels) if c == colour))
                 for colour in range(1, max(labels) + 1))


def _blocks(rows) -> dict:
    """`_block_key` -> positions of its rows, blocks in order of first row."""
    out = {}
    for pos, row in enumerate(rows):
        out.setdefault(_block_key(row), []).append(pos)
    return out


# ---------------------------------------------------------------------------
# column schemes and the evaluation matrix

@dataclass(frozen=True)
class RandomColumns:
    tuples: int
    seed: int
    bound: int = 3

    def describe(self) -> dict:
        return {"scheme": "randomColumns", "tuples": self.tuples,
                "seed": self.seed, "bound": self.bound}


class JetStream:
    """Random integer jet tuples of one shape, drawn in order from one
    `random.Random(seed)`.  `prefix(t)` draws only the tuples it lacks, and
    drawing is sequential, so every matrix built on one stream reads the
    same tuple behind the same column."""

    def __init__(self, seed: int, ell: int, d: int, degree: int, bound: int):
        self.shape = (ell, d, degree, bound)
        self._rng = random.Random(seed)
        self._drawn = []

    def __len__(self) -> int:
        """Tuples drawn so far: the longest prefix any matrix has read."""
        return len(self._drawn)

    def prefix(self, t: int) -> tuple:
        while len(self._drawn) < t:
            self._drawn.append(random_jet_tuple(self._rng, *self.shape))
        return tuple(self._drawn[:t])


@dataclass
class EvalMatrix:
    rows: tuple
    d: int
    degree: int
    input_count: int
    col_index: tuple  # (tuple position, output component)
    data: list        # list of integer row vectors
    tuples: tuple     # the jet tuples behind the columns

    @property
    def ncols(self) -> int:
        return len(self.col_index)

    def check_entry(self, r: int, c: int) -> bool:
        """Recompute one entry from scratch (spot-check hook)."""
        t, comp = self.col_index[c]
        row = self.rows[r]
        tree = _row_tree(row)
        labels = _row_labels(row, tree.size)
        jets = {v: self.tuples[t][labels[v - 1] - 1] for v in tree.vertices}
        value = tree_value_at_zero(tree, jets)[comp - 1]
        return value == self.data[r][c]


def build_matrix(rows: Sequence, d: int, scheme: RandomColumns,
                 stream: Optional[JetStream] = None) -> EvalMatrix:
    """Evaluate every row on the first `scheme.tuples` tuples of `stream`
    (a fresh stream of the scheme's seed and bound when None), reading
    values at the origin."""
    rows = tuple(rows)
    n, ell, _weights = _rows_shape(rows)
    degree = n - 1
    if scheme.tuples * d > MAX_COLUMNS:
        raise SizeLimitError(
            f"{scheme.tuples * d} columns exceed the budget {MAX_COLUMNS}")
    shape = (ell, d, degree, scheme.bound)
    if stream is None:
        stream = JetStream(scheme.seed, *shape)
    elif stream.shape != shape:
        raise MismatchError("jet stream drawn for another row shape")
    tuples = stream.prefix(scheme.tuples)
    data = _column_entries(rows, tuples, n, d)
    col_index = tuple((t, k) for t in range(len(tuples)) for k in range(1, d + 1))
    return EvalMatrix(rows=rows, d=d, degree=degree, input_count=ell,
                      col_index=col_index, data=data, tuples=tuples)


def _row_support(tree: Tree, labels, d: int):
    """The row's d^n component assignments js, as the root's component and
    one (label, js_v, gamma_v) factor per vertex, gamma_v counting v's
    children per component.  On jets f_1, f_2, ... the row's value at the
    origin sums prod_v gamma_v! [x^gamma_v] f_label(v)_(js_v) over them."""
    verts = list(tree.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    kids = [[pos[c] for c in tree.children(v)] for v in verts]
    slots = [labels[v - 1] for v in verts]
    root = pos[tree.root]
    for js in itertools.product(range(1, d + 1), repeat=len(verts)):
        factors = []
        for i, j in enumerate(js):
            gamma = [0] * d
            for c in kids[i]:
                gamma[js[c] - 1] += 1
            factors.append((slots[i], j, tuple(gamma)))
        yield js[root], factors


class _FactorTable(dict):
    """(label, component, gamma) -> gamma! [x^gamma] f_label(component) on
    every tuple, computed on first use: the rows of one block read only the
    gammas their vertices' arities allow."""

    def __init__(self, tuples):
        super().__init__()
        self.tuples = tuples

    def __missing__(self, factor):
        i, j, g = factor
        w = math.prod(math.factorial(x) for x in g)
        column = self[factor] = [int(tup[i - 1].coeff(g, j)) * w for tup in self.tuples]
        return column


def _column_entries(rows, tuples, n, d):
    """Value at the origin of every row on every tuple of integer jets, one
    column per output component, in exact Python integers.

    Each row sums, over its `_row_support`, the product of factorial-weighted
    jet coefficients: one list per factor holds its coefficient on every
    tuple, and each assignment's product is added to its root component's
    list.
    """
    table = _FactorTable(tuples)
    data = []
    for row in rows:
        acc = [[0] * len(tuples) for _ in range(d)]
        for root, factors in _row_support(_row_tree(row), _row_labels(row, n), d):
            prod = table[factors[0]]
            for factor in factors[1:]:
                prod = map(operator.mul, prod, table[factor])
            acc[root - 1] = list(map(operator.add, acc[root - 1], prod))
        data.append([x for column in zip(*acc) for x in column])
    return data


# ---------------------------------------------------------------------------
# modular elimination and exact rank

@dataclass
class Elimination:
    rank: int
    pivot_rows: list
    pivot_cols: list
    null_rows: list      # positions of rows that reduced to zero
    null_vectors: list   # left-nullspace vectors mod p, aligned with null_rows


def eliminate_mod(matrix, p: int) -> Elimination:
    """Left-looking, no row swaps: each row is reduced against the pivots in
    creation order, so a vanishing row yields a nullspace vector supported on
    itself plus earlier pivot rows - an echelon structure that makes the
    reported vectors independent for free."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    pivots = []  # (row position, pivot column, reduced row, reduced aug)
    null_rows, null_vectors = [], []
    for pos in range(nrows):
        row = [x % p for x in matrix[pos]]
        aug = [0] * nrows
        aug[pos] = 1
        for ppos, pcol, prow, paug in pivots:
            f = row[pcol]
            if f:
                row[pcol:] = [(a - f * b) % p for a, b in zip(row[pcol:], prow[pcol:])]
                aug = [(a - f * b) % p for a, b in zip(aug, paug)]
        lead = next((c for c in range(ncols) if row[c]), None)
        if lead is None:
            null_rows.append(pos)
            null_vectors.append(aug)
            continue
        inv = pow(row[lead], p - 2, p)
        row[lead:] = [a * inv % p for a in row[lead:]]
        aug = [a * inv % p for a in aug]
        pivots.append((pos, lead, row, aug))
    return Elimination(
        rank=len(pivots),
        pivot_rows=[t[0] for t in pivots],
        pivot_cols=[t[1] for t in pivots],
        null_rows=null_rows,
        null_vectors=null_vectors,
    )


def minor_is_nonsingular_mod(matrix, row_positions, col_positions, p: int) -> bool:
    """Fresh elimination (with pivoting) of the selected square minor mod p.
    Nonzero determinant mod p proves a nonzero determinant over the integers."""
    k = len(row_positions)
    if k != len(col_positions):
        raise PreconditionError("minor must be square")
    sub = [[matrix[r][c] % p for c in col_positions] for r in row_positions]
    for i in range(k):
        piv = next((r for r in range(i, k) if sub[r][i]), None)
        if piv is None:
            return False
        if piv != i:
            sub[i], sub[piv] = sub[piv], sub[i]
        inv = pow(sub[i][i], p - 2, p)
        sub[i] = [x * inv % p for x in sub[i]]
        for r in range(i + 1, k):
            f = sub[r][i]
            if f:
                sub[r] = [(a - f * b) % p for a, b in zip(sub[r], sub[i])]
    return True


def exact_rank(matrix, method: str = "auto") -> tuple:
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
    if method == "auto":
        method = "bareiss"
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

def rational_reconstruct(a: int, p: int) -> Optional[Fraction]:
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

@dataclass(frozen=True)
class LayerWitness:
    slots: tuple        # ((alpha, component), ...): m per input of multiplicity m
    component: int      # output coordinate carrying the nonzero value
    value: Fraction     # the monomial's coefficient there

    def to_json_dict(self) -> dict:
        return {
            "inputs": [{"exponent": list(a), "component": k} for a, k in self.slots],
            "outputComponent": self.component,
            "value": str(self.value),
        }


@dataclass(frozen=True)
class CertifyResult:
    holds: bool
    witness: Optional[LayerWitness]
    tuples_checked: int
    tuples_skipped_off_layer: int


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


def _layer_ranks(d: int, weights, total: int):
    """(size, rank): how many tuples `_layer_tuples(d, len(weights), weights,
    total)` yields, and the 1-based position of one of them.  tables[p][s][b]
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


def _layer_vector(terms, n: int, d: int) -> dict:
    """Nonzero coefficients of the combination's value at the origin as a
    polynomial in the inputs' jet coefficients, keyed (output component,
    layer tuple): each support assignment reads [x^gamma] of component js
    of each vertex's input, and those (gamma, js), sorted slot by slot in
    item order, are a layer tuple."""
    vec = {}
    for coeff, row in terms:
        for root, factors in _row_support(_row_tree(row), _row_labels(row, n), d):
            weight = math.prod(math.factorial(g) for _, _, gamma in factors for g in gamma)
            factors.sort(key=lambda f: (f[0], sum(f[2]), f[2], f[1]))
            key = (root, tuple((gamma, j) for _, j, gamma in factors))
            vec[key] = vec.get(key, 0) + coeff * weight
    return {key: q for key, q in vec.items() if q}


def certify_relation(terms, d: int) -> CertifyResult:
    """True iff the rational combination of rows is the zero map in dimension d.

    Exact for every row shape: it holds iff every coefficient of its
    `_layer_vector` vanishes.  The witness is the first nonzero layer tuple
    in `_layer_tuples` order, with the least output component nonzero there;
    when every input feeds one vertex, it is a monomial input tuple and the
    coefficient is the combination's value on it at the origin.
    `tuples_checked` is its 1-based position, or the layer size when the
    relation holds.
    """
    _check_dimension(d)
    terms = [(Fraction(c), row) for c, row in terms]
    n, _, weights = _rows_shape([row for _, row in terms])
    _check_assignments(d, n)
    size, rank = _layer_ranks(d, weights, n - 1)
    vec = _layer_vector(terms, n, d)
    if not vec:
        items = monomial_basis_size(d, n - 1)
        tuples = math.prod(math.comb(items + m - 1, m) for m in weights)
        return CertifyResult(holds=True, witness=None, tuples_checked=size,
                             tuples_skipped_off_layer=tuples - size)
    comp, tup = min(vec, key=lambda key: (rank(key[1]), key[0]))
    witness = LayerWitness(slots=tup, component=comp, value=vec[comp, tup])
    return CertifyResult(holds=False, witness=witness, tuples_checked=rank(tup),
                         tuples_skipped_off_layer=0)


def _check_dimension(d: int):
    if d < 1:
        raise PreconditionError(f"dimension must be at least 1, got {d}")


# d ** n component assignments a row sums over, in the kernel and verifier
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

@dataclass(frozen=True)
class CertifiedRelation:
    leading: int                      # row position the relation eliminates
    coeffs: tuple                     # ((row position, Fraction), ...) incl. leading 1
    verified: bool

    def to_json_dict(self) -> dict:
        return {
            "coeffs": [[pos, str(q)] for pos, q in self.coeffs],
            "leading": self.leading,
            "verified": self.verified,
        }


@dataclass(frozen=True)
class BlockBounds:
    key: tuple                        # the block's `_block_key`
    lower: int
    upper: int
    pivot_rows: tuple                 # global positions of its pivot rows, ascending


@dataclass
class DimensionCertificate:
    status: str                       # "certified" | "inconclusive"
    dimension: Optional[int]
    lower: int
    upper: int
    rank: int
    minor_rows: tuple
    minor_cols: tuple                 # each pivot row's column in its block's matrix
    relations: tuple                  # CertifiedRelation, echelon leadings
    prime: int
    seed: int
    scheme: dict
    columns: int                      # d x the jet tuples the widest block read
    row_count: int
    block_bounds: tuple               # BlockBounds, blocks in order of first row

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    @property
    def blocks(self) -> int:
        return len(self.block_bounds)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "dimension": self.dimension,
            "certified": self.certified,
            "lower": self.lower,
            "upper": self.upper,
            "rank": self.rank,
            "minorRows": list(self.minor_rows),
            "minorCols": list(self.minor_cols),
            "relations": [r.to_json_dict() for r in self.relations],
            "prime": self.prime,
            "seed": self.seed,
            "scheme": self.scheme,
            "columns": self.columns,
            "rows": self.row_count,
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


def dimension_certificate(rows: Sequence, d: int,
                          config: RunConfig) -> DimensionCertificate:
    """Two-sided dimension of the span of the rows' evaluation maps.

    Each `_block_key` block is certified on its own (the module docstring's
    block lemma), on a prefix of one jet stream, so column c names the same
    (tuple, component) in every block.  The bounds are the blocks' sums, so
    they meet iff every block's do; pivots and relations keep their global
    row positions, and each pivot's column is its column in its own block.
    `block_bounds` keeps each block's bounds and pivot rows.
    """
    _check_dimension(d)
    rows = tuple(rows)
    n, ell, _weights = _rows_shape(rows)
    _check_assignments(d, n)
    stream = JetStream(config.seed, ell, d, n - 1, config.random_bound)
    bounds, pivots, relations = [], [], []
    for key, positions in _blocks(rows).items():
        block_lower, block_upper, block_pivots, block_relations = _certify_block(
            rows, positions, d, config, stream)
        bounds.append(BlockBounds(key=key, lower=block_lower, upper=block_upper,
                                  pivot_rows=tuple(r for r, _ in block_pivots)))
        pivots += block_pivots
        relations += block_relations
    lower = sum(b.lower for b in bounds)
    upper = sum(b.upper for b in bounds)
    pivots.sort()
    relations.sort(key=lambda r: r.leading)
    scheme = RandomColumns(tuples=len(stream), seed=config.seed, bound=config.random_bound)
    return DimensionCertificate(
        status="certified" if lower == upper else "inconclusive",
        dimension=lower if lower == upper else None,
        lower=lower, upper=upper, rank=lower,
        minor_rows=tuple(r for r, _ in pivots), minor_cols=tuple(c for _, c in pivots),
        relations=tuple(relations), prime=PRIME, seed=config.seed,
        scheme=scheme.describe(), columns=len(stream) * d, row_count=len(rows),
        block_bounds=tuple(bounds),
    )


def _certify_block(rows, positions, d, config, stream):
    """(lower, upper, pivots, relations) of the block of `rows` at
    `positions`, with pivots as (row position, column) pairs.

    Columns grow in batches (1.5x the row count, and at least
    `MIN_BATCH_COLUMNS`) until the bounds meet, for at most `MAX_BATCHES`
    batches.  A rank that two batches agree on does not end the loop: a
    one-row block at d = 1 and bound 1 vanishes on 87 % of all tuples, so
    two thin batches often agree on rank 0.
    """
    block = [rows[i] for i in positions]
    if MAX_COLUMNS < len(block):
        raise PreconditionError(
            "certified answers need a column budget of at least the block's row count")
    # 1.5 columns per row and at least MIN_BATCH_COLUMNS, in whole tuples
    batch_tuples = -(-max(3 * len(block), 2 * MIN_BATCH_COLUMNS) // (2 * d))
    total_tuples = 0
    for _ in range(MAX_BATCHES):
        want = min(total_tuples + batch_tuples, MAX_COLUMNS // d)
        if want <= total_tuples:
            break
        total_tuples = want
        scheme = RandomColumns(tuples=total_tuples, seed=config.seed,
                               bound=config.random_bound)
        data = build_matrix(block, d, scheme, stream).data
        elim = eliminate_mod(data, PRIME)
        if not minor_is_nonsingular_mod(data, elim.pivot_rows, elim.pivot_cols, PRIME):
            raise PreconditionError("pivot minor failed its own recheck")
        relations = []
        for pos, vec in zip(elim.null_rows, elim.null_vectors):
            lifted = _lift_relation(vec, PRIME)
            if lifted is None:
                relations.append(CertifiedRelation(leading=positions[pos], coeffs=(),
                                                   verified=False))
                continue
            ok = certify_relation([(q, block[r]) for r, q in lifted], d).holds
            relations.append(CertifiedRelation(
                leading=positions[pos], coeffs=tuple((positions[r], q) for r, q in lifted),
                verified=ok))
        upper = len(block) - sum(r.verified for r in relations)
        if elim.rank == upper:
            break
    pivots = [(positions[r], c) for r, c in zip(elim.pivot_rows, elim.pivot_cols)]
    return elim.rank, upper, pivots, relations


def _lift_relation(vec_mod_p, p):
    """Sparse rational lift of a modular nullspace vector; None on failure."""
    out = []
    for pos, a in enumerate(vec_mod_p):
        if a:
            q = rational_reconstruct(a, p)
            if q is None:
                return None
            out.append((pos, q))
    return out


# ---------------------------------------------------------------------------
# named spans

def span_rows(n: int, linear_only: bool = False) -> list:
    trees = enumerate_trees(n)
    if linear_only:
        trees = [t for t in trees if is_linear(t)]
    return trees


def _dimension_guard(d: int, n: int):
    if d >= 3 and n > 4:
        raise SizeLimitError("dimension runs need n <= 4 when d >= 3")
    if n > 5:
        raise SizeLimitError("dimension runs need n <= 5")


def dimension_w(d: int, n: int, linear: bool = False,
                config: Optional[RunConfig] = None) -> DimensionCertificate:
    """Certified dimension of the span of all (or all linear) arity-n rows."""
    config = config or RunConfig()
    _dimension_guard(d, n)
    return dimension_certificate(span_rows(n, linear_only=linear), d, config)


def dimension_labelled(d: int, n: int, multiplicities,
                       config: Optional[RunConfig] = None) -> DimensionCertificate:
    """Certified dimension of the span of one colour profile's evaluations.

    Each representative is evaluated with vertex v reading input number
    labels[v-1], so repeated colours mean repeated functions.
    """
    config = config or RunConfig()
    _dimension_guard(d, n)
    multiplicities = tuple(multiplicities)
    reps = enumerate_labelled(n, len(multiplicities), multiplicities)
    return dimension_certificate([(o.tree, o.labels) for o in reps], d, config)


def nullspace_relations(rows: Sequence, d: int, config: RunConfig):
    """Certified relation basis of the rows' span (may be empty)."""
    cert = dimension_certificate(rows, d, config)
    if not cert.certified:
        raise PreconditionError("nullspace request did not certify; grow the budget")
    return [r for r in cert.relations if r.verified], cert


def relation_vector(rel: CertifiedRelation, nrows: int):
    v = [Fraction(0)] * nrows
    for pos, q in rel.coeffs:
        v[pos] = q
    return v


def reduce_against(vector, relations, nrows: int):
    """Remainder of a row-combination vector modulo echelonised relations."""
    v = list(vector)
    for rel in relations:
        lead = rel.leading
        if v[lead]:
            f = v[lead]  # relation has coefficient 1 at its leading position
            for pos, q in rel.coeffs:
                v[pos] -= f * q
    return v


def in_relation_span(vector, relations, nrows: int) -> bool:
    return not any(reduce_against(vector, relations, nrows))


# ---------------------------------------------------------------------------
# traces of the relabelling action on a span

def trace_on_span(rows: Sequence, sigma: Permutation, d: int,
                  certificate: Optional[DimensionCertificate] = None,
                  config: Optional[RunConfig] = None) -> Fraction:
    """Trace of the induced action of sigma on the span of the rows.

    Basis: rows that are not eliminated by a certified relation.  A permuted
    basis row is again a row (exact set check); if it lands on an eliminated
    row its expansion is read straight off that relation.
    """
    rows = tuple(rows)
    for row in rows:
        if isinstance(row, tuple):
            raise PreconditionError("traces are defined for plain tree rows")
    if certificate is None:
        certificate = dimension_certificate(rows, d, config or RunConfig())
    if not certificate.certified:
        raise PreconditionError("trace needs a certified span")
    position = {row: i for i, row in enumerate(rows)}
    for row in rows:
        if relabel(row, sigma) not in position:
            raise SpanInstabilityError("relabelled row left the row set")
    expansions = {}
    for rel in certificate.relations:
        if not rel.verified:
            continue
        # row_lead = -sum of the other coefficients times their rows
        expansions[rel.leading] = {pos: -q for pos, q in rel.coeffs if pos != rel.leading}
    basis = [i for i in range(len(rows)) if i not in expansions]
    trace = Fraction(0)
    for b in basis:
        j = position[relabel(rows[b], sigma)]
        if j == b:
            trace += 1
        elif j in expansions:
            trace += expansions[j].get(b, Fraction(0))
    return trace


# ---------------------------------------------------------------------------
# block decomposition by arity multi-index

@dataclass(frozen=True)
class Block:
    mi: MultiIndex
    status: str                 # "certified" | "inconclusive": do its bounds meet
    dimension: Optional[int]    # None unless certified
    lower: int
    upper: int
    basis: tuple                # trees: the block's pivot rows

    def to_json_dict(self) -> dict:
        return {
            "arity": list(self.mi.arities),
            "status": self.status,
            "dimension": self.dimension,
            "lower": self.lower,
            "upper": self.upper,
            "basis": [t.parent_list() for t in self.basis],
        }


# tree size `block_basis` admits: its largest orbit, 2,1,1,0,0 at d = 5
# (30 blocks of 12 rows), takes 7.5 s as a whole run on a 2-CPU host; at
# n = 6, d = 4 one 60-row block of 2,1,1,1,0,0 takes 3.5 s, and that orbit
# has 60 of them
MAX_BLOCK_VERTICES = 5


def block_basis(d: int, n: int, orbit_code: str,
                config: Optional[RunConfig] = None) -> list:
    """Certified greedy bases of the multi-index blocks of one orbit.

    One dimension certificate over the trees whose arity multi-index lies in
    the orbit, in enumeration order; its per-block records are the blocks,
    one per multi-index in `enumerate_multi_indices` order.  A block's basis
    is its pivot rows - the greedy basis in enumeration order.
    """
    config = config or RunConfig()
    if n > MAX_BLOCK_VERTICES:
        raise SizeLimitError(f"block bases need n <= {MAX_BLOCK_VERTICES}")
    mis = [m for m in enumerate_multi_indices(n) if m.orbit_code() == orbit_code]
    if not mis:
        raise PreconditionError(f"no multi-index matches orbit {orbit_code!r}")
    rows = [t for t in enumerate_trees(n)
            if project_arities(t).orbit_code() == orbit_code]
    cert = dimension_certificate(rows, d, config)
    bounds = {b.key: b for b in cert.block_bounds}
    out = []
    for m in mis:
        b = bounds[m]
        certified = b.lower == b.upper
        out.append(Block(mi=m, status="certified" if certified else "inconclusive",
                         dimension=b.lower if certified else None, lower=b.lower,
                         upper=b.upper, basis=tuple(rows[i] for i in b.pivot_rows)))
    return out
