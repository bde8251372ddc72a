"""Independent oracles and fixtures of the test suites.

No command reaches anything here; the tests check the package against it.
Each one computes by a route of its own, so an agreement is evidence:

  * closed forms for a tree's value: `monomial_term` on monomial inputs,
    `tree_polynomial` on short sums of them, and `tree_value_at_zero` on
    general jets, a sum over component assignments that shares no code
    with Butcher's recursion in `relations._column_entries` or with
    `relations._row_polynomial`;
  * the pre-Lie product on jets, the right-nested chains and the
    alternating sum over them, against grafting and against
    `standard_identity_tree_terms`;
  * corolla witness families, which tell retargeted trees apart in two
    variables;
  * membership in the span of a certificate's relations, and the value of
    one evaluation-matrix entry recomputed from scratch;
  * the parent lists of the rooted trees on {1..n} by rejection, every
    candidate filtered by a walk to the root;
  * small constructions: all of S_n, grafting sums, the linear trees,
    relabelled multi-indices, every colouring of n vertices in ell
    colours, colour pushes, the point-stabiliser class, scaled jets and
    random jets, one input of `random_jet_tuple` each.

Import as `from oracles import ...`: pytest puts `tests/` on the path.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Mapping

from elemdiff.differentials import _check_vector_jets, eval_tree, standard_identity_terms
from elemdiff.errors import MismatchError, PreconditionError
from elemdiff.groups import subgroup_classes
from elemdiff.jets import (Jet, _compositions, add, assemble, component, mul_scalar, partial,
                           random_jet_tuple)
from elemdiff.labelling import LabelledObject, canonicalize_labelled, enumerate_labelled
from elemdiff.multiindex import MultiIndex
from elemdiff.trees import Permutation, ROOT, Tree

# ---------------------------------------------------------------------------
# permutations, trees, multi-indices and colourings


def all_permutations(n: int) -> list[Permutation]:
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def graft_sum(scion: Tree, stock: Tree) -> list[Tree]:
    """All single-edge attachments of scion's root below a vertex of stock.
    The stock keeps its vertices 1..k, and scion vertex w becomes k + w."""
    k = stock.size
    return [Tree(stock.parents + tuple(v if p == ROOT else k + p for p in scion.parents))
            for v in stock.vertices]


def _reaches_root(parents) -> bool:
    """True iff every vertex of a parent list walks down to the root, i.e.
    the list has no cycle; every parent must lie in 0..n."""
    reached = {ROOT}
    for v in range(1, len(parents) + 1):
        path = set()
        while v not in reached:
            if v in path:
                return False
            path.add(v)
            v = parents[v - 1]
        reached |= path
    return True


def acyclic_parent_lists(n: int, multisets=None) -> list:
    """`trees.parent_lists` by rejection: per root, ascending, every
    candidate list of the other vertices' parents, over {1..n}^(n-1) or the
    distinct arrangements of the parent `multisets`, kept iff it has no
    cycle."""
    arranged = None if multisets is None else sorted(
        {p for m in multisets for p in itertools.permutations(m)})
    return [parents for root in range(1, n + 1)
            for others in (itertools.product(range(1, n + 1), repeat=n - 1)
                           if arranged is None else arranged)
            for parents in [others[:root - 1] + (ROOT,) + others[root - 1:]]
            if _reaches_root(parents)]


def is_linear(tree: Tree) -> bool:
    """Every vertex has at most one child: the tree is a chain."""
    return all(len(tree.children(v)) <= 1 for v in tree.vertices)


def relabel_multi_index(mi: MultiIndex, sigma: Permutation) -> MultiIndex:
    """Move the arity at v to sigma(v)."""
    if sigma.degree != mi.n:
        raise PreconditionError("permutation degree mismatch")
    out = [0] * mi.n
    for v in range(1, mi.n + 1):
        out[sigma(v) - 1] = mi.arity(v)
    return MultiIndex(tuple(out))


def multiplicities(obj: LabelledObject, ell: int | None = None) -> tuple:
    """How many vertices carry each colour 1..ell (ell defaults to the largest)."""
    top = ell if ell is not None else max(obj.labels)
    if top < max(obj.labels):
        raise PreconditionError("label exceeds the declared count")
    return tuple(sum(1 for x in obj.labels if x == i) for i in range(1, top + 1))


def all_colourings(n: int, ell: int) -> list[LabelledObject]:
    """Every orbit of (tree on n vertices, labels in [ell]^n): the union of
    the profiles' orbits over the weak compositions of n into ell parts,
    ascending in (parent list, labels)."""
    objs = [o for profile in _compositions(n, ell) for o in enumerate_labelled(profile)]
    return sorted(objs, key=lambda o: (o.tree.parents, o.labels))


def identify(phi, obj: LabelledObject) -> LabelledObject:
    """Push the labels through a colour map and re-canonicalize.

    phi may be a callable or a mapping on the colours in use; composing two
    pushes equals pushing the composition because both ends are canonical.
    """
    if isinstance(phi, Mapping):
        mapped = [phi[x] for x in obj.labels]
    else:
        mapped = [phi(x) for x in obj.labels]
    if any(not isinstance(x, int) or x < 1 for x in mapped):
        raise PreconditionError("colour map must land in positive integers")
    return canonicalize_labelled(obj.tree, mapped)


def point_stabilizer_class(n: int):
    """The class of the full stabilizer of one point."""
    for sub in subgroup_classes(n):
        if sub.order == math.factorial(n - 1) and sub.fixes_point:
            return sub
    raise PreconditionError("no point stabilizer found")  # cannot happen


# ---------------------------------------------------------------------------
# jets


def monomial_jet(d: int, degree: int, alpha, comp: int, ncomps: int | None = None,
                 coeff=1) -> Jet:
    """coeff * x^alpha in output slot `comp`, zero elsewhere."""
    ncomps = ncomps if ncomps is not None else d
    if not 1 <= comp <= ncomps:
        raise PreconditionError(f"component {comp} out of range")
    comps = [{} for _ in range(ncomps)]
    comps[comp - 1][tuple(alpha)] = Fraction(coeff)
    return Jet(d, degree, comps)


def random_jet(rng, d: int, degree: int, bound: int) -> Jet:
    """One input of `random_jet_tuple`, in its draw order, as a validated jet."""
    return Jet(d, degree, random_jet_tuple(rng, 1, d, degree, bound)[0])


def scale(q, a: Jet) -> Jet:
    """q times every coefficient of a."""
    q = Fraction(q)
    return Jet(a.d, a.degree, [{al: q * c for al, c in comp.items()} for comp in a.comps])


def eval_at_zero(a: Jet) -> tuple[Fraction, ...]:
    origin = (0,) * a.d
    return tuple(comp.get(origin, Fraction(0)) for comp in a.comps)


def is_zero(a: Jet) -> bool:
    return all(not c for c in a.comps)


# ---------------------------------------------------------------------------
# the pre-Lie product, chains and the alternating sum


def pre_lie(f: Jet, g: Jet) -> Jet:
    """f <| g: differentiate f along each component of g and sum."""
    if f.d != g.d or f.ncomps != f.d or g.ncomps != g.d:
        raise MismatchError("pre_lie needs two vector jets over one dimension")
    d = f.d
    out = []
    for k in range(1, d + 1):
        acc = None
        fk = component(f, k)
        for i in range(1, d + 1):
            term = mul_scalar(component(g, i), partial(fk, i))
            acc = term if acc is None else add(acc, term)
        out.append(acc)
    return assemble(out)


def left_chain(order, inputs) -> Jet:
    """Right-nested product: order picks who acts, the last input sits innermost."""
    inputs = list(inputs)
    order = list(order)
    if sorted(order) != list(range(1, len(inputs))):
        raise PreconditionError("order must be a permutation of all but the last input")
    acc = inputs[-1]
    for idx in reversed(order):
        acc = pre_lie(inputs[idx - 1], acc)
    return acc


def standard_identity(inputs) -> Jet:
    """Alternating sum of all right-nested chains over the first 2m inputs."""
    inputs = list(inputs)
    if len(inputs) < 3 or len(inputs) % 2 == 0:
        raise PreconditionError("need an odd number of inputs, at least 3")
    m = (len(inputs) - 1) // 2
    acc = None
    for sign, order in standard_identity_terms(m):
        term = left_chain(order, inputs)
        if sign < 0:
            term = scale(-1, term)
        acc = term if acc is None else add(acc, term)
    return acc


def eval_tree_labelled(tree: Tree, labels, inputs, degree: int | None = None) -> Jet:
    """Evaluate with vertex v receiving input number labels[v-1]."""
    labels = list(labels)
    if len(labels) != tree.size:
        raise MismatchError("labels must cover the vertex set {1..n}")
    inputs = list(inputs)
    if any(not 1 <= x <= len(inputs) for x in labels):
        raise PreconditionError("label out of range")
    return eval_tree(tree, [inputs[x - 1] for x in labels], degree)


# ---------------------------------------------------------------------------
# closed forms

MonomialValue = namedtuple("MonomialValue", "coeff exponent comp")


def monomial_term(tree: Tree, slots: Mapping) -> MonomialValue:
    """Exact evaluation on pure monomial inputs.

    slots[v] = (alpha, k) meaning vertex v's input is x^alpha in component k.
    The result is a single monomial: coeff * x^exponent in component `comp`
    (the root slot's component).  The falling factorials vanish exactly when
    some vertex is asked for more derivatives than its exponent carries,
    which also forces every exponent coordinate of the result to be >= 0.
    """
    first_alpha, _ = slots[tree.root]
    d = len(first_alpha)
    mu = {v: [0] * d for v in tree.vertices}
    for w, p in enumerate(tree.parents, start=1):
        if p != ROOT:
            mu[p][slots[w][1] - 1] += 1
    coeff = 1
    for v in tree.vertices:
        alpha = slots[v][0]
        for j in range(d):
            m = mu[v][j]
            if m:
                coeff *= math.perm(alpha[j], m)  # 0 when m exceeds alpha[j]
                if coeff == 0:
                    return MonomialValue(0, None, slots[tree.root][1])
    exponent = [0] * d
    for v in tree.vertices:
        alpha = slots[v][0]
        for j in range(d):
            exponent[j] += alpha[j]
    for w, p in enumerate(tree.parents, start=1):
        if p != ROOT:
            exponent[slots[w][1] - 1] -= 1
    return MonomialValue(coeff, tuple(exponent), slots[tree.root][1])


def _by_vertex(tree: Tree, inputs) -> dict:
    """Vertex -> input, from a mapping on the vertices or a sequence in vertex order."""
    if not isinstance(inputs, Mapping):
        inputs = list(inputs)
        if len(inputs) != tree.size:
            raise MismatchError(f"{tree.size} vertices but {len(inputs)} inputs")
        inputs = dict(zip(tree.vertices, inputs))
    missing = [v for v in tree.vertices if v not in inputs]
    if missing:
        raise MismatchError(f"no input for vertices {missing}")
    return {v: inputs[v] for v in tree.vertices}


def tree_value_at_zero(tree: Tree, inputs) -> tuple[Fraction, ...]:
    """Value at the origin on general jets, by summing component assignments.

    Independent of eval_tree: the derivative order demanded of each vertex is
    read off its children's assigned components, and a jet answers a demanded
    derivative at zero with factorial-weighted coefficients.
    """
    jbv = _by_vertex(tree, inputs)
    d = _check_vector_jets(jbv.values())
    verts = list(tree.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    total = [Fraction(0)] * d
    for assign in itertools.product(range(1, d + 1), repeat=len(verts)):
        prod = Fraction(1)
        ok = True
        for v in verts:
            gamma = [0] * d
            for c in tree.children(v):
                gamma[assign[pos[c]] - 1] += 1
            weight = 1
            for g in gamma:
                weight *= math.factorial(g)
            q = jbv[v].coeff(tuple(gamma), assign[pos[v]]) * weight
            if not q:
                ok = False
                break
            prod *= q
        if ok:
            total[assign[pos[tree.root]] - 1] += prod
    return tuple(total)


def tree_polynomial(tree: Tree, term_inputs: Mapping) -> dict:
    """Exact full evaluation when every input is a short sum of monomials.

    term_inputs[v] is a list of (coeff, alpha, k) triples; multilinearity
    expands the evaluation into one closed-form monomial per choice of term.
    Returns {(exponent, comp): coefficient} with zeros dropped.
    """
    verts = list(tree.vertices)
    out: dict = {}
    for combo in itertools.product(*(range(len(term_inputs[v])) for v in verts)):
        slots = {}
        pre = Fraction(1)
        for v, choice in zip(verts, combo):
            c, alpha, k = term_inputs[v][choice]
            pre *= Fraction(c)
            slots[v] = (alpha, k)
        if not pre:
            continue
        val = monomial_term(tree, slots)
        if val.coeff:
            key = (val.exponent, val.comp)
            out[key] = out.get(key, Fraction(0)) + pre * val.coeff
    return {k: q for k, q in out.items() if q}


def monomial_inputs_as_jets(tree: Tree, slots: Mapping, d: int, degree: int) -> list:
    """Jet view of monomial slots, in vertex order, for cross-checking the closed form."""
    return [monomial_jet(d, degree, slots[v][0], slots[v][1]) for v in tree.vertices]


# ---------------------------------------------------------------------------
# corolla witness families (two dimensions)


def corolla_witness_family(tree: Tree, v: int) -> dict:
    """Inputs that watch whether the set of children of v is preserved.

    v and its children receive y^k e_x + x^N e_y (k = child count of v),
    every other vertex x^N e_x; N is the vertex count.
    """
    n = tree.size
    k = len(tree.children(v))
    special = {v, *tree.children(v)}
    fam = {}
    for w in tree.vertices:
        if w in special:
            fam[w] = [(1, (0, k), 1), (1, (n, 0), 2)]
        else:
            fam[w] = [(1, (n, 0), 1)]
    return fam


Witness = namedtuple("Witness", "vertex family source")


def find_distinguishing_witness(t1: Tree, t2: Tree) -> Witness | None:
    """First corolla family on which the two trees evaluate differently."""
    if set(t1.vertices) != set(t2.vertices):
        raise MismatchError("witness search needs a shared vertex set")
    for source, base in (("first", t1), ("second", t2)):
        for v in base.vertices:
            fam = corolla_witness_family(base, v)
            if tree_polynomial(t1, fam) != tree_polynomial(t2, fam):
                return Witness(vertex=v, family=fam, source=source)
    return None


# ---------------------------------------------------------------------------
# certificates and evaluation matrices


def relation_vector(rel, nrows: int):
    """A `CertifiedRelation` as a dense coefficient vector over the rows."""
    v = [Fraction(0)] * nrows
    for pos, q in rel.coeffs:
        v[pos] = q
    return v


def reduce_against(vector, relations):
    """Remainder of a row-combination vector modulo echelonised relations."""
    v = list(vector)
    for rel in relations:
        lead = rel.leading
        if v[lead]:
            f = v[lead]  # relation has coefficient 1 at its leading position
            for pos, q in rel.coeffs:
                v[pos] -= f * q
    return v


def in_relation_span(vector, relations) -> bool:
    return not any(reduce_against(vector, relations))


def check_entry(matrix, r: int, c: int) -> bool:
    """Recompute one entry of an `EvalMatrix` with `tree_value_at_zero`, on
    its column's coefficient tables read as jets of degree n - 1."""
    t, k = divmod(c, matrix.d)
    tree, labels = matrix.rows[r]
    jets = {v: Jet(matrix.d, tree.size - 1, matrix.tuples[t][labels[v - 1] - 1])
            for v in tree.vertices}
    return tree_value_at_zero(tree, jets)[k] == matrix.data[r][c]
