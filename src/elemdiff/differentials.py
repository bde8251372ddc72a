"""Differential maps attached to trees and multi-indices.

`eval_tree` is the reference semantics on truncated jets.  The
closed forms (`monomial_term`, `tree_value_at_zero`, `tree_polynomial`) are
independent evaluation routes used for certification and cross-checking:
on monomial inputs a tree evaluates to a single exact monomial, and the
value at zero on general jets is a finite sum over component assignments.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Mapping

from .errors import MismatchError, PreconditionError
from .jets import (Jet, add, assemble, component, monomial_jet, mul_scalar,
                   multi_partial, partial, scale, truncate)
from .multiindex import MultiIndex
from .trees import ROOT, Permutation, Tree, chain_tree


def _jets_by_vertex(tree: Tree, inputs) -> dict:
    if isinstance(inputs, Mapping):
        missing = [v for v in tree.vertices if v not in inputs]
        if missing:
            raise MismatchError(f"no input for vertices {missing}")
        return {v: inputs[v] for v in tree.vertices}
    inputs = list(inputs)
    if not tree.is_contiguous():
        raise MismatchError("sequence inputs need vertex set {1..n}; pass a mapping")
    if len(inputs) != tree.size:
        raise MismatchError(f"{tree.size} vertices but {len(inputs)} inputs")
    return {v: inputs[v - 1] for v in tree.vertices}


def _check_vector_jets(jets):
    d = None
    for f in jets:
        if d is None:
            d = f.d
        if f.d != d or f.ncomps != f.d:
            raise MismatchError("inputs must be vector jets over one dimension")
    return d


def eval_tree(tree: Tree, inputs, degree: int | None = None) -> Jet:
    """Evaluation from the leaves up: each vertex differentiates its function
    once per child, in the child's output component, and multiplies the child
    values in.  It walks `Tree.order` backwards, with no recursion."""
    jbv = _jets_by_vertex(tree, inputs)
    d = _check_vector_jets(jbv.values())
    if degree is not None:
        jbv = {v: truncate(f, degree) for v, f in jbv.items()}
    values = {}
    for v in reversed(tree.order):
        values[v] = _eval_vertex(jbv[v], [values.pop(c) for c in tree.children(v)], d)
    return values[tree.root]


def _eval_vertex(f: Jet, child_jets: list, d: int) -> Jet:
    if not child_jets:
        return f
    out = []
    for k in range(1, d + 1):
        acc = None
        for js in itertools.product(range(1, d + 1), repeat=len(child_jets)):
            gamma = [0] * d
            for j in js:
                gamma[j - 1] += 1
            term = multi_partial(component(f, k), gamma)
            for cj, j in zip(child_jets, js):
                term = mul_scalar(term, component(cj, j))
            acc = term if acc is None else add(acc, term)
        out.append(acc)
    return assemble(out)


def eval_multiindex(mi: MultiIndex, inputs) -> Jet:
    """One-variable product of arity-many derivatives, one factor per slot."""
    inputs = list(inputs)
    if len(inputs) != mi.n:
        raise MismatchError(f"{mi.n} slots but {len(inputs)} inputs")
    for f in inputs:
        if f.d != 1 or not f.is_scalar():
            raise MismatchError("multi-index evaluation lives in one dimension")
    acc = None
    for i, f in enumerate(inputs, start=1):
        factor = multi_partial(f, (mi.arity(i),))
        acc = factor if acc is None else mul_scalar(acc, factor)
    return acc


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


def standard_identity_terms(m: int) -> list[tuple[int, tuple[int, ...]]]:
    """(sign, order) pairs of the alternating chain sum on 2m+1 inputs."""
    if m < 1:
        raise PreconditionError("need m >= 1")
    out = []
    for images in itertools.permutations(range(1, 2 * m + 1)):
        out.append((Permutation(images).sign(), images))
    return out


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


def standard_identity_tree_terms(m: int) -> list[tuple[Fraction, Tree]]:
    """The same sum written over labelled chain trees (leaf fixed, root varies)."""
    return [
        (Fraction(sign), chain_tree(list(order) + [2 * m + 1]))
        for sign, order in standard_identity_terms(m)
    ]


def eval_tree_labelled(tree: Tree, labels, inputs, degree: int | None = None) -> Jet:
    """Evaluate with vertex v receiving input number labels[v-1]."""
    labels = list(labels)
    if not tree.is_contiguous() or len(labels) != tree.size:
        raise MismatchError("labels must cover the vertex set {1..n}")
    inputs = list(inputs)
    if any(not 1 <= x <= len(inputs) for x in labels):
        raise PreconditionError("label out of range")
    return eval_tree(tree, {v: inputs[labels[v - 1] - 1] for v in tree.vertices}, degree)


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
    for w, p in tree.entries:
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
    for w, p in tree.entries:
        if p != ROOT:
            exponent[slots[w][1] - 1] -= 1
    return MonomialValue(coeff, tuple(exponent), slots[tree.root][1])


def tree_value_at_zero(tree: Tree, inputs) -> tuple[Fraction, ...]:
    """Value at the origin on general jets, by summing component assignments.

    Independent of eval_tree: the derivative order demanded of each vertex is
    read off its children's assigned components, and a jet answers a demanded
    derivative at zero with factorial-weighted coefficients.
    """
    jbv = _jets_by_vertex(tree, inputs)
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


def monomial_inputs_as_jets(tree: Tree, slots: Mapping, d: int, degree: int) -> dict:
    """Jet view of monomial slots, for cross-checking the closed form."""
    return {
        v: monomial_jet(d, degree, slots[v][0], slots[v][1])
        for v in tree.vertices
    }
