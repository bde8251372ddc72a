"""Differential maps attached to trees and multi-indices.

`eval_tree` is the reference semantics on truncated jets, behind `eval f`;
it reads one input per vertex, in vertex order.  `eval_multiindex` is its
one-variable factorisation, behind `eval g`.  The alternating chain sum's
tree terms feed `identity s2d`.  The closed forms that cross-check these
routes are test oracles, in `tests/oracles.py`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import MismatchError, PreconditionError, SizeLimitError
from .jets import (Jet, add, assemble, component, mul_scalar, multi_partial,
                   truncate)
from .multiindex import MultiIndex
from .relations import MAX_COMPONENT_ASSIGNMENTS
from .trees import Permutation, Tree, chain_tree


def _check_vector_jets(jets):
    d = None
    for f in jets:
        if not isinstance(f, Jet):
            raise MismatchError(f"inputs must be jets, got {type(f).__name__}")
        if d is None:
            d = f.d
        if f.d != d or f.ncomps != f.d:
            raise MismatchError("inputs must be vector jets over one dimension")
    return d


def eval_tree(tree: Tree, inputs, degree: int | None = None) -> Jet:
    """Evaluation from the leaves up: each vertex differentiates its function
    once per child, in the child's output component, and multiplies the child
    values in.  It walks `Tree.order` backwards, with no recursion.  A vertex
    with k children forms d ** k products, which may not exceed
    `MAX_COMPONENT_ASSIGNMENTS`."""
    inputs = list(inputs)
    if len(inputs) != tree.size:
        raise MismatchError(f"{tree.size} vertices but {len(inputs)} inputs")
    d = _check_vector_jets(inputs)
    widest = max(map(len, tree.child_lists[1:]))
    if d ** widest > MAX_COMPONENT_ASSIGNMENTS:
        raise SizeLimitError(f"d ** k = {d ** widest} products at a vertex with k = {widest} "
                             f"children exceed {MAX_COMPONENT_ASSIGNMENTS}")
    if degree is not None:
        inputs = [truncate(f, degree) for f in inputs]
    values = {}
    for v in reversed(tree.order):
        values[v] = _eval_vertex(inputs[v - 1], [values.pop(c) for c in tree.children(v)], d)
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
    if _check_vector_jets(inputs) != 1:
        raise MismatchError("multi-index evaluation lives in one dimension")
    acc = None
    for i, f in enumerate(inputs, start=1):
        factor = multi_partial(f, (mi.arity(i),))
        acc = factor if acc is None else mul_scalar(acc, factor)
    return acc


def standard_identity_terms(m: int) -> list[tuple[int, tuple[int, ...]]]:
    """(sign, order) pairs of the alternating chain sum on 2m+1 inputs."""
    if m < 1:
        raise PreconditionError("need m >= 1")
    out = []
    for images in itertools.permutations(range(1, 2 * m + 1)):
        out.append((Permutation(images).sign(), images))
    return out


def standard_identity_tree_terms(m: int) -> list[tuple[Fraction, Tree]]:
    """The same sum written over labelled chain trees (leaf fixed, root varies)."""
    return [
        (Fraction(sign), chain_tree(list(order) + [2 * m + 1]))
        for sign, order in standard_identity_terms(m)
    ]
