"""Colourings of rooted trees up to simultaneous relabelling.

A labelled object is a tree plus one colour per vertex, taken modulo the
diagonal action (permute vertices, transport colours along).  Objects are
stored as the minimal representative of their orbit, so equality of orbits
is equality of representatives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

from .config import RunConfig
from .errors import MismatchError, PreconditionError, SizeLimitError
from .relations import (DimensionCertificate, _dimension_guard,
                        dimension_certificate)
from .trees import (Tree, all_permutations, canonical_code, enumerate_trees,
                    relabel)

MAX_CANON_VERTICES = 6


@dataclass(frozen=True)
class LabelledObject:
    tree: Tree
    labels: tuple  # labels[v-1] = colour of vertex v

    def __post_init__(self):
        if len(self.labels) != self.tree.size:
            raise MismatchError("one label per vertex")
        if any(not isinstance(x, int) or x < 1 for x in self.labels):
            raise PreconditionError("labels are positive integers")

    @property
    def n(self) -> int:
        return self.tree.size

    def multiplicities(self, ell: int | None = None) -> tuple:
        top = ell if ell is not None else max(self.labels)
        if top < max(self.labels):
            raise PreconditionError("label exceeds the declared count")
        return tuple(sum(1 for x in self.labels if x == i) for i in range(1, top + 1))

    def to_json_dict(self) -> dict:
        return {
            "base": self.tree.parent_list(),
            "labels": list(self.labels),
            "multiplicities": list(self.multiplicities()),
        }


def canonicalize_labelled(base: Tree, labels) -> LabelledObject:
    """Minimal representative of the diagonal orbit of (base, labels)."""
    labels = tuple(labels)
    n = base.size
    if len(labels) != n:
        raise MismatchError("one label per vertex")
    if not base.is_contiguous():
        raise PreconditionError("canonicalization needs vertex set {1..n}")
    if n > MAX_CANON_VERTICES:
        raise SizeLimitError(f"orbit minimum is explicit, n <= {MAX_CANON_VERTICES}")
    best_key = None
    best = None
    for sigma in all_permutations(n):
        t2 = relabel(base, sigma)
        lab2 = [0] * n
        for v in range(1, n + 1):
            lab2[sigma(v) - 1] = labels[v - 1]
        key = (t2.entries, tuple(lab2))
        if best_key is None or key < best_key:
            best_key = key
            best = (t2, tuple(lab2))
    return LabelledObject(best[0], best[1])


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


def enumerate_labelled(n: int, ell: int,
                       multiplicities: Optional[tuple] = None) -> list:
    """All orbits of (tree, labels in [ell]^n), optionally of one colour profile.

    Pairs are grouped by their coloured `canonical_code`, and only the first
    pair of each orbit pays the S_n search for its lex-min representative.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    if ell < 1:
        raise PreconditionError("need at least one colour")
    if multiplicities is not None:
        multiplicities = tuple(multiplicities)
        if len(multiplicities) != ell or any(k < 0 for k in multiplicities):
            raise PreconditionError("profile must list one count per colour")
        if sum(multiplicities) != n:
            raise MismatchError("colour counts must sum to the vertex count")
    if n > MAX_CANON_VERTICES:
        raise SizeLimitError(f"orbit minimum is explicit, n <= {MAX_CANON_VERTICES}")
    orbits = {}
    for tree in enumerate_trees(n):
        for labels in _label_vectors(n, ell, multiplicities):
            orbits.setdefault(canonical_code(tree, labels), (tree, labels))
    out = [canonicalize_labelled(tree, labels) for tree, labels in orbits.values()]
    out.sort(key=lambda o: (o.tree.entries, o.labels))
    return out


def _label_vectors(n, ell, multiplicities):
    if multiplicities is None:
        yield from itertools.product(range(1, ell + 1), repeat=n)
        return

    def rec(prefix, remaining):
        i = len(prefix)
        if i == n:
            yield tuple(prefix)
            return
        for colour in range(1, ell + 1):
            if remaining[colour - 1]:
                remaining[colour - 1] -= 1
                yield from rec(prefix + [colour], remaining)
                remaining[colour - 1] += 1

    yield from rec([], list(multiplicities))


def dimension_labelled(d: int, n: int, multiplicities,
                       config: Optional[RunConfig] = None) -> DimensionCertificate:
    """Certified dimension of the span of one colour profile's evaluations.

    Each representative is evaluated with vertex v reading input number
    labels[v-1], so repeated colours mean repeated functions.
    """
    config = config or RunConfig()
    _dimension_guard(d, n)
    multiplicities = tuple(multiplicities)
    ell = len(multiplicities)
    reps = enumerate_labelled(n, ell, multiplicities)
    rows = [(obj.tree, obj.labels) for obj in reps]
    return dimension_certificate(rows, d, config)
