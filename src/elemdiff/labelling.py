"""Colourings of rooted trees up to simultaneous relabelling.

A labelled object is a tree plus one colour per vertex, taken modulo the
diagonal action (permute vertices, transport colours along).  Objects are
stored as the minimal representative of their orbit, so equality of orbits
is equality of representatives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import MismatchError, PreconditionError, SizeLimitError
from .trees import ROOT, Tree, _trees_rooted_at, canonical_code

MAX_CANON_VERTICES = 6
# (root-1 tree, label vector) pairs one `enumerate_labelled` walk may visit.
# It admits every colour profile at n <= 6; the costliest admitted walk,
# `1,1,1,1,1,1` at n = 6 (933,120 pairs), takes 11 s on a 2-CPU host.
MAX_WALK_PAIRS = 10**6


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

    def moved(sigma):  # vertex v renamed sigma[v-1], colours carried along
        entries = tuple(sorted((sigma[v - 1], ROOT if p == ROOT else sigma[p - 1])
                               for v, p in base.entries))
        colours = [0] * n
        for v, colour in enumerate(labels):
            colours[sigma[v] - 1] = colour
        return entries, tuple(colours)

    entries, colours = min(map(moved, itertools.permutations(range(1, n + 1))))
    return LabelledObject(Tree(entries), colours)


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
    """All orbits of (tree, labels in [ell]^n), optionally of one colour
    profile, each as its lex-min member in (entries, labels), ascending.

    Every orbit has members rooted at 1, and they sort below all others.
    The walk pairs those trees, parent lists ascending, with the label
    vectors, ascending, so its first pair of each coloured `canonical_code`
    is that orbit's lex-min member.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    if ell < 1:
        raise PreconditionError("need at least one colour")
    if n > MAX_CANON_VERTICES:
        raise SizeLimitError(f"labelled orbits are enumerated for n <= {MAX_CANON_VERTICES}")
    if multiplicities is None:
        colours = range(1, ell + 1)
        vector_count = ell ** n
    else:
        multiplicities = tuple(multiplicities)
        if len(multiplicities) != ell or any(k < 0 for k in multiplicities):
            raise PreconditionError("profile must list one count per colour")
        if sum(multiplicities) != n:
            raise MismatchError("colour counts must sum to the vertex count")
        colours = [c for c, k in enumerate(multiplicities, start=1) if k]
        vector_count = math.factorial(n) // math.prod(map(math.factorial, multiplicities))
    pairs = n ** (n - 1) // n * vector_count  # root-1 trees times label vectors
    if pairs > MAX_WALK_PAIRS:
        raise SizeLimitError(f"walk of {pairs} (tree, labels) pairs exceeds {MAX_WALK_PAIRS}")
    vectors = [labels for labels in itertools.product(colours, repeat=n)
               if multiplicities is None
               or all(labels.count(c) == multiplicities[c - 1] for c in colours)]
    orbits = {}
    for tree in _trees_rooted_at(n, 1):
        for labels in vectors:
            code = canonical_code(tree, labels)
            if code not in orbits:
                orbits[code] = LabelledObject(tree, labels)
    return list(orbits.values())
