"""Colourings of rooted trees up to simultaneous relabelling.

A labelled object is a tree plus one colour per vertex, taken modulo the
diagonal action (permute vertices, transport colours along).  Objects are
stored as the lex-min member of their orbit in (parent list, colours), so
equality of orbits is equality of representatives.

That member is built directly.  Its root is 1 and vertex k's parent is the
lowest-numbered vertex with unnumbered children: the numbering is
breadth-first, and only sibling order is free.  The parent list is least
when the child counts, read in that order, are greatest.  Swapping adjacent
sibling subtrees swaps one block per level, and at the first level where the
blocks differ they have equal length.  So siblings sort by their subtrees'
breadth-first child counts, descending, then colours, ascending.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import MismatchError, PreconditionError, SizeLimitError
from .trees import ROOT, Tree

# bound on n^(n-2) x colourings, a conservative proxy for the work of one
# `enumerate_labelled` call; every profile at n <= 6, one colour to 8.
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


def _lex_min(tree: Tree, labels) -> tuple:
    """(entries, colours) of the lex-min member of (tree, labels)'s orbit; each
    subtree, leaves first, is keyed by a walk over its sorted children."""
    children = tree.children_map
    ordered, key = {}, {}
    for v in reversed(tree.order):  # children first; the root, and its walk, last
        ordered[v] = sorted(children[v], key=key.__getitem__)
        walk = [v]
        for w in walk:
            walk.extend(ordered[w])
        key[v] = (tuple([-len(children[w]) for w in walk]),
                  tuple([labels[w - 1] for w in walk]))
    number = {w: i for i, w in enumerate(walk, start=1)}
    entries = tuple([(number[w], number.get(tree.parent_map[w], ROOT)) for w in walk])
    return entries, key[tree.root][1]


def canonicalize_labelled(base: Tree, labels) -> LabelledObject:
    """Minimal representative of the diagonal orbit of (base, labels)."""
    labels = tuple(labels)
    if len(labels) != base.size:
        raise MismatchError("one label per vertex")
    if not base.is_contiguous():
        raise PreconditionError("canonicalization needs vertex set {1..n}")
    entries, colours = _lex_min(base, labels)
    return LabelledObject(Tree(entries), colours)


def enumerate_labelled(n: int, ell: int,
                       multiplicities: Optional[tuple] = None) -> list:
    """All orbits of (tree, labels in [ell]^n), optionally of one colour
    profile, each as its lex-min member in (entries, labels), ascending.

    Shapes of k vertices are the lex-min members of those of k - 1 with a
    leaf added; each is its own lex-min member, so its orbits are the
    distinct lex-min colours of the label vectors.
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    if ell < 1:
        raise PreconditionError("need at least one colour")
    if (n - 2) * math.log(n) > math.log(MAX_WALK_PAIRS):  # n^(n-2) alone; no huge power
        raise SizeLimitError(f"work proxy {n}^{n - 2} alone exceeds {MAX_WALK_PAIRS}")
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
    pairs = n ** (n - 1) // n * vector_count  # n^(n-2) x colourings
    if pairs > MAX_WALK_PAIRS:
        raise SizeLimitError(f"work proxy n^(n-2) x colourings = {pairs} exceeds {MAX_WALK_PAIRS}")
    vectors = [labels for labels in itertools.product(colours, repeat=n)
               if multiplicities is None
               or all(labels.count(c) == multiplicities[c - 1] for c in colours)]
    shapes = [Tree(((1, ROOT),))]
    for k in range(2, n + 1):
        grown = {_lex_min(Tree(shape.entries + ((k, v),)), (1,) * k)[0]
                 for shape in shapes for v in shape.vertices}
        shapes = [Tree(entries) for entries in sorted(grown)]
    return [LabelledObject(shape, labels) for shape in shapes
            for labels in sorted({_lex_min(shape, vector)[1] for vector in vectors})]
