"""Colourings of rooted trees up to simultaneous relabelling.

A labelled object is a tree plus one colour per vertex, taken modulo the
diagonal action (permute vertices, transport colours along).  Objects are
stored as the lex-min member of their orbit in (parent list, colours), so
equality of orbits is equality of representatives.  Every tree lives on
{1..n}, so members compare as plain tuples, parent list first.  They come
one colour profile (k_1, ..., k_ell) at a time, on n = k_1 + ... + k_ell
vertices.

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

from .errors import MismatchError, PreconditionError, ReadOnly, SizeLimitError
from .trees import ROOT, Tree

# bound on n^(n-2) x colourings, a conservative proxy for the work of one
# `enumerate_labelled` call; every profile at n <= 6, one colour to 8.
MAX_WALK_PAIRS = 10**6


class LabelledObject(ReadOnly):
    __slots__ = ("tree", "labels")

    def __init__(self, tree: Tree, labels: tuple):  # labels[v-1] = colour of vertex v
        if len(labels) != tree.size:
            raise MismatchError("one label per vertex")
        if any(not isinstance(x, int) or x < 1 for x in labels):
            raise PreconditionError("labels are positive integers")
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "labels", labels)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.tree == other.tree and self.labels == other.labels

    def __hash__(self):
        return hash((self.tree, self.labels))


def _lex_min(tree: Tree, labels) -> tuple:
    """(parents, colours) of the lex-min member of (tree, labels)'s orbit; each
    subtree, leaves first, is keyed by a walk over its sorted children."""
    children = tree.child_lists
    ordered, key = {}, {}
    for v in reversed(tree.order):  # children first; the root, and its walk, last
        ordered[v] = sorted(children[v], key=key.__getitem__)
        walk = [v]
        for w in walk:
            walk.extend(ordered[w])
        key[v] = (tuple([-len(children[w]) for w in walk]),
                  tuple([labels[w - 1] for w in walk]))
    number = {w: i for i, w in enumerate(walk, start=1)}
    parents = tuple([number.get(tree.parents[w - 1], ROOT) for w in walk])
    return parents, key[tree.root][1]


def canonicalize_labelled(base: Tree, labels) -> LabelledObject:
    """Minimal representative of the diagonal orbit of (base, labels)."""
    labels = tuple(labels)
    if len(labels) != base.size:
        raise MismatchError("one label per vertex")
    parents, colours = _lex_min(base, labels)
    return LabelledObject(Tree(parents), colours)


def enumerate_labelled(profile) -> list:
    """All orbits of (tree, colouring) in which colour c is on profile[c-1]
    of the n = sum(profile) vertices, each as its lex-min member in
    (parent list, labels), ascending.

    Shapes of k vertices are the lex-min members of those of k - 1 with a
    leaf added; each is its own lex-min member, so its orbits are the
    distinct lex-min colours of the colour vectors.
    """
    profile = tuple(profile)
    n = sum(profile)
    if any(k < 0 for k in profile):
        raise PreconditionError("colour counts must be nonnegative")
    if n < 1:
        raise PreconditionError("need n >= 1")
    if (n - 2) * math.log(n) > math.log(MAX_WALK_PAIRS):  # n^(n-2) alone; no huge power
        raise SizeLimitError(f"work proxy {n}^{n - 2} alone exceeds {MAX_WALK_PAIRS}")
    pairs = n ** (n - 1) // n * math.factorial(n) // math.prod(map(math.factorial, profile))
    if pairs > MAX_WALK_PAIRS:
        raise SizeLimitError(f"work proxy n^(n-2) x colourings = {pairs} exceeds {MAX_WALK_PAIRS}")
    colours = [c for c, k in enumerate(profile, start=1) if k]
    vectors = [labels for labels in itertools.product(colours, repeat=n)
               if all(labels.count(c) == profile[c - 1] for c in colours)]
    shapes = [Tree((ROOT,))]
    for k in range(2, n + 1):
        grown = {_lex_min(Tree(shape.parents + (v,)), (1,) * k)[0]
                 for shape in shapes for v in shape.vertices}
        shapes = [Tree(parents) for parents in sorted(grown)]
    return [LabelledObject(shape, labels) for shape in shapes
            for labels in sorted({_lex_min(shape, vector)[1] for vector in vectors})]
