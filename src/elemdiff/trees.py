"""Labelled rooted trees and vertex permutations.

A tree on the vertex set {1..n} is its parent list: entry v - 1 is vertex
v's parent, and 0 marks the root.  A tree up to relabelling is named by its
lex-min member, which `labelling` builds.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import itemgetter

from .errors import MismatchError, PreconditionError, ReadOnly, SizeLimitError

ROOT = 0

# n^(n-1) growth; 8^7 = 2,097,152 trees is the most we ever want in memory.
MAX_ENUM_VERTICES = 8


def compose_with(right: tuple):
    """The map a -> a after right on image tuples of right's degree: a is
    read at right's images, so the result sends v to a(right(v)).  This is
    the one composition rule; `Permutation` and the subgroup walk in
    `groups` both go through it."""
    read = itemgetter(*[w - 1 for w in right])
    if len(right) == 1:     # one index reads a scalar, not a 1-tuple
        return lambda a: (read(a),)
    return read


def inverse_images(images: tuple) -> tuple:
    out = [0] * len(images)
    for v, w in enumerate(images, start=1):
        out[w - 1] = v
    return tuple(out)


class Permutation(ReadOnly):
    """Bijection of {1..n}, stored as the tuple of images of 1, 2, ..., n."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        if sorted(images) != list(range(1, len(images) + 1)):
            raise PreconditionError(f"not a bijection of 1..{len(images)}: {images!r}")
        object.__setattr__(self, "images", images)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash((self.images,))

    @staticmethod
    def identity(n: int) -> Permutation:
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def from_cycles(n: int, *cycles) -> Permutation:
        """Permutation of [n] from disjoint cycles, e.g. from_cycles(5, (1,2), (3,4))."""
        images = list(range(1, n + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return Permutation(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v - 1]

    def compose(self, other: Permutation) -> Permutation:
        """self after other: compose(self, other)(v) = self(other(v))."""
        if self.degree != other.degree:
            raise MismatchError("permutation degree mismatch")
        return Permutation(compose_with(other.images)(self.images))

    def inverse(self) -> Permutation:
        return Permutation(inverse_images(self.images))

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed points, longest first."""
        seen = set()
        lengths = []
        for v in range(1, self.degree + 1):
            if v in seen:
                continue
            length = 0
            w = v
            while w not in seen:
                seen.add(w)
                w = self(w)
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))

    def sign(self) -> int:
        return -1 if (self.degree - len(self.cycle_type())) % 2 else 1

    def fixed_points(self) -> int:
        return sum(1 for v in range(1, self.degree + 1) if self(v) == v)


def _reaches_root(parents) -> bool:
    """True iff every vertex of a parent list walks down to the root, i.e.
    the list has no cycle; every parent must lie in 0..n.  A walk stops at
    the first vertex known to reach the root, so each vertex is walked
    through once."""
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


class Tree(ReadOnly):
    """Rooted tree on {1..n}: parents[v-1] is vertex v's parent, 0 at the root."""

    __slots__ = ("parents", "__dict__")     # the cached properties live in __dict__

    def __init__(self, parents):
        parents = tuple(parents)
        n = len(parents)
        if not n:
            raise PreconditionError("tree needs at least one vertex")
        if min(parents) < ROOT or max(parents) > n:
            raise PreconditionError(f"parents must lie in 0..{n}: {parents!r}")
        if parents.count(ROOT) != 1:
            raise PreconditionError(f"need exactly one root, got {parents.count(ROOT)}")
        if not _reaches_root(parents):
            raise PreconditionError("parent list has a cycle")
        object.__setattr__(self, "parents", parents)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.parents == other.parents

    def __hash__(self):
        return hash((self.parents,))

    @property
    def vertices(self) -> range:
        return range(1, self.size + 1)

    @cached_property
    def root(self) -> int:
        return self.parents.index(ROOT) + 1

    @cached_property
    def children_map(self) -> dict:
        cm = {v: [] for v in self.vertices}
        for v, p in enumerate(self.parents, start=1):
            if p != ROOT:
                cm[p].append(v)
        return {v: tuple(ws) for v, ws in cm.items()}

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Vertices breadth-first from the root, children ascending."""
        order = [self.root]
        for v in order:
            order.extend(self.children_map[v])
        return tuple(order)

    def children(self, v: int) -> tuple[int, ...]:
        return self.children_map[v]

    @property
    def size(self) -> int:
        return len(self.parents)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """(parent, child) pairs, sorted."""
        return tuple(sorted((p, v) for v, p in enumerate(self.parents, start=1) if p != ROOT))


def parent_lists(n: int, multisets=None):
    """Parent lists (parent of 1, ..., parent of n; 0 at the root) of the
    rooted trees on {1..n}, roots ascending, then lists ascending.  For each
    root the non-root vertices' parents run over {1..n}^(n-1), or, given
    `multisets` of parents, over their distinct arrangements only."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    if n > MAX_ENUM_VERTICES:
        raise SizeLimitError(f"n={n} exceeds the enumeration guard ({MAX_ENUM_VERTICES})")
    arranged = None if multisets is None else sorted(
        {p for m in multisets for p in itertools.permutations(m)})
    for root in range(1, n + 1):
        for others in (itertools.product(range(1, n + 1), repeat=n - 1)
                       if arranged is None else arranged):
            parents = others[:root - 1] + (ROOT,) + others[root - 1:]
            if _reaches_root(parents):
                yield parents


def enumerate_trees(n: int) -> list[Tree]:
    """All n^(n-1) rooted trees on {1..n}, roots ascending, then parent lists ascending."""
    return [Tree(p) for p in parent_lists(n)]


def trees_with_arities(vectors) -> list[Tree]:
    """The rooted trees on {1..n} whose arity vector (vertex v's child count
    at v - 1) is one of `vectors`, in `enumerate_trees` order.  Vertex v
    parents a_v vertices, so each root tries only the (n - 1)!/prod a_v!
    arrangements of that parent multiset; a vector has as many trees."""
    vectors = [tuple(a) for a in vectors]
    if not vectors:
        return []
    n = len(vectors[0])
    if any(len(a) != n or sum(a) != n - 1 or min(a) < 0 for a in vectors):
        raise PreconditionError(f"arity vectors must be n={n} counts summing to n-1")
    multisets = [tuple(v for v, a_v in enumerate(a, start=1) for _ in range(a_v))
                 for a in set(vectors)]
    return [Tree(p) for p in parent_lists(n, multisets)]


def relabel(tree: Tree, sigma: Permutation) -> Tree:
    """Rename every vertex v to sigma(v), parents and root included."""
    if sigma.degree != tree.size:
        raise MismatchError("relabel needs a permutation of the tree's degree")
    parents = [ROOT] * tree.size
    for v, p in enumerate(tree.parents, start=1):
        parents[sigma(v) - 1] = ROOT if p == ROOT else sigma(p)
    return Tree(tuple(parents))


def retarget_edges(edges, sigma: Permutation) -> tuple[tuple[int, int], ...]:
    """Send each (source, target) edge to (source, sigma(target))."""
    return tuple(sorted((a, sigma(b)) for a, b in edges))


def retarget(tree: Tree, sigma: Permutation) -> Tree | None:
    """Move every edge's child endpoint through sigma, keeping sources fixed.

    Every vertex except sigma(root) ends up with exactly one incoming parent
    edge, so the only possible failure is a cycle, and then the result is
    None; `retarget_edges(tree.edges(), sigma)` gives the raw graph either way.
    """
    if sigma.degree != tree.size:
        raise MismatchError("retarget needs a permutation of the tree's degree")
    parents = [ROOT] * tree.size    # sigma(root) keeps no parent
    for v, p in enumerate(tree.parents, start=1):
        if p != ROOT:
            parents[sigma(v) - 1] = p
    parents = tuple(parents)
    return Tree(parents) if _reaches_root(parents) else None


def find_sigma(src: Tree, dst: Tree) -> Permutation:
    """The permutation retargeting src onto dst, children matched in ascending order.

    Requires the two trees to have the same arity at every vertex (same
    multi-index); anything else cannot be connected by retargeting.
    """
    if src.size != dst.size:
        raise MismatchError("find_sigma needs two trees on the same vertex set {1..n}")
    images = {}
    for v in src.vertices:
        cs, cd = src.children(v), dst.children(v)
        if len(cs) != len(cd):
            raise PreconditionError(f"arity mismatch at vertex {v}: {len(cs)} vs {len(cd)}")
        for a, b in zip(cs, cd):
            images[a] = b
    images[src.root] = dst.root
    return Permutation(tuple(images[v] for v in range(1, src.size + 1)))


def chain_tree(order) -> Tree:
    """Single descending path: order[0] is the root, each entry parents the next."""
    order = list(order)
    if not order or sorted(order) != list(range(1, len(order) + 1)):
        raise PreconditionError("order must list each of 1..n once")
    parents = [ROOT] * len(order)
    for a, b in zip(order, order[1:]):
        parents[b - 1] = a
    return Tree(tuple(parents))
