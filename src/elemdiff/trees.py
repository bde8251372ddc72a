"""Labelled rooted trees and vertex permutations.

A tree is stored as a sorted tuple of (vertex, parent) pairs with parent 0
marking the root.  Vertex labels are positive integers and need not be
contiguous, so grafting constructions with shifted labels stay first-class;
operations that need the vertex set {1..n} say so.  A tree up to relabelling
is named by its lex-min member, which `labelling` builds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import MismatchError, PreconditionError, SizeLimitError

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


@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..n}, stored as the tuple of images of 1, 2, ..., n."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise PreconditionError(f"not a bijection of 1..{len(self.images)}: {self.images!r}")

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


def _reaches_root(pmap: dict) -> bool:
    """True iff every vertex of a parent map walks down to the root, i.e.
    the map has no cycle; every parent must itself be a key or ROOT.  A walk
    stops at the first vertex known to reach the root, so each vertex is
    walked through once."""
    reached = {ROOT}
    for v in pmap:
        path = set()
        while v not in reached:
            if v in path:
                return False
            path.add(v)
            v = pmap[v]
        reached |= path
    return True


@dataclass(frozen=True)
class Tree:
    """Rooted tree as sorted (vertex, parent) pairs; the root's parent is 0."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        vs = [v for v, _ in self.entries]
        if not vs:
            raise PreconditionError("tree needs at least one vertex")
        if list(self.entries) != sorted(self.entries) or len(set(vs)) != len(vs):
            raise PreconditionError("entries must be sorted with unique vertices")
        if vs[0] <= 0:
            raise PreconditionError("vertex labels must be positive")
        vset = set(vs)
        pmap = dict(self.entries)
        roots = [v for v, p in self.entries if p == ROOT]
        if len(roots) != 1:
            raise PreconditionError(f"need exactly one root, got {len(roots)}")
        for v, p in self.entries:
            if p != ROOT and p not in vset:
                raise PreconditionError(f"parent {p} of vertex {v} is not a vertex")
        if not _reaches_root(pmap):
            raise PreconditionError("parent map has a cycle")

    @staticmethod
    def from_parent_map(pmap: dict) -> Tree:
        return Tree(tuple(sorted(pmap.items())))

    @staticmethod
    def from_parents(parents) -> Tree:
        """parents[i] is the parent of vertex i+1; 0 marks the root."""
        return Tree(tuple((i + 1, p) for i, p in enumerate(parents)))

    @cached_property
    def parent_map(self) -> dict:
        return dict(self.entries)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.entries)

    @cached_property
    def root(self) -> int:
        return next(v for v, p in self.entries if p == ROOT)

    @cached_property
    def children_map(self) -> dict:
        cm = {v: [] for v in self.vertices}
        for v, p in self.entries:
            if p != ROOT:
                cm[p].append(v)
        return {v: tuple(sorted(ws)) for v, ws in cm.items()}

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
        return len(self.entries)

    def is_contiguous(self) -> bool:
        return self.vertices == tuple(range(1, self.size + 1))

    def parent_list(self) -> list[int]:
        """[parent of 1, parent of 2, ...]; vertex set must be {1..n}."""
        if not self.is_contiguous():
            raise PreconditionError("parent_list needs vertex set {1..n}")
        return [p for _, p in self.entries]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """(parent, child) pairs, sorted."""
        return tuple(sorted((p, v) for v, p in self.entries if p != ROOT))


def enumerate_trees(n: int) -> list[Tree]:
    """All n^(n-1) rooted trees on {1..n}, roots ascending, then parent lists ascending."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    if n > MAX_ENUM_VERTICES:
        raise SizeLimitError(f"n={n} exceeds the enumeration guard ({MAX_ENUM_VERTICES})")
    trees = []
    for root in range(1, n + 1):
        others = [v for v in range(1, n + 1) if v != root]
        for parents in itertools.product(range(1, n + 1), repeat=n - 1):
            pmap = dict(zip(others, parents))
            pmap[root] = ROOT
            if _reaches_root(pmap):
                trees.append(Tree.from_parent_map(pmap))
    return trees


def relabel(tree: Tree, sigma: Permutation) -> Tree:
    """Rename every vertex v to sigma(v), parents and root included."""
    if any(v > sigma.degree for v in tree.vertices):
        raise MismatchError("permutation degree below a vertex label")
    return Tree(tuple(sorted(
        (sigma(v), ROOT if p == ROOT else sigma(p)) for v, p in tree.entries
    )))


def retarget_edges(edges, sigma: Permutation) -> tuple[tuple[int, int], ...]:
    """Send each (source, target) edge to (source, sigma(target))."""
    return tuple(sorted((a, sigma(b)) for a, b in edges))


def retarget(tree: Tree, sigma: Permutation) -> Tree | None:
    """Move every edge's child endpoint through sigma, keeping sources fixed.

    Every vertex except sigma(root) ends up with exactly one incoming parent
    edge, so the only possible failure is a cycle, and then the result is
    None; `retarget_edges(tree.edges(), sigma)` gives the raw graph either way.
    """
    if not tree.is_contiguous() or sigma.degree != tree.size:
        raise MismatchError("retarget needs vertex set {1..n} and a matching permutation")
    pmap = {sigma(v): p for v, p in tree.entries if p != ROOT}
    pmap[sigma(tree.root)] = ROOT
    return Tree.from_parent_map(pmap) if _reaches_root(pmap) else None


def find_sigma(src: Tree, dst: Tree) -> Permutation:
    """The permutation retargeting src onto dst, children matched in ascending order.

    Requires the two trees to have the same arity at every vertex (same
    multi-index); anything else cannot be connected by retargeting.
    """
    if not src.is_contiguous() or not dst.is_contiguous() or src.size != dst.size:
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
    if not order or len(set(order)) != len(order):
        raise PreconditionError("order must be nonempty distinct labels")
    entries = [(order[0], ROOT)]
    for a, b in zip(order, order[1:]):
        entries.append((b, a))
    return Tree(tuple(sorted(entries)))


def is_linear(tree: Tree) -> bool:
    return all(len(tree.children(v)) <= 1 for v in tree.vertices)
