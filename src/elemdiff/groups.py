"""Symmetric-group side: conjugacy classes, fixed-point characters, the
subgroup lattice up to conjugacy, coset characters, and the constraint scan.

Everything here is desk scale (degree at most 6), so the algorithms are the
blunt exact ones: explicit element sets, explicit conjugation, explicit
fixed-point counting, and subgroup classes told apart by membership in the
sets of conjugates of the classes already found.  Inside the subgroup walk
and the fixed-tree count an element is its plain image tuple, composed
through `trees.compose_with`; a class found wraps its generators and
members as `Permutation` once, when it is kept.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import MismatchError, PreconditionError, SizeLimitError
from .trees import Permutation, compose_with, inverse_images, parent_lists

MAX_SUBGROUP_DEGREE = 6
MAX_TREE_CHARACTER_DEGREE = 5


# ---------------------------------------------------------------------------
# conjugacy classes

@dataclass(frozen=True)
class ConjugacyClass:
    partition: tuple        # cycle type, longest first, fixed points included
    representative: Permutation
    size: int
    label: str


def _partitions(n: int):
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for head in range(min(rest, cap), 0, -1):
            for tail in rec(rest - head, head):
                yield (head,) + tail
    yield from rec(n, n)


def _class_size(n: int, partition) -> int:
    z = 1
    for length in set(partition):
        mult = partition.count(length)
        z *= length ** mult * math.factorial(mult)
    return math.factorial(n) // z


def _cycles(partition) -> tuple:
    """The non-trivial cycles of a cycle type laid on consecutive points,
    shortest first: (3, 2) gives ((1, 2), (3, 4, 5))."""
    out = []
    start = 1
    for length in sorted(l for l in partition if l > 1):
        out.append(tuple(range(start, start + length)))
        start += length
    return tuple(out)


@lru_cache(maxsize=None)
def conjugacy_classes(n: int) -> tuple:
    """All classes of the degree-n symmetric group, in the fixed display
    order: fewer moved points first, then ascending non-trivial cycle
    lengths (id, (12), (123), (12)(34), (1234), (12)(345), (12345) at n=5)."""
    classes = []
    # equal moved points leave equal fixed points, so sorted(p) then
    # compares the non-trivial cycle lengths, ascending
    for p in sorted(_partitions(n), key=lambda p: (n - p.count(1), sorted(p))):
        cycles = _cycles(p)
        label = "".join("(" + "".join(map(str, c)) + ")" for c in cycles)
        classes.append(ConjugacyClass(partition=p,
                                      representative=Permutation.from_cycles(n, *cycles),
                                      size=_class_size(n, p), label=label or "id"))
    return tuple(classes)


# ---------------------------------------------------------------------------
# character rows

@dataclass(frozen=True)
class CharacterRow:
    """A class function, one integer per conjugacy class in display order."""
    n: int
    name: str
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(conjugacy_classes(self.n)):
            raise MismatchError("one value per conjugacy class")

    def inner(self, other: "CharacterRow") -> Fraction:
        if self.n != other.n:
            raise MismatchError("characters live on one group")
        total = sum(cc.size * a * b for cc, a, b
                    in zip(conjugacy_classes(self.n), self.values, other.values))
        return Fraction(total, math.factorial(self.n))

    def pointwise_leq(self, other: "CharacterRow") -> bool:
        return all(a <= b for a, b in zip(self.values, other.values))

    def minus(self, other: "CharacterRow", name: str) -> "CharacterRow":
        if self.n != other.n:
            raise MismatchError("characters live on one group")
        return CharacterRow(self.n, name,
                            tuple(a - b for a, b in zip(self.values, other.values)))


def tree_fixed_character(n: int) -> CharacterRow:
    """Count the labelled rooted trees each class representative sigma
    fixes: the parent lists p with p[sigma(v)] = sigma(p[v]), where
    sigma(0) = 0 keeps the root mark."""
    if n > MAX_TREE_CHARACTER_DEGREE:
        raise SizeLimitError(f"tree character needs n <= {MAX_TREE_CHARACTER_DEGREE}")
    parents = list(parent_lists(n))
    vals = []
    for cc in conjugacy_classes(n):
        images = cc.representative.images
        at_sigma = compose_with(images)            # p -> (p[sigma(v)])_v
        sigma = (0,) + images                      # sigma[q] = sigma(q)
        vals.append(sum(1 for p in parents
                        if at_sigma(p) == tuple(map(sigma.__getitem__, p))))
    return CharacterRow(n, "tree_fixed_points", tuple(vals))


def sign_natural_character(d: int) -> CharacterRow:
    """Signature times the point-permutation character on 2d+1 points."""
    n = 2 * d + 1
    vals = tuple(
        cc.representative.sign() * cc.representative.fixed_points()
        for cc in conjugacy_classes(n)
    )
    return CharacterRow(n, "sign_times_natural", vals)


def reduced_tree_character(d: int = 2) -> CharacterRow:
    """Tree character minus the sign-times-natural row, on 2d+1 points."""
    return character_table(2 * d + 1)[2]


def character_table(n: int = 5) -> list:
    if n % 2 == 0 or n < 1:
        raise PreconditionError("the table lives on an odd number of points")
    tree, sign = tree_fixed_character(n), sign_natural_character((n - 1) // 2)
    return [tree, sign, tree.minus(sign, "reduced_difference")]


# ---------------------------------------------------------------------------
# subgroups up to conjugacy

@dataclass(frozen=True)
class SubgroupClass:
    order: int
    generators: tuple
    elements: frozenset
    cycle_profile: tuple     # sorted cycle types of all elements
    class_size: int          # number of conjugate subgroups
    fixes_point: bool
    label: str


def _closure(elems: frozenset, gens) -> frozenset:
    """The group `gens` generate, on image tuples: a union of right cosets
    elems·y of its subgroup `elems`, closed under right multiplication by
    each generator."""
    out = set(elems)
    steps = [compose_with(g) for g in gens]
    frontier = [tuple(range(1, len(gens[0]) + 1))]
    while frontier:
        new = []
        for y in frontier:
            for step in steps:
                z = step(y)
                if z not in out:
                    out.update(map(compose_with(z), elems))
                    new.append(z)
        frontier = new
    return frozenset(out)


def _profile(elems) -> tuple:
    return tuple(sorted(e.cycle_type() for e in elems))


@lru_cache(maxsize=None)
def subgroup_classes(n: int = 5) -> tuple:
    """Every subgroup of the degree-n symmetric group, one per conjugacy
    class, grown by single-generator extensions from the trivial group.

    Dedup: each class found records its whole set of conjugate subgroups,
    so a grown subgroup is new iff it is not among them, and the class
    size is the number of conjugates.  A generator is tried once per orbit
    of conjugation by the current subgroup (conjugate generators generate
    conjugate extensions).
    """
    if n < 1:
        raise PreconditionError("need n >= 1")
    if n > MAX_SUBGROUP_DEGREE:
        raise SizeLimitError(f"subgroup classification needs n <= {MAX_SUBGROUP_DEGREE}")
    group = list(itertools.permutations(range(1, n + 1)))
    known = set()
    found = []

    def record(elems, gens):
        # s and every s·k (k in elems) conjugate elems alike: one s per coset
        times = [compose_with(k) for k in elems]        # s -> s·k
        conjugates, covered = set(), set()
        for s in group:
            if s not in covered:
                coset = [t(s) for t in times]
                covered.update(coset)
                conjugates.add(frozenset(map(compose_with(inverse_images(s)), coset)))
        known.update(conjugates)
        members = frozenset(map(Permutation, elems))
        found.append((members, tuple(map(Permutation, gens)), _profile(members),
                      len(conjugates)))

    trivial = frozenset({group[0]})
    record(trivial, ())
    frontier = [(trivial, ())]
    while frontier:
        grown = []
        for elems, gens in frontier:
            tried = set(elems)
            # h·g·h^-1 as (h·g)·h^-1: h read at g, then at h^-1
            conjugators = [(h, compose_with(inverse_images(h))) for h in elems]
            for g in group:
                if g in tried:
                    continue
                through_g = compose_with(g)
                tried.update(undo(through_g(h)) for h, undo in conjugators)
                bigger = _closure(elems, gens + (g,))
                if bigger not in known:
                    record(bigger, gens + (g,))
                    grown.append((bigger, gens + (g,)))
        frontier = grown

    found.sort(key=lambda r: (len(r[0]), r[2]))
    out = []
    for order, same in itertools.groupby(found, key=lambda r: len(r[0])):
        for i, (elems, gens, profile, csize) in enumerate(same):
            fixes = any(all(e(q) == q for e in elems) for q in range(1, n + 1))
            out.append(SubgroupClass(order=order, generators=gens, elements=elems,
                                     cycle_profile=profile, class_size=csize,
                                     fixes_point=fixes,
                                     label=f"order{order}{chr(ord('a') + i)}"))
    return tuple(out)


# ---------------------------------------------------------------------------
# coset characters and the constraint scan

def coset_character(sub: SubgroupClass) -> CharacterRow:
    """Fixed cosets of each class representative acting by left translation:
    the induced character, n! #{h in sub of type c} / (|c| |sub|) on class c,
    read off the subgroup's cycle profile."""
    n = next(iter(sub.elements)).degree
    vals = tuple(math.factorial(n) * sub.cycle_profile.count(cc.partition)
                 // (cc.size * sub.order) for cc in conjugacy_classes(n))
    return CharacterRow(n, f"cosets_mod_{sub.label}", vals)


@dataclass(frozen=True)
class ScanSurvivor:
    subgroup: SubgroupClass
    values: tuple
    final_lhs: int
    final_rhs: int
    contradiction: bool

    def to_json_dict(self) -> dict:
        return {
            "label": self.subgroup.label,
            "order": self.subgroup.order,
            "generators": [list(g.images) for g in self.subgroup.generators],
            "fixesPoint": self.subgroup.fixes_point,
            "cosetValues": list(self.values),
            "finalTest": {"lhs": self.final_lhs, "rhs": self.final_rhs,
                          "contradiction": self.contradiction},
        }


@dataclass(frozen=True)
class ScanReport:
    n: int
    class_count: int
    reference: CharacterRow
    survivors: tuple

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "classCount": self.class_count,
            "reference": {"name": self.reference.name,
                          "values": list(self.reference.values)},
            "survivorCount": len(self.survivors),
            "survivors": [s.to_json_dict() for s in self.survivors],
        }


def constraint_scan(reference: CharacterRow | None = None) -> ScanReport:
    """Sieve the subgroup classes whose coset character fits under the
    reference row: pointwise at most the reference, equal values (at least
    one) on the two order-4 classes, zero on the order-6 and order-5
    classes.  Each survivor also gets the final doubling test
    2 * value(123) <= reference(123) recorded.
    """
    n = 5
    ref = reference if reference is not None else reduced_tree_character(2)
    if ref.n != n:
        raise MismatchError("the scan runs on five points")
    labels = [cc.label for cc in conjugacy_classes(n)]
    i_double = labels.index("(12)(34)")
    i_four = labels.index("(1234)")
    i_mixed = labels.index("(12)(345)")
    i_five = labels.index("(12345)")
    i_three = labels.index("(123)")
    survivors = []
    subs = subgroup_classes(n)
    for sub in subs:
        row = coset_character(sub)
        v = row.values
        if not row.pointwise_leq(ref):
            continue
        if not (v[i_double] == v[i_four] and v[i_double] >= 1):
            continue
        if v[i_mixed] != 0 or v[i_five] != 0:
            continue
        lhs = 2 * v[i_three]
        rhs = ref.values[i_three]
        survivors.append(ScanSurvivor(subgroup=sub, values=v, final_lhs=lhs,
                                      final_rhs=rhs, contradiction=lhs > rhs))
    return ScanReport(n=n, class_count=len(subs), reference=ref,
                      survivors=tuple(survivors))
