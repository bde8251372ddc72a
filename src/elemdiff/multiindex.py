"""Arity multi-indices on {1..n} and the arity projection from rooted trees."""

from __future__ import annotations

import re

from .errors import PreconditionError, ReadOnly, SizeLimitError
from .jets import _compositions
from .trees import Tree

MAX_ENUM_N = 12


class MultiIndex(ReadOnly):
    """arities[v-1] is the child count assigned to vertex v; they sum to n-1."""

    __slots__ = ("arities",)

    def __init__(self, arities: tuple[int, ...]):
        if any(a < 0 for a in arities):
            raise PreconditionError("arities must be nonnegative")
        if sum(arities) != len(arities) - 1:
            raise PreconditionError(
                f"arities must sum to n-1, got {sum(arities)} for n={len(arities)}"
            )
        object.__setattr__(self, "arities", arities)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.arities == other.arities

    def __hash__(self):
        return hash((self.arities,))

    @property
    def n(self) -> int:
        return len(self.arities)

    def arity(self, v: int) -> int:
        return self.arities[v - 1]

    def orbit_code(self) -> str:
        """Shared by exactly the relabellings of this multi-index."""
        return ",".join(str(a) for a in sorted(self.arities, reverse=True))

    def text(self) -> str:
        return "z[" + "".join(f"({v},{a})" for v, a in enumerate(self.arities, start=1)) + "]"

    @staticmethod
    def parse(s: str) -> MultiIndex:
        """Accepts the z[(v,k)...] form or a bare comma list of arities."""
        s = s.strip()
        m = re.fullmatch(r"z\[((?:\(\d+,\d+\))*)\]", s)
        if m:
            pairs = re.findall(r"\((\d+),(\d+)\)", m.group(1))
            got = {int(v): int(a) for v, a in pairs}
            if sorted(got) != list(range(1, len(pairs) + 1)):
                raise PreconditionError(f"vertex list in {s!r} is not 1..n")
            return MultiIndex(tuple(got[v] for v in sorted(got)))
        if re.fullmatch(r"\d+(,\d+)*", s):
            return MultiIndex(tuple(int(x) for x in s.split(",")))
        raise PreconditionError(f"cannot parse multi-index {s!r}")

    def to_json_dict(self) -> dict:
        return {"n": self.n, "arity": list(self.arities)}


def project_arities(tree: Tree) -> MultiIndex:
    """Forget everything about a tree except each vertex's child count."""
    return MultiIndex(tuple(len(tree.children(v)) for v in tree.vertices))


def enumerate_multi_indices(n: int) -> list[MultiIndex]:
    """All weak compositions of n-1 into n parts, lexicographic order."""
    if n < 1:
        raise PreconditionError("need n >= 1")
    if n > MAX_ENUM_N:
        raise SizeLimitError(f"n={n} exceeds the enumeration guard ({MAX_ENUM_N})")
    return [MultiIndex(a) for a in _compositions(n - 1, n)]

