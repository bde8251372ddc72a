"""Exact truncated polynomial maps Q^d -> Q^m.

A jet stores, per output component, a dict from exponent tuples (length d,
total degree <= the truncation degree) to Fraction coefficients.  Everything
is exact; there is no floating point anywhere in this package.  Certificates
read no `Jet`: their random inputs are plain int tables (`random_jet_tuple`).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import MismatchError, PreconditionError


def monomials_up_to(d: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples with |alpha| <= degree, graded lexicographic order."""
    out = []
    for total in range(degree + 1):
        out.extend(_compositions(total, d))
    return out


def _compositions(total, slots) -> list[tuple[int, ...]]:
    """Tuples of `slots` nonnegative integers summing to `total`, in
    lexicographic order.  Each tuple counts one multiset of `total` slot
    indices; multisets in lexicographic order give the tuples in reverse."""
    out = []
    for units in itertools.combinations_with_replacement(range(slots), total):
        alpha = [0] * slots
        for j in units:
            alpha[j] += 1
        out.append(tuple(alpha))
    out.reverse()
    return out


class Jet:
    """Truncated polynomial map; comps[j] holds component j+1's coefficients."""

    __slots__ = ("d", "degree", "comps")

    def __init__(self, d: int, degree: int, comps):
        if d < 1 or degree < 0:
            raise PreconditionError("need d >= 1 and degree >= 0")
        self.d = d
        self.degree = degree
        cleaned = []
        for comp in comps:
            c = {}
            for alpha, q in comp.items():
                if len(alpha) != d or any(e < 0 for e in alpha):
                    raise PreconditionError(f"bad exponent {alpha!r} for d={d}")
                if sum(alpha) > degree:
                    raise PreconditionError(f"monomial {alpha!r} exceeds degree {degree}")
                if not isinstance(q, Fraction):
                    q = Fraction(q)
                if q:
                    c[alpha] = q
            cleaned.append(c)
        if not cleaned:
            raise PreconditionError("need at least one component")
        self.comps = tuple(cleaned)

    @property
    def ncomps(self) -> int:
        return len(self.comps)

    def is_scalar(self) -> bool:
        return len(self.comps) == 1

    def coeff(self, alpha, comp: int = 1) -> Fraction:
        return self.comps[comp - 1].get(tuple(alpha), Fraction(0))

    def __eq__(self, other):
        return (isinstance(other, Jet) and self.d == other.d
                and self.degree == other.degree and self.comps == other.comps)

    def __repr__(self):
        terms = []
        for j, comp in enumerate(self.comps, start=1):
            for alpha in sorted(comp, key=lambda a: (sum(a), a)):
                terms.append(f"{comp[alpha]}*x^{alpha}e{j}")
        body = " + ".join(terms) if terms else "0"
        return f"Jet(d={self.d}, D={self.degree}: {body})"

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "D": self.degree,
            "components": [
                {",".join(map(str, alpha)): str(q) for alpha, q in comp.items()}
                for comp in self.comps
            ],
        }

    @staticmethod
    def from_json_dict(obj) -> Jet:
        """The one reader of the jets format; a malformed object is a PreconditionError."""
        obj = obj if isinstance(obj, dict) else {}
        comps = obj.get("components")
        if not (type(obj.get("d")) is int and type(obj.get("D")) is int
                and isinstance(comps, list) and all(isinstance(c, dict) for c in comps)):
            raise PreconditionError(
                'each jet needs integer "d" and "D" and a "components" list of '
                '{"exponents": coefficient} objects')
        try:
            comps = [{tuple(int(x) for x in key.split(",")): Fraction(str(q))
                      for key, q in comp.items()} for comp in comps]
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(
                "jet exponents must be comma-separated integers and coefficients "
                "integers or fractions")
        return Jet(obj["d"], obj["D"], comps)


def add(a: Jet, b: Jet) -> Jet:
    if (a.d, a.degree, a.ncomps) != (b.d, b.degree, b.ncomps):
        raise MismatchError("jet shape mismatch in add")
    comps = []
    for ca, cb in zip(a.comps, b.comps):
        c = dict(ca)
        for alpha, q in cb.items():
            c[alpha] = c.get(alpha, Fraction(0)) + q
        comps.append(c)
    return Jet(a.d, a.degree, comps)


def component(a: Jet, j: int) -> Jet:
    """Component j as a scalar jet over the same variables."""
    if not 1 <= j <= a.ncomps:
        raise PreconditionError(f"component {j} out of range")
    return Jet(a.d, a.degree, [a.comps[j - 1]])


def assemble(scalars) -> Jet:
    """Stack scalar jets (same d, degree) into one multi-component jet."""
    scalars = list(scalars)
    if not scalars:
        raise PreconditionError("need at least one component")
    d, degree = scalars[0].d, scalars[0].degree
    for s in scalars:
        if not s.is_scalar() or s.d != d or s.degree != degree:
            raise MismatchError("assemble needs scalar jets of one shape")
    return Jet(d, degree, [s.comps[0] for s in scalars])


def mul_scalar(u: Jet, v: Jet) -> Jet:
    """Product of scalar jets; the result is only trusted to min(D_u, D_v)."""
    if not (u.is_scalar() and v.is_scalar()) or u.d != v.d:
        raise MismatchError("mul_scalar needs two scalar jets over the same variables")
    degree = min(u.degree, v.degree)
    out = {}
    for a1, q1 in u.comps[0].items():
        for a2, q2 in v.comps[0].items():
            alpha = tuple(x + y for x, y in zip(a1, a2))
            if sum(alpha) <= degree:
                out[alpha] = out.get(alpha, Fraction(0)) + q1 * q2
    return Jet(u.d, degree, [out])


def partial(u: Jet, i: int) -> Jet:
    """d/dx_i of a scalar jet; one order of truncation is spent."""
    if not u.is_scalar():
        raise MismatchError("partial expects a scalar jet")
    if not 1 <= i <= u.d:
        raise PreconditionError(f"direction {i} out of range for d={u.d}")
    degree = max(u.degree - 1, 0)
    out = {}
    for alpha, q in u.comps[0].items():
        e = alpha[i - 1]
        if e:
            beta = alpha[:i - 1] + (e - 1,) + alpha[i:]
            if sum(beta) <= degree:
                out[beta] = q * e
    return Jet(u.d, degree, [out])


def multi_partial(u: Jet, gamma) -> Jet:
    """Iterated partials; gamma[i] applications of d/dx_{i+1}."""
    for i, times in enumerate(gamma, start=1):
        for _ in range(times):
            u = partial(u, i)
    return u


def truncate(a: Jet, degree: int) -> Jet:
    if degree > a.degree:
        raise PreconditionError("cannot extend a jet's degree")
    return Jet(a.d, degree, [
        {al: q for al, q in comp.items() if sum(al) <= degree} for comp in a.comps
    ])


def monomial_basis_size(d: int, degree: int) -> int:
    return d * math.comb(degree + d, d)


def random_jet_tuple(rng, count: int, d: int, degree: int, bound: int) -> tuple:
    """`count` inputs, each d tables {alpha: int} over `monomials_up_to(d,
    degree)`, drawn uniformly from [-bound, bound] input by input, then
    component by component, in monomial order."""
    monos = monomials_up_to(d, degree)
    return tuple([{alpha: rng.randint(-bound, bound) for alpha in monos} for _ in range(d)]
                 for _ in range(count))
