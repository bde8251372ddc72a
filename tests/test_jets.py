import math
import random
from fractions import Fraction

import pytest

from elemdiff.errors import MismatchError, PreconditionError
from elemdiff.jets import (Jet, add, assemble, component, monomial_basis_size, monomials_up_to,
                           mul_scalar, multi_partial, partial, random_jet_tuple, truncate)
from oracles import eval_at_zero, monomial_jet, random_jet, scale


def test_monomial_enumeration():
    for d in (1, 2, 3):
        for degree in (0, 1, 2, 4):
            monos = monomials_up_to(d, degree)
            assert len(monos) == math.comb(degree + d, d)
            assert len(set(monos)) == len(monos)
            assert all(len(a) == d and sum(a) <= degree for a in monos)
    assert monomial_basis_size(2, 4) == 2 * 15
    assert monomial_basis_size(3, 2) == 30


def _scalar_jet(rng, d, degree, bound):
    """Component 1 of a random vector jet: a scalar jet over d variables."""
    return component(random_jet(rng, d, degree, bound), 1)


def test_monomial_jet_and_coeff():
    u = monomial_jet(2, 4, (1, 2), comp=1, ncomps=1, coeff=Fraction(3, 7))
    assert u.coeff((1, 2)) == Fraction(3, 7)
    assert u.coeff((0, 0)) == 0
    assert u.is_scalar()
    with pytest.raises(PreconditionError):
        monomial_jet(2, 4, (0, 0), comp=3, ncomps=2)


def test_add_scale_linear_laws():
    rng = random.Random(2)
    a = random_jet(rng, 2, 3, 5)
    b = random_jet(rng, 2, 3, 5)
    assert add(a, b) == add(b, a)
    assert add(a, scale(-1, a)) == Jet(2, 3, [{}, {}])
    assert scale(2, add(a, b)) == add(scale(2, a), scale(2, b))
    assert scale(Fraction(1, 2), scale(2, a)) == a
    with pytest.raises(MismatchError):
        add(a, random_jet(rng, 2, 2, 5))  # degrees differ, no silent truncation


def test_component_assemble_round_trip():
    rng = random.Random(3)
    a = random_jet(rng, 3, 2, 4)
    assert assemble(component(a, j) for j in (1, 2, 3)) == a
    with pytest.raises(MismatchError):
        assemble([component(a, 1), _scalar_jet(rng, 3, 1, 4)])


def test_mul_scalar_truncation_rule():
    # product degree is the worse of the two factors
    x = monomial_jet(1, 5, (1,), 1, ncomps=1)
    y = monomial_jet(1, 2, (2,), 1, ncomps=1)
    p = mul_scalar(x, y)
    assert p.degree == 2
    assert p.coeff((3,)) == 0  # x^3 sits above the trusted degree and is dropped
    q = mul_scalar(x, truncate(x, 4))
    assert q.degree == 4
    assert q.coeff((2,)) == 1


def test_mul_scalar_ring_laws():
    rng = random.Random(5)
    u, v, w = (_scalar_jet(rng, 2, 3, 4) for _ in range(3))
    assert mul_scalar(u, v) == mul_scalar(v, u)
    assert mul_scalar(mul_scalar(u, v), w) == mul_scalar(u, mul_scalar(v, w))
    one = monomial_jet(2, 3, (0, 0), 1, ncomps=1)
    assert mul_scalar(u, one) == u


def test_partial_drops_one_degree():
    u = monomial_jet(2, 3, (2, 1), 1, ncomps=1)
    du = partial(u, 1)
    assert du.degree == 2
    assert du.coeff((1, 1)) == 2
    assert partial(du, 2).coeff((1, 0)) == 2
    with pytest.raises(PreconditionError):
        partial(u, 3)


def test_partial_leibniz():
    rng = random.Random(8)
    u = _scalar_jet(rng, 2, 4, 3)
    v = _scalar_jet(rng, 2, 4, 3)
    lhs = partial(mul_scalar(u, v), 1)
    rhs = add(mul_scalar(partial(u, 1), truncate(v, 3)),
              mul_scalar(truncate(u, 3), partial(v, 1)))
    assert lhs == rhs


def test_partials_commute():
    rng = random.Random(9)
    u = _scalar_jet(rng, 3, 4, 3)
    assert partial(partial(u, 1), 3) == partial(partial(u, 3), 1)


def test_multi_partial_matches_iteration():
    rng = random.Random(10)
    u = _scalar_jet(rng, 2, 5, 3)
    assert multi_partial(u, (2, 1)) == partial(partial(partial(u, 1), 1), 2)
    # gamma! shows up when reading a coefficient through derivatives at zero
    m = monomial_jet(2, 5, (2, 3), 1, ncomps=1, coeff=7)
    assert eval_at_zero(multi_partial(m, (2, 3)))[0] == 7 * 2 * 6


def test_eval_at_zero_and_truncate():
    rng = random.Random(11)
    a = random_jet(rng, 2, 4, 5)
    assert eval_at_zero(a) == (a.coeff((0, 0), 1), a.coeff((0, 0), 2))
    t = truncate(a, 2)
    assert t.degree == 2
    assert all(sum(al) <= 2 for c in t.comps for al in c)
    assert eval_at_zero(t) == eval_at_zero(a)
    with pytest.raises(PreconditionError):
        truncate(t, 4)


def test_random_jet_tuple_draw_order():
    # certificate columns depend on this order: inputs, then components,
    # then monomials in `monomials_up_to` order, one randint each
    seed, count, d, degree, bound = 123, 3, 2, 3, 3
    tables = random_jet_tuple(random.Random(seed), count, d, degree, bound)
    assert tables == random_jet_tuple(random.Random(seed), count, d, degree, bound)
    monos = monomials_up_to(d, degree)
    assert all(len(inputs) == d and all(list(table) == monos for table in inputs)
               for inputs in tables)
    rng = random.Random(seed)
    flat = [table[alpha] for inputs in tables for table in inputs for alpha in monos]
    assert flat == [rng.randint(-bound, bound) for _ in flat]
    assert all(type(x) is int for x in flat)


def test_json_round_trip():
    rng = random.Random(14)
    a = scale(Fraction(1, 3), random_jet(rng, 2, 3, 5))
    obj = a.to_json_dict()
    assert Jet.from_json_dict(obj) == a
    # fractions survive as exact strings
    flat = str(obj)
    assert "/" in flat


def test_malformed_json_jet_is_a_precondition_error():
    for obj in ([1], {"d": 1}, {"d": 1, "D": 1, "components": 5}):
        with pytest.raises(PreconditionError):
            Jet.from_json_dict(obj)
