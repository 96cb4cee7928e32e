"""Jet constraint systems built from a hypersurface germ."""

from __future__ import annotations

from fractions import Fraction

import pytest

from jetzeta.errors import NonvanishingError
from jetzeta.jets.poly import MultiPoly, parse_poly
from jetzeta.jets.system import (JetConstraintSystem, build_jet_system,
                                 jet_var_index, multiplicity)


def test_jet_var_index_layout():
    # level-major: all coordinates of level 1 first
    assert jet_var_index(1, 1, 2) == 0
    assert jet_var_index(2, 1, 2) == 1
    assert jet_var_index(1, 2, 2) == 2
    assert jet_var_index(2, 3, 2) == 5


def test_square_order_two():
    # f = x^2 at 0: level 1 empty, level 2 is a1^2 = 1
    sys = build_jet_system(parse_poly("x1^2"), [0], 2)
    assert sys.n == 1 and sys.m == 2 and sys.n_jet_vars == 2
    a1 = MultiPoly.var(2, 0)
    assert sys.level_polys[0].is_zero()
    assert sys.level_polys[1] == a1 * a1
    assert sys.targets == (0, 1)


def test_node_order_one_inconsistent():
    # f = x*y at the origin: t^1 coefficient vanishes identically but the
    # target is 1, so the system has no solutions
    sys = build_jet_system(parse_poly("x1*x2"), [0, 0], 1)
    assert sys.level_polys == (MultiPoly.zero(2),)
    assert sys.targets == (1,)


def test_smooth_line_order_one():
    sys = build_jet_system(parse_poly("x1"), [0], 1)
    assert sys.level_polys == (MultiPoly.var(1, 0),)
    assert sys.targets == (1,)


def test_cusp_levels():
    # f = x^2 + y^3: hand-expanded level constraints
    f = parse_poly("x1^2 + x2^3")
    sys = build_jet_system(f, [0, 0], 3)
    nv = 6
    a1, b1 = MultiPoly.var(nv, 0), MultiPoly.var(nv, 1)
    a2 = MultiPoly.var(nv, 2)
    assert sys.level_polys[0].is_zero()
    assert sys.level_polys[1] == a1 * a1
    assert sys.level_polys[2] == 2 * a1 * a2 + b1 ** 3
    assert sys.targets == (0, 0, 1)


def test_level_locality():
    f = parse_poly("x1^3 + x1*x2 + x2^4")
    sys = build_jet_system(f, [0, 0], 5)
    for k, g in enumerate(sys.level_polys, start=1):
        assert all(v // sys.n + 1 <= k for v in g.vars_used())


def test_rational_base_point_clearing():
    # f = x^2 - 1/9 vanishes at 1/3; shifted f = x^2 + (2/3) x
    f = MultiPoly(1, {(2,): 1, (0,): Fraction(-1, 9)})
    sys = build_jet_system(f, [Fraction(1, 3)], 2)
    assert all(g.is_integer() for g in sys.level_polys)
    a1, a2 = MultiPoly.var(2, 0), MultiPoly.var(2, 1)
    assert sys.level_polys[0] == 2 * a1          # 3 * (2/3 a1), target 0
    assert sys.level_polys[1] == 3 * a1 * a1 + 2 * a2
    assert sys.targets == (0, 3)
    assert sys.bad_primes() == {3}


def test_integer_point_off_origin():
    f = parse_poly("x1^2 - 2*x1 + 1")  # (x-1)^2
    sys = build_jet_system(f, [1], 2)
    ref = build_jet_system(parse_poly("x1^2"), [0], 2)
    assert sys.level_polys == ref.level_polys
    assert sys.targets == ref.targets
    assert sys.bad_primes() == set()


def test_nonvanishing_base_point():
    with pytest.raises(NonvanishingError):
        build_jet_system(parse_poly("x1^2 + 1"), [0], 2)
    with pytest.raises(NonvanishingError):
        build_jet_system(parse_poly("x1*x2"), [1, 1], 1)


def test_bad_order():
    with pytest.raises(ValueError):
        build_jet_system(parse_poly("x1"), [0], 0)


def test_search_space():
    sys = build_jet_system(parse_poly("x1*x2"), [0, 0], 3)
    assert sys.search_space(5) == 5 ** 6


def test_multiplicity():
    assert multiplicity(parse_poly("x1^2 + x2^3"), [0, 0]) == 2
    assert multiplicity(parse_poly("x1"), [0]) == 1
    assert multiplicity(parse_poly("x1^2 - 2*x1 + 1"), [1]) == 2
    assert multiplicity(parse_poly("x1*x2"), [0, 0]) == 2
    with pytest.raises(NonvanishingError):
        multiplicity(parse_poly("x1 + 1"), [0])
    with pytest.raises(ValueError):
        multiplicity(MultiPoly.zero(1), [0])


def test_high_order_truncation_drops_late_monomials():
    # x^5 contributes nothing below t^5
    sys = build_jet_system(parse_poly("x1^5 + x1^2"), [0], 4)
    ref = build_jet_system(parse_poly("x1^2"), [0], 4)
    assert sys.level_polys == ref.level_polys


def test_system_is_frozen():
    sys = build_jet_system(parse_poly("x1"), [0], 1)
    assert isinstance(sys, JetConstraintSystem)
    with pytest.raises(AttributeError):
        sys.m = 2
