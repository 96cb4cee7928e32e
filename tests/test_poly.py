"""Sparse polynomial ring and the x1..xn parser."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jetzeta.errors import ParseError
from jetzeta.jets.poly import MultiPoly, parse_poly


def test_parse_basic():
    p = parse_poly("x1^2 + x2^3")
    assert p.n_vars == 2
    assert p.items() == [((0, 3), 1), ((2, 0), 1)]


def test_parse_products_and_signs():
    p = parse_poly("2*x1*x2 - 3*x1^2 + 1")
    assert p == MultiPoly(2, {(1, 1): 2, (2, 0): -3, (0, 0): 1})
    assert parse_poly("-x1", 1) == MultiPoly(1, {(1,): -1})
    assert parse_poly("- -x1", 1) == MultiPoly(1, {(1,): 1})
    assert parse_poly("x1 - -2", 1) == MultiPoly(1, {(1,): 1, (0,): 2})


def test_parse_parens():
    p = parse_poly("(x1 + x2)^2")
    assert p == MultiPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    q = parse_poly("x1*(x1 + 1)*(x1 - 1)", 1)
    assert q == MultiPoly(1, {(3,): 1, (1,): -1})


def test_parse_explicit_nvars_pads():
    p = parse_poly("x1", 3)
    assert p.n_vars == 3
    assert p.items() == [((1, 0, 0), 1)]


def test_parse_cancellation_to_zero():
    assert parse_poly("x1 - x1", 1).is_zero()


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_poly("x1 + x")
    assert e.value.pos == 5
    with pytest.raises(ParseError) as e:
        parse_poly("x1^x2")
    assert e.value.pos == 3
    with pytest.raises(ParseError) as e:
        parse_poly("(x1 + 2")
    assert "')'" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_poly("x1 x2")
    assert "trailing" in str(e.value)
    with pytest.raises(ParseError):
        parse_poly("x0 + 1")
    with pytest.raises(ParseError):
        parse_poly("x1 + $")
    with pytest.raises(ParseError):
        parse_poly("x1 + x2", 1)  # declared count too small
    with pytest.raises(ParseError):
        parse_poly("")


def test_parse_error_position_first_fault():
    # the ')' at 5 is reported, not the '$' the tokenizer would reject later
    with pytest.raises(ParseError) as e:
        parse_poly("x1 + ) $")
    assert e.value.pos == 5
    assert str(e.value) == \
        "expected a number, variable, or '(' (got ')') (at position 5)"


def test_parse_large_exponent_squares(monkeypatch):
    # x1^1000000 takes about 2 log2(10^6) products, not a million
    products = []
    mul = MultiPoly.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    assert parse_poly("x1^1000000").items() == [((1000000,), 1)]
    assert len(products) <= 2 * 20


def _atom_text(rng: random.Random, depth: int, power: bool = True) -> str:
    r = rng.random()
    if r < 0.15 and power:
        # a negated atom takes no exponent: the syntax reads -x1^2 there as
        # (-x1)^2, Python as -(x1^2)
        return "-" + _atom_text(rng, depth + 1, power=False)
    if r < 0.5 or depth > 1:
        atom = f"x{rng.randint(1, 3)}"
    elif r < 0.8:
        atom = str(rng.randint(0, 12))
    else:
        atom = "(" + _expr_text(rng, depth + 1) + ")"
    if power and rng.random() < 0.3:
        atom += rng.choice(["^", " ^ "]) + str(rng.randint(0, 3))
    return atom


def _expr_text(rng: random.Random, depth: int = 0) -> str:
    text = rng.choice(["", "-", "+", "- -", "-+"])
    for i in range(rng.randint(1, 3)):
        if i:
            text += rng.choice([" + ", " - ", "-", " - -", "+-"])
        text += rng.choice(["*", " * "]).join(
            _atom_text(rng, depth) for _ in range(rng.randint(1, 3)))
    return text


def test_parse_matches_python_arithmetic():
    rng = random.Random(20261019)
    for _ in range(400):
        text = _expr_text(rng)
        p = parse_poly(text, 3)
        for _ in range(3):
            point = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                     for _ in range(3)]
            names = {f"x{i + 1}": x for i, x in enumerate(point)}
            want = eval(text.replace("^", "**"), {"__builtins__": {}}, names)
            assert p.evaluate(point) == want, text


def test_ring_ops():
    x = MultiPoly.var(2, 0)
    y = MultiPoly.var(2, 1)
    f = x * x + y * y * y
    assert f == parse_poly("x1^2 + x2^3")
    assert (f - f).is_zero()
    assert f * 0 == MultiPoly.zero(2)
    assert 2 * f == f + f
    assert (x + y) ** 3 == parse_poly("x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3")
    with pytest.raises(ValueError):
        f ** -1
    with pytest.raises(ValueError):
        x + MultiPoly.var(3, 0)


def test_degree_helpers():
    f = parse_poly("x1^2*x2 + x2^2")
    assert f.min_total_degree() == 2
    assert f.max_exponent() == 2
    assert f.vars_used() == {0, 1}
    assert parse_poly("x2^2", 3).vars_used() == {1}


def test_evaluate():
    f = parse_poly("x1^2 + x2^3")
    assert f.evaluate([2, 3]) == 31
    assert f.evaluate([Fraction(1, 2), 0]) == Fraction(1, 4)
    with pytest.raises(ValueError):
        f.evaluate([1])


def test_substitute():
    f = parse_poly("x1^2 + x2")
    g = f.substitute(0, parse_poly("x2 + 1", 2))
    assert g == parse_poly("x2^2 + 3*x2 + 1")
    # substituting an unused variable is a no-op
    assert parse_poly("x2", 2).substitute(0, parse_poly("x1 + x2")) == \
        parse_poly("x2", 2)


def test_translate():
    f = parse_poly("x1^2")
    g = f.translate([1])
    assert g == parse_poly("x1^2 + 2*x1 + 1")
    assert f.translate([Fraction(1, 2)]) == \
        MultiPoly(1, {(2,): 1, (1,): 1, (0,): Fraction(1, 4)})
    h = parse_poly("x1^2 + x2^3").translate([0, 0])
    assert h == parse_poly("x1^2 + x2^3")


def test_clear_denominators():
    f = MultiPoly(1, {(1,): Fraction(2, 3), (0,): Fraction(1, 6)})
    g, mult = f.clear_denominators()
    assert mult == 6
    assert g == parse_poly("4*x1 + 1")
    assert g.is_integer()
    p = parse_poly("x1 + 2")
    assert p.clear_denominators() == (p, 1)


def test_to_text_examples():
    assert MultiPoly.zero(2).to_text() == "0"
    assert parse_poly("x1^2 + x2^3").to_text() == "x2^3 + x1^2"
    assert parse_poly("-x1 + 2").to_text() == "2 - x1"
    assert str(parse_poly("-2*x1*x2^2", 2)) == "-2*x1*x2^2"


coeffs = st.integers(min_value=-9, max_value=9)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))


@given(st.dictionaries(exps, coeffs, max_size=6))
def test_text_roundtrip(raw):
    p = MultiPoly(2, raw)
    assert parse_poly(p.to_text(), 2) == p


@given(st.dictionaries(exps, coeffs, max_size=5),
       st.dictionaries(exps, coeffs, max_size=5),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_product_evaluation_homomorphism(ca, cb, point):
    a, b = MultiPoly(2, ca), MultiPoly(2, cb)
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


@given(st.dictionaries(exps, coeffs, max_size=5),
       st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_translate_matches_shifted_evaluation(c, shift, point):
    f = MultiPoly(2, c)
    g = f.translate(shift)
    moved = [x + s for x, s in zip(point, shift)]
    assert g.evaluate(point) == f.evaluate(moved)
