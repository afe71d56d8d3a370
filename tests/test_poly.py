"""Polynomial core: parsing, arithmetic, substitution, differentiation."""

import itertools
import random
from fractions import Fraction

import pytest

from starquiver.poly import (
    GREVLEX,
    LEX,
    MonomialOrder,
    ParseError,
    Poly,
    PrimeField,
    QQ,
    VarTable,
    parse_order,
    parse_poly,
)

import poly_oracle


def coeff_of(p: Poly, exps):
    """The coefficient of one exponent vector (zero if absent)."""
    return p.terms.get(tuple(exps), p.field.zero)


def total_degree(p: Poly) -> int:
    """Maximum term degree; -1 for the zero polynomial."""
    return max((sum(e) for e in p.terms), default=-1)


def _random_poly(table, rng, field=QQ, terms=5, deg=4, height=10):
    out = Poly.zero(table, field)
    for _ in range(terms):
        exps = [0] * len(table)
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(len(table))] += 1
        c = Fraction(rng.randint(-height, height), rng.randint(1, height))
        out = out + Poly.monomial(table, field, tuple(exps), field.coerce(c))
    return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_three_term_arrow_polynomial():
    t = VarTable(["d1_1", "d1_2", "d2_1", "d2_2", "d3_1", "d3_2"])
    p = parse_poly("d1_1*d1_2 - d2_1*d2_2 + d3_1*d3_2", t)
    assert len(p.terms) == 3
    assert coeff_of(p, (1, 1, 0, 0, 0, 0)) == 1
    assert coeff_of(p, (0, 0, 1, 1, 0, 0)) == -1
    assert coeff_of(p, (0, 0, 0, 0, 1, 1)) == 1


def test_parse_binomial_square():
    t = VarTable(["x", "y"])
    assert parse_poly("(x+y)^2", t) == parse_poly("x^2 + 2*x*y + y^2", t)


def test_parse_rational_coefficients():
    t = VarTable(["x", "y"])
    p = parse_poly("3/4*x^2*y - x", t)
    assert coeff_of(p, (2, 1)) == Fraction(3, 4)
    assert coeff_of(p, (1, 0)) == -1
    assert len(p.terms) == 2


def test_parse_errors_carry_position():
    t = VarTable(["x"])
    with pytest.raises(ParseError) as err:
        parse_poly("x + ** y", t)
    assert err.value.pos == 4  # the offending '*' token
    with pytest.raises(ParseError, match="unknown identifier 'zz'"):
        parse_poly("x + zz", t)
    with pytest.raises(ParseError):
        parse_poly("x + (y", VarTable(["x", "y"]))
    with pytest.raises(ParseError):
        parse_poly("x^y", t)


def test_parse_deep_nesting_is_a_parse_error():
    t = VarTable(["x"])
    assert parse_poly("(" * 200 + "x" + ")" * 200, t) == parse_poly("x", t)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_poly("(" * 3000 + "x" + ")" * 3000, t)


def test_parse_print_round_trip_random():
    rng = random.Random(7)
    t = VarTable(["x", "y", "z"])
    for _ in range(50):
        p = _random_poly(t, rng)
        assert parse_poly(p.to_str(), t) == p
    assert parse_poly(Poly.zero(t, QQ).to_str(), t).is_zero()


def test_print_descends_in_active_order():
    t = VarTable(["x", "y"])
    p = parse_poly("y^3 + x^2", t)
    assert p.to_str(GREVLEX) == "y^3 + x^2"
    assert p.to_str(LEX) == "x^2 + y^3"


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_add_cancellation():
    t = VarTable(["x", "y"])
    assert parse_poly("x+y", t) + parse_poly("x-y", t) == parse_poly("2*x", t)


def test_difference_of_squares():
    t = VarTable(["x", "y"])
    assert parse_poly("x+y", t) * parse_poly("x-y", t) == parse_poly("x^2 - y^2", t)


def test_zero_absorbs_products():
    rng = random.Random(1)
    t = VarTable(["x", "y", "z"])
    for _ in range(10):
        p = _random_poly(t, rng)
        assert (Poly.zero(t, QQ) * p).is_zero()
        assert (p * 0).is_zero()


def test_ring_axioms_on_random_triples():
    rng = random.Random(2)
    t = VarTable(["x", "y"])
    for _ in range(25):
        p, q, r = (_random_poly(t, rng, terms=4) for _ in range(3))
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_mismatched_tables_and_fields_rejected():
    t1, t2 = VarTable(["x"]), VarTable(["y"])
    with pytest.raises(ValueError, match="VarTable"):
        Poly.var(t1, QQ, "x") + Poly.var(t2, QQ, "y")
    with pytest.raises(ValueError, match="field"):
        Poly.var(t1, QQ, "x") * Poly.var(t1, PrimeField(7), "x")


def test_integer_power():
    t = VarTable(["x", "y"])
    p = parse_poly("x + y", t)
    assert p ** 0 == Poly.const(t, QQ, 1)
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError):
        p ** -1


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def test_substitute_unit():
    t = VarTable(["u2_1", "d2_1"])
    p = parse_poly("u2_1*d2_1", t)
    assert p.substitute({"u2_1": Poly.const(t, QQ, 1)}) == parse_poly("d2_1", t)


def test_substitute_chain_step():
    t = VarTable(["d2_1", "d2_2", "u2_1", "g2_1"])
    p = parse_poly("d2_1*d2_2", t)
    target = parse_poly("u2_1*d2_1 - g2_1", t)
    assert p.substitute({"d2_2": target}) == parse_poly("d2_1*(u2_1*d2_1 - g2_1)", t)


def test_substitute_chain_reproduces_arm_length_three():
    # the chain d_{m+1} = u_m d_m - g_m with the upper u's scaled to 1, run
    # by hand for an arm of length 3
    t = VarTable(["d2_1", "d2_2", "d2_3", "u2_1", "u2_2", "g2_1", "g2_2"])
    one = Poly.const(t, QQ, 1)
    p = Poly.var(t, QQ, "d2_3")
    p = p.substitute({"d2_3": parse_poly("u2_2*d2_2 - g2_2", t)})
    p = p.substitute({"d2_2": parse_poly("u2_1*d2_1 - g2_1", t), "u2_2": one})
    assert p == parse_poly("u2_1*d2_1 - (g2_1 + g2_2)", t)


def test_substitute_commutes_with_multiplication():
    rng = random.Random(3)
    t = VarTable(["x", "y", "z"])
    for _ in range(15):
        p = _random_poly(t, rng, terms=3)
        q = _random_poly(t, rng, terms=3)
        bind = {"x": _random_poly(t, rng, terms=2, deg=2)}
        assert (p * q).substitute(bind) == p.substitute(bind) * q.substitute(bind)


def test_substitute_unknown_variable_rejected():
    t = VarTable(["x"])
    with pytest.raises(KeyError):
        Poly.var(t, QQ, "x").substitute({"nope": Poly.var(t, QQ, "x")})


def test_rename_merging_variables_cancels_to_canonical_zero():
    t = VarTable(["x", "y"])
    tv = VarTable(["v"])
    image = parse_poly("x - y", t).rename(tv, {"x": "v", "y": "v"})
    assert image == Poly.zero(tv, QQ)
    assert image.terms == {}
    assert parse_poly("x*y + x", t).rename(tv, {"x": "v", "y": "v"}) == parse_poly("v^2 + v", tv)


def test_rename_raises_only_for_an_occurring_variable_without_image():
    t = VarTable(["x", "y", "z"])
    t2 = VarTable(["y", "x"])
    with pytest.raises(ValueError, match="'z'"):
        parse_poly("x + z", t).rename(t2)
    assert parse_poly("x^2 - 3*y", t).rename(t2) == parse_poly("x^2 - 3*y", t2)


def test_evaluate_is_substitution_by_constants():
    rng = random.Random(11)
    t = VarTable(["x", "y", "z"])
    for field in (QQ, PrimeField(11)):
        for _ in range(15):
            p = _random_poly(t, rng, field)
            point = {n: field.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                     for n in t}
            value = p.evaluate(point)
            assert p.substitute(point) == Poly.const(t, field, value)


def test_evaluate_rejects_an_occurring_unbound_variable():
    t = VarTable(["x", "y"])
    p = parse_poly("x*y + 1", t)
    with pytest.raises((KeyError, ValueError)):
        p.evaluate({"x": 2})
    assert parse_poly("2*x + 1", t).evaluate({"x": 3}) == 7


def _reference_rename(p, table):
    """Move to `table` by name, one exponent vector per term."""
    out = {}
    for exps, c in p.terms.items():
        nexps = [0] * len(table)
        for name, e in zip(p.table.names, exps):
            if e:
                nexps[table.index(name)] += e
        key = tuple(nexps)
        out[key] = p.field.add(out[key], c) if key in out else c
    return Poly(table, p.field, out)


def _reference_substitute(p, bindings, table):
    """Cross-table substitution the long way: targets renamed into the
    source table, a term-by-term loop summing one Poly per term, and a
    rename of the result into `table`."""
    f = p.field
    idx_bind = {p.table.index(n): _reference_rename(t, p.table) for n, t in bindings.items()}
    result = Poly.zero(p.table, f)
    for exps, c in p.terms.items():
        residual = list(exps)
        term = Poly.const(p.table, f, 1)
        for i, target in idx_bind.items():
            if exps[i]:
                residual[i] = 0
                term = term * target ** exps[i]
        result = result + Poly.monomial(p.table, f, tuple(residual), c) * term
    return _reference_rename(result, table)


def test_cross_table_substitute_matches_term_by_term_reference():
    rng = random.Random(12)
    src = VarTable(["x", "y", "z", "w"])
    dst = VarTable(["w", "y"])
    for field in (QQ, PrimeField(11)):
        for k in range(40):
            x_img = _random_poly(dst, rng, field, terms=3, deg=2)
            z_img = (Poly.zero(dst, field), Poly.const(dst, field, rng.randint(1, 20)),
                     x_img, _random_poly(dst, rng, field, terms=2, deg=2))[k % 4]
            bindings = {"x": x_img, "z": z_img}
            if k % 3 == 0:
                bindings["y"] = _random_poly(dst, rng, field, terms=2, deg=1)
            p = _random_poly(src, rng, field, terms=6)
            # with z bound like x, x - z cancels term by term
            p = p + _random_poly(src, rng, field, terms=2) * parse_poly("x - z", src, field)
            got = p.substitute(bindings, dst)
            assert got == _reference_substitute(p, bindings, dst)
            assert all(c != field.zero for c in got.terms.values())
            if z_img == x_img:
                assert parse_poly("x - z", src, field).substitute(bindings, dst).terms == {}


def _random_coeff(field, rng):
    """A nonzero coefficient: a fraction over QQ, a residue over F_q."""
    if field == QQ:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    return field.coerce(rng.randrange(1, field.q))


def _random_field_poly(table, rng, field, terms, deg):
    """Up to `terms` terms of degree at most `deg` with nonzero coefficients."""
    out = {}
    for _ in range(terms):
        exps = [0] * len(table)
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(len(table))] += 1
        out[tuple(exps)] = _random_coeff(field, rng)
    return Poly(table, field, out)


def _random_target(kind, table, rng, field):
    """A binding target of one kind: a constant (a Poly or a bare value),
    zero, a variable, a scaled monomial or a polynomial of several terms."""
    if kind == "constant":
        value = _random_coeff(field, rng)
        return value if rng.random() < 0.5 else Poly.const(table, field, value)
    if kind == "zero":
        return 0 if rng.random() < 0.5 else Poly.zero(table, field)
    if kind == "variable":
        return Poly.var(table, field, rng.choice(table.names))
    if kind == "monomial":
        exps = [rng.randint(0, 2) for _ in table]
        return Poly.monomial(table, field, exps, _random_coeff(field, rng))
    target = Poly.zero(table, field)
    while len(target.terms) < 2:
        target = _random_field_poly(table, rng, field, terms=3, deg=2)
    return target


_TARGET_KINDS = ("constant", "zero", "variable", "monomial", "several")


@pytest.mark.parametrize("field", [QQ, PrimeField(65521), PrimeField(2)], ids=str)
def test_substitute_matches_its_earlier_body(field):
    # one-term targets now fold into the exponents and the coefficient;
    # the earlier body (tests/poly_oracle.py) multiplied every term out.
    # Terms, and their order, must agree, within a table and into another
    # one where y and v map by name and w has no image
    rng = random.Random(f"substitute:{field}")
    src = VarTable(["x", "y", "z", "v", "w"])
    dst = VarTable(["v", "y", "s"])
    kinds = list(itertools.product(_TARGET_KINDS, repeat=2))
    for k in range(4 * len(kinds)):
        table = src if k % 2 else dst
        bindings = {name: _random_target(kind, table, rng, field)
                    for name, kind in zip(("x", "z"), kinds[k % len(kinds)])}
        if table is dst:
            bindings["w"] = _random_target(rng.choice(_TARGET_KINDS), dst, rng, field)
        # degree 6 over five variables: exponents above 1 throughout
        p = _random_field_poly(src, rng, field, terms=8, deg=6)
        got = p.substitute(bindings, table)
        want = poly_oracle.substitute(p, bindings, table)
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(c != field.zero for c in got.terms.values())


@pytest.mark.parametrize("field", [QQ, PrimeField(65521), PrimeField(2)], ids=str)
def test_substitute_names_a_variable_missing_from_the_target_table(field):
    # w occurs, is unbound and has no name in dst: both bodies raise, even
    # where the term also holds a variable bound to zero
    src = VarTable(["x", "y", "w"])
    dst = VarTable(["y"])
    for bindings in ({"x": Poly.var(dst, field, "y")}, {"x": 0}):
        for sub in (Poly.substitute, poly_oracle.substitute):
            with pytest.raises(ValueError, match="'w'"):
                sub(parse_poly("x*w + y", src, field), bindings, dst)
    # absent from every term, it needs no image
    assert parse_poly("x*y", src, field).substitute({"x": 0}, dst).is_zero()


def test_rename_folds_without_a_product(monkeypatch):
    # rename binds variables to variables, one-term targets: no Poly product
    t, tv = VarTable(["x", "y", "z"]), VarTable(["v", "z"])
    p = parse_poly("3*x^2*y - x*z^3 + 1/2*y^4", t)
    want = parse_poly("3*v^3 - v*z^3 + 1/2*v^4", tv)
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(b) or mul(a, b))
    assert p.rename(tv, {"x": "v", "y": "v"}) == want
    assert not calls


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def test_power_rule():
    t = VarTable(["x", "y"])
    assert parse_poly("x^2*y", t).derivative("x") == parse_poly("2*x*y", t)


def test_derivative_of_absent_variable():
    rng = random.Random(4)
    t = VarTable(["x", "y", "z"])
    for _ in range(10):
        p = _random_poly(VarTable(["x", "y"]), rng).rename(t)
        assert p.derivative("z").is_zero()


def test_euler_style_identity_hand_oracle():
    # f = x(xy - 2) = x^2 y - 2x;  x f_x - y f_y = x(2xy - 2) - y x^2 = f
    t = VarTable(["x", "y"])
    f = parse_poly("x*(x*y-2)", t)
    assert f == parse_poly("x^2*y - 2*x", t)
    lhs = Poly.var(t, QQ, "x") * f.derivative("x") - Poly.var(t, QQ, "y") * f.derivative("y")
    assert lhs == f


def test_derivation_linear_and_leibniz():
    rng = random.Random(5)
    t = VarTable(["x", "y"])
    for _ in range(20):
        p = _random_poly(t, rng, terms=4)
        q = _random_poly(t, rng, terms=4)
        assert (p + q).derivative("x") == p.derivative("x") + q.derivative("x")
        assert (p * q).derivative("x") == p.derivative("x") * q + p * q.derivative("x")


def test_derivative_unknown_variable():
    t = VarTable(["x"])
    with pytest.raises(KeyError):
        Poly.var(t, QQ, "x").derivative("q")


# ---------------------------------------------------------------------------
# prime-field mode
# ---------------------------------------------------------------------------

def test_prime_field_reduction_commutes_with_ops():
    rng = random.Random(6)
    t = VarTable(["x", "y"])
    gf = PrimeField(65521)
    for _ in range(20):
        p = _random_poly(t, rng, terms=4)
        q = _random_poly(t, rng, terms=4)
        assert (p + q).to_field(gf) == p.to_field(gf) + q.to_field(gf)
        assert (p * q).to_field(gf) == p.to_field(gf) * q.to_field(gf)


def test_prime_field_validation():
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(65520)
    gf = PrimeField(65521)
    assert gf.coerce(Fraction(1, 2)) == (65521 + 1) // 2
    assert gf.inv(gf.coerce(7)) * 7 % 65521 == 1


@pytest.mark.parametrize("field", [QQ, PrimeField(65521)], ids=["QQ", "F65521"])
def test_string_coercion_bounds_decimal_exponents(field):
    # beyond 4300 the power of ten grows without bound: "1e999999999" would
    # build a billion-digit integer
    assert field.coerce("1e4300") == field.coerce(10 ** 4300)
    assert field.coerce(" -25E-1_0 ") == field.coerce(Fraction(-25, 10 ** 10))
    assert field.coerce("3/4") == field.coerce(Fraction(3, 4))
    for text in ("1e4301", "1E-4301", "2.5e+999999999", "1e99_999_999"):
        with pytest.raises(ValueError, match="exponent"):
            field.coerce(text)


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------

def test_orders_are_total_and_multiplicative():
    rng = random.Random(8)
    t = VarTable(["x", "y", "z"])
    orders = [LEX, GREVLEX, MonomialOrder([["x"], ["y", "z"]])]
    for order in orders:
        key = order.sort_key(t)
        for _ in range(100):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            c = tuple(rng.randint(0, 4) for _ in range(3))
            ka, kb = key(a), key(b)
            assert (ka == kb) == (a == b)
            if ka > kb:
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert key(ac) > key(bc)


def test_grevlex_classic_comparison():
    t = VarTable(["x", "y", "z"])
    # x^2 y z > x y^3: degree 4 each; smaller exponent in the last variable wins
    # here x*y^3 has z-degree 0 vs 1, so x*y^3 is larger
    a = (2, 1, 1)
    b = (1, 3, 0)
    assert GREVLEX.sort_key(t)(b) > GREVLEX.sort_key(t)(a)


def test_order_spec_round_trip():
    assert parse_order("lex").spec() == "lex"
    assert parse_order("grevlex").spec() == "grevlex"
    b = parse_order("block(x,y | z,w)")
    assert b.spec() == "block(x,y | z,w)"
    for order in (LEX, GREVLEX, b):
        again = parse_order(order.spec())
        assert again == order and hash(again) == hash(order)
    assert len({LEX, GREVLEX, b, MonomialOrder([["x"], ["y"], ["z"], ["w"]])}) == 4
    with pytest.raises(ValueError):
        parse_order("weird")
