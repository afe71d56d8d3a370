"""Groebner engine: bases, normal forms, elimination, dimension, budgets."""

import gc
import random
from fractions import Fraction

import pytest

from starquiver.groebner import (
    DimensionReport,
    EngineStats,
    GroebnerBudget,
    Ideal,
    Inconclusive,
    eliminate,
    ideals_equal,
    krull_dimension,
    read_ideal_text,
    write_ideal_text,
    _Codec,
)
from starquiver.poly import (
    GREVLEX,
    LEX,
    MonomialOrder,
    Poly,
    PrimeField,
    QQ,
    VarTable,
    parse_poly,
)


def leading_term(p: Poly, order: MonomialOrder = GREVLEX):
    """(exponents, coefficient) of the leading term under the given order."""
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    return p.sorted_terms(order)[0]


def _ideal(table, texts, order=GREVLEX, field=QQ, budget=None):
    gens = [parse_poly(s, table, field) for s in texts]
    kw = {"order": order, "field": field}
    if budget is not None:
        kw["budget"] = budget
    return Ideal(table, gens, **kw)


def _random_poly(table, rng, field=QQ, terms=4, deg=3):
    out = Poly.zero(table, field)
    for _ in range(terms):
        exps = [0] * len(table)
        for _ in range(rng.randint(0, deg)):
            exps[rng.randrange(len(table))] += 1
        out = out + Poly.monomial(table, field, tuple(exps),
                                  field.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    return out


# ---------------------------------------------------------------------------
# reduced bases
# ---------------------------------------------------------------------------

def test_single_generator_is_its_own_basis():
    t = VarTable(["x", "y"])
    basis = _ideal(t, ["x"]).groebner_basis()
    assert basis == (parse_poly("x", t),)


def test_lex_circle_line():
    t = VarTable(["x", "y"])
    basis = _ideal(t, ["x^2 + y^2 - 1", "x - y"], order=LEX).groebner_basis()
    assert set(basis) == {parse_poly("x - y", t), parse_poly("y^2 - 1/2", t)}


def test_principal_ideal_basis_is_normalized_generator():
    t = VarTable(["d2_1", "d2_2", "d3_1", "d3_2"])
    g = parse_poly("1 - d2_1*d2_2 + d3_1*d3_2", t)
    basis = Ideal(t, [g]).groebner_basis()
    # principal: the generator divided by its leading coefficient
    assert len(basis) == 1
    assert leading_term(basis[0])[1] == 1
    assert basis[0] == g.scale(QQ.inv(leading_term(g)[1]))


def test_reduced_basis_unique_under_generator_permutation():
    rng = random.Random(11)
    t = VarTable(["x", "y", "z"])
    fixtures = [
        ["x^2 + y^2 - 1", "x - y", "z^3 - x*y"],
        ["x*y - z", "y*z - x", "x*z - y"],
        ["x^2 - y", "y^2 - z", "z^2 - x"],
    ]
    for texts in fixtures:
        reference = _ideal(t, texts).groebner_basis()
        gens = [parse_poly(s, t) for s in texts]
        for _ in range(20):
            rng.shuffle(gens)
            assert Ideal(t, list(gens)).groebner_basis() == reference


def test_every_s_polynomial_reduces_to_zero():
    # Buchberger's criterion, applied to the output: division by the basis is
    # sound on its own, so a nonzero remainder here would expose a non-basis
    t = VarTable(["x", "y", "z"])
    fixtures = [
        ["x^2 + y^2 - 1", "x - y", "z^3 - x*y"],
        ["x*y - z", "y*z - x", "x*z - y"],
        ["x^2 - y", "y^2 - z", "z^2 - x"],
    ]
    for texts in fixtures:
        I = _ideal(t, texts)
        basis = I.groebner_basis()
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                ea, ca = leading_term(basis[a])
                eb, cb = leading_term(basis[b])
                lcm = tuple(max(x, y) for x, y in zip(ea, eb))
                ma = Poly.monomial(t, QQ, tuple(l - e for l, e in zip(lcm, ea)), 1)
                mb = Poly.monomial(t, QQ, tuple(l - e for l, e in zip(lcm, eb)), 1)
                spoly = ma * basis[a].scale(QQ.inv(ca)) - mb * basis[b].scale(QQ.inv(cb))
                assert I.normal_form(spoly).is_zero()


def test_basis_reducedness_properties():
    t = VarTable(["x", "y", "z"])
    basis = _ideal(t, ["x*y - z", "y*z - x", "x*z - y"]).groebner_basis()
    leads = [leading_term(g)[0] for g in basis]
    for g in basis:
        assert leading_term(g)[1] == 1
        for exps in g.terms:
            divisors = [lt for lt in leads
                        if all(a >= b for a, b in zip(exps, lt))]
            # only its own leading term may divide a term of g
            assert divisors in ([], [leading_term(g)[0]])


# ---------------------------------------------------------------------------
# normal forms and membership
# ---------------------------------------------------------------------------

def test_generator_reduces_to_zero():
    rng = random.Random(12)
    t = VarTable(["x", "y"])
    for _ in range(10):
        g = _random_poly(t, rng)
        if g.is_zero():
            continue
        assert Ideal(t, [g]).normal_form(g).is_zero()


def test_normal_form_not_reducible():
    t = VarTable(["x", "y"])
    I = _ideal(t, ["x*y - 1"])
    assert I.normal_form(parse_poly("x", t)) == parse_poly("x", t)


def test_normal_form_idempotent():
    rng = random.Random(13)
    t = VarTable(["x", "y", "z"])
    I = _ideal(t, ["x*y - z", "y^2 - 1"])
    for _ in range(15):
        p = _random_poly(t, rng)
        r = I.normal_form(p)
        assert I.normal_form(r) == r
        assert I.contains(p - r)


def test_membership_closure_under_combinations():
    rng = random.Random(14)
    t = VarTable(["x", "y", "z"])
    I = _ideal(t, ["x^2 - y", "y*z - x"])
    gens = list(I.gens)
    for _ in range(10):
        p = sum((_random_poly(t, rng, terms=2) * g for g in gens), Poly.zero(t, QQ))
        q = sum((_random_poly(t, rng, terms=2) * g for g in gens), Poly.zero(t, QQ))
        r = _random_poly(t, rng, terms=2)
        assert I.contains(p + q)
        assert I.contains(r * p)


def test_contains_zero_in_any_ideal():
    t = VarTable(["x"])
    assert _ideal(t, ["x^2"]).contains(Poly.zero(t, QQ))
    assert Ideal(t, []).contains(Poly.zero(t, QQ))


def test_contains_checks_ring_like_normal_form():
    # a polynomial of another table or field is rejected, even where its
    # packed exponents would reduce to zero on the ideal's basis
    xy, ab = VarTable(["x", "y"]), VarTable(["a", "b"])
    I = _ideal(xy, ["x^2 - y"])
    F = PrimeField(11)
    for p, ideal in [(parse_poly("a^2 - b", ab), I),
                     (parse_poly("x^2 - y", xy, QQ), _ideal(xy, ["x^2 - y"], field=F)),
                     (Poly.zero(ab, QQ), I)]:
        for query in (ideal.contains, ideal.normal_form):
            with pytest.raises(ValueError, match="incompatible"):
                query(p)


def test_contains_one_from_unit_combination():
    # y*x - (xy - 1) = 1
    t = VarTable(["x", "y"])
    assert _ideal(t, ["x*y - 1", "x"]).contains_one()
    assert not _ideal(t, ["x*y - 1"]).contains_one()


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def test_twisted_cubic_elimination():
    t = VarTable(["x", "w", "v"])
    I = _ideal(t, ["w - x^2", "v - x^3"])
    E = eliminate(I, ["x"])
    assert E.table.names == ("w", "v")
    target = parse_poly("w^3 - v^2", E.table)
    assert E.groebner_basis() == (target,)
    # independent oracle: both containments.  Forward: every eliminated
    # generator vanishes under the parametrization w -> x^2, v -> x^3.
    tx = VarTable(["x"])
    param = {"w": parse_poly("x^2", tx), "v": parse_poly("x^3", tx)}
    for g in E.gens:
        lifted = Poly(tx, QQ, {})
        for exps, c in g.terms.items():
            term = Poly.const(tx, QQ, c)
            term = term * param["w"] ** exps[0] * param["v"] ** exps[1]
            lifted = lifted + term
        assert lifted.is_zero()
    # backward: the target reduces to zero against the eliminated ideal
    assert E.contains(target)


def test_eliminate_nothing_returns_same_ideal():
    t = VarTable(["x", "y"])
    I = _ideal(t, ["x*y - 1"])
    assert eliminate(I, []) is I


def test_eliminate_every_variable_is_refused_before_any_basis():
    t = VarTable(["x", "y", "z"])
    starved = GroebnerBudget(max_spairs=0)
    # a starved budget would raise Inconclusive if a basis were computed
    with pytest.raises(ValueError, match="every variable"):
        eliminate(_ideal(t, ["x^2 + y^2 - 1", "x - y", "z^3 - x*y"], budget=starved),
                  ["x", "y", "z"])


def test_eliminate_unknown_variable():
    t = VarTable(["x", "y"])
    with pytest.raises(KeyError):
        eliminate(_ideal(t, ["x"]), ["zz"])


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------

def test_dimension_fixtures():
    t = VarTable(["x", "y"])
    assert krull_dimension(Ideal(t, [])) == DimensionReport(2, ("x", "y"))
    hyper = krull_dimension(_ideal(t, ["x*y - 1"]))
    assert hyper.dimension == 1
    assert hyper.witness in (("x",), ("y",))
    assert krull_dimension(_ideal(t, ["x", "y"])) == DimensionReport(0, ())
    assert krull_dimension(_ideal(t, ["x", "1 - x"])).dimension == -1


def test_dimension_leaves_no_reference_cycles():
    t = VarTable(["x", "y", "z", "w"])
    I = _ideal(t, ["x*y - z^2", "y*w - x"])
    I.groebner_basis()
    expected = krull_dimension(I)
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            assert krull_dimension(I) == expected
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dimension_witness_is_independent():
    t = VarTable(["x", "y", "z", "w"])
    I = _ideal(t, ["x*y - z^2", "y*w - x"])
    rep = krull_dimension(I)
    assert len(rep.witness) == rep.dimension
    leads = [leading_term(g)[0] for g in I.groebner_basis()]
    witness_idx = {t.index(n) for n in rep.witness}
    for lt in leads:
        support = {i for i, e in enumerate(lt) if e}
        assert not support <= witness_idx


# ---------------------------------------------------------------------------
# ideal equality
# ---------------------------------------------------------------------------

def test_ideals_equal_reflexive_and_change_of_generators():
    t = VarTable(["x", "y"])
    I = _ideal(t, ["x", "y"])
    assert ideals_equal(I, I)
    J = _ideal(t, ["x + y", "y"])
    assert ideals_equal(I, J)
    assert not ideals_equal(I, _ideal(t, ["x"]))


def test_ideals_equal_across_orders():
    t = VarTable(["x", "y"])
    I = _ideal(t, ["x^2 + y^2 - 1", "x - y"], order=GREVLEX)
    J = _ideal(t, ["x - y", "2*y^2 - 1"], order=LEX)
    assert ideals_equal(I, J)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "fp7"])
def test_ideals_equal_sees_one_differing_tail_coefficient(field):
    # the reduced bases share every lead and differ in one tail coefficient;
    # the engine forms, compared without building a Poly, must tell them apart
    t = VarTable(["x", "y", "z"])
    I = _ideal(t, ["x^2 + y*z", "y^2 - x + 3*z"], field=field)
    J = _ideal(t, ["x^2 + y*z", "y^2 - x + 2*z"], field=field)
    assert not ideals_equal(I, J)
    assert ideals_equal(I, _ideal(t, ["y^2 - x + 3*z", "x^2 + y*z + y^2 - x + 3*z"], field=field))
    leads = [[leading_term(g)[0] for g in K.groebner_basis()] for K in (I, J)]
    assert leads[0] == leads[1]
    tails = [[g.terms for g in K.groebner_basis()] for K in (I, J)]
    assert sum(a != b for a, b in zip(*tails)) == 1


def test_ideals_equal_requires_same_table_and_field():
    with pytest.raises(ValueError):
        ideals_equal(_ideal(VarTable(["x"]), ["x"]), _ideal(VarTable(["y"]), ["y"]))
    t = VarTable(["x"])
    with pytest.raises(ValueError):
        ideals_equal(_ideal(t, ["x"]), _ideal(t, ["x"], field=PrimeField(7)))


# ---------------------------------------------------------------------------
# prime-field consistency and budgets
# ---------------------------------------------------------------------------

FIXTURE_CORPUS = [
    (["x^2 + y^2 - 1", "x - y"], ["x", "x - y", "1 - x*y"]),
    (["x*y - 1", "x"], ["1", "x + y"]),
    (["x^2 - y", "y^2 - x"], ["x^4 - x", "x^3 - 1"]),
]


def test_prime_field_verdicts_match_exact_ones():
    gf = PrimeField(65521)
    t = VarTable(["x", "y"])
    for gen_texts, probe_texts in FIXTURE_CORPUS:
        I_qq = _ideal(t, gen_texts)
        I_gf = _ideal(t, gen_texts, field=gf)
        assert I_qq.contains_one() == I_gf.contains_one()
        assert krull_dimension(I_qq).dimension == krull_dimension(I_gf).dimension
        for s in probe_texts:
            assert I_qq.contains(parse_poly(s, t)) == I_gf.contains(parse_poly(s, t, gf))


ORDERS = [LEX, GREVLEX, MonomialOrder([["x"], ["y", "z"]])]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.spec())
def test_engine_codes_realise_sort_key(order):
    # one int per monomial: it compares as the order's key, adds as monomial
    # multiplication, decodes back, and its guard-bit divisibility and lcm
    # read the exponent half whatever the key half above it holds
    t = VarTable(["x", "y", "z"])
    codec, key = _Codec(t, order), order.sort_key(t)
    rng = random.Random(order.spec())
    for k in range(200):
        # small exponents, then large ones whose products come just under
        # the guard bit, where the key's parts are largest
        top = 40 if k % 2 else 16383
        a, b = (tuple(rng.randint(0, top) for _ in range(3)) for _ in range(2))
        ma, mb = codec.encode(a), codec.encode(b)
        assert (ma < mb, ma == mb) == (key(a) < key(b), key(a) == key(b))
        ab, bb = tuple(map(int.__add__, a, b)), tuple(2 * y for y in b)
        assert codec.encode(ab) == ma + mb
        assert (ma + mb < 2 * mb, ma + mb == 2 * mb) == (key(ab) < key(bb), key(ab) == key(bb))
        assert codec.decode(ma) == a
        assert codec.divides(ma, mb) == all(x <= y for x, y in zip(a, b))
        assert codec.divides(ma, ma + mb) and codec.divides(mb, ma + mb)
        join = tuple(map(max, a, b))
        assert codec.lcm(ma, mb) == codec.encode(join) & codec.mask_all
        assert codec.lift(codec.lcm(ma, mb)) == codec.encode(join)
    # products that tie on one part of the key and differ by more than 2^15
    # on the next: the key's fields are wide enough for a product's parts
    pa = codec.encode((20000, 0, 1)) + codec.encode((20000, 0, 0))
    pb = codec.encode((0, 20001, 0)) + codec.encode((0, 20000, 0))
    assert (pa < pb) == (key((40000, 0, 1)) < key((0, 40001, 0)))
    assert codec.decode(codec.encode((32767, 0, 1))) == (32767, 0, 1)
    with pytest.raises(Inconclusive, match="packed-field capacity"):
        codec.encode((0, 32768, 0))


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.spec())
def test_engine_codes_carry_the_total_degree(order):
    # the degree slot that selects the pairs sits below the order's key: it
    # reads off the int in one shift, adds with it, and never changes a
    # comparison, even of products at the field capacity
    t = VarTable(["x", "y", "z"])
    codec, key = _Codec(t, order), order.sort_key(t)
    rng = random.Random(order.spec())
    for k in range(200):
        top = 40 if k % 2 else 16383
        a, b = (tuple(rng.randint(0, top) for _ in range(3)) for _ in range(2))
        ma, mb = codec.encode(a), codec.encode(b)
        ab = tuple(map(int.__add__, a, b))
        assert (ma < mb, ma == mb) == (key(a) < key(b), key(a) == key(b))
        assert codec.slot_deg(ma + mb) == codec.deg(ma + mb) == sum(ab)
        assert codec.decode(ma + mb) == ab
        assert codec.lift(codec.lcm(ma, mb)) == codec.encode(tuple(map(max, a, b)))


def _units_by_key(table: VarTable, order: MonomialOrder) -> tuple:
    """Each variable's packed int built the long way: `sort_key` of its unit
    exponent vector, last part lowest, then the degree slot and the
    exponent field."""
    n, key = len(table), order.sort_key(table)
    low, part_bits = 16 * n, 16 + n.bit_length()
    return tuple(
        (sum(part << (part_bits * k) for k, part in enumerate(reversed(key(unit))))
         << (low + part_bits)) + (1 << low) + (1 << (16 * (n - 1 - i)))
        for i, unit in enumerate(tuple(int(j == i) for j in range(n)) for i in range(n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 33, 64, 195, 400])
def test_codec_units_are_the_sort_key_ones(n):
    # the codec reads each variable's key off the order's blocks, in time
    # linear in the variables; it must be the int that sort_key packs, for
    # one block (grevlex), n blocks (lex), and blocks of unequal sizes
    # named out of table order
    t = VarTable([f"x{i}" for i in range(n)])
    rng, names = random.Random(n), list(t.names)
    rng.shuffle(names)
    cuts = [0, *sorted(rng.sample(range(1, n), min(3, n - 1))), n]
    blocks = MonomialOrder([names[a:b] for a, b in zip(cuts, cuts[1:])])
    for order in (GREVLEX, LEX, blocks):
        assert _Codec(t, order)._units == _units_by_key(t, order), order.spec()


def _random_ideals(seed, count):
    """Seeded QQ ideals of one to three cubic generators in x, y, z."""
    t = VarTable(["x", "y", "z"])
    rng = random.Random(seed)
    return [[_random_poly(t, rng) for _ in range(rng.randint(1, 3))]
            for _ in range(count)]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.spec())
def test_prime_field_basis_is_the_exact_basis_reduced(order):
    # F_65521 and QQ run one engine, switched by the characteristic; on
    # these ideals the prime is lucky, so both sides must agree term by term
    gf = PrimeField(65521)
    rng = random.Random(11)
    for gens in _random_ideals(3, 12):
        t = gens[0].table
        I_qq = Ideal(t, gens, order=order)
        I_gf = Ideal(t, [g.to_field(gf) for g in gens], order=order)
        assert I_gf.groebner_basis() == tuple(g.to_field(gf) for g in I_qq.groebner_basis())
        for _ in range(3):
            probe = _random_poly(t, rng, terms=4, deg=3)
            assert (I_gf.normal_form(probe.to_field(gf))
                    == I_qq.normal_form(probe).to_field(gf))


def test_dimension_does_not_depend_on_the_order():
    dims = []
    for gens in _random_ideals(8, 12):
        t = gens[0].table
        by_order = {krull_dimension(Ideal(t, gens, order=o)).dimension for o in ORDERS}
        assert len(by_order) == 1
        dims += by_order
    assert set(dims) == {0, 1, 2}


def test_budget_exhaustion_is_inconclusive():
    t = VarTable(["x", "y", "z"])
    tight = GroebnerBudget(max_spairs=0, max_degree=200)
    with pytest.raises(Inconclusive):
        _ideal(t, ["x^2 + y^2 - 1", "x - y", "z^3 - x*y"], budget=tight).groebner_basis()
    low_deg = GroebnerBudget(max_spairs=200_000, max_degree=1)
    with pytest.raises(Inconclusive):
        _ideal(t, ["x^2 - y", "y^2 - z"], budget=low_deg).groebner_basis()


@pytest.mark.parametrize("field", [QQ, PrimeField(65521)])
@pytest.mark.parametrize("gens", [
    # y^20000 * y^20000 made while reducing the S-polynomial x*y^20000 - y
    ["x - y^20000", "x^2 - y"],
    # y^20000 * y^20000 made inside the S-polynomial itself
    ["x^2 + y^20000", "x*y^20000 + 1"],
])
def test_packed_exponent_overflow_is_inconclusive(field, gens):
    # the true exponent 40000 does not fit below the guard bit of a 16-bit
    # field; it must be reported, not wrapped into a bogus degree
    text = "vars: x, y\norder: lex\n" + "\n".join(gens) + "\n"
    ideal = read_ideal_text(text, field=field,
                            budget=GroebnerBudget(max_degree=100_000))
    with pytest.raises(Inconclusive, match="packed-field capacity") as exc:
        ideal.groebner_basis()
    assert exc.value.detail == {"exponent": 40000}


def test_engine_stats_account_for_every_pair():
    t = VarTable(["x", "y", "z"])
    I = _ideal(t, ["x^2 + y^2 - 1", "x - y", "z^3 - x*y"])
    assert I.stats is None
    I.groebner_basis()
    s = I.stats
    assert isinstance(s, EngineStats)
    # every formed pair is pruned by one criterion or reduced
    assert s.pairs_formed == s.pruned_mf + s.pruned_coprime + s.pruned_b + s.pairs_reduced
    assert s.pairs_reduced == s.zero_reductions + s.elements_added
    assert s.basis_peak >= len(I.groebner_basis())


def test_budget_does_not_trip_on_trivial_ideal():
    t = VarTable(["x", "y"])
    tight = GroebnerBudget(max_spairs=0, max_degree=5)
    assert _ideal(t, ["x*y - 1"], budget=tight).groebner_basis() == (parse_poly("x*y - 1", t),)


# ---------------------------------------------------------------------------
# text files
# ---------------------------------------------------------------------------

def test_ideal_text_round_trip():
    t = VarTable(["x", "y", "z"])
    I = _ideal(t, ["x^2 + y^2 - 1", "x - y"], order=LEX)
    text = write_ideal_text(I)
    J = read_ideal_text(text)
    assert J.table == I.table
    assert J.order == I.order
    assert list(J.gens) == list(I.gens)


def test_ideal_text_block_order():
    text = "vars: x, w, v\norder: block(x | w,v)\nw - x^2\nv - x^3\n"
    I = read_ideal_text(text)
    assert I.order.spec() == "block(x | w,v)"
    basis = I.groebner_basis()
    assert parse_poly("w^3 - v^2", I.table) in basis


def test_ideal_text_rejects_missing_header():
    with pytest.raises(ValueError, match="vars"):
        read_ideal_text("x + y\n")
