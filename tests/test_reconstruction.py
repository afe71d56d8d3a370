"""Relation systems, the parameter subspace, and representation ideals."""

from fractions import Fraction

import pytest

from starquiver.groebner import CheckFailed, Ideal
from starquiver.poly import PrimeField, QQ, parse_field, parse_poly
from starquiver.quiver import ArmParams, build_star_quiver
from starquiver.reconstruction import (
    canonical_relation,
    deformed_relations,
    delta_forms,
    fibre_is_empty,
    gamma_from_json,
    in_delta,
    make_gamma,
    parse_gamma_spec,
    random_gamma,
    zero_gamma,
)

from test_poly import coeff_of, total_degree

P222 = ArmParams(2, 2, 2)


def test_canonical_relation_smallest_case():
    Q = build_star_quiver(P222)
    assert canonical_relation(Q) == parse_poly("d1_1*d1_2 - d2_1*d2_2 + d3_1*d3_2", Q.table)


def test_canonical_relation_degrees_and_signs():
    p = ArmParams(4, 3, 2)
    Q = build_star_quiver(p)
    rel = canonical_relation(Q)
    assert sorted(sum(e) for e in rel.terms) == [2, 3, 4]
    assert coeff_of(rel, next(iter(Q.D(1).terms))) == 1
    assert coeff_of(rel, next(iter(Q.D(2).terms))) == -1
    assert coeff_of(rel, next(iter(Q.D(3).terms))) == 1


def test_relation_count_and_quadratic_shape():
    Q = build_star_quiver(P222)
    rels = deformed_relations(Q, zero_gamma(P222))
    assert len(rels) == 8
    for label, poly in rels.items():
        if label == "(x)":
            continue
        assert total_degree(poly) == 2


def test_relation_a_with_scalar():
    Q = build_star_quiver(P222)
    gamma = make_gamma(P222, [0], [0], [0], a=5, b=0, A=0, B=0)
    rel = deformed_relations(Q, gamma)["(a)"]
    assert rel == parse_poly("d2_1*u2_1 - d1_1*u1_1 - 5", Q.table)


def test_zero_gamma_reproduces_undeformed_relations():
    Q = build_star_quiver((3, 2, 2))
    rels = deformed_relations(Q, zero_gamma(ArmParams(3, 2, 2)))
    av = Q.arrow_poly
    assert rels["(1).1"] == av("u1_1") * av("d1_1") - av("d1_2") * av("u1_2")
    assert rels["(c)"] == av("u1_3") * av("d1_3") - av("u2_2") * av("d2_2")
    assert rels["(x)"] == canonical_relation(Q)


# ---------------------------------------------------------------------------
# the parameter subspace
# ---------------------------------------------------------------------------

def test_zero_gamma_in_delta():
    assert in_delta(zero_gamma(P222))


def test_delta_membership_forced_by_formula():
    gamma = make_gamma(P222, [1], [0], [0], a=-1, b=0, A=0, B=0)
    assert in_delta(gamma)


def test_delta_violated_by_single_entry():
    gamma = make_gamma(P222, [1], [0], [0], a=0, b=0, A=0, B=0)
    assert not in_delta(gamma)
    assert delta_forms(gamma)[0] == 1


def test_telescoping_relation_sums():
    # summing (1) - (2) + (a) + (c) collapses every cycle monomial and leaves
    # minus the first subspace form; same for (3) - (2) + (b) + (d).
    # fibre_is_empty raises CheckFailed unless both sums are these constants
    for p in [(2, 2, 2), (4, 3, 2)]:
        p = ArmParams.parse(p)
        Q = build_star_quiver(p)
        outside = random_gamma(p, seed=9, inside_delta=False)
        assert fibre_is_empty(deformed_relations(Q, outside), outside)
        inside = random_gamma(p, seed=9)
        assert not fibre_is_empty(deformed_relations(Q, inside), inside)


def _one_scalar(p: ArmParams, key: str, value, field):
    """The gamma whose one nonzero coordinate is the scalar `key`."""
    scalars = dict.fromkeys("abAB", 0)
    scalars[key] = value
    return make_gamma(p, [0] * (p.p1 - 1), [0] * (p.p2 - 1), [0] * (p.p3 - 1),
                      **scalars, field=field)


SUITE_SIZES = [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 3), (4, 3, 2)]


@pytest.mark.parametrize("spec", ["q", "fp:65521", "fp:7"])
def test_relation_sums_agree_with_the_relation_ideal(spec):
    # the sums decide emptiness as the Groebner basis of all the relations
    # does: empty off Delta (1 in the ideal), not empty on it
    field = parse_field(spec)
    for p in map(ArmParams.parse, SUITE_SIZES):
        Q = build_star_quiver(p, field)
        gammas = [random_gamma(p, seed, field=field, inside_delta=False) for seed in (1, 2)]
        gammas += [_one_scalar(p, "a", 1, field), _one_scalar(p, "b", -2, field)]
        gammas += [random_gamma(p, 1, field=field), zero_gamma(p, field)]
        for gamma in gammas:
            empty = fibre_is_empty(deformed_relations(Q, gamma), gamma)
            assert empty == rep_ideal(Q, gamma).contains_one() == (not in_delta(gamma)), p


@pytest.mark.parametrize("label", ["(1).1", "(2).2", "(3).1", "(a)", "(b)", "(c)", "(d)"])
def test_relation_sums_reject_a_perturbed_relation(label):
    # one extra monomial, a cycle or a constant, in any relation the sums
    # read leaves a monomial or the wrong constant
    p = ArmParams(2, 3, 2)
    Q = build_star_quiver(p)
    for gamma in (random_gamma(p, seed=3, inside_delta=False), random_gamma(p, seed=3)):
        for extra in (Q.arrow_poly("d2_1") * Q.arrow_poly("u2_1"), 1):
            rels = deformed_relations(Q, gamma)
            rels[label] = rels[label] + extra
            with pytest.raises(CheckFailed, match="telescoped relation sum"):
                fibre_is_empty(rels, gamma)


def test_random_gamma_is_seeded_and_lands_where_asked():
    g1 = random_gamma(P222, seed=4)
    g2 = random_gamma(P222, seed=4)
    assert g1 == g2
    assert in_delta(g1)
    g3 = random_gamma(P222, seed=4, inside_delta=False)
    assert not in_delta(g3)


def test_random_gamma_draws_are_pinned():
    # `random:SEED` names the same gamma in every release
    p = ArmParams(3, 3, 2)
    assert random_gamma(p, 5).to_json() == {
        "gamma1": ["-9/8", "5/3"], "gamma2": ["3/4", "2"], "gamma3": ["-1"],
        "a": "121/120", "b": "7/4", "A": "6/5", "B": "2"}
    assert random_gamma(p, 5, inside_delta=False).to_json() == {
        "gamma1": ["4/9", "-3/7"], "gamma2": ["0", "2/7"], "gamma3": ["-1/2"],
        "a": "-9", "b": "-1/2", "A": "1/2", "B": "-2/3"}


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_random_gamma_over_small_primes(q):
    # a denominator the characteristic divides is redrawn, so every seed
    # gives a gamma over F_q, on the side of Delta that was asked for
    F = PrimeField(q)
    p = ArmParams(3, 3, 3)
    for seed in range(10):
        for inside in (True, False):
            g = random_gamma(p, seed, field=F, inside_delta=inside)
            assert g.field == F and g.p == p and in_delta(g) == inside
    # a draw with no denominator divisible by 7 is the image of the QQ gamma
    g = random_gamma(p, 3)
    assert random_gamma(p, 3, field=PrimeField(7)) == make_gamma(
        p, g.gamma1, g.gamma2, g.gamma3, g.a, g.b, g.A, g.B, field=PrimeField(7))


@pytest.mark.parametrize("q", [65521, 11])
def test_prime_field_delta_sums_are_reduced(q):
    F = PrimeField(q)
    # gamma1 = [1], a = -1: the first form is 1 + (-1), i.e. 1 + (q - 1) unreduced
    gamma = make_gamma(P222, [1], [0], [0], a=-1, b=0, A=0, B=0, field=F)
    assert delta_forms(gamma) == (0, 0)
    assert in_delta(gamma)
    p = ArmParams(3, 3, 3)
    for seed in range(10):
        g = random_gamma(p, seed)
        assert random_gamma(p, seed, field=F) == make_gamma(
            p, g.gamma1, g.gamma2, g.gamma3, g.a, g.b, g.A, g.B, field=F)


# ---------------------------------------------------------------------------
# representation ideals
# ---------------------------------------------------------------------------

def rep_ideal(Q, gamma) -> Ideal:
    """Vanishing ideal of the relation system in the arrow variables."""
    return Ideal(Q.table, tuple(deformed_relations(Q, gamma).values()), field=Q.field)


def test_rep_ideal_generator_count():
    Q = build_star_quiver(P222)
    I = rep_ideal(Q, zero_gamma(P222))
    assert len(I.gens) == 8


def test_rep_ideal_unit_outside_delta():
    Q = build_star_quiver(P222)
    gamma = make_gamma(P222, [1], [0], [0], a=0, b=0, A=0, B=0)
    assert rep_ideal(Q, gamma).contains_one()


def test_rep_ideal_unit_outside_delta_all_suite_sizes():
    for p in [(2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 3, 3), (4, 3, 2)]:
        p = ArmParams.parse(p)
        Q = build_star_quiver(p)
        gamma = random_gamma(p, seed=1, inside_delta=False)
        assert rep_ideal(Q, gamma).contains_one(), p


def test_rep_ideal_not_unit_inside_delta():
    Q = build_star_quiver(P222)
    gamma = random_gamma(P222, seed=2)
    assert not rep_ideal(Q, gamma).contains_one()


def test_gamma_carries_its_field_and_arm_lengths():
    F = PrimeField(11)
    p = ArmParams(3, 2, 2)
    for g in (zero_gamma(p, F), random_gamma(p, 1, field=F),
              parse_gamma_spec("random:1", p, F)):
        assert g.p == p
        assert g.field == F
    assert random_gamma(p, 1).field == QQ
    assert random_gamma(p, 1) != random_gamma(p, 1, field=F)


def test_gamma_of_another_field_or_arms_is_rejected():
    # over QQ the F_11 residues would be read as rationals: d1_1*u1_1 -
    # d1_2*u1_2 - 9 instead of an error
    p = ArmParams(3, 2, 2)
    Q = build_star_quiver(p)
    for gamma in (random_gamma(p, 1, field=PrimeField(11)), random_gamma(ArmParams(2, 3, 2), 1)):
        with pytest.raises(ValueError, match="on a quiver"):
            deformed_relations(Q, gamma)
        with pytest.raises(ValueError, match="on a quiver"):
            rep_ideal(Q, gamma)


# ---------------------------------------------------------------------------
# gamma I/O
# ---------------------------------------------------------------------------

def test_gamma_json_round_trip():
    gamma = random_gamma(ArmParams(3, 2, 2), seed=5)
    obj = gamma.to_json()
    back = gamma_from_json(obj, ArmParams(3, 2, 2))
    assert back == gamma


def test_gamma_json_specifiers():
    with pytest.raises(ValueError):
        gamma_from_json("sideways", P222)
    with pytest.raises(ValueError, match="missing"):
        gamma_from_json({"gamma1": []}, P222)


def test_gamma_spec_parsing(tmp_path):
    assert parse_gamma_spec("zero", P222) == zero_gamma(P222)
    assert parse_gamma_spec("random:3", P222) == random_gamma(P222, seed=3)
    path = tmp_path / "gamma.json"
    path.write_text(
        '{"gamma1": ["1/2"], "gamma2": ["0"], "gamma3": ["0"],'
        ' "a": "-1/2", "b": "0", "A": "0", "B": "0"}',
        encoding="utf-8",
    )
    g = parse_gamma_spec(f"file:{path}", P222)
    assert g.gamma1 == (Fraction(1, 2),)
    assert in_delta(g)
    with pytest.raises(ValueError):
        parse_gamma_spec("bogus:thing", P222)


def test_gamma_length_mismatch_rejected():
    with pytest.raises(ValueError):
        make_gamma(P222, [1, 2], [0], [0], a=0, b=0, A=0, B=0)
