"""Invariant generators, the deformation map, minors, and the kernel."""

from dataclasses import dataclass
from fractions import Fraction

import pytest

from starquiver import invariants
from starquiver.groebner import (
    CheckFailed,
    EngineStats,
    GroebnerBudget,
    Ideal,
    Inconclusive,
    eliminate,
    ideals_equal,
)
from starquiver.invariants import (
    WVPoint,
    crossing_cycle,
    determinantal_minors,
    fibre_zero_presentation,
    graph_ideal,
    kernel_grading,
    kernel_ideal,
    minors_ideal,
    origin_fibre_minors,
    phi_map,
    pi_delta_forms_symbolic,
    pi_map,
    verify_conjecture,
    verify_minors_vanish,
    weighted_degree,
    wv_table,
)
from starquiver.poly import Poly, PrimeField, QQ, VarTable, parse_poly, poly_prod
from starquiver.quiver import ArmParams, StarQuiver, build_star_quiver
from starquiver.reconstruction import canonical_relation, in_delta, zero_gamma

from test_quiver import is_weight_zero

P222 = ArmParams(2, 2, 2)
GF = PrimeField(65521)


# ---------------------------------------------------------------------------
# generating sets, which only these tests read
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratingSet:
    name: str
    generators: tuple  # (label, Poly) pairs

    def labels(self) -> tuple:
        return tuple(lbl for lbl, _ in self.generators)

    def polys(self) -> tuple:
        return tuple(p for _, p in self.generators)


def two_cycles(Q: StarQuiver) -> list[tuple[str, Poly]]:
    return [
        (f"v{arm}_{j}", Q.two_cycle(arm, j))
        for arm in (1, 2, 3)
        for j in range(1, Q.p[arm] + 1)
    ]


def generating_sets(Q: StarQuiver) -> tuple[GeneratingSet, GeneratingSet, GeneratingSet]:
    """The nested generating sets of the invariant ring: all nine crossing
    cycles, four of them, three of them — each together with all 2-cycles."""
    two = two_cycles(Q)
    crossings = {(i, j): (f"D{i}U{j}", crossing_cycle(Q, i, j))
                 for i in (1, 2, 3) for j in (1, 2, 3)}
    tier1 = [crossings[k] for k in sorted(crossings)]
    tier2 = [crossings[k] for k in ((1, 2), (1, 3), (2, 1), (2, 3))]
    tier3 = [crossings[k] for k in ((1, 2), (2, 1), (2, 3))]
    return (
        GeneratingSet("S1", tuple(two) + tuple(tier1)),
        GeneratingSet("S2", tuple(two) + tuple(tier2)),
        GeneratingSet("S3", tuple(two) + tuple(tier3)),
    )


def verify_generating_equivalence(Q: StarQuiver) -> bool:
    """The three tiers generate the same subalgebra modulo the canonical
    relation: the column identities D3 U_i - D2 U_i + D1 U_i reduce to zero,
    and each diagonal crossing cycle is a product of 2-cycles."""
    principal = Ideal(Q.table, [canonical_relation(Q)], field=Q.field)
    for i in (1, 2, 3):
        combo = crossing_cycle(Q, 3, i) - crossing_cycle(Q, 2, i) + crossing_cycle(Q, 1, i)
        if not principal.normal_form(combo).is_zero():
            return False
    for arm in (1, 2, 3):
        prod = poly_prod((Q.two_cycle(arm, j) for j in range(1, Q.p[arm] + 1)),
                         Q.table, Q.field)
        if crossing_cycle(Q, arm, arm) != prod:
            return False
    return True


def test_generating_set_sizes():
    Q = build_star_quiver(P222)
    S1, S2, S3 = generating_sets(Q)
    assert len(S1.generators) == 6 + 9
    assert len(S2.generators) == 6 + 4
    assert len(S3.generators) == 6 + 3


def test_tier_containments_and_labels():
    Q = build_star_quiver((3, 2, 2))
    S1, S2, S3 = generating_sets(Q)
    assert set(S3.labels()) <= set(S2.labels()) <= set(S1.labels())
    assert S3.labels()[-3:] == ("D1U2", "D2U1", "D2U3")
    assert set(S2.labels()) - set(S3.labels()) == {"D1U3"}


def test_every_generator_has_zero_weight():
    for p in [(2, 2, 2), (4, 3, 2)]:
        Q = build_star_quiver(p)
        S1, _, _ = generating_sets(Q)
        for _, g in S1.generators:
            assert is_weight_zero(Q, g)


def test_generating_equivalence():
    for p in [(2, 2, 2), (3, 2, 2), (3, 3, 3)]:
        assert verify_generating_equivalence(build_star_quiver(p))


def test_column_identity_reduces_to_zero():
    Q = build_star_quiver(P222)
    principal = Ideal(Q.table, [canonical_relation(Q)])
    for i in (1, 2, 3):
        combo = Q.D(3) * Q.U(i) - Q.D(2) * Q.U(i) + Q.D(1) * Q.U(i)
        assert principal.normal_form(combo).is_zero()


def test_diagonal_crossing_is_two_cycle_product():
    Q = build_star_quiver((4, 3, 2))
    for arm in (1, 2, 3):
        prod = parse_poly(
            "*".join(f"d{arm}_{j}*u{arm}_{j}" for j in range(1, Q.p[arm] + 1)),
            Q.table)
        assert Q.D(arm) * Q.U(arm) == prod


# ---------------------------------------------------------------------------
# the deformation map
# ---------------------------------------------------------------------------

def test_pi_constant_point_maps_to_zero():
    pt = WVPoint(betas=(0, 0, 0), alphas=((7, 7), (7, 7), (7, 7)))
    gamma = pi_map(pt, P222)
    assert gamma == zero_gamma(P222)


def test_pi_example_table():
    pt = WVPoint(betas=(0, 0, 0), alphas=((1, 2), (3, 4), (5, 6)))
    gamma = pi_map(pt, P222)
    assert gamma.gamma1 == (-1,)
    assert gamma.gamma2 == (-1,)
    assert gamma.gamma3 == (-1,)
    assert (gamma.a, gamma.b, gamma.A, gamma.B) == (2, -2, -2, 2)
    assert in_delta(gamma)


def test_pi_lands_in_delta_symbolically():
    for p in [(2, 2, 2), (3, 2, 2), (3, 3, 3), (4, 3, 2)]:
        f1, f2 = pi_delta_forms_symbolic(ArmParams.parse(p))
        assert f1.is_zero() and f2.is_zero()


def test_pi_point_shape_checked():
    with pytest.raises(ValueError):
        pi_map(WVPoint(betas=(0, 0, 0), alphas=((1,), (2, 3), (4, 5))), P222)


# ---------------------------------------------------------------------------
# the cycle homomorphism
# ---------------------------------------------------------------------------

def test_phi_images():
    Q = build_star_quiver(P222)
    images = phi_map(Q)
    assert images["w3"] == -parse_poly("d2_1*d2_2*u3_2*u3_1", Q.table)
    assert images["v1_1"] == parse_poly("d1_1*u1_1", Q.table)
    assert images["w1"] == Q.D(1) * Q.U(2)
    for img in images.values():
        assert is_weight_zero(Q, img)


def test_pi_consistent_with_fibre_relation_display():
    # the fibre relations in the cycle coordinates hold at any point once the
    # parameters are defined as the point's consecutive differences
    import random as _random

    rng = _random.Random(83)
    for p in [(2, 2, 2), (4, 3, 2)]:
        p = ArmParams.parse(p)
        alphas = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(p[arm])) for arm in (1, 2, 3))
        gamma = pi_map(WVPoint(betas=(0, 0, 0), alphas=alphas), p)
        al = lambda arm, j: alphas[arm - 1][j - 1]
        for arm in (1, 2, 3):
            for i in range(1, p[arm]):
                assert al(arm, i) - al(arm, i + 1) == gamma.gamma(arm)[i - 1]
        assert al(2, 1) - al(1, 1) == gamma.a
        assert al(2, 1) - al(3, 1) == gamma.b
        assert al(1, p.p1) - al(2, p.p2) == gamma.A
        assert al(3, p.p3) - al(2, p.p2) == gamma.B


def test_phi_is_multiplicative():
    Q = build_star_quiver(P222)
    t = wv_table(P222)
    w1w2 = parse_poly("w1*w2", t)
    assert w1w2.substitute(phi_map(Q), Q.table) == (Q.D(1) * Q.U(2)) * (Q.D(2) * Q.U(1))


# ---------------------------------------------------------------------------
# determinantal minors
# ---------------------------------------------------------------------------

def test_exactly_three_minors():
    assert len(determinantal_minors(P222)) == 3


def test_minor_13_smallest_case():
    m12, m13, m23 = determinantal_minors(P222)
    t = wv_table(P222)
    assert m13 == parse_poly("w2*w1 - v1_1*v1_2*v2_1*v2_2", t)
    assert m12 == parse_poly("w2*(w3 + v3_1*v3_2) - v1_1*v1_2*w3", t)
    assert m23 == parse_poly("w3*w1 - (w3 + v3_1*v3_2)*v2_1*v2_2", t)


def test_minors_specialize_to_single_variable_matrix():
    # sending every v<i>_j to one v turns the minors into those of the
    # one-variable matrix with entries v^p_i
    p = ArmParams(3, 2, 2)
    t1 = origin_fibre_minors(p)[0].table
    mapping = {f"v{arm}_{j}": "v" for arm in (1, 2, 3)
               for j in range(1, p[arm] + 1)}
    specialized = [m.rename(t1, mapping) for m in determinantal_minors(p)]
    assert tuple(specialized) == origin_fibre_minors(p)
    # the minors of (w2, w3, v^2; v^3, w3 + v^2, w1), written out by hand
    assert origin_fibre_minors(p) == tuple(parse_poly(s, t1) for s in (
        "w2*(w3 + v^2) - v^3*w3", "w2*w1 - v^3*v^2", "w3*w1 - (w3 + v^2)*v^2"))


def test_minors_vanish_under_phi():
    for p in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 3), (4, 3, 2)]:
        assert verify_minors_vanish(p)


def test_outer_minor_vanishes_before_reduction():
    Q = build_star_quiver(P222)
    _, m13, _ = determinantal_minors(P222)
    assert m13.substitute(phi_map(Q), Q.table).is_zero()


def test_middle_minors_need_the_canonical_relation():
    Q = build_star_quiver(P222)
    m12, _, m23 = determinantal_minors(P222)
    principal = Ideal(Q.table, [canonical_relation(Q)])
    for m in (m12, m23):
        img = m.substitute(phi_map(Q), Q.table)
        assert not img.is_zero()
        assert principal.normal_form(img).is_zero()


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

def test_kernel_smallest_case_prime_field():
    kern = kernel_ideal(P222, GF)
    assert kern.table == wv_table(P222)
    mins = minors_ideal(P222, GF)
    for m in mins.gens:
        assert kern.contains(m)
    assert ideals_equal(kern, mins)


def _unit_weight(ideal):
    """The same ideal with every weight 1: normal selection."""
    return Ideal(ideal.table, ideal.gens, field=ideal.field, budget=ideal.budget)


@pytest.mark.parametrize("field", [GF, QQ], ids=["F65521", "QQ"])
def test_kernel_engine_counters_pinned(field):
    # the elimination basis of ker(phi) at 3,3,2: the counters are
    # deterministic, so a change in pair handling shows up here, and they
    # agree over F_65521 and over QQ (the fraction-free path); pairs are
    # selected by the weighted degree of `kernel_grading`, while
    # degree_peak stays in total degree
    kern = kernel_ideal(ArmParams(3, 3, 2), field)
    assert kern.stats == EngineStats(
        pairs_formed=61437, pruned_mf=56636, pruned_coprime=753, pruned_b=362,
        pairs_reduced=3686, zero_reductions=3346, elements_added=340,
        basis_peak=352, degree_peak=7)


@pytest.mark.parametrize("field", [GF, QQ], ids=["F65521", "QQ"])
def test_kernel_engine_counters_pinned_unit_weights(field):
    # the same joint ideal without weights keeps normal selection's counts
    Q = build_star_quiver(ArmParams(3, 3, 2), field)
    kern = eliminate(_unit_weight(graph_ideal(Q)), Q.table.names)
    assert kern.stats == EngineStats(
        pairs_formed=132190, pruned_mf=122587, pruned_coprime=1324, pruned_b=3168,
        pairs_reduced=5111, zero_reductions=4500, elements_added=611,
        basis_peak=623, degree_peak=8)


@pytest.mark.parametrize("p, field, cap, last_failing, detail", [
    ((2, 2, 2), QQ, "max_degree", 7, {"degree": 8}),
    ((3, 2, 2), GF, "max_degree", 9, {"degree": 10}),
    ((2, 2, 2), QQ, "max_spairs", 1074, {"spairs": 1075}),
    ((3, 2, 2), GF, "max_spairs", 2380, {"spairs": 2381}),
], ids=["2,2,2-QQ-degree", "3,2,2-F65521-degree", "2,2,2-QQ-spairs", "3,2,2-F65521-spairs"])
def test_kernel_budget_boundaries_pinned(p, field, cap, last_failing, detail):
    # the largest cap under which the kernel elimination is inconclusive,
    # with the count it tripped on; one more and it completes
    with pytest.raises(Inconclusive) as exc:
        kernel_ideal(p, field, GroebnerBudget(**{cap: last_failing}))
    assert exc.value.detail == detail
    assert len(kernel_ideal(p, field, GroebnerBudget(**{cap: last_failing + 1})).gens) == 3


@pytest.mark.parametrize("p, field", [((3, 2, 2), GF), ((2, 2, 2), QQ)],
                         ids=["3,2,2-F65521", "2,2,2-QQ"])
def test_graded_selection_keeps_the_reduced_basis(p, field):
    Q = build_star_quiver(ArmParams(*p), field)
    joint = graph_ideal(Q)
    graded = eliminate(joint, Q.table.names)
    unit = eliminate(_unit_weight(joint), Q.table.names)
    assert graded.stats != unit.stats
    assert graded.groebner_basis() == unit.groebner_basis()


@pytest.mark.parametrize("p", [(2, 2, 2), (3, 3, 2), (4, 3, 3), (5, 4, 3)],
                         ids=lambda p: ",".join(map(str, p)))
def test_graph_ideal_is_weighted_homogeneous(p):
    Q = build_star_quiver(ArmParams(*p))
    grading = kernel_grading(Q)
    joint = graph_ideal(Q)
    assert joint.weights == tuple(grading[n] for n in joint.table.names)
    assert all(w > 0 for w in joint.weights)
    for g in joint.gens:
        weighted_degree(g, grading)
    # the determinantal minors are homogeneous under the w/v weights alone
    wv = {n: grading[n] for n in wv_table(Q.p).names}
    for m in determinantal_minors(Q.p):
        weighted_degree(m, wv)


def test_weighted_degree_rejects_an_inhomogeneous_polynomial():
    t = VarTable(["x", "y"])
    assert weighted_degree(parse_poly("x^2 - y", t), {"x": 1, "y": 2}) == 2
    with pytest.raises(CheckFailed, match="not weighted-homogeneous"):
        weighted_degree(parse_poly("x^2 - y", t), {"x": 1, "y": 1})


@pytest.mark.parametrize("weights", [(1, 0), (1, -2), (1,), (1, 1, 1), (1, 1.5)])
def test_ideal_rejects_a_bad_weight_vector(weights):
    t = VarTable(["x", "y"])
    with pytest.raises(ValueError):
        Ideal(t, [parse_poly("x - y", t)], weights=weights)


def test_kernel_joint_ring_arithmetic():
    # 12 arrow variables plus 9 cycle symbols feed the elimination
    assert len(build_star_quiver(P222).table) == 12
    assert len(wv_table(P222)) == 9


def test_conjecture_confirmed_smallest_case():
    rep = verify_conjecture(P222, GF)
    assert rep.status == "confirmed"
    assert rep.probabilistic
    assert rep.minors_in_kernel
    assert rep.equal


def test_conjecture_exact_rational_pass():
    rep = verify_conjecture(P222, QQ)
    assert rep.status == "confirmed"
    assert not rep.probabilistic


def test_conjecture_zero_budget_inconclusive_never_refuted():
    rep = verify_conjecture(P222, GF, GroebnerBudget(max_spairs=0))
    assert rep.status == "inconclusive"
    assert rep.equal is None


def test_conjecture_builds_every_ideal_under_the_run_budget(monkeypatch):
    # the minors-in-kernel containment, the kernel, the minors ideal and
    # their comparison all run under the caller's caps
    budget = GroebnerBudget(max_spairs=123_456, max_degree=150, time_cap=600.0)
    budgets = []
    init = Ideal.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        budgets.append(self.budget)

    monkeypatch.setattr(Ideal, "__init__", spy)
    rep = verify_conjecture(P222, GF, budget)
    assert rep.status == "confirmed" and rep.minors_in_kernel
    assert len(budgets) >= 4
    assert all(b == budget for b in budgets)


def test_fibre_zero_presentation_smallest_case():
    rep = fibre_zero_presentation(P222, GF)
    assert rep.status == "confirmed"
    assert rep.equal


def test_fibre_zero_inconclusive_under_zero_budget():
    rep = fibre_zero_presentation(P222, GF, GroebnerBudget(max_spairs=0))
    assert rep.status == "inconclusive"
