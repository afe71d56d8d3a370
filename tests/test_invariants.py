"""Invariant generators, the deformation map, minors, and the kernel."""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

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
    kernel_grading,
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
from starquiver.poly import Poly, PrimeField, QQ, VarTable, parse_field, parse_poly, poly_prod
from starquiver.quiver import ArmParams, StarQuiver, build_star_quiver
from starquiver.reconstruction import canonical_relation, in_delta, zero_gamma

from kernel_oracle import graph_ideal, kernel_ideal
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


@pytest.mark.parametrize("spec", ["q", "fp:7"])
def test_cycle_products_are_one_monomial(spec, monkeypatch):
    # each V_i is one monomial, built with no Poly product; it must be the
    # product of the arm's v symbols
    field, p = parse_field(spec), ArmParams(4, 3, 2)

    def no_product(*args):
        raise AssertionError("the cycle products multiplied Polys")

    with monkeypatch.context() as m:
        m.setattr(Poly, "__mul__", no_product)
        _, V = invariants._w_and_cycle_products(p, field)
    t = wv_table(p)
    for arm in (1, 2, 3):
        assert V[arm] == poly_prod((Poly.var(t, field, f"v{arm}_{j}")
                                    for j in range(1, p[arm] + 1)), t, field)


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


@pytest.mark.parametrize("field", [GF, QQ], ids=["F65521", "QQ"])
def test_kernel_engine_counters_pinned(field):
    # the oracle's elimination basis of ker(phi) at 3,3,2, under normal
    # selection: the counters are deterministic, so a change in pair
    # handling shows up here, and they agree over F_65521 and over QQ (the
    # fraction-free path)
    kern = kernel_ideal(ArmParams(3, 3, 2), field)
    assert kern.stats == EngineStats(
        pairs_formed=132190, pruned_mf=122587, pruned_coprime=1324, pruned_b=3168,
        pairs_reduced=5111, zero_reductions=4500, elements_added=611,
        basis_peak=623, degree_peak=8)


@pytest.mark.parametrize("field", [GF, QQ], ids=["F65521", "QQ"])
def test_kernel_engine_counters_pinned_unit_weights(field):
    # at 2,2,2 `kernel_grading` weighs every arrow 1, so the engine's
    # total-degree selection is the kernel grading on the eliminated block;
    # the counters of eliminating the graph ideal there are pinned too
    Q = build_star_quiver(P222, field)
    grading = kernel_grading(Q)
    assert {grading[n] for n in Q.table.names} == {1}
    kern = eliminate(graph_ideal(Q), Q.table.names)
    assert kern.table == wv_table(P222)
    assert kern.stats == EngineStats(
        pairs_formed=18581, pruned_mf=16021, pruned_coprime=384, pruned_b=932,
        pairs_reduced=1244, zero_reductions=1015, elements_added=229,
        basis_peak=239, degree_peak=7)


@pytest.mark.parametrize("p, field, cap, last_failing, detail", [
    ((2, 2, 2), QQ, "max_degree", 8, {"degree": 9}),
    ((3, 2, 2), GF, "max_degree", 10, {"degree": 11}),
    ((2, 2, 2), QQ, "max_spairs", 2559, {"spairs": 2560}),
    ((3, 2, 2), GF, "max_spairs", 4976, {"spairs": 4977}),
], ids=["2,2,2-QQ-degree", "3,2,2-F65521-degree", "2,2,2-QQ-spairs", "3,2,2-F65521-spairs"])
def test_kernel_budget_boundaries_pinned(p, field, cap, last_failing, detail):
    # the largest cap under which the oracle's kernel elimination is
    # inconclusive, with the count it tripped on; one more and it completes
    with pytest.raises(Inconclusive) as exc:
        kernel_ideal(p, field, GroebnerBudget(**{cap: last_failing}))
    assert exc.value.detail == detail
    assert len(kernel_ideal(p, field, GroebnerBudget(**{cap: last_failing + 1})).gens) == 3


@pytest.mark.parametrize("p", [(2, 2, 2), (3, 3, 2), (4, 3, 3), (5, 4, 3)],
                         ids=lambda p: ",".join(map(str, p)))
def test_graph_ideal_is_weighted_homogeneous(p):
    Q = build_star_quiver(ArmParams(*p))
    grading = kernel_grading(Q)
    joint = graph_ideal(Q)
    assert all(grading[n] > 0 for n in joint.table.names)
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
    # the minors-in-kernel normal forms, the crossing-cycle normal forms and
    # the minors' basis: every ideal the proof builds runs under the
    # caller's caps
    budget = GroebnerBudget(max_spairs=123_456, max_degree=150, time_cap=600.0)
    budgets = []
    init = Ideal.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        budgets.append(self.budget)

    monkeypatch.setattr(Ideal, "__init__", spy)
    rep = verify_conjecture(P222, GF, budget)
    assert rep.status == "confirmed" and rep.minors_in_kernel
    assert len(budgets) == 3
    assert all(b == budget for b in budgets)


def test_fibre_zero_presentation_smallest_case():
    rep = fibre_zero_presentation(P222, GF)
    assert rep.status == "confirmed"
    assert rep.equal


def test_fibre_zero_inconclusive_under_zero_budget():
    rep = fibre_zero_presentation(P222, GF, GroebnerBudget(max_spairs=0))
    assert rep.status == "inconclusive"


# ---------------------------------------------------------------------------
# the Hilbert-series proof against its oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p, field", [((2, 2, 2), QQ), ((3, 2, 2), GF), ((3, 3, 2), GF),
                                      ((3, 3, 3), GF)],
                         ids=["2,2,2-QQ", "3,2,2-F65521", "3,3,2-F65521", "3,3,3-F65521"])
def test_kernel_generators_match_elimination(p, field):
    # the proof reports the minors' reduced basis; the oracle eliminates the
    # arrows from the graph ideal, and prints the same basis
    rep = verify_conjecture(p, field)
    assert rep.status == "confirmed"
    assert [g.to_str() for g in rep.kernel_generators] == [
        g.to_str() for g in kernel_ideal(p, field).groebner_basis()]


def _flow_counts(Q: StarQuiver, grading: dict, top: int) -> dict:
    """Arrow monomials of weighted degree at most `top`, counted by (degree,
    torus weight): a product over the arrows, one exponent at a time."""
    counts = {(0, (0,) * len(Q.vertices)): 1}
    index = {v: i for i, v in enumerate(Q.vertices)}
    for name, (tail, head) in Q.arrows.items():
        w = grading[name]
        out = dict(counts)
        for (deg, weight), c in counts.items():
            shifted = list(weight)
            for e in range(1, (top - deg) // w + 1):
                shifted[index[head]] += 1
                shifted[index[tail]] -= 1
                key = (deg + e * w, tuple(shifted))
                out[key] = out.get(key, 0) + c
        counts = out
    return counts


def _expand(num: Poly, den: Poly, top: int) -> list:
    """The coefficients of t^0 .. t^top in num / den, den(0) = 1."""
    n = {e: int(c) for (e,), c in num.terms.items()}
    d = {e: int(c) for (e,), c in den.terms.items()}
    constant = d.pop(0)
    assert constant == 1
    out = []
    for k in range(top + 1):
        out.append(n.get(k, 0) - sum(c * out[k - e] for e, c in d.items() if e <= k))
    return out


@pytest.mark.parametrize("p, top", [((2, 2, 2), 10), ((3, 2, 2), 13), ((3, 3, 2), 12)],
                         ids=["2,2,2", "3,2,2", "3,3,2"])
def test_series_coefficients_count_invariant_monomials(p, top):
    # dim of phi's image in degree d, counted by brute force: invariant
    # arrow monomials of degree d minus the multiples of canon, which are
    # canon times a monomial of the opposite torus weight in degree d - L;
    # both closed forms must expand to these counts
    p = ArmParams(*p)
    Q = build_star_quiver(p)
    grading = kernel_grading(Q)
    L = lcm(*p)
    counts = _flow_counts(Q, grading, top)
    zero = (0,) * len(Q.vertices)
    chi = tuple(Q.torus_weight(next(iter(canonical_relation(Q).terms)))[v] for v in Q.vertices)
    minus = tuple(-c for c in chi)
    multiples = [counts.get((d - L, minus), 0) for d in range(top + 1)]
    brute = [counts.get((d, zero), 0) - m for d, m in zip(range(top + 1), multiples)]
    assert sum(multiples) > 0 and sum(brute) > 10

    cycle_factors = poly_prod((invariants._one_minus_t(grading[f"v{arm}_1"]) ** p[arm]
                               for arm in (1, 2, 3)), invariants._T, QQ)
    N2, D2 = invariants._kernel_numerator(p, L)
    assert _expand(N2, D2 * cycle_factors, top) == brute

    basis = minors_ideal(p).groebner_basis()
    leads = [g.sorted_terms()[0][0] for g in basis]
    names = wv_table(p).names
    N1 = invariants._leads_numerator(leads, [grading[n] for n in names])
    D1 = poly_prod((invariants._one_minus_t(grading[n]) for n in names), invariants._T, QQ)
    assert _expand(N1, D1, top) == brute


@pytest.mark.parametrize("p", [(2, 2, 2), (3, 3, 2), (4, 3, 3), (6, 5, 4), (12, 10, 9)],
                         ids=lambda p: ",".join(map(str, p)))
def test_conjecture_confirmed_past_the_elimination(p):
    rep = verify_conjecture(p)
    assert (rep.status, rep.equal, rep.minors_in_kernel) == ("confirmed", True, True)
    assert len(rep.kernel_generators) == 3


@pytest.mark.parametrize("dropped", [0, 1, 2])
def test_conjecture_refuted_with_a_minor_dropped(monkeypatch, dropped):
    # two minors still lie in the kernel and are homogeneous; only the
    # series identity tells that they do not generate it
    minors = determinantal_minors

    def two(p, field=QQ):
        out = minors(p, field)
        return out[:dropped] + out[dropped + 1:]

    monkeypatch.setattr(invariants, "determinantal_minors", two)
    for p in ((2, 2, 2), (3, 3, 2), (4, 3, 3)):
        rep = verify_conjecture(p)
        assert (rep.status, rep.equal, rep.minors_in_kernel) == ("refuted", False, True)
        assert rep.kernel_generators == ()


def test_kernel_numerator_at_canon_degree_l():
    # the cones' closed form against the sum it cancels down to when canon
    # weighs L: N / D = 1 + sum_k x_k / (1 - x_k), x_k = t^(L + p_k)
    for p in ((2, 2, 2), (3, 3, 2), (6, 5, 4)):
        p = ArmParams(*p)
        L = lcm(*p)
        om = [invariants._one_minus_t(L + pk) for pk in p]
        N, D = invariants._kernel_numerator(p, L)
        assert D == om[0] ** 2 * om[1] ** 2 * om[2] ** 2
        expected = D
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            expected += invariants._t(L + p[i + 1]) * om[i] * om[j] ** 2 * om[k] ** 2
        assert N == expected


def test_conjecture_checks_that_the_minors_are_homogeneous(monkeypatch):
    # a fourth generator in the kernel but not homogeneous: the series
    # argument does not apply, and the run stops instead of deciding
    minors = determinantal_minors

    def with_inhomogeneous(p, field=QQ):
        out = minors(p, field)
        w1 = Poly.var(out[0].table, field, "w1")
        return out + (out[0] * (w1 + 1),)

    monkeypatch.setattr(invariants, "determinantal_minors", with_inhomogeneous)
    with pytest.raises(CheckFailed, match="not weighted-homogeneous"):
        verify_conjecture(P222)


def test_conjecture_refuted_with_canon_shifted_a_degree(monkeypatch):
    numerator = invariants._kernel_numerator
    monkeypatch.setattr(invariants, "_kernel_numerator",
                        lambda p, canon_degree: numerator(p, canon_degree + 1))
    for p in ((2, 2, 2), (3, 3, 2)):
        rep = verify_conjecture(p)
        assert (rep.status, rep.equal) == ("refuted", False)


@pytest.mark.parametrize("entry", ["2*w3", "w3 - V3"])
def test_conjecture_refuted_with_a_perturbed_matrix_entry(monkeypatch, entry):
    # one entry of (w2, w3, V2; V1, w3 + V3, w1) changed, homogeneously
    matrix = invariants.det_matrix

    def perturbed(p, field=QQ):
        (a1, a2, a3), (b1, b2, b3) = matrix(p, field)
        w3 = a2
        if entry == "2*w3":
            a2 = w3.scale(2)
        else:
            b2 = w3 - (b2 - w3)
        return (a1, a2, a3), (b1, b2, b3)

    monkeypatch.setattr(invariants, "det_matrix", perturbed)
    rep = verify_conjecture(P222)
    assert (rep.status, rep.equal, rep.minors_in_kernel) == ("refuted", False, False)
    assert rep.kernel_generators == ()
    assert fibre_zero_presentation(P222, conjecture=rep).equal is None


def test_crossing_cycles_lie_in_the_image_only_modulo_canon(monkeypatch):
    for p in ((2, 2, 2), (4, 3, 2)):
        assert invariants._crossings_in_image(build_star_quiver(p), GroebnerBudget())
    # modulo D1 + D2 + D3 instead of canon = D1 - D2 + D3 they fail
    monkeypatch.setattr(invariants, "canonical_relation", lambda Q: Q.D(1) + Q.D(2) + Q.D(3))
    assert not invariants._crossings_in_image(build_star_quiver(P222), GroebnerBudget())


def test_fibre_zero_renames_the_kernel_basis():
    rep = verify_conjecture(ArmParams(3, 2, 2))
    fz = fibre_zero_presentation(ArmParams(3, 2, 2), conjecture=rep)
    assert (fz.status, fz.equal) == ("confirmed", True)
    table = invariants.origin_fibre_table()
    assert ideals_equal(Ideal(table, [parse_poly(g, table) for g in fz.specialized_generators]),
                        Ideal(table, invariants.origin_fibre_minors(ArmParams(3, 2, 2))))
