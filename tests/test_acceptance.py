"""Acceptance criteria: exact verification at desk-scale parameters.

Each test prints one pass/fail line (run with -s to see them inline) and
enforces its wall-clock cap.  All arithmetic is exact; there are no numeric
tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from starquiver.charts import (
    chart_by_substitution,
    euler_identity_check,
    fibre_chart,
    quotient_nonzero_check,
    smoothness_certificate,
    substitution_oracle,
    total_space_chart,
    verify_cover,
)
from starquiver.groebner import (
    DimensionReport,
    GroebnerBudget,
    Ideal,
    eliminate,
    ideals_equal,
    krull_dimension,
)
from starquiver.invariants import (
    WVPoint,
    cycles_invariant,
    fibre_zero_presentation,
    origin_fibre_table,
    pi_delta_forms_symbolic,
    pi_map,
    verify_conjecture,
    verify_minors_vanish,
)
from starquiver.poly import PrimeField, QQ, VarTable, parse_poly
from starquiver.quiver import ArmParams, all_chart_ids, build_star_quiver
from starquiver.reconstruction import deformed_relations, random_gamma, zero_gamma

from test_charts import witness_quotient_check
from test_reconstruction import rep_ideal

P_SUITE = [ArmParams(*p) for p in
           [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 3), (4, 3, 2)]]
GAMMA_SEEDS = [1, 2, 3, 4, 5]
GF = PrimeField(65521)


def _report(name: str, ok: bool, elapsed: float, cap: float, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[{verdict}] {name}: {elapsed:.1f}s (cap {cap:.0f}s){suffix}", flush=True)
    assert ok, f"{name} failed{suffix}"
    assert elapsed < cap, f"{name} exceeded the {cap:.0f}s cap ({elapsed:.1f}s)"


def _suite_gammas(p: ArmParams):
    return [zero_gamma(p)] + [random_gamma(p, seed=s) for s in GAMMA_SEEDS]


def test_criterion_01_fibre_chart_certificates():
    t0 = time.monotonic()
    ok = True
    charts = 0
    for p in P_SUITE:
        for gamma in _suite_gammas(p):
            for c in all_chart_ids(p):
                cert = smoothness_certificate(fibre_chart(gamma, c),
                                              expected_dim=2)
                charts += 1
                if not (cert.status == "smooth" and cert.one_in_jacobian
                        and cert.dimension.dimension == 2):
                    ok = False
    _report("criterion 1 (fibre charts smooth, dimension 2)", ok,
            time.monotonic() - t0, 60, f"{charts} charts, 6 gammas per p")


def test_criterion_02_total_space_charts():
    t0 = time.monotonic()
    ok = True
    charts = 0
    for p in P_SUITE:
        expected = p.p1 + p.p2 + p.p3 + 1
        for c in all_chart_ids(p):
            cert = smoothness_certificate(total_space_chart(p, c),
                                          expected_dim=expected)
            charts += 1
            if not (cert.status == "smooth" and cert.one_in_jacobian
                    and cert.dimension.dimension == expected):
                ok = False
    _report("criterion 2 (total-space charts smooth, dimension sum+1)", ok,
            time.monotonic() - t0, 30, f"{charts} charts")


def test_criterion_03_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    charts = 0
    for p in P_SUITE:
        Q = build_star_quiver(p)
        for gamma in _suite_gammas(p):
            oracle = substitution_oracle(Q, gamma, deformed_relations(Q, gamma))
            for c in all_chart_ids(p):
                charts += 1
                if not ideals_equal(fibre_chart(gamma, c), chart_by_substitution(oracle, c)):
                    ok = False
    _report("criterion 3 (substitution oracle generates the same ideals)", ok,
            time.monotonic() - t0, 120, f"{charts} comparisons")


def test_criterion_04_cover():
    t0 = time.monotonic()
    rep_a = verify_cover((2, 2, 2))
    rep_b = verify_cover((3, 2, 2))
    rep_c = verify_cover((5, 5, 5))
    ok = (rep_a.ok and rep_a.total_supports == 4096
          and rep_b.ok and rep_b.total_supports == 16384
          and rep_c.ok and rep_c.total_supports == 2 ** 30
          and rep_c.checked_supports == rep_c.covered_supports == 524288)
    _report("criterion 4 (every stable compatible support is covered)", ok,
            time.monotonic() - t0, 10,
            f"{rep_a.checked_supports}+{rep_b.checked_supports}"
            f"+{rep_c.checked_supports} checked")


def test_criterion_05_empty_fibres_outside_delta():
    t0 = time.monotonic()
    ok = True
    runs = 0
    for p in P_SUITE:
        Q = build_star_quiver(p)
        for seed in GAMMA_SEEDS:
            gamma = random_gamma(p, seed=seed, inside_delta=False)
            runs += 1
            if not rep_ideal(Q, gamma).contains_one():
                ok = False
    _report("criterion 5 (unit representation ideal outside the subspace)", ok,
            time.monotonic() - t0, 60, f"{runs} gammas")


def test_criterion_06_minors_vanish():
    t0 = time.monotonic()
    ok = all(verify_minors_vanish(p) for p in P_SUITE)
    _report("criterion 6 (all three minors map to zero)", ok,
            time.monotonic() - t0, 5)


def test_criterion_07_kernel_conjecture():
    t0 = time.monotonic()
    budget = GroebnerBudget(max_spairs=2_000_000, max_degree=120, time_cap=870)
    rep = verify_conjecture(ArmParams(2, 2, 2), GF, budget)
    ok = rep.status == "confirmed" and rep.minors_in_kernel
    # the containment direction must hold exactly at every suite size
    containments = all(verify_minors_vanish(p) for p in P_SUITE)
    ok = ok and containments
    # the exact rational pass must prove the equality outright
    exact = verify_conjecture(ArmParams(2, 2, 2), QQ, budget)
    ok = ok and exact.status == "confirmed" and exact.equal is True
    ok = ok and not exact.probabilistic
    _report("criterion 7 (kernel equals minors at the smallest case)", ok,
            time.monotonic() - t0, 900,
            f"prime-field {rep.status}, exact pass {exact.status}")


def test_criterion_08_fibre_over_origin():
    t0 = time.monotonic()
    budget = GroebnerBudget(max_spairs=2_000_000, max_degree=120, time_cap=870)
    rep = fibre_zero_presentation(ArmParams(2, 2, 2), QQ, budget)
    ok = rep.status == "confirmed" and rep.equal is True
    # QQ against F_p: the same verdict, and the exact specialized basis
    # reduces to the prime-field one
    cross = fibre_zero_presentation(ArmParams(2, 2, 2), GF, budget)
    ok = ok and cross.status == "confirmed" and cross.equal is True
    table = origin_fibre_table()
    ok = ok and ({parse_poly(g, table, GF) for g in rep.specialized_generators}
                 == {parse_poly(g, table, GF) for g in cross.specialized_generators})
    _report("criterion 8 (origin fibre is the one-variable determinantal)", ok,
            time.monotonic() - t0, 900, f"exact {rep.status}, prime-field {cross.status}")


def _independent_pi_evaluator(alphas, p: ArmParams):
    # scalar re-derivation of the consecutive-difference map, kept separate
    # from the library implementation on purpose
    flat = {}
    for arm in (1, 2, 3):
        for j, v in enumerate(alphas[arm - 1], start=1):
            flat[(arm, j)] = Fraction(v)
    gammas = [[flat[(arm, i)] - flat[(arm, i + 1)] for i in range(1, p[arm])]
              for arm in (1, 2, 3)]
    return {
        "gamma1": gammas[0], "gamma2": gammas[1], "gamma3": gammas[2],
        "a": flat[(2, 1)] - flat[(1, 1)],
        "b": flat[(2, 1)] - flat[(3, 1)],
        "A": flat[(1, p.p1)] - flat[(2, p.p2)],
        "B": flat[(3, p.p3)] - flat[(2, p.p2)],
    }


def test_criterion_09_property_suites():
    t0 = time.monotonic()
    rng = random.Random(2024)
    ok = True

    # the Euler identity and the non-unit quotients for every cycle product
    # of up to 16 factors, and sampled quotients by their witness points
    ok = ok and euler_identity_check(16) and quotient_nonzero_check(16)

    for _ in range(50):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        alphas = [Fraction(rng.randint(-10, 10)) for _ in range(n)]
        betas = [Fraction(rng.randint(-10, 10)) for _ in range(m - 1)]
        ok = ok and witness_quotient_check(alphas, betas)

    for p in P_SUITE:
        ok = ok and cycles_invariant(build_star_quiver(p))
        f1, f2 = pi_delta_forms_symbolic(p)
        ok = ok and f1.is_zero() and f2.is_zero()

    # example tables recomputed by the independent scalar evaluator
    tables = [((2, 2, 2), ((1, 2), (3, 4), (5, 6)))]
    for p in P_SUITE:
        alphas = tuple(tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 10))
                             for _ in range(p[arm])) for arm in (1, 2, 3))
        tables.append((tuple(p), alphas))
    for p_spec, alphas in tables:
        p = ArmParams.parse(p_spec)
        gamma = pi_map(WVPoint(betas=(0, 0, 0), alphas=alphas), p)
        expected = _independent_pi_evaluator(alphas, p)
        ok = ok and list(gamma.gamma1) == expected["gamma1"]
        ok = ok and list(gamma.gamma2) == expected["gamma2"]
        ok = ok and list(gamma.gamma3) == expected["gamma3"]
        ok = ok and (gamma.a, gamma.b, gamma.A, gamma.B) == (
            expected["a"], expected["b"], expected["A"], expected["B"])

    _report("criterion 9 (identity, non-unit, invariance, map properties)", ok,
            time.monotonic() - t0, 60)


def test_criterion_10_engine_unit_fixtures():
    t0 = time.monotonic()
    ok = True

    t = VarTable(["x", "w", "v"])
    E = eliminate(Ideal(t, [parse_poly("w - x^2", t), parse_poly("v - x^3", t)]),
                  ["x"])
    ok = ok and E.groebner_basis() == (parse_poly("w^3 - v^2", E.table),)

    t2 = VarTable(["x", "y"])
    ok = ok and krull_dimension(Ideal(t2, [])) == DimensionReport(2, ("x", "y"))
    ok = ok and krull_dimension(Ideal(t2, [parse_poly("x*y - 1", t2)])).dimension == 1
    ok = ok and krull_dimension(
        Ideal(t2, [parse_poly("x", t2), parse_poly("y", t2)])).dimension == 0

    rng = random.Random(77)
    t3 = VarTable(["x", "y", "z"])
    fixtures = [
        ["x^2 + y^2 - 1", "x - y", "z^3 - x*y"],
        ["x*y - z", "y*z - x", "x*z - y"],
        ["x^2 - y", "y^2 - z", "z^2 - x"],
    ]
    for texts in fixtures:
        gens = [parse_poly(s, t3) for s in texts]
        reference = Ideal(t3, list(gens)).groebner_basis()
        for _ in range(20):
            rng.shuffle(gens)
            ok = ok and Ideal(t3, list(gens)).groebner_basis() == reference

    _report("criterion 10 (engine unit fixtures and determinism)", ok,
            time.monotonic() - t0, 10)
