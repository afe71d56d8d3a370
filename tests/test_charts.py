"""Chart presentations, the substitution oracle, certificates, cover."""

import heapq
import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb, prod
from types import SimpleNamespace

import pytest

import starquiver
from starquiver import charts, groebner, quiver
from starquiver.charts import (
    CoverReport,
    chart_by_substitution,
    chart_substitution,
    euler_identity_check,
    fibre_chart,
    fibre_witness_point,
    oracle_match,
    quotient_nonzero_check,
    smoothness_certificate,
    substitution_oracle,
    total_space_chart,
    verify_cover,
)
from starquiver.groebner import (
    CheckFailed,
    GroebnerBudget,
    Ideal,
    ideals_equal,
    jacobian_combination,
)
from starquiver.poly import QQ, Poly, VarTable, parse_field, parse_poly, poly_prod
from starquiver.cli import run_command
from starquiver.quiver import (
    ArmParams,
    ChartId,
    all_chart_ids,
    build_star_quiver,
    d_arrow,
    support_predicates,
    u_arrow,
)
from starquiver.reconstruction import (
    canonical_relation,
    deformed_relations,
    make_gamma,
    parse_gamma_spec,
    random_gamma,
    zero_gamma,
)

from jacobian_oracle import (
    engine_generators,
    jacobian_engine_generators,
    jacobian_ideal,
    reference_jacobian_generators,
)

P222 = ArmParams(2, 2, 2)


# ---------------------------------------------------------------------------
# total-space charts
# ---------------------------------------------------------------------------

def test_total_space_chart_smallest_case():
    chart = total_space_chart(P222, ChartId(1, 1, 1))
    assert len(chart.table) == 8
    assert chart.gens == (parse_poly("1 - d2_1*d2_2 + d3_1*d3_2", chart.table),)


def test_total_space_variable_count():
    for p in [(2, 2, 2), (3, 2, 2), (4, 3, 2)]:
        p = ArmParams.parse(p)
        for c in all_chart_ids(p):
            chart = total_space_chart(p, c)
            assert len(chart.table) == p.p1 + p.p2 + p.p3 + 2
            assert len(chart.gens) == 1


def test_total_space_sign_pattern():
    # the scaled-out arm keeps the canonical sign: +1 for arms 1 and 3,
    # -1 for arm 2
    p = ArmParams(2, 3, 2)
    assert total_space_chart(p, ChartId(1, 1, 1)).gens[0].constant_value() == 1
    assert total_space_chart(p, ChartId(2, 1, 1)).gens[0].constant_value() == -1
    assert total_space_chart(p, ChartId(3, 1, 1)).gens[0].constant_value() == 1


@pytest.mark.parametrize("spec", ["q", "fp:7"])
def test_total_space_products_are_one_monomial(spec, monkeypatch):
    # each other arm's down path is one monomial, built with no Poly
    # product; it must be the product of its d-arrows
    field, p = parse_field(spec), ArmParams(4, 3, 2)

    def no_product(*args):
        raise AssertionError("a total-space chart multiplied Polys")

    for c in all_chart_ids(p):
        with monkeypatch.context() as m:
            m.setattr(Poly, "__mul__", no_product)
            chart = total_space_chart(p, c, field)
        t = chart.table
        arm_a, arm_b = c.other_arms()
        prod_a, prod_b = (poly_prod((Poly.var(t, field, d_arrow(arm, m))
                                     for m in range(first, p[arm] + 1)), t, field)
                          for arm, first in ((arm_a, c.i), (arm_b, c.j)))
        assert chart.gens == (charts._scaled_canonical(c.k, prod_a, prod_b),), c


def test_total_space_chart_out_of_range():
    with pytest.raises(ValueError):
        total_space_chart(P222, ChartId(1, 3, 1))


# ---------------------------------------------------------------------------
# fibre charts
# ---------------------------------------------------------------------------

def test_fibre_chart_smallest_case():
    gamma = make_gamma(P222, ["1/2"], ["1/3"], ["1/4"],
                       a="-1/6", b="1/12", A=0, B=0)
    assert not (Fraction(1, 2) - Fraction(1, 3) + 0 + Fraction(-1, 6))
    chart = fibre_chart(gamma, ChartId(1, 1, 1))
    t = chart.table
    assert t.names == ("d2_1", "u2_1", "d3_1", "u3_1")
    assert chart.gens[0] == parse_poly("d2_1*u2_1 - d3_1*u3_1 - 1/12", t)
    assert chart.gens[1] == parse_poly(
        "1 - d2_1*(d2_1*u2_1 - 1/3) + d3_1*(d3_1*u3_1 - 1/4)", t)


def test_fibre_chart_zero_gamma_power_form():
    p = ArmParams(3, 3, 3)
    chart = fibre_chart(zero_gamma(p), ChartId(1, 1, 2))
    t = chart.table
    # with all gammas zero: f2 = 1 - d^(p-i+1) u^(p-i) + d^(p-j+1) u^(p-j)
    assert chart.gens[1] == parse_poly(
        "1 - d2_1^3*u2_1^2 + d3_2^2*u3_2", t)


def test_fibre_chart_boundary_collapses_to_single_factor():
    p = ArmParams(2, 3, 2)
    gamma = random_gamma(p, seed=17)
    chart = fibre_chart(gamma, ChartId(1, 3, 1))
    t = chart.table
    f2 = chart.gens[1]
    # i = p2: the arm-2 product is the bare chart variable
    d = parse_poly("d2_3", t)
    g3 = gamma.gamma3
    expected = parse_poly("1", t) - d + parse_poly("d3_1", t) * (
        parse_poly("d3_1*u3_1", t) - parse_poly("1", t).scale(g3[0]))
    assert f2 == expected


def _arm_cycle_product(cycle: Poly, d_var: Poly, gammas, m: int) -> Poly:
    """The reference: d * prod_{t=m}^{len(gammas)} (cycle - sum_{l=m}^{t}
    gamma_l) multiplied out in the chart's ring; empty product = 1."""
    table, field = d_var.table, d_var.field
    acc = d_var
    partial = field.zero
    for t in range(m, len(gammas) + 1):
        partial = field.add(partial, gammas[t - 1])
        acc = acc * (cycle - Poly.const(table, field, partial))
    return acc


def _reference_fibre_chart(gamma, c) -> tuple:
    """The chart's two relations by the direct product formula."""
    field = gamma.field
    arm_a, arm_b = c.other_arms()
    table = VarTable([d_arrow(arm_a, c.i), u_arrow(arm_a, c.i),
                      d_arrow(arm_b, c.j), u_arrow(arm_b, c.j)])
    da, ua, db, ub = (Poly.var(table, field, n) for n in table.names)
    cyc_a, cyc_b = da * ua, db * ub
    ga, gb = gamma.gamma(arm_a), gamma.gamma(arm_b)
    pref_a, pref_b = field.sum(ga[: c.i - 1]), field.sum(gb[: c.j - 1])
    if c.k == 3:
        f1 = cyc_b + pref_b - cyc_a - pref_a - Poly.const(table, field, gamma.a)
    else:
        const = gamma.b if c.k == 1 else field.sub(gamma.b, gamma.a)
        f1 = cyc_a + pref_a - cyc_b - pref_b - Poly.const(table, field, const)
    # D1 - D2 + D3 with D_k scaled to 1
    paths = [_arm_cycle_product(cyc_a, da, ga, c.i), _arm_cycle_product(cyc_b, db, gb, c.j)]
    paths.insert(c.k - 1, Poly.const(table, field, 1))
    return f1, paths[0] - paths[1] + paths[2]


@pytest.mark.parametrize("spec", ["q", "fp:65521", "fp:7"])
def test_fibre_chart_factors_match_the_product_formula(spec):
    # each chart's f2 is placed from per-(arm, window) factors built once
    # per gamma; unequal arms catch a factor read for the wrong arm or
    # window, and F_7 catches an unreduced coefficient
    field = parse_field(spec)
    for p in [(2, 2, 2), (3, 3, 2), (4, 3, 3), (2, 3, 4), (6, 5, 4)]:
        p = ArmParams.parse(p)
        for gamma in (zero_gamma(p, field), random_gamma(p, seed=1, field=field),
                      random_gamma(p, seed=5, field=field)):
            for c in all_chart_ids(p):
                chart, reference = fibre_chart(gamma, c), _reference_fibre_chart(gamma, c)
                assert chart.table == reference[0].table
                assert chart.gens == reference, (p, c)


def test_charts_run_builds_each_arm_factor_once(monkeypatch):
    # at 3,3,3 the 27 charts read 54 arm factors, 9 of them distinct: one
    # build for each (arm, window) of the run's one gamma
    reads, builds = [], []
    read, build = charts._arm_factor, charts._cycle_factor
    monkeypatch.setattr(charts, "_arm_factor",
                        lambda gamma, arm, window: reads.append((arm, window))
                        or read(gamma, arm, window))
    monkeypatch.setattr(charts, "_cycle_factor",
                        lambda field, gammas: builds.append(gammas) or build(field, gammas))
    assert run_command(["charts", "--p", "3,3,3", "--gamma", "random:1"]) == 0
    assert (len(reads), len(set(reads)), len(builds)) == (54, 9, 9)


def test_fibre_chart_rejects_gamma_outside_delta():
    gamma = make_gamma(P222, [1], [0], [0], a=0, b=0, A=0, B=0)
    with pytest.raises(ValueError, match="subspace"):
        fibre_chart(gamma, ChartId(1, 1, 1))


@pytest.mark.parametrize("spec", ["q", "fp:65521", "fp:11"])
def test_fibre_substitution_covers_arrows_and_lands_in_ideal(spec):
    # the chain solve's substitution carries every deformed relation into
    # the ideal of the independently derived closed form
    field = parse_field(spec)
    for p in [(2, 2, 2), (3, 2, 2), (2, 2, 3)]:
        p = ArmParams.parse(p)
        Q = build_star_quiver(p, field)
        gamma = random_gamma(p, seed=23, field=field)
        rels = deformed_relations(Q, gamma)
        oracle = substitution_oracle(Q, gamma, rels)
        for c in all_chart_ids(p):
            closed = fibre_chart(gamma, c)
            arrows = chart_substitution(oracle, c)
            assert set(arrows) == set(Q.table.names)
            for rel in rels.values():
                assert closed.contains(rel.substitute(arrows, closed.table))


# ---------------------------------------------------------------------------
# the substitution-derived oracle
# ---------------------------------------------------------------------------

def test_oracle_agreement_zero_gamma_smallest_case():
    Q = build_star_quiver(P222)
    gamma = zero_gamma(P222)
    oracle = substitution_oracle(Q, gamma, deformed_relations(Q, gamma))
    for c in all_chart_ids(P222):
        assert ideals_equal(fibre_chart(gamma, c), chart_by_substitution(oracle, c))


def test_oracle_agreement_random_gamma_all_charts():
    p = ArmParams(3, 2, 2)
    Q = build_star_quiver(p)
    gamma = random_gamma(p, seed=31)
    oracle = substitution_oracle(Q, gamma, deformed_relations(Q, gamma))
    for c in all_chart_ids(p):
        assert ideals_equal(fibre_chart(gamma, c), chart_by_substitution(oracle, c))


@pytest.mark.parametrize("spec", ["q", "fp:65521", "fp:11"])
def test_fibre_charts_and_witness_in_every_field(spec):
    field = parse_field(spec)
    p = ArmParams(3, 2, 2)
    Q = build_star_quiver(p, field)
    gamma = random_gamma(p, seed=31, field=field)
    rels = deformed_relations(Q, gamma)
    oracle = substitution_oracle(Q, gamma, rels)
    for c in all_chart_ids(p):
        chart = fibre_chart(gamma, c)
        assert smoothness_certificate(chart, expected_dim=2).status == "smooth"
        assert ideals_equal(chart, chart_by_substitution(oracle, c))
    point = fibre_witness_point(oracle)
    for rel in rels.values():
        assert rel.evaluate(point) == field.zero


def test_oracle_rejects_gamma_of_another_field_or_arms():
    p = ArmParams(3, 2, 2)
    Q = build_star_quiver(p)
    for gamma in (random_gamma(p, 1, field=parse_field("fp:11")),
                  random_gamma(ArmParams(2, 3, 2), 1)):
        # the relations the oracle reads are built for Q alone
        with pytest.raises(ValueError, match="on a quiver"):
            substitution_oracle(Q, gamma, deformed_relations(Q, gamma))


def test_oracle_survivors_contain_plus_minus_first_relation():
    # relations (a)/(c) dissolve into the solve; (b) and (d) survive as the
    # first chart relation up to sign
    Q = build_star_quiver(P222)
    gamma = random_gamma(P222, seed=37)
    oracle = substitution_oracle(Q, gamma, deformed_relations(Q, gamma))
    for c in all_chart_ids(P222):
        closed = fibre_chart(gamma, c)
        derived = chart_by_substitution(oracle, c)
        f1 = closed.gens[0]
        assert len(derived.gens) == 3
        signs = [r for r in derived.gens if r == f1 or r == -f1]
        assert len(signs) == 2
        assert closed.gens[1] in derived.gens


def merged_cross_images(oracle, c: ChartId) -> dict:
    """The reference: the image of each cross relation by label under the
    chart's merged arm substitution, on the chart's four variables and the
    leftover u_{k,1}, formed chart by chart as the constant plus the three
    windows' contributions, each placed at its window's variables."""
    table = charts._solve_table(c)
    n, field = len(table), oracle.Q.field
    images = {lbl: {} if const is None else {(0,) * n: const} for lbl, const, _ in oracle.cross}
    for arm, window, pad in charts._chart_windows(c):
        head, tail = (0,) * pad, (0,) * (n - pad - (1 if window == 0 else 2))
        for lbl, terms in charts._arm_window(oracle, arm, window)[1].items():
            out = images[lbl]
            for e, v in terms:
                e = head + e + tail
                out[e] = field.add(out[e], v) if e in out else v
    return {lbl: Poly(table, field, out) for lbl, out in images.items()}


def merged_chart_solve(oracle, c: ChartId) -> tuple:
    """The reference: the leftover u_{k,1} solved chart by chart from the
    first of (a)-(d) whose merged image reads it, as a binding on the chart
    table, and the other four images."""
    images = merged_cross_images(oracle, c)
    leftover = u_arrow(c.k, 1)
    label = next(lbl for lbl in ("(a)", "(b)", "(c)", "(d)")
                 if leftover in images[lbl].variables_used())
    solved = charts._solve_linear(images.pop(label), leftover).rename(charts._chart_table(c))
    return {leftover: solved}, tuple(images.values())


def merged_chart_by_substitution(oracle, c: ChartId) -> tuple:
    """The reference's derived generators: the nonzero images with the
    leftover's solution pushed in."""
    leftover, rest = merged_chart_solve(oracle, c)
    table = charts._chart_table(c)
    images = [img.substitute(leftover, table) for img in rest]
    return tuple(img for img in images if not img.is_zero())


def merged_chart_substitution(oracle, c: ChartId) -> dict:
    """The reference's arrow map: each window's solution, with the leftover
    of arm k replaced by its chart-by-chart solution."""
    leftover, _ = merged_chart_solve(oracle, c)
    table = charts._chart_table(c)
    return {a: e.substitute(leftover if arm == c.k else {}, table)
            for arm, window, _ in charts._chart_windows(c)
            for a, e in charts._arm_window(oracle, arm, window)[0].items()}


@pytest.mark.parametrize("spec", ["q", "fp:65521", "fp:11"])
def test_cross_images_match_the_merged_substitution(spec):
    # each arm window pushes its arm-local parts of the cross relations
    # through its own solution once; a chart's image of every cross relation
    # must equal the whole relation pushed through the merged arrow map.  The
    # leftover is solved once per row of charts: every chart's derived
    # generators, term for term and in order, and its arrow map must equal
    # the reference that solves it chart by chart
    field = parse_field(spec)
    for p in [(2, 2, 2), (3, 3, 2), (4, 3, 3), (2, 3, 4)]:
        p = ArmParams.parse(p)
        Q = build_star_quiver(p, field)
        for gamma in (zero_gamma(p, field), random_gamma(p, seed=5, field=field)):
            oracle = substitution_oracle(Q, gamma, deformed_relations(Q, gamma))
            for c in all_chart_ids(p):
                images = merged_cross_images(oracle, c)
                # the three window solutions, moved by name to the chart's
                # variables and the leftover u_{k,1}
                table = charts._solve_table(c)
                B = {a: e.substitute({}, table) for arm, window, _ in charts._chart_windows(c)
                     for a, e in charts._arm_window(oracle, arm, window)[0].items()}
                assert set(B) == set(Q.table.names)
                assert tuple(images) == ("(a)", "(b)", "(c)", "(d)", "(x)")
                for lbl, img in images.items():
                    assert img == oracle.relations[lbl].substitute(B, table), (c, lbl)
                assert chart_by_substitution(oracle, c).gens == \
                    merged_chart_by_substitution(oracle, c), c
                assert chart_substitution(oracle, c) == merged_chart_substitution(oracle, c), c
            # one row per distinguished arm k and window of the other arm
            # that its solved relation reads: arm a = 2 for k = 1 by (a), arm
            # a = 1 for k = 2 by (a) and arm b = 2 for k = 3 by (b)
            assert len(oracle.rows) == p.p2 + p.p1 + p.p2
            for k, windows in oracle.rows:
                assert windows[0] == (k, 0) and len(windows) == 2
                assert windows[1][0] == (2 if k in (1, 3) else 1)


@pytest.mark.parametrize("lbl", ["(a)", "(b)", "(c)", "(d)"])
@pytest.mark.parametrize("p", ["3,3,2", "2,3,4"])
def test_a_perturbed_cross_constant_fails_every_chart(lbl, p):
    # (a) solves the leftover of the rows with k = 1, 2 and (b) those with
    # k = 3; each row pushes its solution into the other three of (a)-(d).
    # A shifted constant in any one of them must reach every chart, through
    # the relation its row solves or the ones it pushes into
    p = ArmParams.parse(p)
    Q = build_star_quiver(p)
    gamma = random_gamma(p, seed=5)
    rels = deformed_relations(Q, gamma)
    rels[lbl] = rels[lbl] + 1
    oracle = substitution_oracle(Q, gamma, rels)
    for c in all_chart_ids(p):
        assert not oracle_match(fibre_chart(gamma, c), chart_by_substitution(oracle, c)), c


def test_a_row_image_that_keeps_the_leftover_is_refused(monkeypatch):
    # a solution that still reads u_{k,1} leaves it in the pushed images;
    # the row refuses them rather than hand a chart a fifth variable
    p = ArmParams(2, 2, 2)
    Q = build_star_quiver(p)
    gamma = random_gamma(p, seed=5)
    oracle = substitution_oracle(Q, gamma, deformed_relations(Q, gamma))
    solve = charts._solve_linear
    monkeypatch.setattr(charts, "_solve_linear",
                        lambda img, name: solve(img, name) + Poly.var(img.table, img.field, name)
                        if name == u_arrow(1, 1) else solve(img, name))
    with pytest.raises(CheckFailed, match=re.escape("still reads u1_1 after its solve")):
        chart_by_substitution(oracle, ChartId(1, 1, 1))


def test_a_leftover_that_no_relation_reads_is_refused():
    # with u_{k,1} gone from window 0's contribution to every one of (a)-(d),
    # no relation can solve it
    p = ArmParams(2, 2, 2)
    Q = build_star_quiver(p)
    gamma = random_gamma(p, seed=5)
    oracle = substitution_oracle(Q, gamma, deformed_relations(Q, gamma))
    B, contributions = charts._arm_window(oracle, 1, 0)
    oracle.arms[1, 0] = (B, {lbl: terms for lbl, terms in contributions.items()
                             if lbl == "(x)"})
    with pytest.raises(CheckFailed, match="no relation available"):
        chart_by_substitution(oracle, ChartId(1, 1, 1))


@pytest.mark.parametrize("lbl", ["(x)", "(a)"])
def test_oracle_refuses_a_cross_term_on_two_arms(lbl):
    # a window carries its own arm's share of each cross relation, which is
    # the whole relation only when every term lies on one arm: a term on
    # two arms must stop the oracle, not be dropped or split
    p = ArmParams(3, 3, 2)
    Q = build_star_quiver(p)
    gamma = random_gamma(p, seed=5)
    d = Q.arrow_poly
    rels = deformed_relations(Q, gamma)
    rels[lbl] = rels[lbl] + d(d_arrow(1, 1)) * d(d_arrow(2, 1))
    with pytest.raises(CheckFailed, match=re.escape(f"{lbl} has a term on arms 1 and 2")):
        substitution_oracle(Q, gamma, rels)
    # two extra terms on arm 1 alone are carried: its windows sum three
    # terms' images, and the images still equal the merged substitution
    rels[lbl] = (deformed_relations(Q, gamma)[lbl] + d(d_arrow(1, 1)) * d(d_arrow(1, 2))
                 - 3 * d(u_arrow(1, 3)))
    oracle = substitution_oracle(Q, gamma, rels)
    for c in all_chart_ids(p):
        table = charts._solve_table(c)
        B = {a: e.substitute({}, table) for arm, window, _ in charts._chart_windows(c)
             for a, e in charts._arm_window(oracle, arm, window)[0].items()}
        assert merged_cross_images(oracle, c)[lbl] == rels[lbl].substitute(B, table), c
        assert chart_by_substitution(oracle, c).gens == merged_chart_by_substitution(oracle, c)


def _count_bases(monkeypatch) -> list:
    bases, buchberger = [], groebner._buchberger
    monkeypatch.setattr(groebner, "_buchberger",
                        lambda *args: bases.append(args) or buchberger(*args))
    return bases


def test_charts_run_solves_each_arm_window_once(monkeypatch):
    # at 3,3,3: two chain solves for each of 3 distinguished arms and 9 arm
    # windows (24), and one leftover solve for each of the 9 rows of charts
    # that share a distinguished arm and the window its solved relation
    # reads, on one relation system (a leftover solve per chart made 51, a
    # solve per chain per chart 189).  Each chart computes one basis, its
    # closed form's, for the dimension: the Euler cofactors and the
    # generator match need none (the Jacobian ideal and the derived ideal
    # made 81, a second basis of the closed form 108).  Substitutions: each
    # of the 12 arm windows makes two chain solves and two chain checks (48)
    # and pushes its arm's three cross parts (36), on the arm's six-variable
    # table, and each row pushes its solution into its other four relations
    # (36), on its chart's five-variable table; pushing the four images and
    # renaming the solution chart by chart made 219, and pushing the five
    # cross relations through each chart's merged map 318
    solves, builds, subs = [], [], []
    solve, substitute = charts._solve_linear, Poly.substitute
    build = starquiver.cli.deformed_relations
    monkeypatch.setattr(charts, "_solve_linear",
                        lambda img, name: solves.append(name) or solve(img, name))
    # `charts` builds the relations once and hands them to the oracle
    monkeypatch.setattr(starquiver.cli, "deformed_relations",
                        lambda Q, gamma: builds.append(gamma) or build(Q, gamma))
    monkeypatch.setattr(Poly, "substitute",
                        lambda p, *args, **kw: subs.append(p) or substitute(p, *args, **kw))
    bases = _count_bases(monkeypatch)
    assert run_command(["charts", "--p", "3,3,3", "--gamma", "random:1"]) == 0
    assert (len(solves), len(builds), len(bases), len(subs)) == (33, 1, 27, 120)


@pytest.mark.parametrize("argv, expected", [
    (["fibre", "--p", "3,3,3"], 7),
    (["fibre", "--p", "8,8,8", "--gamma", "random:1"], 22),
])
def test_fibre_run_solves_only_the_witness_windows(monkeypatch, argv, expected):
    # the witness chart (1, p2, p3) reads three arm windows, each solved
    # with p_i - 1 chain solves, plus one leftover solve; solving every
    # window of the oracle made 25 and 190
    solves = []
    solve = charts._solve_linear
    monkeypatch.setattr(charts, "_solve_linear",
                        lambda img, name: solves.append(name) or solve(img, name))
    assert run_command(argv) == 0
    assert len(solves) == expected


def test_fibre_run_builds_quiver_and_relations_once(monkeypatch):
    # the witness reads the quiver and the relations that `fibre` checks it
    # against; a second build through the witness made two of each
    calls = {"deformed_relations": 0, "build_star_quiver": 0}
    for name in calls:
        original = getattr(starquiver.reconstruction if name == "deformed_relations"
                           else starquiver.quiver, name)

        def counted(*args, _name=name, _original=original, **kw):
            calls[_name] += 1
            return _original(*args, **kw)

        # every module that looks the function up by name
        for module in vars(starquiver).values():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert run_command(["fibre", "--p", "8,8,8", "--gamma", "random:1"]) == 0
    assert calls == {"deformed_relations": 1, "build_star_quiver": 1}


@pytest.mark.parametrize("argv", [
    ["charts", "--p", "3,3,3", "--gamma", "random:1"],
    ["smooth", "--p", "3,3,3"],
])
def test_chart_runs_read_no_basis_as_polys(monkeypatch, argv):
    # the certificates, the dimension and the oracle comparison all read the
    # engine basis; no basis is converted into Polys
    def converted(*args):
        raise AssertionError("a basis was converted into Polys")

    monkeypatch.setattr(groebner, "_from_engine", converted)
    assert run_command(argv) == 0


def chart_unit_arrows(c: ChartId, p: ArmParams) -> list:
    """Arrows required nonzero by the chart (scaled to 1 in presentations).
    It reads `quiver.arm_window_units` at call time, so a fault injected
    there reaches the oracles that read this list too."""
    arm_a, arm_b = c.other_arms()
    units = quiver.arm_window_units
    return units(c.k, 0, p) + units(arm_a, c.i, p) + units(arm_b, c.j, p)


def total_space_by_substitution(Q, c):
    """The total-space chart derived by substitution: the arrows of
    `chart_unit_arrows` become 1 in the canonical relation, and the
    rest must be the closed form's chart variables."""
    table = total_space_chart(Q.p, c, Q.field).table
    img = canonical_relation(Q).substitute(
        dict.fromkeys(chart_unit_arrows(c, Q.p), 1), table)
    return Ideal(table, (img,), field=Q.field)


def test_oracle_total_space_mode():
    Q = build_star_quiver(P222)
    for c in all_chart_ids(P222):
        closed = total_space_chart(P222, c)
        derived = total_space_by_substitution(Q, c)
        assert derived.gens == closed.gens


def test_oracle_total_space_mode_checks_the_unit_arrows(monkeypatch):
    # the derivation binds chart_unit_arrows to 1 and maps the rest by
    # name into the closed form's variables: a unit list that drops an arrow,
    # or that scales a chart variable, no longer matches the closed form
    Q = build_star_quiver(P222)
    c = ChartId(1, 1, 1)
    units = chart_unit_arrows(c, P222)
    monkeypatch.setitem(globals(), "chart_unit_arrows", lambda c, p: units[1:])
    with pytest.raises(ValueError, match="no image"):
        total_space_by_substitution(Q, c)
    monkeypatch.setitem(globals(), "chart_unit_arrows", lambda c, p: units + ["d2_1"])
    derived = total_space_by_substitution(Q, c)
    assert derived.gens != total_space_chart(P222, c).gens


# ---------------------------------------------------------------------------
# smoothness certificates
# ---------------------------------------------------------------------------

def test_undeformed_chart_is_smooth():
    cert = smoothness_certificate(total_space_chart(P222, ChartId(1, 1, 1)))
    assert cert.status == "smooth"
    assert cert.one_in_jacobian


def test_deformed_chart_smooth_of_dimension_two():
    p = ArmParams(3, 3, 3)
    gamma = random_gamma(p, seed=43)
    cert = smoothness_certificate(fibre_chart(gamma, ChartId(2, 2, 1)), expected_dim=2)
    assert cert.status == "smooth"
    assert cert.dimension.dimension == 2


def assert_engine_jacobian_matches_reference(ideal: Ideal) -> list:
    """The oracle's packed Jacobian generators, and every derivative, are
    the reference ones, term for term and in descending engine order.  Over
    QQ the engine holds each relation times the lcm of its denominators, so
    a relation and its derivatives read that scale and a minor the product
    of the two."""
    codec, q = ideal._codec, ideal._q
    scales = [groebner._clearing(f, q) for f in ideal.gens]

    def assert_terms(terms, scale, ref):
        monos = [m for m, _ in terms]
        assert monos == sorted(set(monos), reverse=True)
        assert all(c and (not q or 0 < c < q) for _, c in terms)
        assert groebner._from_engine(terms, scale, codec, ideal.table, ideal.field, q) == ref

    for f, terms, scale in zip(ideal.gens, engine_generators(ideal), scales):
        for i, name in enumerate(ideal.table.names):
            assert_terms(groebner._derivative(terms, i, codec, q), scale, f.derivative(name))
    rels = len(ideal.gens)
    if rels == 1:
        scales += scales * len(ideal.table)
    else:
        scales += [scales[0] * scales[1]] * comb(len(ideal.table), 2)
    engine = jacobian_engine_generators(ideal)
    reference = reference_jacobian_generators(ideal)
    assert len(engine) == len(reference) == len(scales)
    for terms, ref, scale in zip(engine, reference, scales):
        assert_terms(terms, scale, ref)
    return engine


def charts_of_run(command: str, p, spec: str, gamma_spec) -> list:
    """The charts that `workbench charts` (fibre charts at the gamma) or
    `workbench smooth` (total-space charts) certifies, over the field."""
    p, field = ArmParams(*p), parse_field(spec)
    if command == "charts":
        gamma = parse_gamma_spec(gamma_spec, p, field)
        return [fibre_chart(gamma, c) for c in all_chart_ids(p)]
    return [total_space_chart(p, c, field) for c in all_chart_ids(p)]


@pytest.mark.parametrize("command, p, spec, gamma_spec", [
    ("charts", (3, 3, 3), "q", "random:5"),
    ("charts", (8, 8, 8), "fp:7", "random:1"),
    ("smooth", (3, 3, 2), "q", None),
])
def test_engine_jacobian_matches_the_poly_minors_on_every_chart(command, p, spec, gamma_spec):
    # at 8,8,8 over F_7 the arm factor's d^8 u^7 differentiates in u to
    # 7 d^8 u^6, which vanishes
    vanished = 0
    for chart in charts_of_run(command, p, spec, gamma_spec):
        assert_engine_jacobian_matches_reference(chart)
        vanished += any(e % 7 == 0 for f in chart.gens for exps in f.terms for e in exps if e)
    if spec == "fp:7":
        assert vanished


@pytest.mark.parametrize("command, p, spec, gamma_spec", [
    ("charts", (3, 3, 3), "q", "random:5"),
    ("charts", (8, 8, 8), "fp:7", "random:1"),
    ("charts", (6, 5, 4), "fp:7", "random:2"),
    ("charts", (5, 5, 5), "fp:2", "zero"),
    ("smooth", (3, 3, 2), "q", None),
    ("smooth", (5, 4, 3), "fp:2", None),
])
def test_cofactor_certificate_agrees_with_the_jacobian_oracle(command, p, spec, gamma_spec):
    # over F_2, s = -s and many derivative coefficients vanish; the
    # cofactors' combination is the chart's constant term, +-1
    for chart in charts_of_run(command, p, spec, gamma_spec):
        unit = jacobian_combination(chart)
        assert len(unit.terms) == 1 and unit.constant_value() in (chart.field.one,
                                                                 chart.field.neg(chart.field.one))
        assert smoothness_certificate(chart).one_in_jacobian is True
        assert jacobian_ideal(chart).contains_one()


def test_cofactors_name_only_the_minors_they_use(monkeypatch):
    # a fibre chart's certificate forms the two minors on (d_a, u_a) and
    # (d_b, u_b), not all six; a total-space chart's two derivatives
    gamma = random_gamma(ArmParams(3, 3, 3), seed=5)
    formed = []
    minor = groebner._minor
    monkeypatch.setattr(groebner, "_minor", lambda *a: formed.append(a) or minor(*a))
    chart = fibre_chart(gamma, ChartId(1, 2, 3))
    assert set(chart.cofactors) == {1, (0, 1), (2, 3)}
    assert smoothness_certificate(chart).status == "smooth"
    assert len(formed) == 2
    chart = total_space_chart(ArmParams(3, 3, 3), ChartId(2, 1, 3))
    assert set(chart.cofactors) == {0, (chart.table.index("d1_1"),), (chart.table.index("d3_3"),)}
    derivatives = []
    derivative = groebner._derivative
    monkeypatch.setattr(groebner, "_derivative",
                        lambda *a: derivatives.append(a) or derivative(*a))
    assert smoothness_certificate(chart).status == "smooth"
    assert len(derivatives) == 2


def test_jacobian_combination_needs_cofactors_of_one_or_two_relations():
    t = VarTable(["x", "y"])
    with pytest.raises(ValueError, match="names no Jacobian cofactors"):
        jacobian_combination(Ideal(t, [parse_poly("x*y", t)]))
    one = Poly.const(t, QQ, 1)
    for gens, key in ((["x", "y", "x*y"], (0, 1, 1)), (["x*y"], (0, 1)), (["x", "y"], (0,))):
        ideal = Ideal(t, [parse_poly(g, t) for g in gens], cofactors={key: one})
        with pytest.raises(ValueError, match="expected one or two"):
            jacobian_combination(ideal)
    with pytest.raises(ValueError, match="different VarTable"):
        Ideal(t, [parse_poly("x", t)], cofactors={0: Poly.const(VarTable(["x"]), QQ, 1)})


@pytest.mark.parametrize("spec", ["q", "fp:7"])
def test_jacobian_combination_hand_case(spec):
    # f = x y / 2 - 1/3: f - x f_x = -1/3, the Euler cofactors of the
    # hyperbola; cofactors fifths of those give -1/15.  Over QQ the engine
    # holds 6 f and 5 times each cofactor, and the combination undoes both
    t, field = VarTable(["x", "y"]), parse_field(spec)
    f = parse_poly("1/2*x*y - 1/3", t, field)
    for k in (1, Fraction(1, 5)):
        cofactors = {0: Poly.const(t, field, k), (0,): parse_poly("x", t, field).scale(-k)}
        assert (jacobian_combination(Ideal(t, [f], cofactors=cofactors))
                == Poly.const(t, field, Fraction(-1, 3) * k))
    # two relations: (x y - 1/2, x + y) with cofactor 1 on the minor on
    # (x, y), y - x, and 2/3 on x + y: the combination is y - x + 2/3 (x + y)
    g = parse_poly("x + y", t, field)
    ideal = Ideal(t, [parse_poly("x*y - 1/2", t, field), g],
                  cofactors={(0, 1): Poly.const(t, field, 1), 1: Poly.const(t, field, Fraction(2, 3))})
    assert jacobian_combination(ideal) == parse_poly("y - x", t, field) + g.scale(Fraction(2, 3))


def perturbed(chart: Ideal, exps: tuple, value) -> Ideal:
    """The chart with f2's coefficient at `exps` set to `value`, under the
    chart's own cofactors."""
    f1, f2 = chart.gens
    terms = dict(f2.terms)
    terms[exps] = value
    return Ideal(chart.table, (f1, Poly(chart.table, chart.field, terms)),
                 field=chart.field, cofactors=chart.cofactors)


@pytest.mark.parametrize("exps, value", [((0, 0, 0, 0), 0), ((1, 0, 0, 1), 1)])
def test_perturbed_fibre_chart_fails_its_certificate(exps, value, monkeypatch, capsys):
    # the constant e set to 0, or a cross term d_a u_b that no arm factor
    # has: the cofactors no longer give a nonzero constant, which shows no
    # singularity, so the certificate raises instead of reading "singular"
    gamma = random_gamma(ArmParams(3, 3, 3), seed=5)
    chart = perturbed(fibre_chart(gamma, ChartId(1, 2, 3)), exps, value)
    with pytest.raises(CheckFailed, match="not a nonzero constant"):
        smoothness_certificate(chart, expected_dim=2)
    build = starquiver.cli.fibre_chart
    monkeypatch.setattr(starquiver.cli, "fibre_chart",
                        lambda gamma, c, budget: perturbed(build(gamma, c, budget), exps, value))
    assert run_command(["charts", "--p", "3,3,3", "--gamma", "random:5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: Euler cofactors give") and "singular" not in err


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.name so that each call appends its arguments."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or fn(*a))
    return calls


def oracle_and_chart(seed: int = 5, c: ChartId = ChartId(2, 3, 1)):
    p = ArmParams(3, 3, 3)
    gamma, Q = random_gamma(p, seed=seed), build_star_quiver(p)
    oracle = substitution_oracle(Q, gamma, deformed_relations(Q, gamma))
    return fibre_chart(gamma, c), chart_by_substitution(oracle, c)


def test_oracle_match_up_to_units_builds_no_basis(monkeypatch):
    chart, derived = oracle_and_chart()
    bases = _count_bases(monkeypatch)
    equal = count_calls(monkeypatch, charts, "ideals_equal")
    scaled = Ideal(derived.table, [g.scale(k) for k, g in zip((3, -1, Fraction(2, 7)),
                                                              derived.gens)])
    assert oracle_match(chart, derived) and oracle_match(chart, scaled)
    assert bases == equal == []


def test_oracle_match_falls_back_to_ideal_equality(monkeypatch):
    # (f1, f1 + f2) generates the closed form's ideal from other generators;
    # f2 with its constant e doubled, on the same monomials, does not lie in
    # it, since e does not (the chart is not empty)
    chart, derived = oracle_and_chart()
    f1, f2 = chart.gens
    equal = count_calls(monkeypatch, charts, "ideals_equal")
    assert oracle_match(chart, Ideal(chart.table, [f1, f1 + f2]))
    assert len(equal) == 1
    images = [g + g.constant_value() if g == f2 else g for g in derived.gens]
    assert not oracle_match(chart, Ideal(chart.table, images))
    assert len(equal) == 2


def test_oracle_match_budget_inconclusive_on_fallback():
    chart, _ = oracle_and_chart()
    f1, f2 = chart.gens
    capped = Ideal(chart.table, [f1, f1 + f2], budget=GroebnerBudget(max_spairs=0))
    with pytest.raises(groebner.Inconclusive):
        oracle_match(chart, capped)


@pytest.mark.parametrize("argv", [
    ["charts", "--p", "3,3,3", "--gamma", "random:5"],
    ["smooth", "--p", "3,3,2"],
    ["smooth", "--p", "3,3,3"],
], ids=["charts-3,3,3", "smooth-3,3,2", "smooth-3,3,3"])
def test_one_basis_run_per_chart(argv, monkeypatch):
    # the chart's own basis, for the dimension; the Jacobian ideal's basis
    # and the oracle's made two more per fibre chart and one more per
    # total-space chart
    bases = _count_bases(monkeypatch)
    assert run_command(argv) == 0
    assert len(bases) == len(all_chart_ids(ArmParams.parse(argv[2])))


def test_jacobian_generator_count_for_two_relations():
    gamma = random_gamma(P222, seed=47)
    chart = fibre_chart(gamma, ChartId(1, 1, 1))
    gens = assert_engine_jacobian_matches_reference(chart)
    assert len(gens) == 2 + 6  # both relations plus all six 2x2 minors
    # charts have one relation or two; the minors of three are not written out
    three = Ideal(chart.table, chart.gens + chart.gens[:1])
    with pytest.raises(ValueError, match="3 relations"):
        jacobian_engine_generators(three)


def test_jacobian_minors_hand_case():
    # f = xy, g = x + y + z^2: the minors f_a g_b - f_b g_a over the column
    # pairs (x, y), (x, z), (y, z)
    t = VarTable(["x", "y", "z"])
    f, g = parse_poly("x*y", t), parse_poly("x + y + z^2", t)
    ideal = Ideal(t, [f, g])
    assert_engine_jacobian_matches_reference(ideal)
    gens = jacobian_ideal(ideal).gens
    assert gens[2:] == tuple(parse_poly(m, t) for m in ("y - x", "2*y*z", "2*x*z"))


def test_jacobian_derivative_vanishes_mod_q():
    # one relation over F_7: d/dx (x^7 y + 3 x y^2) = 7 x^6 y + 3 y^2 = 3 y^2
    t, field = VarTable(["x", "y"]), parse_field("fp:7")
    f = parse_poly("x^7*y + 3*x*y^2", t, field)
    ideal = Ideal(t, [f])
    assert_engine_jacobian_matches_reference(ideal)
    assert jacobian_ideal(ideal).gens[1:] == (parse_poly("3*y^2", t, field),
                                              parse_poly("x^7 + 6*x*y", t, field))


def test_jacobian_product_past_the_guard_bit_is_inconclusive():
    # f_x g_y = 20000 x^19999 y * 2 x^20000 y holds x^39999, past the 2^15 - 1
    # a packed field keeps below its guard bit: inconclusive, never wrapped
    t = VarTable(["x", "y"])
    f, g = parse_poly("x^20000*y", t), parse_poly("x^20000*y^2 - 1", t)
    codec = groebner._codec(t, groebner.GREVLEX)
    (fx, fy), (gx, gy) = ([groebner._derivative(groebner._to_engine(h, codec, 0), i, codec, 0)
                           for i in (0, 1)] for h in (f, g))
    with pytest.raises(groebner.Inconclusive, match="packed-field"):
        groebner._minor(fx, gy, fy, gx, codec, 0)
    chart = Ideal(t, [f, g], cofactors={(0, 1): Poly.const(t, QQ, 1)})
    cert = smoothness_certificate(chart, expected_dim=0)
    assert cert.status == "inconclusive"
    assert cert.one_in_jacobian is None


def test_certificate_makes_no_poly_product_and_shares_the_codec(monkeypatch):
    # the Euler cofactors' combination is packed-int arithmetic on the
    # chart's codec, and a chart's closed form and oracle ideals build one
    # codec
    groebner._codec.cache_clear()
    builds = []
    init = groebner._Codec.__init__
    monkeypatch.setattr(groebner._Codec, "__init__",
                        lambda self, *args: builds.append(args) or init(self, *args))
    p = ArmParams(3, 3, 3)
    gamma, Q = random_gamma(p, seed=61), build_star_quiver(p)
    oracle = substitution_oracle(Q, gamma, deformed_relations(Q, gamma))

    def no_product(*args):
        raise AssertionError("the certificate multiplied Polys")

    ids = all_chart_ids(p)
    for c in ids:
        chart = fibre_chart(gamma, c)
        with monkeypatch.context() as m:
            m.setattr(Poly, "__mul__", no_product)
            assert smoothness_certificate(chart, expected_dim=2).status == "smooth"
        assert oracle_match(chart, chart_by_substitution(oracle, c))
    assert len(builds) == len(ids)


def test_control_presentation_is_singular():
    # x y = 0 is singular at the origin: its Jacobian ideal (x y, y, x) is
    # not the unit ideal, and no cofactors can name a constant in it
    t = VarTable(["x", "y"])
    assert not jacobian_ideal(Ideal(t, [parse_poly("x*y", t)])).contains_one()


def test_certificate_budget_inconclusive():
    gamma = random_gamma(P222, seed=53)
    chart = fibre_chart(gamma, ChartId(1, 1, 1), GroebnerBudget(max_spairs=0))
    cert = smoothness_certificate(chart, expected_dim=2)
    assert cert.status == "inconclusive"
    assert cert.one_in_jacobian is None


def test_dimension_mismatch_is_not_smooth():
    gamma = random_gamma(P222, seed=59)
    cert = smoothness_certificate(fibre_chart(gamma, ChartId(1, 1, 1)), expected_dim=3)
    assert cert.status == "singular"
    assert cert.one_in_jacobian  # smooth Jacobian, wrong dimension target


# ---------------------------------------------------------------------------
# witness points
# ---------------------------------------------------------------------------

def test_witness_point_satisfies_every_relation():
    for p in [(2, 2, 2), (3, 3, 3), (4, 3, 2)]:
        p = ArmParams.parse(p)
        Q = build_star_quiver(p)
        gamma = random_gamma(p, seed=61)
        point = fibre_witness_point(substitution_oracle(Q, gamma, deformed_relations(Q, gamma)))
        for rel in deformed_relations(Q, gamma).values():
            assert rel.evaluate(point) == 0


def test_chart_relations_never_generate_the_unit_ideal():
    # the second relation is not a unit in the chart ring: 1 never lies in
    # the relation ideal for sampled parameters
    for p in [(2, 2, 2), (4, 3, 2)]:
        p = ArmParams.parse(p)
        gamma = random_gamma(p, seed=73)
        for c in all_chart_ids(p):
            assert not fibre_chart(gamma, c).contains_one()


# ---------------------------------------------------------------------------
# lemma checks
# ---------------------------------------------------------------------------

def test_euler_identity_empty_product():
    # f = c_0 x, the empty cycle product up to its scalar
    assert euler_identity_check(0)
    with pytest.raises(ValueError, match="at least 0"):
        euler_identity_check(-1)


def test_euler_identity_hand_case():
    # f = c_0 x + c_1 x^2 y: x f_x = c_0 x + 2 c_1 x^2 y and y f_y = c_1 x^2 y
    assert euler_identity_check(1)


def test_euler_identity_every_degree_to_63():
    assert all(euler_identity_check(degree) for degree in range(64))


def test_euler_identity_random_cubics():
    # the sampled identity, computed here on the cycle products themselves,
    # agrees with the symbolic check that covers every cubic at once
    assert euler_identity_check(3)
    table = VarTable(["x", "y"])
    x, y = Poly.var(table, QQ, "x"), Poly.var(table, QQ, "y")
    rng = random.Random(67)
    for _ in range(20):
        f = x
        for _ in range(3):
            f = f * (x * y - Fraction(rng.randint(-10, 10), rng.randint(1, 10)))
        assert x * f.derivative("x") - y * f.derivative("y") == f


def product_coefficients(roots) -> list:
    """The coefficients of prod_r (s - r), constant term first."""
    coeffs = [QQ.one]
    for r in roots:
        coeffs = [lower - r * c for lower, c in zip([QQ.zero, *coeffs], [*coeffs, QQ.zero])]
    return coeffs


QUOTIENT_TABLE = VarTable(["a", "b", "x", "y"])


def specialised_quotient_relations(alphas, betas) -> tuple:
    """`charts._quotient_relations` in QQ[a, b, x, y] at alpha1 = a_1,
    A = prod_{i >= 2}(s - a_i) and B = prod_j(s - b_j)."""
    return charts._quotient_relations(QUOTIENT_TABLE, alphas[0], product_coefficients(alphas[1:]),
                                      product_coefficients(betas))


def witness_quotient_check(alphas, betas) -> bool:
    """Whether 1 is not in (f1, f2) = `specialised_quotient_relations`,
    alphas = (a_1, ..., a_n) and betas = (b_2, ..., b_m), shown by an exact
    point of V(f1, f2), where 1 = g1 f1 + g2 f2 would read 1 = 0: the oracle
    of `quotient_nonzero_check`, one parameter pair at a time.

    With P(t) = prod_{i >= 2}(t - a_i) and R(s) = prod_j(s - b_j), the point
    x = 1, y = t + a_1, a = (1 + R(y)) / P(t), b = t / a has ab - xy + a_1 = 0
    and a P(ab) = 1 + R(xy).  P has at most n - 1 roots and 1 + R is 2 or of
    degree m - 1, so some t in 0..n+m-2 has P(t) and 1 + R(y) nonzero.  A
    point that misses (a fault) gives False.
    """
    alphas = [QQ.coerce(v) for v in alphas]
    betas = [QQ.coerce(v) for v in betas]
    f1, f2 = specialised_quotient_relations(alphas, betas)
    for t in map(QQ.coerce, range(len(alphas) + len(betas))):
        y = t + alphas[0]
        P = prod((t - v for v in alphas[1:]), start=QQ.one)
        a = QQ.one + prod((y - v for v in betas), start=QQ.one)
        if P and a:
            point = {"a": a / P, "b": t * P / a, "x": QQ.one, "y": y}
            return f1.evaluate(point) == QQ.zero == f2.evaluate(point)
    return False


def generic_quotient_relations(degree: int) -> tuple:
    """The relations `quotient_nonzero_check(degree)` proves, with the
    indeterminates al1, c_0..c_D and e_0..e_D."""
    cs, es = ([f"{c}{k}" for k in range(degree + 1)] for c in "ce")
    table = VarTable(["a", "b", "x", "y", "t", "al1", *cs, *es])
    A, B = ([Poly.var(table, QQ, v) for v in names] for names in (cs, es))
    return charts._quotient_relations(table, Poly.var(table, QQ, "al1"), A, B)


def assert_quotient_pair(alphas, betas):
    """The oracle finds the pair's quotient non-unit, and the pair's
    relations are a specialisation of the ones the generic check proves."""
    assert witness_quotient_check(alphas, betas)
    degree = max(len(alphas) - 1, len(betas))
    assert quotient_nonzero_check(degree)
    pad = [QQ.zero] * (degree + 1)
    A = (product_coefficients(alphas[1:]) + pad)[:degree + 1]
    B = (product_coefficients(betas) + pad)[:degree + 1]
    values = {"al1": alphas[0], **{f"c{k}": c for k, c in enumerate(A)},
              **{f"e{k}": e for k, e in enumerate(B)}}
    generic = generic_quotient_relations(degree)
    assert tuple(f.substitute(values, QUOTIENT_TABLE) for f in generic) \
        == specialised_quotient_relations(alphas, betas)


def test_quotient_nonzero_zero_parameters():
    assert_quotient_pair([0, 0], [0])


def test_quotient_nonzero_random_parameters():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        alphas = [Fraction(rng.randint(-10, 10)) for _ in range(n)]
        betas = [Fraction(rng.randint(-10, 10)) for _ in range(m - 1)]
        assert_quotient_pair(alphas, betas)


def test_quotient_nonzero_check_every_degree():
    assert all(quotient_nonzero_check(degree) for degree in range(16))
    with pytest.raises(ValueError, match="at least 0"):
        quotient_nonzero_check(-1)


# with P(t) = prod_{i >= 2}(t - a_i) and R(s) = prod_j(s - b_j), the witness
# takes the first t = 0, 1, ... with P(t) != 0 and 1 + R(t + a_1) != 0
QUOTIENT_EDGE_CASES = [
    ([0, 0], [0]),              # P(0) = 0
    ([2, 0, 1, 2], [2, 3, 1]),  # P(0) = P(1) = P(2) = 0, R(a_1) = 0
    ([3, -3], [5]),             # P(-a_1) = 0
    ([1, 4], [1, 7]),           # R(a_1) = 0
    ([0], [1]),                 # 1 + R(0) = 0: t = 1
    ([0, 0], [2]),              # P(0) = 0, 1 + R(1) = 0: only t = n + m - 2 = 2
    ([0, 0, 1], [3]),           # P(0) = P(1) = 0, 1 + R(2) = 0: only t = 3
]


@pytest.mark.parametrize("alphas, betas", QUOTIENT_EDGE_CASES)
def test_quotient_nonzero_edge_cases_agree_with_the_engine(alphas, betas):
    assert_quotient_pair(alphas, betas)
    f1, f2 = specialised_quotient_relations(alphas, betas)
    assert not Ideal(f1.table, [f1, f2]).contains_one()


def test_quotient_relations_hand_case():
    f1, f2 = specialised_quotient_relations([Fraction(1, 2), 3], [5])
    assert f1 == parse_poly("a*b - x*y + 1/2", QUOTIENT_TABLE)
    assert f2 == parse_poly("1 - a*(a*b - 3) + x*(x*y - 5)", QUOTIENT_TABLE)
    f1, f2 = generic_quotient_relations(1)
    assert f1 == parse_poly("a*b - x*y + al1", f1.table)
    assert f2 == parse_poly("1 - a*(c0 + c1*a*b) + x*(e0 + e1*x*y)", f1.table)


# the program's builder, kept for the faulty ones below, which tests patch in
QUOTIENT_RELATIONS = charts._quotient_relations


def shifted_quotient_constant(table, alpha1, A, B):
    """f1 + 1: a relation built wrong."""
    f1, f2 = QUOTIENT_RELATIONS(table, alpha1, A, B)
    return f1 + 1, f2


def flipped_quotient_b_sign(table, alpha1, A, B):
    """f2 with -x B(xy) for + x B(xy)."""
    f1, f2 = QUOTIENT_RELATIONS(table, alpha1, A, B)
    x, y = Poly.var(table, QQ, "x"), Poly.var(table, QQ, "y")
    return f1, f2 - 2 * x * charts._at(B, x * y)


def quotient_b_read_at_xb(table, alpha1, A, B):
    """f2 with x B(xb) for x B(xy)."""
    f1, f2 = QUOTIENT_RELATIONS(table, alpha1, A, B)
    b, x, y = (Poly.var(table, QQ, v) for v in "bxy")
    return f1, f2 - x * charts._at(B, x * y) + x * charts._at(B, x * b)


def test_quotient_nonzero_fails_on_a_shifted_constant(monkeypatch):
    # the witness is computed from the parameters, not read off f1 and f2,
    # so relations built wrong miss it
    monkeypatch.setattr(charts, "_quotient_relations", shifted_quotient_constant)
    for alphas, betas in QUOTIENT_EDGE_CASES:
        assert not witness_quotient_check(alphas, betas)
    assert not any(quotient_nonzero_check(degree) for degree in range(5))


@pytest.mark.parametrize("misbuilt", [flipped_quotient_b_sign, quotient_b_read_at_xb],
                         ids=lambda f: f.__name__)
def test_quotient_nonzero_check_rejects_misbuilt_relations(monkeypatch, misbuilt):
    # a B of degree 0 reads no b, so x B(xb) = x B(xy) there
    monkeypatch.setattr(charts, "_quotient_relations", misbuilt)
    assert not any(quotient_nonzero_check(degree) for degree in range(1, 5))


def test_quotient_nonzero_without_a_candidate_is_false(monkeypatch):
    # every P(t) read as 0: the bounded search ends and reports the miss
    monkeypatch.setitem(globals(), "prod", lambda factors, start: QQ.zero)
    assert not witness_quotient_check([0, 0], [0])


def test_unit_ideal_control_detected():
    t = VarTable(["a", "b", "x", "y"])
    I = Ideal(t, [parse_poly("1", t)])
    assert I.contains_one()


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------

def test_cover_smallest_case():
    rep = verify_cover((2, 2, 2))
    assert rep.total_supports == 4096
    assert rep.counterexamples == ()
    assert rep.checked_supports == rep.covered_supports


def test_cover_next_case():
    rep = verify_cover((3, 2, 2))
    assert rep.total_supports == 16384
    assert rep.ok


@pytest.mark.parametrize("p, counts", [
    ((2, 2, 2), (4096, 1216, 448, 448)),
    ((3, 2, 2), (16384, 3072, 1024, 1024)),
    ((3, 3, 2), (65536, 7680, 2304, 2304)),
])
def test_cover_counters_pinned(p, counts):
    rep = verify_cover(p)
    assert (rep.total_supports, rep.stable_supports,
            rep.checked_supports, rep.covered_supports) == counts
    assert rep.counterexamples == ()


# the brute-force oracle: every support of the quiver, read against the
# program's stability predicate and against relation-compatibility and chart
# membership, which only the oracle and the quiver tests read

def oracle_predicates(Q):
    """full_down_arms, is_relation_compatible and charts of a bitmask
    support, as closures over the down-path and chart masks of Q.  Chart
    membership reads `quiver.all_chart_ids` and `chart_unit_arrows`
    at build time, so a fault injected there reaches the oracle too."""
    bits = support_predicates(Q).bits
    down_paths = tuple(
        (arm, bits(d_arrow(arm, j) for j in range(1, Q.p[arm] + 1))) for arm in (1, 2, 3))
    chart_masks = tuple((c, bits(chart_unit_arrows(c, Q.p)))
                        for c in quiver.all_chart_ids(Q.p))

    def full_down_arms(support: int) -> list:
        """Arms whose complete downward path is nonzero."""
        return [arm for arm, mask in down_paths if support & mask == mask]

    def is_relation_compatible(support: int) -> bool:
        """Necessary support condition from the canonical relation at scalar
        points: at least two full downward paths, or none at all."""
        return len(full_down_arms(support)) != 1

    def charts(support: int) -> list:
        """All charts whose unit arrows are nonzero.  Purely combinatorial:
        empty index ranges hold vacuously, and no stability or relation
        check is applied."""
        return [c for c, mask in chart_masks if support & mask == mask]

    return SimpleNamespace(full_down_arms=full_down_arms,
                           is_relation_compatible=is_relation_compatible, charts=charts)


def brute_force_cover(p) -> CoverReport:
    """`verify_cover` by enumerating all 2^n supports, for up to 18 arrows."""
    p = ArmParams.parse(p)
    Q = build_star_quiver(p)
    n = len(Q.table)
    if n > 18:
        raise ValueError(f"{n} arrows are too many for the brute-force oracle")
    S, O = support_predicates(Q), oracle_predicates(Q)
    stable = checked = covered = 0
    counterexamples = []
    for bits in range(1 << n):
        if not S.is_stable(bits):
            continue
        stable += 1
        if not O.is_relation_compatible(bits):
            continue
        checked += 1
        if O.charts(bits):
            covered += 1
        elif len(counterexamples) < 16:
            counterexamples.append(S.arrows(bits))
    return CoverReport(p, 1 << n, stable, checked, covered, tuple(counterexamples))


def enumerated_arm_classes(Q, S, arm: int, down: dict) -> list:
    """Arm `arm`'s stable local supports in ascending order, each with its
    class (full, windows), by enumerating all 4^p_arm of them: a local
    support is stable when the whole support is, with the other two arms'
    down paths full."""
    p = Q.p
    low = Q.table.index(d_arrow(arm, 1))  # the arm's 2 p_arm arrows follow
    others = sum(mask for b, mask in down.items() if b != arm)
    windows = [S.bits(quiver.arm_window_units(arm, w, p)) for w in range(p[arm] + 1)]
    out = []
    for local in range(1 << 2 * p[arm]):
        support = local << low
        if S.is_stable(support | others):
            hit = sum(1 << w for w, mask in enumerate(windows) if support & mask == mask)
            out.append((support, (support & down[arm] == down[arm], hit)))
    return out


@pytest.mark.parametrize("p", [(2, 2, 2), (3, 2, 2), (4, 3, 3), (5, 5, 5), (8, 7, 6)])
def test_arm_classes_match_enumeration(p):
    # the (a, b) classes count every arm's stable local supports by class,
    # and walk them in ascending order, as the 4^p_arm enumeration does
    Q = build_star_quiver(p)
    S = support_predicates(Q)
    down = {arm: S.bits(d_arrow(arm, j) for j in range(1, p[arm - 1] + 1)) for arm in (1, 2, 3)}
    for arm in (1, 2, 3):
        classes = charts._arm_classes(Q, S, arm, down)
        counted = Counter()
        for _, free, c in classes:
            counted[c] += 1 << free.bit_count()
        enumerated = enumerated_arm_classes(Q, S, arm, down)
        assert counted == Counter(c for _, c in enumerated), (p, arm)
        walked = list(heapq.merge(*(charts._class_supports(*cls) for cls in classes)))
        assert walked == enumerated, (p, arm)


def _inject(monkeypatch, name, fault):
    """Replace a quiver function both where the per-arm count and where the
    oracle look it up."""
    monkeypatch.setattr(quiver, name, fault)
    monkeypatch.setattr(charts, name, fault)


def _only_charts(monkeypatch, keep):
    ids = quiver.all_chart_ids
    _inject(monkeypatch, "all_chart_ids", lambda p: [c for c in ids(p) if keep(c)])


def _perturbed_window(monkeypatch, bad):
    # arm `bad` asks for u_1 in every window i >= 1 and for u_2 in window 0,
    # so a support with u_1 zero on that arm lies only in the charts U^bad,
    # and only when u_2 is nonzero: a full down path is no longer window 0
    units = quiver.arm_window_units

    def perturbed(arm, window, p):
        extra = [u_arrow(arm, 1) if window else u_arrow(arm, 2)] if arm == bad else []
        return units(arm, window, p) + extra

    _inject(monkeypatch, "arm_window_units", perturbed)


@pytest.mark.parametrize("p", [(2, 2, 2), (3, 2, 2), (3, 3, 2)])
def test_cover_matches_brute_force(p):
    assert verify_cover(p) == brute_force_cover(p)


@pytest.mark.parametrize("p", [(2, 2, 2), (3, 2, 2)])
def test_cover_matches_brute_force_without_charts(monkeypatch, p):
    _only_charts(monkeypatch, lambda c: False)
    rep = verify_cover(p)
    assert rep == brute_force_cover(p)
    assert rep.covered_supports == 0 < rep.checked_supports
    assert len(rep.counterexamples) == 16
    if p == (2, 2, 2):
        assert rep.checked_supports == 448


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cover_matches_brute_force_with_one_chart_family(monkeypatch, k):
    # only the charts U^k: a support whose arm k is not full is uncovered
    _only_charts(monkeypatch, lambda c: c.k == k)
    rep = verify_cover((3, 2, 2))
    assert rep == brute_force_cover((3, 2, 2))
    assert 0 < rep.covered_supports < rep.checked_supports


@pytest.mark.parametrize("bad", [1, 2, 3])
@pytest.mark.parametrize("p", [(2, 2, 2), (3, 2, 2), (3, 3, 2)])
def test_cover_matches_brute_force_with_perturbed_window(monkeypatch, p, bad):
    # the perturbed windows are not uniform on the (a, b) classes of arm
    # `bad`: the count refuses, where the brute force finds uncovered supports
    _perturbed_window(monkeypatch, bad)
    with pytest.raises(CheckFailed, match=f"arm {bad}: class"):
        verify_cover(p)
    assert run_command(["cover", "--p", ",".join(map(str, p))]) == 1
    rep = brute_force_cover(p)
    assert 0 < rep.covered_supports < rep.checked_supports
    assert rep.counterexamples


def test_cover_reports_uncovered_supports(monkeypatch, tmp_path):
    # with no charts every checked support is uncovered: the report keeps
    # the first 16, and the CLI exits 1
    Q = build_star_quiver((2, 2, 2))
    S, O = support_predicates(Q), oracle_predicates(Q)
    _only_charts(monkeypatch, lambda c: False)
    rep = verify_cover((2, 2, 2))
    assert (rep.checked_supports, rep.covered_supports) == (448, 0)
    assert not rep.ok and len(rep.counterexamples) == 16
    for nonzero in rep.counterexamples:
        bits = S.bits(nonzero)
        assert S.arrows(bits) == nonzero
        assert S.is_stable(bits) and O.is_relation_compatible(bits)
        assert O.charts(bits)  # covered by the charts built before the fault

    path = tmp_path / "cover.json"
    assert run_command(["cover", "--p", "2,2,2", "--json", str(path)]) == 1
    report = json.loads(path.read_text(encoding="utf-8"))
    assert report["status"] == "fail"
    assert report["counterexamples"] == [list(c) for c in rep.counterexamples]


@pytest.mark.parametrize("p", [(4, 3, 3), (5, 3, 2), (5, 5, 5), (8, 8, 8), (13, 2, 2),
                               (12, 12, 12)])
def test_cover_counts_beyond_brute_force(p):
    # an arm has 2^p_i local supports with a full down path and p_i 2^p_i
    # stable ones without, so 2^(sum p) (prod (p_i + 1) - prod p_i) supports
    # are stable and 2^(sum p) (1 + sum p) have at least two full arms:
    # 45056 and 11264 at 4,3,3, 2981888 and 524288 at 5,5,5
    free = 2 ** sum(p)
    stable = free * ((p[0] + 1) * (p[1] + 1) * (p[2] + 1) - p[0] * p[1] * p[2])
    checked = free * (1 + sum(p))
    rep = verify_cover(p)
    assert (rep.total_supports, rep.stable_supports, rep.checked_supports,
            rep.covered_supports) == (4 ** sum(p), stable, checked, checked)
    assert rep.ok
