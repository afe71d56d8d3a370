"""Star quiver construction, torus weights, stability, chart conditions."""

import random

import pytest

from starquiver.poly import parse_field, parse_poly, poly_prod
from starquiver.quiver import (
    BOTTOM,
    EXTENDED,
    ArmParams,
    ChartId,
    all_chart_ids,
    build_star_quiver,
    d_arrow,
    support_predicates,
    u_arrow,
)

from test_charts import chart_unit_arrows, oracle_predicates
from test_poly import total_degree


def is_weight_zero(Q, monomial) -> bool:
    """The monomial's torus weight vanishes at every vertex."""
    return all(w == 0 for w in Q.torus_weight(monomial).values())


def test_vertex_and_arrow_counts():
    Q = build_star_quiver((2, 2, 2))
    assert len(Q.vertices) == 5
    assert len(Q.arrows) == 12
    for p in [(3, 2, 2), (4, 3, 2), (3, 3, 3)]:
        Qp = build_star_quiver(p)
        assert len(Qp.vertices) == sum(p) - 1
        assert len(Qp.arrows) == 2 * sum(p)


def test_path_products():
    Q = build_star_quiver((2, 2, 2))
    assert Q.D(1) == parse_poly("d1_1*d1_2", Q.table)
    assert Q.U(3) == parse_poly("u3_2*u3_1", Q.table)
    for p in [(2, 2, 2), (4, 3, 2)]:
        Qp = build_star_quiver(p)
        for arm in (1, 2, 3):
            assert total_degree(Qp.D(arm)) == ArmParams.parse(p)[arm]


@pytest.mark.parametrize("spec", ["q", "fp:7"])
def test_path_products_are_the_arrow_products(spec):
    # D and U build one monomial; it must be the product of their arrows
    Q = build_star_quiver((5, 3, 2), parse_field(spec))
    for arm in (1, 2, 3):
        n = Q.p[arm]
        for path, arrow in ((Q.D(arm), d_arrow), (Q.U(arm), u_arrow)):
            assert path == poly_prod((Q.arrow_poly(arrow(arm, j)) for j in range(1, n + 1)),
                                     Q.table, Q.field)


def test_stability_vector():
    Q = build_star_quiver((2, 2, 2))
    assert [Q.theta0[v] for v in Q.vertices] == [-4, 1, 1, 1, 1]
    for p in [(2, 2, 2), (3, 2, 2), (3, 3, 3), (4, 3, 2)]:
        Qp = build_star_quiver(p)
        pairing = sum(Qp.theta0[v] * Qp.dimension_vector[v] for v in Qp.vertices)
        assert pairing == 0


def test_arm_params_validation():
    with pytest.raises(ValueError):
        ArmParams(1, 2, 2)
    with pytest.raises(ValueError):
        ArmParams.parse("2,2")


# ---------------------------------------------------------------------------
# torus weights
# ---------------------------------------------------------------------------

def test_single_arrow_weight():
    Q = build_star_quiver((2, 2, 2))
    w = Q.torus_weight(Q.arrow_poly("d1_1"))
    assert w["arm1_1"] == 1 and w["ext"] == -1
    assert sum(abs(x) for x in w.values()) == 2


def test_two_cycle_weight_zero():
    Q = build_star_quiver((3, 2, 2))
    assert is_weight_zero(Q, Q.two_cycle(1, 2))


def test_crossing_cycle_weight_zero():
    for p in [(2, 2, 2), (4, 3, 2)]:
        Q = build_star_quiver(p)
        assert is_weight_zero(Q, Q.D(1) * Q.U(2))
        assert is_weight_zero(Q, Q.D(3) * Q.U(1))


def test_weight_zero_iff_balanced_in_out():
    rng = random.Random(21)
    Q = build_star_quiver((3, 2, 2))
    names = Q.table.names
    for _ in range(200):
        exps = [0] * len(names)
        for _ in range(rng.randint(1, 8)):
            exps[rng.randrange(len(names))] += 1
        weight = Q.torus_weight(tuple(exps))
        in_out = {v: 0 for v in Q.vertices}
        for name, e in zip(names, exps):
            tail, head = Q.arrows[name]
            in_out[head] += e
            in_out[tail] -= e
        assert weight == in_out


def test_foreign_monomial_rejected():
    Q = build_star_quiver((2, 2, 2))
    other = build_star_quiver((3, 2, 2))
    with pytest.raises(ValueError):
        Q.torus_weight(other.arrow_poly("d1_3"))


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------

def test_support_bits_round_trip():
    Q = build_star_quiver((3, 2, 2))
    S = support_predicates(Q)
    names = Q.table.names
    for i, name in enumerate(names):
        assert S.bits([name]) == 1 << i
        assert S.arrows(1 << i) == (name,)
    assert S.bits([]) == 0 and S.arrows(0) == ()
    assert S.bits(names) == (1 << len(names)) - 1
    rng = random.Random(23)
    for _ in range(50):
        bits = rng.getrandbits(len(names))
        assert S.bits(S.arrows(bits)) == bits
        assert list(S.arrows(bits)) == [n for n in names if bits & S.bits([n])]


def _reachable_from_top(Q, nonzero):
    reached, frontier = {EXTENDED}, [EXTENDED]
    while frontier:
        v = frontier.pop()
        for name, (tail, head) in Q.arrows.items():
            if tail == v and name in nonzero and head not in reached:
                reached.add(head)
                frontier.append(head)
    return reached


def test_stability_is_reachability_of_every_vertex():
    # every support of the smallest quiver against a search over vertex
    # names; the bottom is only reached down a full arm
    Q = build_star_quiver((2, 2, 2))
    S = support_predicates(Q)
    O = oracle_predicates(Q)
    for bits in range(1 << len(Q.table)):
        reached = _reachable_from_top(Q, set(S.arrows(bits)))
        assert S.is_stable(bits) == (reached == set(Q.vertices))
        assert (BOTTOM in reached) == bool(O.full_down_arms(bits))


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def test_full_support_is_stable():
    Q = build_star_quiver((3, 3, 3))
    S = support_predicates(Q)
    assert S.is_stable(S.bits(Q.table.names))


def test_empty_support_is_unstable():
    Q = build_star_quiver((2, 2, 2))
    S = support_predicates(Q)
    assert not S.is_stable(S.bits([]))


def test_stability_via_up_chain():
    # all d nonzero except d3_2; all u zero: the bottom is reached down arm 1
    # and every arm vertex directly from the top
    Q = build_star_quiver((2, 2, 2))
    S = support_predicates(Q)
    nonzero = {d_arrow(i, j) for i in (1, 2, 3) for j in (1, 2)} - {d_arrow(3, 2)}
    assert S.is_stable(S.bits(nonzero))


def test_reachability_monotone():
    rng = random.Random(22)
    Q = build_star_quiver((3, 2, 2))
    S = support_predicates(Q)
    names = list(Q.table.names)
    for _ in range(100):
        chosen = S.bits(n for n in names if rng.random() < 0.5)
        if not S.is_stable(chosen):
            continue
        extra = rng.choice(names)
        assert S.is_stable(chosen | S.bits([extra]))


# ---------------------------------------------------------------------------
# chart conditions
# ---------------------------------------------------------------------------

def test_chart_count_formula():
    for p in [(2, 2, 2), (3, 2, 2), (3, 3, 3), (4, 3, 2)]:
        a, b, c = p
        assert len(all_chart_ids(ArmParams(*p))) == b * c + a * c + a * b


def test_full_support_lies_in_every_chart():
    Q = build_star_quiver((2, 2, 2))
    S = support_predicates(Q)
    O = oracle_predicates(Q)
    found = O.charts(S.bits(Q.table.names))
    assert len(found) == 12


def test_chart_support_with_empty_ranges():
    # D1 nonzero, d2_1 nonzero, d2_2 = 0, u3_2 nonzero, d3_1 = 0:
    # the conditions of U1[2,1] (i.e. the V-chart with indices (1,0)) hold,
    # the arm-2 u-range being empty
    Q = build_star_quiver((2, 2, 2))
    S = support_predicates(Q)
    O = oracle_predicates(Q)
    s = S.bits({d_arrow(1, 1), d_arrow(1, 2), d_arrow(2, 1), u_arrow(3, 2)})
    assert ChartId(1, 2, 1) in O.charts(s)
    assert set(chart_unit_arrows(ChartId(1, 2, 1), Q.p)) == set(S.arrows(s))


def test_chart_supports_purely_combinatorial():
    # chart membership only evaluates the nonzero conditions: a support can
    # match a chart while failing relation-compatibility, and membership is
    # exactly the unit-arrow subset test
    Q = build_star_quiver((2, 2, 2))
    S = support_predicates(Q)
    O = oracle_predicates(Q)
    bare = S.bits(chart_unit_arrows(ChartId(1, 1, 1), Q.p))
    assert ChartId(1, 1, 1) in O.charts(bare)
    assert not O.is_relation_compatible(bare)
    for c in all_chart_ids(Q.p):
        expected = set(chart_unit_arrows(c, Q.p)) <= set(S.arrows(bare))
        assert (c in O.charts(bare)) == expected


def test_two_full_arms_support():
    # D1, D2 fully nonzero, all u nonzero, arm-3 d's zero: stable, and the
    # chart family with maximal arm-2 index and minimal arm-3 index applies
    for p in [(2, 2, 2), (3, 2, 2)]:
        Q = build_star_quiver(p)
        S = support_predicates(Q)
        O = oracle_predicates(Q)
        nonzero = {d_arrow(1, j) for j in range(1, Q.p.p1 + 1)}
        nonzero |= {d_arrow(2, j) for j in range(1, Q.p.p2 + 1)}
        nonzero |= {u_arrow(i, j) for i in (1, 2, 3) for j in range(1, Q.p[i] + 1)}
        s = S.bits(nonzero)
        assert S.is_stable(s)
        assert O.full_down_arms(s) == [1, 2]
        assert O.is_relation_compatible(s)
        found = O.charts(s)
        assert ChartId(1, Q.p.p2, 1) in found


def test_relation_compatibility_counts():
    Q = build_star_quiver((2, 2, 2))
    S = support_predicates(Q)
    O = oracle_predicates(Q)
    assert O.is_relation_compatible(S.bits(Q.table.names))
    assert O.is_relation_compatible(S.bits([]))  # zero full arms
    only_arm1 = S.bits({d_arrow(1, 1), d_arrow(1, 2)})
    assert not O.is_relation_compatible(only_arm1)


def test_quiver_summary_shape():
    Q = build_star_quiver((2, 2, 2))
    s = Q.summary()
    assert s["p"] == [2, 2, 2]
    assert len(s["vertices"]) == 5
    assert s["D"]["1"] == "d1_1*d1_2"
    assert s["arrows"]["u2_1"] == {"tail": "arm2_1", "head": "ext"}
