"""Charts of the moduli space and their smoothness certificates.

Each chart scales the full downward path of one arm, plus partial down/up
paths on the other two arms, to 1.  A chart is the `Ideal` of its relations
in its chart variables: the total space (one canonical relation) gives a
hypersurface, every fibre of the deformation family two relations in four
variables.  The closed form builds each arm's cycle product once per arm
window and gamma, in that window's two variables, and places it in every
chart that reads the window.  A second, substitution-based derivation acts
as an independent oracle: it solves the arm chains mechanically from the
relation system and must generate the same ideal as the closed form.  Each
arm chain is solved once per arm window, on the arm's own variables.  Every
term of a cross relation lies on one arm, so each window pushes its arm's
terms through once and sums them, its contribution to the relation.  The
leftover u_{k,1} of a chart's distinguished arm k is solved once per row of
charts: the relation that solves it reads arm k's window 0 and one other
window ((a) with arm a's window i for k = 1, 2, (b) with arm b's window j for
k = 3), so every chart with the same k and the same windows in that relation
shares the solve.  A row solves the leftover in a five-variable table, the
chart variables and the leftover, and pushes it into the other four
relations; each chart adds its remaining window's contributions.  The row's
solve is the one source of a chart's arrow substitution, which
`chart_substitution` returns.  The two derivations share
no factor, cache or solved window, only the chart's table of variable names,
built once per chart.  Each chart builder names the Euler cofactors of its
smoothness certificate.  The certificate builds no Groebner basis: the
cofactors prove that the Jacobian has full rank on the chart's zero set, and
the chart's shape, checked term by term, gives its dimension and an
independent variable set (`_chart_dimension`, proved for every shape by
`chart_dimension_check`).  The chart's own basis is the tests' reference.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import Counter
from dataclasses import dataclass

from .groebner import (
    DEFAULT_BUDGET,
    CheckFailed,
    GroebnerBudget,
    Ideal,
    Inconclusive,
    ideals_equal,
    jacobian_combination,
    same_generators,
)
from .poly import Poly, QQ, VarTable
from .quiver import (
    ArmParams,
    ChartId,
    StarQuiver,
    all_chart_ids,
    arm_window_units,
    build_star_quiver,
    d_arrow,
    support_predicates,
    u_arrow,
)
from .reconstruction import DeformParams


def _check_chart_range(c: ChartId, p: ArmParams):
    arm_a, arm_b = c.other_arms()
    if c.k not in (1, 2, 3) or not (1 <= c.i <= p[arm_a]) or not (1 <= c.j <= p[arm_b]):
        raise ValueError(f"chart {c} out of range for p={p.label()}")


# ---------------------------------------------------------------------------
# total-space charts (one relation)
# ---------------------------------------------------------------------------

def _scaled_canonical(k: int, prod_a: Poly, prod_b: Poly) -> Poly:
    """The canonical sign pattern D1 - D2 + D3 with D_k scaled to 1 and the
    other two arms, in arm order, given by prod_a and prod_b."""
    paths = [prod_a, prod_b]
    paths.insert(k - 1, Poly.const(prod_a.table, prod_a.field, 1))
    return paths[0] - paths[1] + paths[2]


def total_space_chart(p: ArmParams, c: ChartId, field=QQ) -> Ideal:
    """The hypersurface ideal of the chart of the one-relation moduli.  F is
    +-1 +- P_a +- P_b, each P a product of d-arrows, and d P_d = P for each
    factor d, so its Euler cofactors give F - d_a F_{d_a} - d_b F_{d_b} = +-1
    with d_a = d_{a,i} and d_b = d_{b,j}."""
    p = ArmParams.parse(p)
    _check_chart_range(c, p)
    arm_a, arm_b = c.other_arms()
    names = [u_arrow(c.k, m) for m in range(1, p[c.k] + 1)]
    names += [u_arrow(arm_a, m) for m in range(1, c.i + 1)]
    names += [d_arrow(arm_a, m) for m in range(c.i, p[arm_a] + 1)]
    names += [u_arrow(arm_b, m) for m in range(1, c.j + 1)]
    names += [d_arrow(arm_b, m) for m in range(c.j, p[arm_b] + 1)]
    table = VarTable(names)
    prod_a = Poly.var_product(table, field, (d_arrow(arm_a, m) for m in range(c.i, p[arm_a] + 1)))
    prod_b = Poly.var_product(table, field, (d_arrow(arm_b, m) for m in range(c.j, p[arm_b] + 1)))
    cofactors = {(table.index(d),): -Poly.var(table, field, d)
                 for d in (d_arrow(arm_a, c.i), d_arrow(arm_b, c.j))}
    cofactors[0] = Poly.const(table, field, 1)
    return Ideal(table, (_scaled_canonical(c.k, prod_a, prod_b),), field=field,
                 cofactors=cofactors)


# ---------------------------------------------------------------------------
# fibre charts (two relations in four variables)
# ---------------------------------------------------------------------------

# A chart's closed form, oracle and witness ask for its table one after
# another, so it is built once per chart: the last one is kept.
@functools.lru_cache(maxsize=1)
def _chart_table(c: ChartId) -> VarTable:
    arm_a, arm_b = c.other_arms()
    return VarTable([
        d_arrow(arm_a, c.i), u_arrow(arm_a, c.i),
        d_arrow(arm_b, c.j), u_arrow(arm_b, c.j),
    ])


def _cycle_factor(field, gammas) -> tuple:
    """d * prod_t (d u - (gammas[0] + ... + gammas[t])) in the two variables
    (d, u), an empty product being 1: a polynomial c(x) in the cycle x = d u,
    times d, so its terms are ((j + 1, j), c_j) for the nonzero c_j."""
    coeffs = [field.one]  # c(x), lowest degree first
    partial = field.zero
    for g in gammas:
        partial = field.add(partial, g)
        shift = field.neg(partial)
        # c(x) * (x + shift)
        coeffs = ([field.mul(shift, coeffs[0])]
                  + [field.add(field.mul(shift, c), low) for low, c in zip(coeffs, coeffs[1:])]
                  + [coeffs[-1]])
    return tuple(((j + 1, j), c) for j, c in enumerate(coeffs) if c)


# the closed form's arm factors of the last gamma read, by (arm, window)
_factor_cache: list = [None, {}]


def _arm_factor(gamma: DeformParams, arm: int, window: int) -> tuple:
    """The product d prod_{t=window}^{p_arm - 1} (d u - sum_{l=window}^t
    gamma_{arm,l}) on (d, u) = (d_{arm,window}, u_{arm,window}), built once
    per (arm, window) per gamma: every chart reading that window reuses it."""
    if _factor_cache[0] is not gamma:
        _factor_cache[:] = [gamma, {}]
    factors = _factor_cache[1]
    factor = factors.get((arm, window))
    if factor is None:
        factor = factors[arm, window] = _cycle_factor(gamma.field, gamma.gamma(arm)[window - 1:])
    return factor


def fibre_chart(gamma: DeformParams, c: ChartId,
                budget: GroebnerBudget = DEFAULT_BUDGET) -> Ideal:
    """The closed-form ideal of the chart of the fibre at gamma, over gamma's
    field and arm lengths.  f1 ties the chart's two cycles d u; f2 is the
    canonical relation D1 - D2 + D3 with D_k scaled to 1 and each other
    arm's down path replaced by its `_arm_factor`.  The factors share no
    variable, so f2's terms are theirs, placed at their arm's two chart
    variables, and nothing is multiplied.  f1 = s(d_a u_a - d_b u_b) + const
    and f2 = e + g_a + g_b with s, e = +-1 and d g_d - u g_u = g for each arm
    term (`euler_identity_check`), so the minors M_a on (d_a, u_a) and M_b on
    (d_b, u_b) are -s g_a and s g_b: the Euler cofactors give
    f2 + s^-1 (M_a - M_b) = e, and s^-1 = s.  The certificate builds no
    basis, so `budget` bounds only the `ideals_equal` fallback of
    `oracle_match`."""
    p, field = gamma.p, gamma.field
    _check_chart_range(c, p)
    if not gamma.inside_delta:
        raise ValueError("gamma outside the parameter subspace: empty fibre")
    arm_a, arm_b = c.other_arms()
    table = _chart_table(c)
    one, neg = field.one, field.neg
    pref = field.sub(field.sum(gamma.gamma(arm_a)[: c.i - 1]),
                     field.sum(gamma.gamma(arm_b)[: c.j - 1]))  # pref_a - pref_b
    if c.k == 3:  # f1 = cyc_b - cyc_a - (pref_a - pref_b) - a
        sign, const = neg(one), field.sub(neg(pref), gamma.a)
    else:  # f1 = cyc_a - cyc_b + (pref_a - pref_b) - (b, or b - a for k = 2)
        sign, const = one, field.sub(pref, gamma.b if c.k == 1 else field.sub(gamma.b, gamma.a))
    # every coefficient is a field element already and nonzero, but f1's
    # constant, which gamma zero makes zero: both relations are canonical
    f1 = {(1, 1, 0, 0): sign, (0, 0, 1, 1): neg(sign)}
    if const:
        f1[0, 0, 0, 0] = const
    f2 = {(0, 0, 0, 0): neg(one) if c.k == 2 else one}
    for arm, window, pad in ((arm_a, c.i, 0), (arm_b, c.j, 2)):
        for exps, v in _arm_factor(gamma, arm, window):
            f2[(0,) * pad + exps + (0,) * (2 - pad)] = neg(v) if arm == 2 else v
    cofactors = {k: Poly.const(table, field, v) for k, v in ((1, one), ((0, 1), sign),
                                                               ((2, 3), neg(sign)))}
    return Ideal(table, (Poly._raw(table, field, f1), Poly._raw(table, field, f2)),
                 field=field, budget=budget, cofactors=cofactors)


# ---------------------------------------------------------------------------
# substitution-derived oracle
# ---------------------------------------------------------------------------

def _solve_linear(img: Poly, name: str) -> Poly:
    """Solve img = 0 for `name`: requires a single linear occurrence with a
    constant coefficient."""
    idx = img.table.index(name)
    coeff = None
    rest = {}
    for exps, cval in img.terms.items():
        if exps[idx] == 0:
            rest[exps] = cval
            continue
        if exps[idx] != 1 or any(e for k, e in enumerate(exps) if k != idx and e):
            raise ValueError(f"relation not linear in {name}")
        if coeff is not None:
            raise ValueError(f"multiple occurrences of {name}")
        coeff = cval
    if coeff is None:
        raise ValueError(f"{name} does not occur")
    field = img.field
    inv = field.inv(coeff)
    return Poly(img.table, field, {e: field.neg(field.mul(inv, v)) for e, v in rest.items()})


@dataclass(frozen=True)
class SubstitutionOracle:
    """The oracle's per-gamma half.  `cross` holds the cross relations
    (a)-(d) and (x) by label, each split into its constant and its terms by
    arm (`_arm_parts`).  `arms[arm, window]` holds the window's solution,
    solved on the arm's own table of 2 p_arm arrows: it maps every arrow of
    the arm to 1, to its chain solution or to itself (window 0, a chart's
    distinguished arm, keeps u_{arm,1}; window i keeps d_{arm,i} and
    u_{arm,i}).  Beside it sits, for each cross relation, the image of the
    arm's terms under that solution, as terms in the window's kept
    variables: the window's contribution.  A window is solved, and its
    contributions formed, on its first use by `_arm_window`; `chains[arm]`
    holds the arm's table and its chain relations on it, sliced once per
    arm by `_arm_chain` for every window of the arm.
    `rows[k, windows]` holds a row's leftover solution and its other four
    relations with the solution pushed in, as terms on the chart table: the
    row of the charts with distinguished arm k whose windows contributing to
    the relation that solves u_{k,1} are `windows`, solved on its first
    chart by `_chart_row`; each chart adds its remaining window's
    contributions in `chart_by_substitution`."""

    Q: StarQuiver
    gamma: DeformParams
    relations: dict
    cross: tuple
    arms: dict
    chains: dict
    rows: dict


_CROSS_LABELS = ("(a)", "(b)", "(c)", "(d)", "(x)")


def _arm_span(Q: StarQuiver, arm: int) -> slice:
    """The arm's 2 p_arm arrows, consecutive in the table from d_{arm,1}."""
    low = Q.table.index(d_arrow(arm, 1))
    return slice(low, low + 2 * Q.p[arm])


def _arm_parts(Q: StarQuiver, lbl: str, rel: Poly) -> tuple:
    """The relation's constant (None if it has none) and its other terms by
    arm, each as (coefficient, the term's exponents on the arm's arrows).
    Every cross term lies on one arm, (a)-(d) being 2-cycles and (x)
    D1 - D2 + D3, so each window's solution carries its arm's terms on its
    own; a term on two arms raises CheckFailed."""
    spans = [(arm, _arm_span(Q, arm)) for arm in (1, 2, 3)]
    const, by_arm = None, {}
    for exps, coeff in rel.terms.items():
        parts = [(arm, exps[s]) for arm, s in spans if any(exps[s])]
        if len(parts) > 1:
            raise CheckFailed(f"cross relation {lbl} has a term on arms "
                              f"{' and '.join(str(arm) for arm, _ in parts)}")
        if parts:
            arm, local = parts[0]
            by_arm.setdefault(arm, []).append((coeff, local))
        else:
            const = coeff
    return const, by_arm


def substitution_oracle(Q: StarQuiver, gamma: DeformParams,
                        relations: dict) -> SubstitutionOracle:
    """The oracle on `relations = deformed_relations(Q, gamma)`; each arm
    chain is solved once per window that some chart reads."""
    if not gamma.inside_delta:
        raise ValueError("gamma outside the parameter subspace: empty fibre")
    cross = tuple((lbl, *_arm_parts(Q, lbl, relations[lbl])) for lbl in _CROSS_LABELS)
    return SubstitutionOracle(Q, gamma, relations, cross, {}, {}, {})


def _arm_chain(oracle: SubstitutionOracle, arm: int) -> tuple:
    """The arm's table of 2 p_arm arrows and its p_arm - 1 chain relations
    on it: a chain relation reads only its arm's arrows."""
    Q = oracle.Q
    span = _arm_span(Q, arm)
    table = VarTable(Q.table.names[span])
    return table, [Poly(table, Q.field, {e[span]: v for e, v in rel.terms.items()})
                   for rel in (oracle.relations[f"({arm}).{m}"] for m in range(1, Q.p[arm]))]


def _arm_window(oracle: SubstitutionOracle, arm: int, window: int) -> tuple:
    """The arm's chain solved on the arm's table by forward/backward
    substitution from the window's unit arrows, and the window's
    contribution to each cross relation that reads the arm, on first use;
    every window belongs to some chart.  A solved chain must vanish.  Each
    contribution sums coefficient times image over the arm's terms, so a
    product of coefficients is formed once per window, not once per chart
    that reads it."""
    solved = oracle.arms.get((arm, window))
    if solved is not None:
        return solved
    p, field = oracle.Q.p, oracle.Q.field
    if arm not in oracle.chains:
        oracle.chains[arm] = _arm_chain(oracle, arm)
    table, chain = oracle.chains[arm]
    B = dict.fromkeys(arm_window_units(arm, window, p), Poly.const(table, field, 1))
    if window == 0:
        kept = [u_arrow(arm, 1)]
        steps = [(m, u_arrow(arm, m + 1)) for m in range(1, p[arm])]
    else:
        kept = [d_arrow(arm, window), u_arrow(arm, window)]
        steps = [(m, u_arrow(arm, m)) for m in range(window - 1, 0, -1)]
        steps += [(m, d_arrow(arm, m + 1)) for m in range(window, p[arm])]
    B.update((a, Poly.var(table, field, a)) for a in kept)
    for m, unknown in steps:
        B[unknown] = _solve_linear(chain[m - 1].substitute(B), unknown)
    for m, rel in enumerate(chain, 1):
        if not rel.substitute(B).is_zero():
            raise CheckFailed(f"chain relation ({arm}).{m} did not resolve")
    at = [table.index(a) for a in kept]
    add, mul = field.add, field.mul
    images: dict = {}  # a term's exponents on the arm -> its image
    contributions = {}
    for lbl, _, by_arm in oracle.cross:
        out: dict = {}
        for coeff, local in by_arm.get(arm, ()):
            image = images.get(local)
            if image is None:
                image = images[local] = Poly.monomial(table, field, local).substitute(B)
            for e, v in image.terms.items():
                e, v = tuple([e[i] for i in at]), mul(coeff, v)
                out[e] = add(out[e], v) if e in out else v
        if out:
            contributions[lbl] = tuple((e, v) for e, v in out.items() if v)
    solved = oracle.arms[arm, window] = (B, contributions)
    return solved


def _chart_windows(c: ChartId) -> tuple:
    """The chart's (arm, window) pairs, each with the position of its kept
    variables in `_solve_table`."""
    arm_a, arm_b = c.other_arms()
    return ((c.k, 0, 4), (arm_a, c.i, 0), (arm_b, c.j, 2))


def _solve_table(c: ChartId) -> VarTable:
    """The chart's four variables and the leftover u_{k,1}: the variables
    its three windows keep; a row builds it once, on its first chart."""
    return VarTable(_chart_table(c).names + (u_arrow(c.k, 1),))


def _add_placed(out: dict, terms, head: tuple, tail: tuple, add) -> None:
    """Add a window's terms to `out`, each placed between `head` and `tail`:
    at its window's variables in a chart's table."""
    for e, v in terms:
        e = head + e + tail
        out[e] = add(out[e], v) if e in out else v


def _chart_row(oracle: SubstitutionOracle, c: ChartId) -> tuple:
    """The chart's row, solved on its first chart (`_solve_row`), and the
    chart's windows outside the row, each as (arm, window, pad,
    contributions).  Only arm k's window 0 keeps the leftover u_{k,1}, so the
    first of (a)-(d) whose window-0 contribution reads it is the relation that
    solves it, and the chart's windows that contribute to that relation are
    the row: every chart with the same k and the same such windows solves the
    same relation."""
    _check_chart_range(c, oracle.Q.p)
    windows = [(arm, window, pad, _arm_window(oracle, arm, window)[1])
               for arm, window, pad in _chart_windows(c)]
    lead = windows[0][3]  # arm k's window 0
    label = next((lbl for lbl in _CROSS_LABELS[:4] if any(e[0] for e, _ in lead.get(lbl, ()))),
                 None)
    if label is None:
        raise CheckFailed("no relation available to solve the leftover variable")
    key = (c.k, tuple((arm, window) for arm, window, _, contributions in windows
                      if label in contributions))
    row = oracle.rows.get(key)
    if row is None:
        row = oracle.rows[key] = _solve_row(
            oracle, c, label, [w for w in windows if label in w[3]])
    return row, [w for w in windows if label not in w[3]]


def _solve_row(oracle: SubstitutionOracle, c: ChartId, label: str, windows: list) -> tuple:
    """Solve the leftover u_{k,1} from relation `label`, its constant plus
    the row windows' contributions, on `_solve_table`, and push the solution
    into the other four relations, each its constant plus the same windows'
    contributions.  Returns the solution and the four pushed images by
    label, as terms on the chart table: the row fixes the windows whose
    variables they read, so every chart of the row places them alike."""
    table = _solve_table(c)
    n, field = len(table), oracle.Q.field
    add = field.add
    images = {lbl: {} if const is None else {(0,) * n: const} for lbl, const, _ in oracle.cross}
    for _, window, pad, contributions in windows:
        # window 0 keeps one variable, u_{k,1}; a window i keeps two
        head, tail = (0,) * pad, (0,) * (n - pad - (1 if window == 0 else 2))
        for lbl, terms in contributions.items():
            _add_placed(images[lbl], terms, head, tail, add)
    # drop the cancelled terms
    images = {lbl: Poly._raw(table, field, {e: v for e, v in out.items() if v})
              for lbl, out in images.items()}
    leftover = u_arrow(c.k, 1)
    solved = {leftover: _solve_linear(images.pop(label), leftover)}
    pushed = []
    for lbl, image in images.items():
        image = image.substitute(solved)
        if any(e[-1] for e in image.terms):
            raise CheckFailed(f"cross relation {lbl} still reads {leftover} after its solve")
        pushed.append((lbl, {e[:-1]: v for e, v in image.terms.items()}))
    return {e[:-1]: v for e, v in solved[leftover].terms.items()}, tuple(pushed)


def chart_by_substitution(oracle: SubstitutionOracle, c: ChartId,
                          budget: GroebnerBudget = DEFAULT_BUDGET) -> Ideal:
    """The oracle's per-chart half: the ideal of the row's pushed images,
    each plus the contributions of the chart's windows outside the row; it
    must equal the closed form's."""
    (_, pushed), rest = _chart_row(oracle, c)
    table = _chart_table(c)
    field = oracle.Q.field
    add = field.add
    gens = []
    for lbl, image in pushed:
        out = dict(image)
        # a window outside the row is never window 0: it keeps two variables
        for _, _, pad, contributions in rest:
            _add_placed(out, contributions.get(lbl, ()), (0,) * pad, (0,) * (2 - pad), add)
        # drop the cancelled terms
        out = {e: v for e, v in out.items() if v}
        if out:
            gens.append(Poly._raw(table, field, out))
    return Ideal(table, gens, field=field, budget=budget)


def oracle_match(chart: Ideal, derived: Ideal) -> bool:
    """Whether the oracle's ideal `derived` is the closed form's `chart`: by
    their generators, with no basis, when `same_generators` finds them
    equal up to units, and else by `ideals_equal`."""
    return same_generators(chart, derived) or ideals_equal(chart, derived)


def chart_substitution(oracle: SubstitutionOracle, c: ChartId) -> dict:
    """Every arrow of the quiver as a polynomial in the fibre chart's
    variables, as the chain solve and the chart's row give it; pushing the
    deformed relations through it lands in the chart's ideal."""
    (solution, _), _ = _chart_row(oracle, c)
    table = _chart_table(c)
    leftover = {u_arrow(c.k, 1): Poly._raw(table, oracle.Q.field, solution)}
    # each window's solution reads its kept variables: the chart's, or the
    # leftover u_{k,1} of arm k
    return {a: e.substitute(leftover if arm == c.k else {}, table)
            for arm, window, _ in _chart_windows(c)
            for a, e in _arm_window(oracle, arm, window)[0].items()}


# ---------------------------------------------------------------------------
# smoothness certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothnessCertificate:
    one_in_jacobian: bool | None
    dimension: int | None
    witness: tuple | None  # an independent variable set of a fibre chart
    status: str  # smooth | singular | inconclusive


def _fibre_chart_shape(ideal: Ideal) -> None:
    """Raise CheckFailed unless the chart's relations have the closed form's
    shape on (d_a, u_a, d_b, u_b): f1 = s(d_a u_a - d_b u_b) + c with
    s = +-1, and f2 = e + g_a + g_b, each arm's g a sum of terms
    d^(j+1) u^j on its two variables whose top coefficient is +-1."""
    f1, f2 = ideal.gens
    where = ", ".join(ideal.table.names)
    units = (ideal.field.one, ideal.field.neg(ideal.field.one))
    s = f1.terms.get((1, 1, 0, 0))
    if (s not in units or f1.terms.get((0, 0, 1, 1)) != ideal.field.neg(s)
            or any(e not in ((1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0)) for e in f1.terms)):
        raise CheckFailed(f"the first relation {f1.to_str()} is not s(d_a u_a - d_b u_b) + c "
                          f"with s = +-1 on the chart in {where}")
    tops = [None, None]  # each arm's top term, as (j, coefficient)
    for (da, ua, db, ub), v in f2.terms.items():
        if (db, ub) == (0, 0) and da == ua + 1:
            arm, j = 0, ua
        elif (da, ua) == (0, 0) and db == ub + 1:
            arm, j = 1, ub
        elif da or ua or db or ub:
            raise CheckFailed(f"the second relation has a term off the arms' d^(j+1) u^j "
                              f"on the chart in {where}")
        else:  # e
            continue
        if tops[arm] is None or j > tops[arm][0]:
            tops[arm] = (j, v)
    if any(top is None or top[1] not in units for top in tops):
        raise CheckFailed(f"an arm of the second relation has no top coefficient +-1 "
                          f"on the chart in {where}")


def _chart_dimension(ideal: Ideal) -> tuple:
    """The dimension of a chart whose Jacobian has full rank on its zero set,
    and an independent variable set of a fibre chart, from the shape of its
    relations alone.

    A total-space chart's one relation F must not be constant: then
    dim = n - 1 by Krull's principal ideal theorem.  A fibre chart must have
    the closed form's shape (`_fibre_chart_shape`).  Over K = k(u_a, u_b), f1
    gives d_a = (d_b u_b - s c)/u_a, and f2 becomes h(d_b) of degree
    max(m_a, m_b) + 1, its leading coefficient +-u_b^(m_a+1)/u_a, +-u_b^(m_b)
    or their sum (`chart_dimension_check`): nonzero in every characteristic.
    So h has a root over the closure of K, the ideal meets k[u_a, u_b] in 0,
    and (u_a, u_b) is independent; with the Jacobian's rank 2 every
    component has dimension 2."""
    if len(ideal.gens) == 1:
        if not any(any(e) for e in ideal.gens[0].terms):
            raise CheckFailed(f"the relation is constant on the chart in "
                              f"{', '.join(ideal.table.names)}")
        return len(ideal.table) - 1, None
    if len(ideal.gens) != 2 or len(ideal.table) != 4:
        raise CheckFailed(f"{len(ideal.gens)} relations in {len(ideal.table)} variables "
                          "are neither a total-space chart nor a fibre chart")
    _fibre_chart_shape(ideal)
    names = ideal.table.names
    return 2, (names[1], names[3])


def smoothness_certificate(ideal: Ideal,
                           expected_dim: int | None = None) -> SmoothnessCertificate:
    """Smoothness by the chart's Euler cofactors, whose combination must be a
    nonzero constant (CheckFailed otherwise: that shows no singularity),
    and the dimension, optionally pinned to a target, by the Jacobian
    criterion on the chart's checked shape (`_chart_dimension`): no basis is
    built, and no budget read.  Inconclusive only when a product of the
    Euler combination overflows its packed exponent fields."""
    try:
        unit = jacobian_combination(ideal)
    except Inconclusive:
        return SmoothnessCertificate(None, None, None, "inconclusive")
    if len(unit.terms) != 1 or not unit.constant_value():
        raise CheckFailed(f"Euler cofactors give {unit.to_str()}, not a nonzero constant, "
                          f"on the chart in {', '.join(ideal.table.names)}")
    dim, witness = _chart_dimension(ideal)
    smooth = expected_dim is None or dim == expected_dim
    return SmoothnessCertificate(True, dim, witness, "smooth" if smooth else "singular")


def fibre_witness_point(oracle: SubstitutionOracle) -> dict:
    """An exact scalar point of the fibre at the oracle's gamma, read off a
    boundary chart.

    On the chart (1, p2, p3) the second closed-form relation is linear, so a
    solution in gamma's field exists; the oracle's arrow substitution on
    that chart turns it into values for every arrow.  Raises CheckFailed if
    the point misses the closed-form chart.
    """
    gamma = oracle.gamma
    field = gamma.field
    c = ChartId(1, gamma.p.p2, gamma.p.p3)
    chart = fibre_chart(gamma, c)
    arm_a, arm_b = c.other_arms()
    point = {d_arrow(arm_a, c.i): field.one, u_arrow(arm_a, c.i): field.zero,
             d_arrow(arm_b, c.j): field.zero, u_arrow(arm_b, c.j): field.zero}
    # with d_a = 1 and d_b = u_b = 0: f2 = 1 - d_a + d_b = 0 and f1 = u_a + f1(u_a = 0)
    point[u_arrow(arm_a, c.i)] = field.neg(chart.gens[0].evaluate(point))
    if any(rel.evaluate(point) != field.zero for rel in chart.gens):
        raise CheckFailed("witness point misses the chart")
    arrows = chart_substitution(oracle, c)
    return {arrow: expr.evaluate(point) for arrow, expr in arrows.items()}


# ---------------------------------------------------------------------------
# lemma checks
# ---------------------------------------------------------------------------

def euler_identity_check(degree: int) -> bool:
    """Check x f_x - y f_y = f for f = x * sum_{j <= degree} c_j (xy)^j in
    QQ[x, y, c_0, ..., c_degree], the c_j indeterminates.

    Every cycle product x (xy - a_1)...(xy - a_n) with n <= degree is a
    specialisation of this f, and specialising commutes with the
    derivatives, so the one identity proves the Euler identity for every
    choice of the a_i at once.
    """
    if degree < 0:
        raise ValueError(f"expected a degree at least 0, got {degree}")
    table = VarTable(["x", "y"] + [f"c{j}" for j in range(degree + 1)])
    # the term c_j x^(j+1) y^j
    f = Poly(table, QQ, {(j + 1, j) + (0,) * j + (1,) + (0,) * (degree - j): 1
                         for j in range(degree + 1)})
    x, y = Poly.var(table, QQ, "x"), Poly.var(table, QQ, "y")
    return x * f.derivative("x") - y * f.derivative("y") == f


def _at(coeffs, s: Poly) -> Poly:
    """The polynomial with these coefficients, constant term first, at s:
    each coefficient times its power of s, the powers built one from the
    last.  Horner's rule would multiply s into every partial sum, which
    holds the coefficients' indeterminates too."""
    out, power = Poly.zero(s.table, s.field), Poly.const(s.table, s.field, 1)
    for c in coeffs:
        out += power * c
        power *= s
    return out


def _quotient_relations(table: VarTable, alpha1, A, B) -> tuple:
    """f1 = ab - xy + alpha1 and f2 = 1 - a A(ab) + x B(xy) on `table`, which
    holds a, b, x, y; A and B are coefficient lists, constant term first.  A
    fibre chart's relations have A = prod_{i >= 2}(s - a_i), B = prod_j(s - b_j)."""
    a, b, x, y = (Poly.var(table, QQ, v) for v in "abxy")
    return a * b - x * y + alpha1, 1 - a * _at(A, a * b) + x * _at(B, x * y)


def quotient_nonzero_check(degree: int) -> bool:
    """Check that 1 is not in (f1, f2) = `_quotient_relations` for every
    alpha1 and every A and B of degree at most `degree`, by one identity in
    QQ[a, b, x, y, t, al1, c_k, e_k] with A = sum c_k s^k, B = sum e_k s^k.

    With P = A(t), N = 1 + B(y) and al1 = y - t, the point a = N/P,
    b = tP/N, x = 1 reads a monomial a^i b^j as (N/P)^(i-j) t^j.  So if each
    relation, split as f_0 + f_1 by i - j (only 0 and 1 may occur) and read
    at a = 1, b = t, x = 1, has P f_0 + N f_1 = 0, the point lies on V(f1, f2)
    wherever P N != 0.  A fibre chart's products of at most `degree` factors
    specialise A and B; then A is monic and 1 + B is 2 or monic, so some
    rational t has P N != 0 with y = t + a_1, and at that point of V(f1, f2)
    1 = g1 f1 + g2 f2 would read 1 = 0.
    """
    if degree < 0:
        raise ValueError(f"expected a degree at least 0, got {degree}")
    cs, es = ([f"{c}{k}" for k in range(degree + 1)] for c in "ce")
    table = VarTable(["a", "b", "x", "y", "t", "al1", *cs, *es])
    A, B = ([Poly.var(table, QQ, v) for v in names] for names in (cs, es))
    t, y, al1 = (Poly.var(table, QQ, v) for v in ("t", "y", "al1"))
    P, N = _at(A, t), 1 + _at(B, y)
    at = {"a": 1, "b": t, "x": 1, "al1": y - t}
    for f in _quotient_relations(table, al1, A, B):
        parts = [{}, {}]
        for exps, c in f.terms.items():
            if exps[0] - exps[1] not in (0, 1):  # deg_a - deg_b
                return False
            parts[exps[0] - exps[1]][exps] = c
        f_0, f_1 = (Poly(table, QQ, part).substitute(at) for part in parts)
        if P * f_0 + N * f_1:
            return False
    return True


def chart_dimension_check(degree: int) -> bool:
    """Check the two identities behind `_chart_dimension` for every fibre
    chart of the closed form's shape, f1 = s(d_a u_a - d_b u_b) + c and
    f2 = e + d_a A(d_a u_a) + d_b B(d_b u_b) with A = sum a_j x^j and
    B = sum b_j x^j, j <= degree, in QQ[d_a, u_a, d_b, u_b, x, s, c, e, a_j, b_j]
    with s, c, e, a_j and b_j indeterminates.

    The Euler combination: with M_a, M_b the Jacobian minors on (d_a, u_a)
    and (d_b, u_b), f2 + s (M_a - M_b) = e + (1 - s^2)(f2 - e), which is e
    at s = +-1 whatever the chart's cycle polynomials.

    The leading coefficient of h: u_a f2 is H(x_a) = u_a e + x_a A(x_a)
    + u_a d_b B(d_b u_b) at x_a = d_a u_a, and f1 = 0 with s^2 = 1 reads
    x_a = d_b u_b - s c, so u_a h(d_b) = H(d_b u_b - s c).  Its coefficient
    of d_b^(k+1) must be a_k u_b^(k+1) + u_a b_k u_b^k plus terms that read
    some a_j with j > k, and no power of d_b may pass degree + 1.  A chart
    with top indices m_a, m_b sets a_j = 0 past m_a and b_j = 0 past m_b:
    with m = max(m_a, m_b), h has degree m + 1 and leading coefficient
    (a_m u_b^(m+1) + u_a b_m u_b^m)/u_a, nonzero when a top coefficient is
    +-1 and the other +-1 or 0.
    """
    if degree < 0:
        raise ValueError(f"expected a degree at least 0, got {degree}")
    As, Bs = ([f"{v}{j}" for j in range(degree + 1)] for v in "ab")
    table = VarTable(["da", "ua", "db", "ub", "s", "c", "e", *As, *Bs])
    da, ua, db, ub, s, c, e = (Poly.var(table, QQ, v) for v in table.names[:7])
    A, B = ([Poly.var(table, QQ, v) for v in names] for names in (As, Bs))
    f1 = s * (da * ua - db * ub) + c
    f2 = e + da * _at(A, da * ua) + db * _at(B, db * ub)

    def minor(d: str, u: str) -> Poly:
        return f1.derivative(d) * f2.derivative(u) - f1.derivative(u) * f2.derivative(d)

    if f2 + s * (minor("da", "ua") - minor("db", "ub")) != e + (1 - s * s) * (f2 - e):
        return False

    def H(x: Poly) -> Poly:  # u_a f2 with x in place of d_a u_a
        return ua * e + x * _at(A, x) + ua * db * _at(B, db * ub)

    if ua * f2 != H(da * ua):
        return False
    h = H(db * ub - s * c)

    def monomial(powers: dict) -> tuple:
        return tuple(powers.get(v, 0) for v in table.names)

    leads = {monomial({"db": k + 1, "ub": k + 1, f"a{k}": 1}) for k in range(degree + 1)}
    leads |= {monomial({"db": k + 1, "ub": k, "ua": 1, f"b{k}": 1}) for k in range(degree + 1)}
    at_db, first_a = table.index("db"), table.index("a0")
    found = 0
    for exps, coeff in h.terms.items():
        k = exps[at_db] - 1
        if k > degree:
            return False
        if exps in leads:
            if coeff != 1:
                return False
            found += 1
        elif k >= 0 and not any(exps[first_a + k + 1:first_a + degree + 1]):
            return False
    return found == len(leads)


# ---------------------------------------------------------------------------
# cover check, counted per arm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverReport:
    p: ArmParams
    total_supports: int
    stable_supports: int
    checked_supports: int
    covered_supports: int
    counterexamples: tuple

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _arm_classes(Q: StarQuiver, S, arm: int, down: dict) -> list:
    """Arm `arm`'s stable (a, b) classes as (forced, free, class) triples.
    Class (a, b) holds the local supports whose nonzero d-prefix is d_1..d_a
    and nonzero u-suffix u_b..u_p: d_{a+1} and u_{b-1} are zero, d_{a+2}..d_p
    and u_1..u_{b-2} free.  A support's class is whether it is stable with
    the other two arms' down paths full, whether its own down path is full,
    and the bit set of the `arm_window_units` windows it satisfies.  Each is
    monotone in the support, so it is constant on an (a, b) class when it
    agrees at the class's two ends, forced and forced | free; raises
    CheckFailed where they differ."""
    p, n = Q.p, Q.p[arm]
    others = sum(mask for b, mask in down.items() if b != arm)
    windows = [S.bits(arm_window_units(arm, w, p)) for w in range(n + 1)]

    def key(support: int) -> tuple:
        return (S.is_stable(support | others), support & down[arm] == down[arm],
                sum(1 << w for w, mask in enumerate(windows) if support & mask == mask))

    def span(arrow, first: int, last: int) -> int:
        return S.bits(arrow(arm, m) for m in range(first, last + 1))

    out = []
    for a in range(n + 1):
        for b in range(1, n + 2):
            forced = span(d_arrow, 1, a) | span(u_arrow, b, n)
            free = span(d_arrow, a + 2, n) | span(u_arrow, 1, b - 2)
            lo, hi = key(forced), key(forced | free)
            if lo != hi:
                raise CheckFailed(f"arm {arm}: class (a={a}, b={b}) is {lo} on its forced "
                                  f"arrows but {hi} with its free ones")
            if lo[0]:
                out.append((forced, free, lo[1:]))
    return out


def _class_supports(forced: int, free: int, c: tuple):
    """The class's supports in ascending order, each with the class c: the
    forced bits with every subset of the free bits, counted upwards."""
    subset = 0
    while True:
        yield forced | subset, c
        if subset == free:
            return
        subset = (subset - free) & free


def _chart_reach(p: ArmParams, window_sets: dict) -> dict:
    """For each arm k and each window set of its first other arm, the bit
    set of the windows j of its second other arm that complete a chart
    U^k_{i,j} with a window i of the set."""
    reach = {k: {} for k in (1, 2, 3)}
    for c in all_chart_ids(p):
        arm_a, _ = c.other_arms()
        for w in window_sets[arm_a]:
            if w >> c.i & 1:
                reach[c.k][w] = reach[c.k].get(w, 0) | 1 << c.j
    return reach


def _first_supports(classes: list, triples: set, limit: int) -> list:
    """The first `limit` supports, in ascending order, whose class triple is
    in `triples`.  A support's bits run arm 1, arm 2, arm 3 upwards, so
    ascending order is lexicographic in the (arm 3, arm 2, arm 1) local
    supports, merged lazily per arm from the classes some triple needs."""
    def ascending(arm: int, wanted: set):
        return heapq.merge(*(_class_supports(*cls) for cls in classes[arm] if cls[2] in wanted))

    out = []
    for s3, c3 in ascending(2, {c3 for _, _, c3 in triples}):
        for s2, c2 in ascending(1, {c2 for _, c2, t3 in triples if t3 == c3}):
            for s1, _ in ascending(0, {c1 for c1, t2, t3 in triples if (t2, t3) == (c2, c3)}):
                out.append(s1 | s2 | s3)
                if len(out) == limit:
                    return out
    return out


def verify_cover(p) -> CoverReport:
    """Every stable, relation-compatible arrow support must satisfy the
    conditions of at least one chart; the supports are counted arm by arm.

    Arm k's arrows touch only its own stations, the extended vertex and the
    bottom, and the bottom is reached exactly when some arm's full down path
    is nonzero.  So a support is stable when some arm is full and each arm's
    local support is stable given the bottom; relation-compatible (two full
    arms, or none, which is unstable) when at least two arms are full; and
    covered when some chart U^k_{i,j} finds arm k in window 0 and its other
    arms in windows i and j.  Each arm's local supports are counted by their
    (a, b) classes (`_arm_classes`), O(p_k^2) of them, whose two ends
    certify that the class is uniform, and the class counts combine over the
    three arms.
    """
    p = ArmParams.parse(p)
    Q = build_star_quiver(p)
    S = support_predicates(Q)
    down = {arm: S.bits(d_arrow(arm, j) for j in range(1, p[arm] + 1)) for arm in (1, 2, 3)}
    classes = [_arm_classes(Q, S, arm, down) for arm in (1, 2, 3)]
    counts = [Counter() for _ in classes]
    for count, arm_classes in zip(counts, classes):
        for _, free, c in arm_classes:
            count[c] += 1 << free.bit_count()
    reach = _chart_reach(p, {arm: {w for _, w in counts[arm - 1]} for arm in (1, 2, 3)})
    stable = checked = covered = 0
    uncovered = set()
    for (c1, n1), (c2, n2), (c3, n3) in itertools.product(*(c.items() for c in counts)):
        (full1, w1), (full2, w2), (full3, w3) = c1, c2, c3
        n_full, n = full1 + full2 + full3, n1 * n2 * n3
        if n_full:
            stable += n
        if n_full < 2:
            continue
        checked += n
        if (w1 & 1 and reach[1].get(w2, 0) & w3 or w2 & 1 and reach[2].get(w1, 0) & w3
                or w3 & 1 and reach[3].get(w1, 0) & w2):
            covered += n
        else:
            uncovered.add((c1, c2, c3))
    return CoverReport(p, 1 << len(Q.table), stable, checked, covered,
                       tuple(S.arrows(bits) for bits in _first_supports(classes, uncovered, 16)))
