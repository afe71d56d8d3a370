"""Torus-invariant cycles, the deformation map, and the determinantal kernel.

The invariant ring of the arrow space is generated by cycle monomials: the
2-cycles d<i>_j u<i>_j and the crossing cycles D_i U_j.  A polynomial ring
on symbols w1, w2, w3 and v<i>_j maps onto it; the three 2x2 minors of a
2x3 matrix in those symbols land in the kernel, and the kernel itself is
computed exactly by eliminating the arrow variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import lcm

from .groebner import (
    DEFAULT_BUDGET,
    CheckFailed,
    GroebnerBudget,
    Ideal,
    Inconclusive,
    eliminate,
    ideals_equal,
)
from .poly import Poly, PrimeField, QQ, VarTable, poly_prod
from .quiver import ArmParams, StarQuiver, build_star_quiver, d_arrow, u_arrow
from .reconstruction import DeformParams, canonical_relation, make_gamma


def w_name(k: int) -> str:
    return f"w{k}"


def v_name(arm: int, j: int) -> str:
    return f"v{arm}_{j}"


def wv_table(p: ArmParams) -> VarTable:
    names = [w_name(1), w_name(2), w_name(3)]
    for arm in (1, 2, 3):
        names += [v_name(arm, j) for j in range(1, p[arm] + 1)]
    return VarTable(names)


def crossing_cycle(Q: StarQuiver, i: int, j: int) -> Poly:
    return Q.D(i) * Q.U(j)


# ---------------------------------------------------------------------------
# the deformation map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WVPoint:
    """A point of the invariant spectrum: three betas and one alpha per
    2-cycle coordinate."""

    betas: tuple
    alphas: tuple  # three tuples, arm i of length p_i

    def alpha(self, arm: int, j: int):
        return self.alphas[arm - 1][j - 1]

    def matches(self, p: ArmParams) -> bool:
        return tuple(len(a) for a in self.alphas) == tuple(p) and len(self.betas) == 3


def _pi_coordinates(al, p: ArmParams) -> tuple:
    """(gamma1, gamma2, gamma3, a, b, A, B) from the 2-cycle coordinates
    al(arm, j) by `-` alone, so al may give scalars or polynomials."""
    gammas = (tuple(al(arm, i) - al(arm, i + 1) for i in range(1, p[arm])) for arm in (1, 2, 3))
    return (*gammas, al(2, 1) - al(1, 1), al(2, 1) - al(3, 1),
            al(1, p.p1) - al(2, p.p2), al(3, p.p3) - al(2, p.p2))


def pi_map(pt: WVPoint, p: ArmParams) -> DeformParams:
    """Consecutive differences of the 2-cycle coordinates; lands in the
    parameter subspace identically."""
    p = ArmParams.parse(p)
    if not pt.matches(p):
        raise ValueError("point coordinates do not match arm parameters")
    gamma = make_gamma(p, *_pi_coordinates(pt.alpha, p))
    if not gamma.inside_delta:
        raise CheckFailed("pi image left the parameter subspace")
    return gamma


def pi_delta_forms_symbolic(p: ArmParams) -> tuple[Poly, Poly]:
    """The two subspace forms pulled back along pi, as polynomials in
    indeterminate alphas; both telescope to zero."""
    p = ArmParams.parse(p)
    table = VarTable([f"al{arm}_{j}" for arm in (1, 2, 3) for j in range(1, p[arm] + 1)])
    g1, g2, g3, a, b, A, B = _pi_coordinates(
        lambda arm, j: Poly.var(table, QQ, f"al{arm}_{j}"), p)
    zero = Poly.zero(table, QQ)
    form1 = sum(g1, zero) - sum(g2, zero) + A + a
    form2 = sum(g3, zero) - sum(g2, zero) + B + b
    return form1, form2


# ---------------------------------------------------------------------------
# the homomorphism from the w/v ring
# ---------------------------------------------------------------------------

def phi_map(Q: StarQuiver) -> dict:
    """Images of the w/v symbols: w1 -> D1 U2, w2 -> D2 U1, w3 -> -D2 U3,
    v<i>_j -> d<i>_j u<i>_j.  `f.substitute(phi_map(Q), Q.table)` applies
    phi to any polynomial f in the w/v ring."""
    images = {
        w_name(1): crossing_cycle(Q, 1, 2),
        w_name(2): crossing_cycle(Q, 2, 1),
        w_name(3): -crossing_cycle(Q, 2, 3),
    }
    for arm in (1, 2, 3):
        for j in range(1, Q.p[arm] + 1):
            images[v_name(arm, j)] = Q.two_cycle(arm, j)
    return images


def cycles_invariant(Q: StarQuiver) -> bool:
    """Whether every image of `phi_map` (the 2-cycles and the crossing
    cycles) has torus weight zero at every vertex."""
    return all(not any(Q.torus_weight(image).values()) for image in phi_map(Q).values())


def weighted_degree(f: Poly, weights: dict) -> int:
    """The weighted degree of f, each variable weighing `weights[name]`;
    CheckFailed unless f is nonzero and weighted-homogeneous."""
    names = f.table.names
    degrees = {sum(weights[n] * e for n, e in zip(names, exps) if e) for exps in f.terms}
    if len(degrees) != 1:
        raise CheckFailed(f"not weighted-homogeneous: {f.to_str()} has degrees {sorted(degrees)}")
    return degrees.pop()


def kernel_grading(Q: StarQuiver) -> dict:
    """The grading of the arrow and w/v names under which phi is homogeneous.

    A d-arrow of arm i weighs lcm(p)/p_i, so every full downward path D_i
    weighs lcm(p) and the canonical relation is homogeneous; a u-arrow
    weighs 1.  Each w/v symbol weighs what its phi image weighs, so every
    tag ``y - phi(y)`` is homogeneous too; an inhomogeneous image raises
    CheckFailed.
    """
    top = lcm(*Q.p)
    weights = {}
    for arm in (1, 2, 3):
        for j in range(1, Q.p[arm] + 1):
            weights[d_arrow(arm, j)] = top // Q.p[arm]
            weights[u_arrow(arm, j)] = 1
    for sym, image in phi_map(Q).items():
        weights[sym] = weighted_degree(image, weights)
    return weights


# ---------------------------------------------------------------------------
# determinantal matrix and minors
# ---------------------------------------------------------------------------

def det_matrix(p: ArmParams, field=QQ) -> tuple:
    """The 2x3 matrix (w2, w3, V2; V1, w3 + V3, w1) with V_i the full
    2-cycle product of arm i."""
    p = ArmParams.parse(p)
    table = wv_table(p)
    V = {arm: poly_prod((Poly.var(table, field, v_name(arm, j))
                         for j in range(1, p[arm] + 1)), table, field)
         for arm in (1, 2, 3)}
    w = {k: Poly.var(table, field, w_name(k)) for k in (1, 2, 3)}
    row_a = (w[2], w[3], V[2])
    row_b = (V[1], w[3] + V[3], w[1])
    return row_a, row_b


def determinantal_minors(p: ArmParams, field=QQ) -> tuple:
    """All 2x2 minors, oriented a_i b_j - b_i a_j for columns i < j."""
    row_a, row_b = det_matrix(p, field)
    out = []
    for i in range(3):
        for j in range(i + 1, 3):
            out.append(row_a[i] * row_b[j] - row_b[i] * row_a[j])
    return tuple(out)


def verify_minors_vanish(p, budget: GroebnerBudget = DEFAULT_BUDGET) -> bool:
    """Each minor maps to zero under phi modulo the canonical relation, over
    QQ, with the normal forms under `budget`."""
    p = ArmParams.parse(p)
    Q = build_star_quiver(p)
    principal = Ideal(Q.table, [canonical_relation(Q)], budget=budget)
    phi = phi_map(Q)
    for m in determinantal_minors(p):
        if not principal.normal_form(m.substitute(phi, Q.table)).is_zero():
            return False
    return True


def minors_ideal(p: ArmParams, field=QQ,
                 budget: GroebnerBudget = DEFAULT_BUDGET) -> Ideal:
    p = ArmParams.parse(p)
    return Ideal(wv_table(p), determinantal_minors(p, field), field=field, budget=budget)


# ---------------------------------------------------------------------------
# the kernel and the conjecture
# ---------------------------------------------------------------------------

def graph_ideal(Q: StarQuiver, budget: GroebnerBudget = DEFAULT_BUDGET) -> Ideal:
    """The graph ideal of phi over Q's field, graded by `kernel_grading`.

    The joint ring holds the arrows, then the w/v symbols; the ideal is the
    canonical relation plus one tag relation ``y - phi(y)`` per symbol.
    """
    wv = wv_table(Q.p)
    joint = VarTable(tuple(Q.table.names) + tuple(wv.names))
    gens = [canonical_relation(Q).rename(joint)]
    for sym, image in phi_map(Q).items():
        gens.append(Poly.var(joint, Q.field, sym) - image.rename(joint))
    grading = kernel_grading(Q)
    return Ideal(joint, gens, field=Q.field, budget=budget,
                 weights=[grading[n] for n in joint.names])


def kernel_ideal(p, field=QQ, budget: GroebnerBudget = DEFAULT_BUDGET) -> Ideal:
    """ker(phi), by eliminating the arrow variables from the graph ideal.

    Exact over QQ by default; a prime field gives the modular image, which
    `verify_conjecture` reports as probabilistic.
    """
    p = ArmParams.parse(p)
    Q = build_star_quiver(p, field)
    result = eliminate(graph_ideal(Q, budget), Q.table.names)
    if result.table != wv_table(p):
        raise CheckFailed("the kept block is not exactly the w/v table")
    return result


@dataclass(frozen=True)
class ConjectureReport:
    p: ArmParams
    field_name: str
    probabilistic: bool
    minors_in_kernel: bool | None  # None when its normal forms ran out of budget
    equal: bool | None
    status: str  # confirmed | refuted | inconclusive
    kernel_generators: tuple
    minors: tuple
    kernel: Ideal | None = dc_field(default=None, compare=False, repr=False)


def verify_conjecture(p, field=QQ, budget: GroebnerBudget = DEFAULT_BUDGET) -> ConjectureReport:
    """Compare ker(phi) with the minors ideal.

    The containment minors-inside-kernel is asserted independently and must
    always hold (exact, over the rationals); it runs under the same budget
    as the rest, and is None if that runs out first.  Equality is decided
    over QQ by default, so "confirmed" is a proof; over a prime field it is
    reported as a probabilistic confirmation.  The report carries the kernel
    ideal, with its basis cached, unless the run was inconclusive.
    """
    p = ArmParams.parse(p)
    minors_ok = None
    try:
        minors_ok = verify_minors_vanish(p, budget)
        kern = kernel_ideal(p, field, budget)
        mins = minors_ideal(p, field, budget)
        equal = ideals_equal(kern, mins)
        status = "confirmed" if (equal and minors_ok) else "refuted"
        kgens = tuple(g.to_str() for g in kern.groebner_basis())
    except Inconclusive:
        kern = None
        equal = None
        status = "inconclusive"
        kgens = ()
    return ConjectureReport(
        p=p,
        field_name=field.name,
        probabilistic=isinstance(field, PrimeField),
        minors_in_kernel=minors_ok,
        equal=equal,
        status=status,
        kernel_generators=kgens,
        minors=tuple(m.to_str() for m in determinantal_minors(p, field)),
        kernel=kern,
    )


# ---------------------------------------------------------------------------
# the fibre over the origin
# ---------------------------------------------------------------------------

def origin_fibre_table() -> VarTable:
    return VarTable(["w1", "w2", "w3", "v"])


def _single_v(p: ArmParams) -> dict:
    """Every v<i>_j sent to the one origin-fibre variable v."""
    return {v_name(arm, j): "v" for arm in (1, 2, 3) for j in range(1, p[arm] + 1)}


def origin_fibre_minors(p: ArmParams, field=QQ) -> tuple:
    """2x2 minors of (w2, w3, v^p2; v^p1, w3 + v^p3, w1): the determinantal
    minors with every v<i>_j sent to v."""
    p = ArmParams.parse(p)
    table = origin_fibre_table()
    return tuple(m.rename(table, _single_v(p)) for m in determinantal_minors(p, field))


@dataclass(frozen=True)
class OriginFibreReport:
    p: ArmParams
    field_name: str
    equal: bool | None
    status: str  # confirmed | refuted | inconclusive
    specialized_generators: tuple
    target_minors: tuple


def fibre_zero_presentation(p, field=QQ, budget: GroebnerBudget = DEFAULT_BUDGET,
                            kernel: Ideal | None = None) -> OriginFibreReport:
    """Specialize the kernel by sending every v<i>_j to a single v and compare
    with the minors of the one-variable matrix.  Conditional on the kernel
    computation (inconclusive if it times out)."""
    p = ArmParams.parse(p)
    table = origin_fibre_table()
    targets = origin_fibre_minors(p, field)
    try:
        kern = kernel if kernel is not None else kernel_ideal(p, field, budget)
        specialized = [g.rename(table, _single_v(p)) for g in kern.groebner_basis()]
        spec_ideal = Ideal(table, specialized, field=field, budget=budget)
        target_ideal = Ideal(table, targets, field=field, budget=budget)
        equal = ideals_equal(spec_ideal, target_ideal)
        status = "confirmed" if equal else "refuted"
    except Inconclusive:
        return OriginFibreReport(p, field.name, None,
                                 "inconclusive", (), tuple(t.to_str() for t in targets))
    return OriginFibreReport(
        p, field.name, equal, status,
        tuple(g.to_str() for g in specialized),
        tuple(t.to_str() for t in targets),
    )
