"""Torus-invariant cycles, the deformation map, and the determinantal kernel.

The invariant ring of the arrow space is generated by cycle monomials: the
2-cycles d<i>_j u<i>_j and the crossing cycles D_i U_j.  A polynomial ring
on symbols w1, w2, w3 and v<i>_j maps onto it modulo the canonical
relation; the three 2x2 minors of a 2x3 matrix in those symbols land in
the kernel, and they generate it exactly when the two graded quotients
have one Hilbert series.  That is one identity of polynomials in t, so the
kernel is never computed: its reduced basis is then the minors' basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .groebner import (
    DEFAULT_BUDGET,
    CheckFailed,
    GroebnerBudget,
    Ideal,
    Inconclusive,
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

def _w_and_cycle_products(p: ArmParams, field) -> tuple[dict, dict]:
    """The symbols w_k, and V_i = the product of the v<i>_j, by index."""
    table = wv_table(p)
    V = {arm: Poly.var_product(table, field, (v_name(arm, j) for j in range(1, p[arm] + 1)))
         for arm in (1, 2, 3)}
    w = {k: Poly.var(table, field, w_name(k)) for k in (1, 2, 3)}
    return w, V


def det_matrix(p: ArmParams, field=QQ) -> tuple:
    """The 2x3 matrix (w2, w3, V2; V1, w3 + V3, w1) with V_i the full
    2-cycle product of arm i."""
    w, V = _w_and_cycle_products(ArmParams.parse(p), field)
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
# the kernel and the conjecture, by Hilbert series
# ---------------------------------------------------------------------------

# the one variable of the Hilbert series, over QQ
_T = VarTable(["t"])


def _t(exponent: int) -> Poly:
    return Poly.monomial(_T, QQ, (exponent,))


def _one_minus_t(exponent: int) -> Poly:
    return _t(0) - _t(exponent)


def _crossings_in_image(Q: StarQuiver, budget: GroebnerBudget) -> bool:
    """Whether the three crossing cycles that phi does not hit lie in its
    image modulo canon, with V_i the product of the v<i>_j:

        D3U1 = phi(w2 - V1),   D3U2 = phi(V2 - w1),   D1U3 = phi(-w3 - V3).

    The normal forms run over QQ under `budget`."""
    w, V = _w_and_cycle_products(Q.p, QQ)
    phi = phi_map(Q)
    principal = Ideal(Q.table, [canonical_relation(Q)], budget=budget)
    for (i, j), preimage in (((3, 1), w[2] - V[1]), ((3, 2), V[2] - w[1]),
                             ((1, 3), -w[3] - V[3])):
        residue = crossing_cycle(Q, i, j) - preimage.substitute(phi, Q.table)
        if not principal.normal_form(residue).is_zero():
            return False
    return True


def _leads_numerator(leads, weights) -> Poly:
    """The numerator of the Hilbert series of the monomial ideal of
    `leads` (exponent tuples, each variable weighing `weights`):
    inclusion-exclusion over the lcms of subsets of the leads, equal lcms
    merged as they arise."""
    acc = {(0,) * len(weights): 1}
    for lead in leads:
        for mono, c in list(acc.items()):
            lcm_mono = tuple([max(a, b) for a, b in zip(mono, lead)])
            acc[lcm_mono] = acc.get(lcm_mono, 0) - c
    return sum((_t(sum(map(int.__mul__, weights, mono))).scale(c) for mono, c in acc.items()),
               Poly.zero(_T, QQ))


def _kernel_numerator(p: ArmParams, canon_degree: int) -> tuple[Poly, Poly]:
    """(N, D) with N / D = S_0 - t^canon_degree S_(-1): the Hilbert series
    of the torus-invariant part of k[arrows]/(canon), times the
    prod_i (1 - t^(L/p_i + 1))^(p_i) of arm i's 2-cycles.

    An arrow monomial whose torus weight is c times canon's has one net
    flow f_i down each arm, f_1 + f_2 + f_3 = c, and is D_i^(f_i) (weight
    L f_i) or U_i^(-f_i) (weight p_i (-f_i)) times 2-cycles on each arm;
    S_c sums t^(weight) over the flows.  Canon is a nonzerodivisor, so its
    multiples in degree d are canon times the c = -1 monomials of degree
    d - L.  By the signs of the flows (c is 0 or -1), with
    x_k = t^(L + p_k):
    - all f >= 0 gives 1 when c = 0;
    - only arm i has f >= 0 gives t^(L(c+2) + p_j + p_k) / ((1 - x_j)(1 - x_k));
    - only arm k has f < 0 gives t^(L(c+1) + p_k) ((c+2)(1 - x_k) + x_k) / (1 - x_k)^2.
    D = prod_k (1 - x_k)^2 clears every denominator.  When canon_degree is
    L, every part of S_0 that does not grow with c cancels against
    t^L S_(-1), and N / D is 1 + sum_k x_k / (1 - x_k); the cones are
    summed whole so that canon's degree enters them.
    """
    ps = tuple(p)
    L = lcm(*ps)
    x = [_t(L + pk) for pk in ps]
    om = [_one_minus_t(L + pk) for pk in ps]
    sq = [f * f for f in om]
    D = sq[0] * sq[1] * sq[2]

    def cones(c: int) -> Poly:
        total = D if c == 0 else Poly.zero(_T, QQ)
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            total += _t(L * (c + 2) + ps[j] + ps[k]) * sq[i] * om[j] * om[k]
            total += _t(L * (c + 1) + ps[i]) * (om[i].scale(c + 2) + x[i]) * sq[j] * sq[k]
        return total

    return cones(0) - _t(canon_degree) * cones(-1), D


def _minors_generate_kernel(p, field=QQ, budget: GroebnerBudget = DEFAULT_BUDGET):
    """(equal, reduced basis): whether the minors generate ker(phi), and if
    so the kernel's reduced basis, which is then the minors'.

    The minors lie in the kernel (the caller checks it); each is
    homogeneous under `kernel_grading`, in which every weight is positive.
    phi's image is the torus-invariant part of k[arrows]/(canon): an
    invariant arrow monomial factors into 2-cycles and crossing cycles, phi
    hits the 2-cycles, D1U2, D2U1 and -D2U3, and `_crossings_in_image`
    gives the other three.  Two positively graded quotients, one onto the
    other, are equal iff their Hilbert series are (Macaulay's theorem;
    Stanley, Combinatorics and Commutative Algebra, ch. I).  The minors'
    series is N1 / D1 over prod_y (1 - t^(w(y))) for the w/v symbols y, N1
    from the leads of their reduced basis.  A v symbol weighs what its
    2-cycle weighs, so the v factors are the image's
    prod_i (1 - t^(L/p_i + 1))^(p_i): both cancel, D1 keeps the three w
    factors, and the series agree iff N1 D2 = N2 D1, an identity in Z[t].
    Every step holds in every characteristic, so a prime field proves it
    too, from its own basis.
    """
    p = ArmParams.parse(p)
    Q = build_star_quiver(p)
    if not _crossings_in_image(Q, budget):
        raise CheckFailed("a crossing cycle is not in the image of phi modulo canon")
    grading = kernel_grading(Q)
    mins = minors_ideal(p, field, budget)
    for m in mins.gens:
        weighted_degree(m, grading)
    basis = mins.groebner_basis()
    N1 = _leads_numerator([g.sorted_terms(mins.order)[0][0] for g in basis],
                          [grading[n] for n in mins.table.names])
    D1 = poly_prod((_one_minus_t(grading[w_name(k)]) for k in (1, 2, 3)), _T, QQ)
    N2, D2 = _kernel_numerator(p, weighted_degree(canonical_relation(Q), grading))
    if N1 * D2 != N2 * D1:
        return False, ()
    return True, basis


@dataclass(frozen=True)
class ConjectureReport:
    p: ArmParams
    field_name: str
    probabilistic: bool
    minors_in_kernel: bool | None  # None when its normal forms ran out of budget
    equal: bool | None
    status: str  # confirmed | refuted | inconclusive
    kernel_generators: tuple  # the kernel's reduced basis, empty unless confirmed
    minors: tuple  # the three determinantal minors


def verify_conjecture(p, field=QQ, budget: GroebnerBudget = DEFAULT_BUDGET) -> ConjectureReport:
    """Compare ker(phi) with the minors ideal.

    The containment minors-inside-kernel is checked exactly, over the
    rationals; equality then follows from `_minors_generate_kernel`.  Every
    basis and normal form runs under `budget`, and a run out of it is
    inconclusive, never refuted.  "confirmed" is a proof in every field; a
    prime-field run is still reported as `probabilistic`.
    """
    p = ArmParams.parse(p)
    minors_ok = None
    equal = None
    kgens = ()
    try:
        minors_ok = verify_minors_vanish(p, budget)
        equal, kgens = _minors_generate_kernel(p, field, budget) if minors_ok else (False, ())
        status = "confirmed" if equal else "refuted"
    except Inconclusive:
        status = "inconclusive"
    return ConjectureReport(
        p=p,
        field_name=field.name,
        probabilistic=isinstance(field, PrimeField),
        minors_in_kernel=minors_ok,
        equal=equal,
        status=status,
        kernel_generators=kgens,
        minors=determinantal_minors(p, field),
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
                            conjecture: ConjectureReport | None = None) -> OriginFibreReport:
    """Specialize the kernel by sending every v<i>_j to a single v and compare
    with the minors of the one-variable matrix.

    That map is onto, so the image of an ideal is generated by the images
    of any of its generating sets, and the targets are the images of the
    minors: once the kernel is the minors ideal, its specialized reduced
    basis generates the targets' ideal, and no basis is built here.  So
    `equal` and `status` follow the conjecture, `conjecture` being its
    report for (p, field), run under `budget` when not given; unless it is
    confirmed, `equal` is None and there are no specialized generators.
    """
    p = ArmParams.parse(p)
    rep = conjecture if conjecture is not None else verify_conjecture(p, field, budget)
    targets = tuple(t.to_str() for t in origin_fibre_minors(p, field))
    if rep.status != "confirmed":
        return OriginFibreReport(p, field.name, None, rep.status, (), targets)
    table, single = origin_fibre_table(), _single_v(p)
    specialized = tuple(g.rename(table, single).to_str() for g in rep.kernel_generators)
    return OriginFibreReport(p, field.name, True, "confirmed", specialized, targets)
