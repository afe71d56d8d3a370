"""The 3-armed double star quiver: vertices, arrows, path products, stability.

Vertices: an extended vertex at the top, chains of arm vertices, and one
bottom vertex.  Arm i carries the downward arrows d<i>_1 .. d<i>_<p_i>
(extended vertex down to the bottom vertex) and the reversing upward arrows
u<i>_1 .. u<i>_<p_i>.  At the scalar dimension vector all arrow products
commute, so paths live in an ordinary polynomial ring on the arrow names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .poly import Poly, QQ, VarTable

EXTENDED = "ext"
BOTTOM = "bot"


@dataclass(frozen=True)
class ArmParams:
    """Arm lengths p1, p2, p3 (arm i of the dual graph has p_i - 1 curves)."""

    p1: int
    p2: int
    p3: int

    def __post_init__(self):
        for v in (self.p1, self.p2, self.p3):
            if not isinstance(v, int) or v < 2:
                raise ValueError(f"arm parameters must be integers >= 2, got {v}")

    def __iter__(self):
        return iter((self.p1, self.p2, self.p3))

    def __getitem__(self, arm: int) -> int:
        return (self.p1, self.p2, self.p3)[arm - 1]

    @classmethod
    def parse(cls, spec) -> "ArmParams":
        if isinstance(spec, ArmParams):
            return spec
        if isinstance(spec, str):
            parts = [int(x) for x in spec.split(",")]
        else:
            parts = list(spec)
        if len(parts) != 3:
            raise ValueError(f"expected three arm parameters, got {spec!r}")
        return cls(*parts)

    def label(self) -> str:
        return f"{self.p1},{self.p2},{self.p3}"


def arm_vertex(arm: int, k: int) -> str:
    return f"arm{arm}_{k}"


def d_arrow(arm: int, j: int) -> str:
    return f"d{arm}_{j}"


def u_arrow(arm: int, j: int) -> str:
    return f"u{arm}_{j}"


class StarQuiver:
    """Double star quiver with its arrow ring, path products and stability data."""

    def __init__(self, p: ArmParams, field=QQ):
        self.p = p
        self.field = field

        vertices = [EXTENDED]
        for arm in (1, 2, 3):
            vertices += [arm_vertex(arm, k) for k in range(1, p[arm])]
        vertices.append(BOTTOM)
        self.vertices = tuple(vertices)

        # d<i>_j runs from the (j-1)-th to the j-th station down arm i,
        # with station 0 the extended vertex and station p_i the bottom
        arrows: dict[str, tuple[str, str]] = {}
        for arm in (1, 2, 3):
            chain = [EXTENDED] + [arm_vertex(arm, k) for k in range(1, p[arm])] + [BOTTOM]
            for j in range(1, p[arm] + 1):
                arrows[d_arrow(arm, j)] = (chain[j - 1], chain[j])
            for j in range(1, p[arm] + 1):
                arrows[u_arrow(arm, j)] = (chain[j], chain[j - 1])
        self.arrows = arrows

        names = []
        for arm in (1, 2, 3):
            names += [d_arrow(arm, j) for j in range(1, p[arm] + 1)]
            names += [u_arrow(arm, j) for j in range(1, p[arm] + 1)]
        self.table = VarTable(names)

        self.dimension_vector = {v: 1 for v in self.vertices}
        top = sum(pi - 1 for pi in p) + 1
        self.theta0 = {v: (-top if v == EXTENDED else 1) for v in self.vertices}

    # -- path products -------------------------------------------------------

    def arrow_poly(self, name: str) -> Poly:
        return Poly.var(self.table, self.field, name)

    def D(self, arm: int) -> Poly:
        """Full downward path product along the arm."""
        return Poly.var_product(self.table, self.field,
                                (d_arrow(arm, j) for j in range(1, self.p[arm] + 1)))

    def U(self, arm: int) -> Poly:
        """Full upward path product along the arm."""
        return Poly.var_product(self.table, self.field,
                                (u_arrow(arm, j) for j in range(1, self.p[arm] + 1)))

    def two_cycle(self, arm: int, j: int) -> Poly:
        return self.arrow_poly(d_arrow(arm, j)) * self.arrow_poly(u_arrow(arm, j))

    # -- torus action ---------------------------------------------------------

    def torus_weight(self, monomial) -> dict[str, int]:
        """Weight of an arrow monomial under conjugation by the vertex torus.

        Each arrow contributes e_head - e_tail; a monomial is a Poly with a
        single term or a raw exponent tuple over the arrow VarTable.
        """
        if isinstance(monomial, Poly):
            if monomial.table != self.table:
                raise ValueError("monomial on a foreign VarTable")
            if len(monomial.terms) != 1:
                raise ValueError("torus weight is defined for single monomials")
            exps = next(iter(monomial.terms))
        else:
            exps = tuple(monomial)
            if len(exps) != len(self.table):
                raise ValueError("exponent vector length mismatch")
        weight = {v: 0 for v in self.vertices}
        for name, e in zip(self.table.names, exps):
            if not e:
                continue
            tail, head = self.arrows[name]
            weight[head] += e
            weight[tail] -= e
        return weight

    def summary(self) -> dict:
        """JSON-ready description: vertices, arrows, stability, path products."""
        return {
            "p": list(self.p),
            "vertices": list(self.vertices),
            "arrows": {a: {"tail": t, "head": h} for a, (t, h) in self.arrows.items()},
            "theta0": {v: self.theta0[v] for v in self.vertices},
            "D": {str(i): self.D(i).to_str() for i in (1, 2, 3)},
            "U": {str(i): self.U(i).to_str() for i in (1, 2, 3)},
        }


def build_star_quiver(p, field=QQ) -> StarQuiver:
    return StarQuiver(ArmParams.parse(p), field=field)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class ChartId:
    """Chart U^k_{i,j}: arm k scaled to the identity, 1-based indices i, j
    along the other two arms (U^k_{i,j} has the conditions of V^k_{i-1,j-1})."""

    k: int
    i: int
    j: int

    def label(self) -> str:
        return f"U{self.k}[{self.i},{self.j}]"

    def other_arms(self) -> tuple[int, int]:
        return {1: (2, 3), 2: (1, 3), 3: (1, 2)}[self.k]


def all_chart_ids(p: ArmParams) -> list[ChartId]:
    out = []
    for k in (1, 2, 3):
        # U^k_{1,1} exists for every p
        a, b = ChartId(k, 1, 1).other_arms()
        out += [ChartId(k, i, j) for i in range(1, p[a] + 1) for j in range(1, p[b] + 1)]
    return out


def arm_window_units(arm: int, window: int, p: ArmParams) -> list[str]:
    """The arrows of one arm that a chart scales to 1.  Window 0 is the
    chart's distinguished arm: all its down arrows.  Window i is another arm
    at the chart's index i: the down arrows before i and the up arrows after."""
    if window == 0:
        return [d_arrow(arm, m) for m in range(1, p[arm] + 1)]
    return ([d_arrow(arm, m) for m in range(1, window)]
            + [u_arrow(arm, m) for m in range(window + 1, p[arm] + 1)])


# ---------------------------------------------------------------------------
# supports: an int whose bit i marks Q.table.names[i] as nonzero
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportPredicates:
    """The support predicates of one quiver, as closures over its masks.

    bits(arrows) and arrows(bits) convert between arrow names and supports;
    arrows lists the nonzero names in table order.
    """

    bits: Callable[[Iterable[str]], int]
    arrows: Callable[[int], tuple]
    is_stable: Callable[[int], bool]


def support_predicates(Q: StarQuiver) -> SupportPredicates:
    """Build the edge masks of Q once, and the predicates that read a
    support against them."""
    table = Q.table

    def bits(arrows: Iterable[str]) -> int:
        out = 0
        for a in arrows:
            out |= 1 << table.index(a)
        return out

    def arrows(support: int) -> tuple:
        return tuple(name for i, name in enumerate(table.names) if support >> i & 1)

    # per vertex: (arrow bit, head bit, head position) of its out-arrows
    vpos = {v: i for i, v in enumerate(Q.vertices)}
    out_edges = [[] for _ in Q.vertices]
    for name, (tail, head) in Q.arrows.items():
        out_edges[vpos[tail]].append((bits([name]), 1 << vpos[head], vpos[head]))
    top = vpos[EXTENDED]
    every_vertex = (1 << len(Q.vertices)) - 1

    def is_stable(support: int) -> bool:
        """King stability at the scalar dimension vector: every vertex
        reachable from the extended vertex along nonzero arrows."""
        reached, stack = 1 << top, [top]
        while stack:
            for arrow, head_bit, head in out_edges[stack.pop()]:
                if support & arrow and not reached & head_bit:
                    reached |= head_bit
                    stack.append(head)
        return reached == every_vertex

    return SupportPredicates(bits, arrows, is_stable)
