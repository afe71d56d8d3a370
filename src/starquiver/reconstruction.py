"""Deformed relation systems of the star quiver and the parameter space.

A deformation parameter packs three vectors (one per arm, length p_i - 1)
and four scalars a, b, A, B, accessed by name throughout, and the field they
lie in; functions read its field and arm lengths off it.  The parameter
space of interest is the affine subspace cut out by two linear trace-type
conditions; off it the scalar representation variety is empty, which two
telescoped sums of the deformed relations certify: each is a nonzero
constant in the representation ideal.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .groebner import CheckFailed
from .poly import Poly, PrimeField, QQ
from .quiver import ArmParams, StarQuiver, d_arrow, u_arrow


@dataclass(frozen=True)
class DeformParams:
    """gamma = (gamma1, gamma2, gamma3, a, b, A, B), all exact elements of
    `field`; the arm lengths are p_i = len(gamma_i) + 1."""

    gamma1: tuple
    gamma2: tuple
    gamma3: tuple
    a: object
    b: object
    A: object
    B: object
    field: object

    def gamma(self, arm: int) -> tuple:
        return (self.gamma1, self.gamma2, self.gamma3)[arm - 1]

    @cached_property
    def inside_delta(self) -> bool:
        """`in_delta` of this gamma, decided on first read and then kept."""
        return in_delta(self)

    @property
    def p(self) -> ArmParams:
        return ArmParams(len(self.gamma1) + 1, len(self.gamma2) + 1, len(self.gamma3) + 1)

    def to_json(self) -> dict:
        return {
            "gamma1": [str(v) for v in self.gamma1],
            "gamma2": [str(v) for v in self.gamma2],
            "gamma3": [str(v) for v in self.gamma3],
            "a": str(self.a),
            "b": str(self.b),
            "A": str(self.A),
            "B": str(self.B),
        }


def zero_gamma(p: ArmParams, field=QQ) -> DeformParams:
    z = field.zero
    return DeformParams(
        gamma1=(z,) * (p.p1 - 1),
        gamma2=(z,) * (p.p2 - 1),
        gamma3=(z,) * (p.p3 - 1),
        a=z, b=z, A=z, B=z, field=field,
    )


def make_gamma(p: ArmParams, gamma1, gamma2, gamma3, a, b, A, B, field=QQ) -> DeformParams:
    g = DeformParams(
        gamma1=tuple(field.coerce(v) for v in gamma1),
        gamma2=tuple(field.coerce(v) for v in gamma2),
        gamma3=tuple(field.coerce(v) for v in gamma3),
        a=field.coerce(a), b=field.coerce(b),
        A=field.coerce(A), B=field.coerce(B), field=field,
    )
    if any(len(g.gamma(arm)) != p[arm] - 1 for arm in (1, 2, 3)):
        raise ValueError("gamma component lengths do not match arm parameters")
    return g


# ---------------------------------------------------------------------------
# the parameter subspace
# ---------------------------------------------------------------------------

def delta_forms(gamma: DeformParams) -> tuple:
    """The two defining linear forms, evaluated exactly in gamma's field."""
    field = gamma.field
    neg = field.neg
    return (
        field.sum((*gamma.gamma1, *map(neg, gamma.gamma2), gamma.A, gamma.a)),
        field.sum((*gamma.gamma3, *map(neg, gamma.gamma2), gamma.B, gamma.b)),
    )


def in_delta(gamma: DeformParams) -> bool:
    """Membership in the parameter subspace; when true the derived third
    identity (difference of the two forms) is checked as a consequence."""
    field = gamma.field
    f1, f2 = delta_forms(gamma)
    ok = f1 == field.zero and f2 == field.zero
    if ok:
        neg = field.neg
        third = field.sum((*gamma.gamma1, *map(neg, gamma.gamma3), gamma.A, neg(gamma.B),
                           gamma.a, neg(gamma.b)))
        if third != field.zero:
            raise CheckFailed("derived identity violated; Delta forms inconsistent")
    return ok


# ---------------------------------------------------------------------------
# relation systems
# ---------------------------------------------------------------------------

def canonical_relation(Q: StarQuiver) -> Poly:
    """D1 - D2 + D3 on the full downward paths."""
    return Q.D(1) - Q.D(2) + Q.D(3)


def deformed_relations(Q: StarQuiver, gamma: DeformParams) -> dict[str, Poly]:
    """The deformed relation system at the scalar dimension vector, by
    label: the three arm chains, (a)-(d), and the canonical (x).

    Arm chains: u<i>_k d<i>_k - d<i>_{k+1} u<i>_{k+1} = gamma_{ik}; the four
    scalar relations tie the arm tops and bottoms together; the canonical
    relation stays undeformed.  The one check of a gamma against a quiver:
    its arm lengths and field must be the quiver's.
    """
    if (gamma.p, gamma.field) != (Q.p, Q.field):
        raise ValueError(f"gamma for arms {gamma.p.label()} over {gamma.field!r} on a quiver "
                         f"with arms {Q.p.label()} over {Q.field!r}")
    av = Q.arrow_poly
    rels = {}
    for arm in (1, 2, 3):
        g = gamma.gamma(arm)
        for k in range(1, Q.p[arm]):
            rels[f"({arm}).{k}"] = (av(u_arrow(arm, k)) * av(d_arrow(arm, k))
                                    - av(d_arrow(arm, k + 1)) * av(u_arrow(arm, k + 1))
                                    - g[k - 1])
    rels["(a)"] = (av(d_arrow(2, 1)) * av(u_arrow(2, 1))
                   - av(d_arrow(1, 1)) * av(u_arrow(1, 1)) - gamma.a)
    rels["(b)"] = (av(d_arrow(2, 1)) * av(u_arrow(2, 1))
                   - av(d_arrow(3, 1)) * av(u_arrow(3, 1)) - gamma.b)
    rels["(c)"] = (av(u_arrow(1, Q.p.p1)) * av(d_arrow(1, Q.p.p1))
                   - av(u_arrow(2, Q.p.p2)) * av(d_arrow(2, Q.p.p2)) - gamma.A)
    rels["(d)"] = (av(u_arrow(3, Q.p.p3)) * av(d_arrow(3, Q.p.p3))
                   - av(u_arrow(2, Q.p.p2)) * av(d_arrow(2, Q.p.p2)) - gamma.B)
    rels["(x)"] = canonical_relation(Q)
    return rels


def fibre_is_empty(relations: dict[str, Poly], gamma: DeformParams) -> bool:
    """Whether the fibre at gamma is empty, certified by two telescoped sums
    of its deformed relations: arm 1's chain relations minus arm 2's plus
    (a) and (c), and arm 3's minus arm 2's plus (b) and (d).  Every cycle
    monomial cancels and each sum is minus the matching `delta_forms`
    entry, so the fibre is empty exactly when some sum is a nonzero
    constant.  Raises CheckFailed when a sum is anything else."""
    chain = {arm: [relations[f"({arm}).{k}"] for k in range(1, gamma.p[arm])]
             for arm in (1, 2, 3)}
    middle = [-r for r in chain[2]]
    sums = (sum(chain[1] + middle + [relations["(a)"], relations["(c)"]]),
            sum(chain[3] + middle + [relations["(b)"], relations["(d)"]]))
    for s, form in zip(sums, delta_forms(gamma)):
        if not (s + form).is_zero():
            raise CheckFailed(f"telescoped relation sum {s.to_str()} is not minus "
                              f"the Delta form {form}")
    return any(not s.is_zero() for s in sums)


# ---------------------------------------------------------------------------
# gamma input: JSON, zero, seeded random
# ---------------------------------------------------------------------------

def _random_fraction(rng: random.Random, q: int) -> Fraction:
    """n/d with |n| <= 10 and 1 <= d <= 10, d redrawn while the
    characteristic q divides it (never for q = 0 or q > 10)."""
    num, den = rng.randint(-10, 10), rng.randint(1, 10)
    while q and den % q == 0:
        den = rng.randint(1, 10)
    return Fraction(num, den)


def random_gamma(p: ArmParams, seed: int, field=QQ, inside_delta: bool = True) -> DeformParams:
    """Seeded random parameter of height at most 10, with every drawn
    denominator prime to the field's characteristic.

    Inside the subspace: all coordinates free except a and b, which are
    solved from the two defining equations.  Outside: fully free, resampled
    on the rare draw that lands inside.
    """
    rng = random.Random(f"gamma:{seed}:{p.label()}:10:{inside_delta}")
    q = field.q if isinstance(field, PrimeField) else 0
    while True:
        g1 = tuple(_random_fraction(rng, q) for _ in range(p.p1 - 1))
        g2 = tuple(_random_fraction(rng, q) for _ in range(p.p2 - 1))
        g3 = tuple(_random_fraction(rng, q) for _ in range(p.p3 - 1))
        A = _random_fraction(rng, q)
        B = _random_fraction(rng, q)
        if inside_delta:
            a = sum(g2, Fraction(0)) - sum(g1, Fraction(0)) - A
            b = sum(g2, Fraction(0)) - sum(g3, Fraction(0)) - B
        else:
            a = _random_fraction(rng, q)
            b = _random_fraction(rng, q)
        gamma = make_gamma(p, g1, g2, g3, a, b, A, B, field=field)
        if gamma.inside_delta == inside_delta:
            return gamma


def gamma_from_json(obj, p: ArmParams, field=QQ) -> DeformParams:
    """Decode a gamma JSON object: list-valued gamma1..gamma3 and scalars
    a, b, A, B, each rational an 'n/d' string or an int."""
    keys = ("gamma1", "gamma2", "gamma3", "a", "b", "A", "B")
    if not isinstance(obj, dict):
        raise ValueError("gamma JSON must be an object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"gamma JSON missing keys {missing}")
    for k in keys[:3]:
        if not isinstance(obj[k], list):
            raise ValueError(f"gamma JSON {k} must be a list")
    vectors = ([str(v) for v in obj[k]] for k in keys[:3])
    return make_gamma(p, *vectors, *(str(obj[k]) for k in keys[3:]), field=field)


def read_json(path: str):
    """Decode a JSON input file; nesting too deep to decode is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def parse_gamma_spec(spec: str, p: ArmParams, field=QQ) -> DeformParams:
    """CLI gamma source: zero | file:PATH | random:SEED."""
    if spec == "zero":
        return zero_gamma(p, field)
    if spec.startswith("file:"):
        return gamma_from_json(read_json(spec[len("file:"):]), p, field)
    if spec.startswith("random:"):
        return random_gamma(p, int(spec[len("random:"):]), field=field)
    raise ValueError(f"unknown gamma source {spec!r} (zero|file:PATH|random:SEED)")
