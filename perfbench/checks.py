"""Checks of the program's answers, made apart from the program.

Nothing here imports `starquiver`.  The determinantal matrix, the cycle map,
the deformed relations and the cover count are transcribed from the paper
(as the workbench README states them), and every Groebner basis is sympy's.
Each check raises `CheckError` on a wrong answer; `selftest.py` shows that
each one rejects a perturbed answer.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

import sympy as sp

Q = 65521
CHART_SAMPLE = 4     # charts per `charts` report whose Jacobian sympy re-checks
IMAGE_POINTS = 3     # seeded points of the cycle map's image per kernel basis


class CheckError(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# fields: "q" is QQ, anything else is F_65521
# ---------------------------------------------------------------------------

def _is_q(field: str) -> bool:
    return field == "q"


def _domain(field: str) -> dict:
    return {"domain": "QQ"} if _is_q(field) else {"modulus": Q}


def to_field(value, field: str):
    """A rational (string, int or Fraction) as an element of the field."""
    v = Fraction(str(value))
    if _is_q(field):
        return v
    return v.numerator * pow(v.denominator, -1, Q) % Q


def _is_zero(value, field: str) -> bool:
    if _is_q(field):
        return value == 0
    v = Fraction(value)
    return v.numerator % Q == 0


def _random_elem(rng: random.Random, field: str):
    if _is_q(field):
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    return rng.randint(1, Q - 1)


def _div(a, b, field: str):
    return a / b if _is_q(field) else a * pow(b, -1, Q) % Q


def _parse(strings, names, field: str) -> list:
    syms = sp.symbols(names)
    loc = dict(zip(names, syms))
    return [sp.Poly(sp.sympify(s.replace("^", "**"), locals=loc), *syms, **_domain(field))
            for s in strings]


def _monic_set(polys) -> set:
    return {p.monic().as_expr() for p in polys if not p.is_zero}


def _reduced_basis(exprs, syms, field: str) -> set:
    G = sp.groebner(exprs, *syms, order="grevlex", **_domain(field))
    return _monic_set(sp.Poly(e, *syms, **_domain(field)) for e in G.exprs)


# ---------------------------------------------------------------------------
# kernel of the cycle map
# ---------------------------------------------------------------------------

def wv_names(p) -> list:
    return ["w1", "w2", "w3"] + [f"v{a}_{j}" for a in (1, 2, 3) for j in range(1, p[a - 1] + 1)]


def _two_by_two_minors(row_a, row_b) -> list:
    return [sp.expand(row_a[i] * row_b[j] - row_b[i] * row_a[j])
            for i in range(3) for j in range(i + 1, 3)]


def determinantal_minors(p, syms: dict) -> list:
    """2x2 minors of (w2, w3, V2; V1, w3 + V3, w1), V_i = v_i1 ... v_ip_i."""
    V = {a: sp.Mul(*[syms[f"v{a}_{j}"] for j in range(1, p[a - 1] + 1)]) for a in (1, 2, 3)}
    w1, w2, w3 = syms["w1"], syms["w2"], syms["w3"]
    return _two_by_two_minors((w2, w3, V[2]), (V[1], w3 + V[3], w1))


def check_kernel_basis(generators, p, field: str) -> None:
    """The reported kernel basis is sympy's reduced grevlex basis of the
    three minors in the same field."""
    names = wv_names(p)
    syms = sp.symbols(names)
    expected = _reduced_basis(determinantal_minors(p, dict(zip(names, syms))), syms, field)
    got = _parse(generators, names, field)
    require(len(got) == len(expected) and _monic_set(got) == expected,
            f"kernel basis {generators} is not the reduced basis of the minors")


def image_point(p, rng: random.Random, field: str) -> dict:
    """A point of the image of the cycle map: arrow values on D1 - D2 + D3 = 0
    pushed through w1 = D1 U2, w2 = D2 U1, w3 = -D2 U3 and v = d u."""
    d = {(a, j): _random_elem(rng, field) for a in (1, 2, 3) for j in range(1, p[a - 1] + 1)}
    u = {(a, j): _random_elem(rng, field) for a in (1, 2, 3) for j in range(1, p[a - 1] + 1)}

    def prod(vals):
        out = 1
        for v in vals:
            out = out * v if _is_q(field) else out * v % Q
        return out

    def D(a):
        return prod(d[a, j] for j in range(1, p[a - 1] + 1))

    def U(a):
        return prod(u[a, j] for j in range(1, p[a - 1] + 1))

    rest = prod(d[1, j] for j in range(2, p[0] + 1))
    d[1, 1] = _div(D(2) - D(3), rest, field)
    require(_is_zero(D(1) - D(2) + D(3), field), "image point off the canonical relation")
    point = {"w1": D(1) * U(2), "w2": D(2) * U(1), "w3": -D(2) * U(3)}
    for (a, j), dv in d.items():
        point[f"v{a}_{j}"] = dv * u[a, j]
    return point


def check_vanish_on_image(generators, p, field: str, rng: random.Random) -> None:
    """Every kernel generator vanishes at seeded points of the image."""
    names = wv_names(p)
    loc = dict(zip(names, sp.symbols(names)))
    exprs = [sp.sympify(s.replace("^", "**"), locals=loc) for s in generators]
    for _ in range(IMAGE_POINTS):
        point = image_point(p, rng, field)
        subs = {loc[k]: sp.Rational(Fraction(v).numerator, Fraction(v).denominator)
                for k, v in point.items()}
        for s, e in zip(generators, exprs):
            require(_is_zero(Fraction(str(e.subs(subs))), field),
                    f"kernel generator {s} does not vanish on the image of the cycle map")


def check_origin_fibre(specialized, p, field: str) -> None:
    """The kernel specialised at v_ij = v generates the ideal of the minors
    of (w2, w3, v^p2; v^p1, w3 + v^p3, w1)."""
    names = ["w1", "w2", "w3", "v"]
    syms = sp.symbols(names)
    w1, w2, w3, v = syms
    targets = _two_by_two_minors((w2, w3, v ** p[1]), (v ** p[0], w3 + v ** p[2], w1))
    got = [g.as_expr() for g in _parse(specialized, names, field)]
    require(_reduced_basis(got, syms, field) == _reduced_basis(targets, syms, field),
            "origin-fibre generators do not generate the one-variable minors")


def check_kernel(report: dict, op: dict, rng: random.Random) -> None:
    p, field = op["p"], op["field"]
    require(report["status"] == "confirmed" and report["equal"] is True
            and report["containment_minors_in_kernel"] is True,
            f"kernel verdict {report['status']!r}, expected confirmed")
    fz = report["fibre_zero"]
    require(fz is not None and fz["status"] == "confirmed" and fz["equal"] is True,
            "origin fibre not confirmed")
    check_kernel_basis(report["kernel_generators"], p, field)
    check_vanish_on_image(report["kernel_generators"], p, field, rng)
    check_origin_fibre(fz["specialized_generators"], p, field)


def check_conjecture(report: dict, op: dict, rng: random.Random) -> None:
    p, field = op["p"], op["field"]
    require(report["status"] == "confirmed" and report["equal"] is True
            and report["minors_in_kernel"] is True
            and report["probabilistic"] is (not _is_q(field)),
            f"conjecture verdict {report['status']!r}, expected confirmed")
    check_kernel_basis(report["kernel_generators"], p, field)
    check_vanish_on_image(report["kernel_generators"], p, field, rng)


# ---------------------------------------------------------------------------
# charts, total space, fibres
# ---------------------------------------------------------------------------

def chart_labels(p) -> set:
    """U^k_{i,j}: arm k scaled, 1 <= i <= p_a and 1 <= j <= p_b on the other arms."""
    out = set()
    for k, (a, b) in ((1, (2, 3)), (2, (1, 3)), (3, (1, 2))):
        for i in range(1, p[a - 1] + 1):
            for j in range(1, p[b - 1] + 1):
                out.add(f"U{k}[{i},{j}]")
    return out


def _check_chart_ids(items, p) -> None:
    n = p[1] * p[2] + p[0] * p[2] + p[0] * p[1]
    ids = [it["id"] for it in items]
    require(len(ids) == n and set(ids) == chart_labels(p),
            f"{len(ids)} charts reported, expected the {n} charts U^k_ij")


def check_fibre_charts(report: dict, p) -> None:
    """Every fibre chart is smooth of dimension 2 and the oracle agrees."""
    require(report["status"] == "ok", f"charts status {report['status']!r}")
    _check_chart_ids(report["items"], p)
    for it in report["items"]:
        cert = it["certificate"]
        require(cert["status"] == "smooth" and cert["one_in_jacobian"] is True
                and cert["dimension"] == 2 and it["oracle_match"] is True,
                f"chart {it['id']} is not smooth of dimension 2 with the oracle agreeing")


def jacobian_generators(relations, names, field: str) -> list:
    """The relations and all maximal minors of their Jacobian matrix."""
    syms = sp.symbols(names)
    rels = [p.as_expr() for p in _parse(relations, names, field)]
    J = sp.Matrix([[sp.diff(f, x) for x in syms] for f in rels])
    r = len(rels)
    minors = [J[:, list(cols)].det() for cols in itertools.combinations(range(len(syms)), r)]
    return rels + [sp.expand(m) for m in minors], syms


def check_one_in_jacobian(item: dict, field: str) -> None:
    gens, syms = jacobian_generators(item["relations"], item["variables"], field)
    G = sp.groebner(gens, *syms, order="grevlex", **_domain(field))
    require(list(G.exprs) == [1], f"sympy: 1 is not in the Jacobian ideal of {item['id']}")


def check_charts(report: dict, op: dict, rng: random.Random) -> None:
    check_fibre_charts(report, op["p"])
    for item in rng.sample(report["items"], CHART_SAMPLE):
        check_one_in_jacobian(item, op["field"])


def check_smooth(report: dict, op: dict, rng: random.Random) -> None:
    """Every total-space chart is smooth of dimension p1 + p2 + p3 + 1."""
    p = op["p"]
    dim = sum(p) + 1
    require(report["status"] == "ok", f"smooth status {report['status']!r}")
    _check_chart_ids(report["items"], p)
    for it in report["items"]:
        cert = it["certificate"]
        require(cert["status"] == "smooth" and cert["one_in_jacobian"] is True
                and cert["dimension"] == dim and it["expected_dimension"] == dim,
                f"total-space chart {it['id']} is not smooth of dimension {dim}")


def arrows(p) -> list:
    return [f"{x}{a}_{j}" for a in (1, 2, 3) for x in "du" for j in range(1, p[a - 1] + 1)]


def relation_residuals(x: dict, gamma: dict, p, field: str) -> dict:
    """The deformed relations at the scalar point x: the arm chains
    u_ik d_ik - d_i,k+1 u_i,k+1 = gamma_ik, the scalar relations (a)-(d) and
    the undeformed canonical relation D1 - D2 + D3 = 0."""
    g = {k: (to_field(v, field) if isinstance(v, str) else [to_field(e, field) for e in v])
         for k, v in gamma.items()}

    def cyc(a, j):
        return x[f"d{a}_{j}"] * x[f"u{a}_{j}"]

    def D(a):
        out = 1
        for j in range(1, p[a - 1] + 1):
            out = out * x[f"d{a}_{j}"]
        return out

    out = {}
    for a in (1, 2, 3):
        for k in range(1, p[a - 1]):
            out[f"({a}).{k}"] = cyc(a, k) - cyc(a, k + 1) - g[f"gamma{a}"][k - 1]
    p1, p2, p3 = p
    out["(a)"] = cyc(2, 1) - cyc(1, 1) - g["a"]
    out["(b)"] = cyc(2, 1) - cyc(3, 1) - g["b"]
    out["(c)"] = cyc(1, p1) - cyc(2, p2) - g["A"]
    out["(d)"] = cyc(3, p3) - cyc(2, p2) - g["B"]
    out["(x)"] = D(1) - D(2) + D(3)
    return out


def check_witness(item: dict, gamma: dict, p, field: str) -> None:
    """The reported witness point satisfies the deformed relations."""
    require(item["in_delta"] is True and item.get("witness_satisfies_relations") is True,
            "fibre over a gamma in Delta not reported nonempty")
    point = item["witness_point"]
    require(sorted(point) == sorted(arrows(p)), "witness point does not bind every arrow")
    x = {k: to_field(v, field) for k, v in point.items()}
    for label, r in relation_residuals(x, gamma, p, field).items():
        require(_is_zero(r, field), f"witness point violates relation {label}")


def is_known_fault(report: dict | None, code: int, op: dict) -> bool:
    """The prime-field `fibre` fault: an in-Delta gamma judged outside Delta,
    because the Delta forms sum F_p residues without reducing them."""
    return (op["known_fault"] and code == 1 and report is not None
            and report["item"]["in_delta"] is False and report["status"] == "fail")


def check_fibre(report: dict, op: dict, rng: random.Random) -> None:
    require(report["status"] == "ok", f"fibre status {report['status']!r}")
    check_witness(report["item"], op["gamma"], op["p"], op["field"])


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------

def cover_counts(p) -> tuple[int, int]:
    """(stable, stable and relation-compatible) supports, counted per arm.

    The bottom vertex is reached only if some arm's down path is all
    nonzero.  Given that, station k of an arm is reached by a d-prefix
    d_1..d_k or by a u-suffix u_k+1..u_p from the bottom.  An arm whose
    down path is full has every station reached and free u's: 2^p local
    supports.  Otherwise its longest d-prefix has length t < p; d_t+1 = 0,
    d_t+2..d_p are free, u_t+2..u_p must be nonzero and u_1..u_t+1 are free:
    2^p local supports for each t.  Relation compatibility asks for two or
    three full arms (no full arm leaves the bottom unreached).
    """
    full = [2 ** pi for pi in p]
    partial = [sum(2 ** (pi - t - 1) * 2 ** (t + 1) for t in range(pi)) for pi in p]
    stable = checked = 0
    for pattern in itertools.product((True, False), repeat=3):
        n_full = sum(pattern)
        if not n_full:
            continue
        count = 1
        for arm, is_full in enumerate(pattern):
            count *= full[arm] if is_full else partial[arm]
        stable += count
        if n_full >= 2:
            checked += count
    return stable, checked


def check_cover(report: dict, op: dict, rng: random.Random) -> None:
    p = op["p"]
    stable, checked = cover_counts(p)
    require(report["status"] == "ok", f"cover status {report['status']!r}")
    require(report["total_supports"] == 2 ** (2 * sum(p)), "wrong number of supports")
    require(report["covered_supports"] == report["checked_supports"]
            and report["counterexamples"] == [], "uncovered stable supports reported")
    require(report["stable_supports"] == stable and report["checked_supports"] == checked,
            f"stable/checked {report['stable_supports']}/{report['checked_supports']}, "
            f"per-arm count gives {stable}/{checked}")


CHECKS = {
    "kernel": check_kernel,
    "conjecture": check_conjecture,
    "charts": check_charts,
    "smooth": check_smooth,
    "fibre": check_fibre,
    "cover": check_cover,
}


def verify(seed: int, ops: list, result: dict, report_dir: str) -> tuple[int, list]:
    """Check one run: returns (failed operations per pass, problems).

    Every pass must give the same exit codes and reports, so the reports of
    the last pass stand for all of them.
    """
    problems = []
    codes = result["codes"]
    if not result["consistent"] or any(c != codes[0] for c in codes):
        problems.append("passes disagree on exit codes or reports")
    failed = 0
    for op, code in zip(ops, codes[-1]):
        path = os.path.join(report_dir, op["name"] + ".json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        except FileNotFoundError:
            report = None
        if is_known_fault(report, code, op):
            failed += 1
            continue
        try:
            require(code == 0 and report is not None, f"exit code {code}")
            CHECKS[op["kind"]](report, op, random.Random(f"perfbench-check:{seed}:{op['name']}"))
        except CheckError as exc:
            problems.append(f"{op['name']}: {exc}")
    return failed, problems
