"""Command-line entry point: batch verifications with JSON reports.

Every subcommand declares only the flags it applies, prints a human
summary, optionally writes a JSON report whose `config` echoes exactly those
flags, and exits 0 on full success, 1 on a genuine mathematical counterexample,
2 when a budget made the run inconclusive, and 3 on usage errors.  Reports
are deterministic for a fixed configuration, up to the *_ms timing fields.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import time

from .charts import (
    chart_by_substitution,
    chart_dimension_check,
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
from .groebner import (
    DEFAULT_BUDGET,
    CheckFailed,
    GroebnerBudget,
    Inconclusive,
    Ideal,
    krull_dimension,
    read_ideal_text,
    write_ideal_text,
)
from .invariants import (
    WVPoint,
    cycles_invariant,
    determinantal_minors,
    fibre_zero_presentation,
    phi_map,
    pi_delta_forms_symbolic,
    pi_map,
    verify_conjecture,
    verify_minors_vanish,
)
from .poly import QQ, parse_field
from .quiver import ArmParams, all_chart_ids, build_star_quiver
from .reconstruction import (
    deformed_relations,
    delta_forms,
    fibre_is_empty,
    parse_gamma_spec,
    read_json,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


def _budget(args) -> GroebnerBudget:
    return GroebnerBudget(
        max_spairs=args.spair_cap,
        max_degree=args.deg_cap,
        time_cap=args.time_cap,
    )


def _config_echo(args) -> dict:
    """Exactly the flags the subcommand declares, with the caps as budgets."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("command", "json", "output")}
    if "spair_cap" in cfg:
        cfg["budgets"] = {k: cfg.pop(k) for k in ("spair_cap", "deg_cap", "time_cap")}
    return cfg


def _report(args, t0: float, status: str, **body) -> None:
    """Wrap a subcommand's report body in the common envelope and write it
    to --json if given."""
    report = dict(body, command=args.command, config=_config_echo(args), status=status,
                  elapsed_ms=int((time.monotonic() - t0) * 1000))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _status_exit(items_ok: bool, inconclusive: bool) -> tuple[str, int]:
    if not items_ok:
        return "fail", EXIT_FAIL
    if inconclusive:
        return "inconclusive", EXIT_INCONCLUSIVE
    return "ok", EXIT_OK


# ---------------------------------------------------------------------------
# chart pipelines
# ---------------------------------------------------------------------------

def _chart_item(c, chart: Ideal, cert, witness: bool) -> dict:
    """One chart and its smoothness certificate, as reported by charts/smooth."""
    certificate = {
        "one_in_jacobian": cert.one_in_jacobian,
        "dimension": cert.dimension,
        "status": cert.status,
    }
    if witness:
        certificate["witness"] = None if cert.witness is None else list(cert.witness)
    return {
        "id": c.label(),
        "variables": list(chart.table.names),
        "relations": chart.gens_text(),
        "certificate": certificate,
    }


def _charts_status(items) -> tuple[str, int]:
    """Fail on a singular chart or a disagreeing oracle; inconclusive when a
    certificate or an oracle ran out of budget.  Items without an oracle
    (total-space charts) are judged by their certificate alone."""
    verdicts = [(it["certificate"]["status"], it.get("oracle_match", True)) for it in items]
    failed = any(cert == "singular" or oracle is False for cert, oracle in verdicts)
    inconc = any(cert == "inconclusive" or oracle is None for cert, oracle in verdicts)
    return _status_exit(not failed, inconc)


def cmd_charts(args) -> int:
    p = ArmParams.parse(args.p)
    field = parse_field(args.field)
    t0 = time.monotonic()
    gamma, budget = parse_gamma_spec(args.gamma, p, field), _budget(args)
    Q = build_star_quiver(p, field)
    oracle = substitution_oracle(Q, gamma, deformed_relations(Q, gamma))
    items = []
    for c in all_chart_ids(p):
        chart = fibre_chart(gamma, c, budget)
        item = _chart_item(c, chart, smoothness_certificate(chart, expected_dim=2), witness=True)
        try:
            item["oracle_match"] = oracle_match(chart, chart_by_substitution(oracle, c, budget))
        except Inconclusive:
            item["oracle_match"] = None
        items.append(item)
    status, code = _charts_status(items)
    _report(args, t0, status, items=items)
    smooth = sum(1 for it in items if it["certificate"]["status"] == "smooth")
    print(f"charts: p={p.label()} gamma={args.gamma}: {smooth}/{len(items)} "
          f"fibre charts smooth of dimension 2, oracle "
          f"{'agrees' if status == 'ok' else 'DISAGREES or inconclusive'} -> {status}")
    return code


def cmd_smooth(args) -> int:
    p = ArmParams.parse(args.p)
    field = parse_field(args.field)
    t0 = time.monotonic()
    expected = p.p1 + p.p2 + p.p3 + 1
    items = []
    for c in all_chart_ids(p):
        chart = total_space_chart(p, c, field)
        cert = smoothness_certificate(chart, expected_dim=expected)
        items.append(dict(_chart_item(c, chart, cert, witness=False), expected_dimension=expected))
    status, code = _charts_status(items)
    _report(args, t0, status, items=items)
    print(f"smooth: p={p.label()}: {sum(it['certificate']['status'] == 'smooth' for it in items)}"
          f"/{len(items)} total-space charts smooth of dimension {expected} -> {status}")
    return code


def cmd_cover(args) -> int:
    p = ArmParams.parse(args.p)
    t0 = time.monotonic()
    rep = verify_cover(p)
    status, code = _status_exit(rep.ok, False)
    _report(args, t0, status,
            quiver=build_star_quiver(p).summary(),
            total_supports=rep.total_supports,
            stable_supports=rep.stable_supports,
            checked_supports=rep.checked_supports,
            covered_supports=rep.covered_supports,
            counterexamples=[list(c) for c in rep.counterexamples])
    print(f"cover: p={p.label()}: {rep.total_supports} supports scanned, "
          f"{rep.checked_supports} stable+compatible, "
          f"{len(rep.counterexamples)} counterexamples -> {status}")
    return code


def cmd_fibre(args) -> int:
    p = ArmParams.parse(args.p)
    field = parse_field(args.field)
    t0 = time.monotonic()
    gamma = parse_gamma_spec(args.gamma, p, field)
    inside = gamma.inside_delta
    item: dict = {
        "gamma": gamma.to_json(),
        "in_delta": inside,
        "delta_forms": [str(f) for f in delta_forms(gamma)],
    }
    Q = build_star_quiver(p, field)
    relations = deformed_relations(Q, gamma)
    if inside:
        # the witness reads the same quiver and relations: one build per run
        point = fibre_witness_point(substitution_oracle(Q, gamma, relations))
        ok = all(r.evaluate(point) == field.zero for r in relations.values())
        item["witness_point"] = {a: str(v) for a, v in sorted(point.items())}
        item["witness_satisfies_relations"] = ok
        kind = "nonempty (witness point found)"
    else:
        # a telescoped relation sum is a nonzero constant in the relation ideal
        ok = item["one_in_rep_ideal"] = fibre_is_empty(relations, gamma)
        kind = "empty (1 in relation ideal)"
    status, code = _status_exit(ok, False)
    _report(args, t0, status, item=item)
    print(f"fibre: p={p.label()} gamma={args.gamma}: in_delta={inside}, "
          f"fibre {kind if ok else 'CHECK FAILED'} -> {status}")
    return code


def cmd_pi(args) -> int:
    p = ArmParams.parse(args.p)
    t0 = time.monotonic()
    f1, f2 = pi_delta_forms_symbolic(p)
    symbolic_ok = f1.is_zero() and f2.is_zero()
    item = {"symbolic_forms_vanish": symbolic_ok}
    ok = symbolic_ok
    if args.point:
        data = read_json(args.point)
        if not (isinstance(data, dict) and isinstance(data.get("betas"), list)
                and isinstance(data.get("alphas"), list)
                and all(isinstance(arm, list) for arm in data["alphas"])):
            raise ValueError("point JSON must be an object with a list of betas "
                             "and a list of alphas per arm")
        pt = WVPoint(
            betas=tuple(QQ.coerce(str(v)) for v in data["betas"]),
            alphas=tuple(tuple(QQ.coerce(str(v)) for v in arm) for arm in data["alphas"]),
        )
        gamma = pi_map(pt, p)
        item["gamma"] = gamma.to_json()
        item["in_delta"] = gamma.inside_delta
        ok = ok and item["in_delta"]
    status, code = _status_exit(ok, False)
    _report(args, t0, status, item=item)
    print(f"pi: p={p.label()}: symbolic subspace membership "
          f"{'holds' if symbolic_ok else 'FAILS'} -> {status}")
    return code


def cmd_minors(args) -> int:
    p = ArmParams.parse(args.p)
    t0 = time.monotonic()
    ok = verify_minors_vanish(p)
    status, code = _status_exit(ok, False)
    _report(args, t0, status,
            minors=[m.to_str() for m in determinantal_minors(p, QQ)],
            all_vanish_under_phi=ok)
    print(f"minors: p={p.label()}: all three 2x2 minors vanish under phi "
          f"modulo the canonical relation: {ok} -> {status}")
    return code


def _verify_conjecture(args):
    return verify_conjecture(ArmParams.parse(args.p), parse_field(args.field), _budget(args))


def _conjecture_body(args, rep) -> dict:
    """The report fields that kernel and conjecture share."""
    return {
        "p": args.p,
        "field": rep.field_name,
        "equal": rep.equal,
        "kernel_generators": [g.to_str() for g in rep.kernel_generators],
        "minors": [m.to_str() for m in rep.minors],
    }


def _conjecture_exit(rep) -> tuple[str, int]:
    """The run's status and exit code, from the conjecture's verdict (the
    origin fibre of `kernel` follows it); the report keeps the verdict."""
    return _status_exit(rep.status != "refuted", rep.status == "inconclusive")


def cmd_kernel(args) -> int:
    t0 = time.monotonic()
    rep = _verify_conjecture(args)
    fz = fibre_zero_presentation(rep.p, parse_field(args.field), conjecture=rep)
    status, code = _conjecture_exit(rep)
    _report(args, t0, rep.status, **_conjecture_body(args, rep),
            containment_minors_in_kernel=rep.minors_in_kernel,
            fibre_zero=None if fz.equal is None else {
                "equal": fz.equal,
                "status": fz.status,
                "specialized_generators": list(fz.specialized_generators),
                "target_minors": list(fz.target_minors),
            })
    print(f"kernel: p={rep.p.label()} field={rep.field_name}: "
          f"{len(rep.kernel_generators)} kernel generators, equal to minors: {rep.equal}, "
          f"origin fibre: {fz.status} -> {status}")
    return code


def cmd_conjecture(args) -> int:
    t0 = time.monotonic()
    rep = _verify_conjecture(args)
    _, code = _conjecture_exit(rep)
    _report(args, t0, rep.status, **_conjecture_body(args, rep),
            minors_in_kernel=rep.minors_in_kernel, probabilistic=rep.probabilistic)
    suffix = " (probabilistic)" if rep.probabilistic and rep.status == "confirmed" else ""
    print(f"conjecture: p={rep.p.label()} field={rep.field_name}: {rep.status}{suffix}")
    return code


def cmd_gb(args) -> int:
    field = parse_field(args.field)
    t0 = time.monotonic()
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    ideal = read_ideal_text(text, field=field, budget=_budget(args))
    try:
        basis = ideal.groebner_basis()
        dim = krull_dimension(ideal)
    except Inconclusive as exc:
        _report(args, t0, "inconclusive", reason=str(exc))
        print(f"gb: inconclusive ({exc})")
        return EXIT_INCONCLUSIVE
    _report(args, t0, "ok",
            vars=list(ideal.table.names),
            order=ideal.order.spec(),
            reduced_basis=[g.to_str(ideal.order) for g in basis],
            dimension=dim.dimension,
            witness=list(dim.witness),
            is_unit_ideal=ideal.contains_one())
    print(f"gb: {len(ideal.gens)} generators -> reduced basis of "
          f"{len(basis)} elements, dimension {dim.dimension}")
    for g in basis:
        print("  " + g.to_str(ideal.order))
    if args.output:
        out = Ideal(ideal.table, basis, order=ideal.order, field=field)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(write_ideal_text(out))
    return EXIT_OK


def cmd_props(args) -> int:
    t0 = time.monotonic()
    p = ArmParams.parse(args.p)
    suites = {}

    # a fibre chart at p reads cycle products of up to max(p) - 1 factors;
    # every p checks products of up to four factors at least
    degree = max(4, max(p) - 1)
    suites["euler_identity"] = {"ok": euler_identity_check(degree), "degree": degree}
    suites["quotient_nonzero"] = {"ok": quotient_nonzero_check(degree), "degree": degree}
    suites["chart_dimension"] = {"ok": chart_dimension_check(degree), "degree": degree}

    Q = build_star_quiver(p)
    suites["cycles_invariant"] = {"ok": cycles_invariant(Q), "checked": len(phi_map(Q))}

    f1, f2 = pi_delta_forms_symbolic(p)
    suites["pi_symbolic"] = {"ok": f1.is_zero() and f2.is_zero()}

    ok = all(s["ok"] for s in suites.values())
    status, code = _status_exit(ok, False)
    _report(args, t0, status, suites=suites)
    print("props: " + ", ".join(f"{k}={'ok' if v['ok'] else 'FAIL'}"
                                for k, v in suites.items()) + f" -> {status}")
    return code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _nonnegative(parse, kind: str):
    """An argparse type: the text parsed by `parse`, finite and at least 0
    (a negative cap makes every run inconclusive, and NaN and infinity are
    not JSON)."""
    def check(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not 0 <= value < float("inf"):
            raise argparse.ArgumentTypeError(f"expected {kind} at least 0, got {text!r}")
        return value
    return check


_count = _nonnegative(int, "an integer")
_seconds = _nonnegative(float, "a finite number")


# every flag a subcommand may declare: name -> add_argument keywords
_FLAGS = {
    "p": dict(default="2,2,2", help="arm parameters a,b,c (each >= 2)"),
    "field": dict(default="q", help="q (rationals) or fp:Q"),
    "spair-cap": dict(type=_count, default=DEFAULT_BUDGET.max_spairs),
    "deg-cap": dict(type=_count, default=DEFAULT_BUDGET.max_degree),
    "time-cap": dict(type=_seconds, default=DEFAULT_BUDGET.time_cap, help="seconds"),
    "gamma": dict(default="zero", help="zero | file:PATH | random:SEED"),
    "point": dict(default=None, help="JSON file with betas/alphas to push through the map"),
    "input": dict(required=True, help="ideal text file"),
    "output": dict(default=None, help="write the basis as an ideal file"),
}
_CAPS = ("spair-cap", "deg-cap", "time-cap")

# subcommand -> (help, the flags it applies besides --json)
_SUBCOMMANDS = {
    "charts": ("fibre-chart smoothness + oracle equality",
               ("p", "field", *_CAPS, "gamma")),
    "smooth": ("total-space chart smoothness", ("p", "field")),
    "cover": ("chart cover of every stable support, counted by class per arm", ("p",)),
    "fibre": ("empty/nonempty fibre verification", ("p", "field", "gamma")),
    "pi": ("deformation-map checks", ("p", "point")),
    "minors": ("minors vanish under the cycle map", ("p",)),
    "kernel": ("kernel of the cycle map by Hilbert series, with its origin fibre",
               ("p", "field", *_CAPS)),
    "conjecture": ("kernel equals the minors ideal", ("p", "field", *_CAPS)),
    "gb": ("reduced basis of an ideal file", ("field", *_CAPS, "input", "output")),
    "props": ("property suites (identities, invariance)", ("p",)),
}


# built on the first run, not at import, and reused by every later run in the
# process: parse_args keeps no state between calls
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="workbench",
        description="Exact verification suite for star-quiver moduli charts "
                    "and determinantal presentations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.add_argument("--json", default=None, help="write the JSON report here")
    return ap


_COMMANDS = {
    "charts": cmd_charts,
    "smooth": cmd_smooth,
    "cover": cmd_cover,
    "fibre": cmd_fibre,
    "pi": cmd_pi,
    "minors": cmd_minors,
    "kernel": cmd_kernel,
    "conjecture": cmd_conjecture,
    "gb": cmd_gb,
    "props": cmd_props,
}


def run_command(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (ValueError, KeyError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    finally:
        # the JSON encoder's closures are reference cycles left by every run
        # (the parser is built once per process and is not); uncollected,
        # they pin allocator arenas until some later full collection
        gc.collect()


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
