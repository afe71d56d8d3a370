"""CLI: subcommands, exit codes, report determinism."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import starquiver.cli as cli
from starquiver import charts, groebner, invariants
from starquiver.cli import _build_parser, run_command
from starquiver.groebner import CheckFailed, GroebnerBudget
from starquiver.poly import Poly
from starquiver.quiver import build_star_quiver

import golden
from test_charts import flipped_quotient_b_sign, quotient_b_read_at_xb, shifted_quotient_constant

FIELDS = ["q", "fp:65521", "fp:11"]


def _run(tmp_path, *argv, json_name="report.json"):
    path = tmp_path / json_name
    code = run_command(list(argv) + ["--json", str(path)])
    report = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
    return code, report


def test_charts_zero_gamma(tmp_path, capsys):
    code, report = _run(tmp_path, "charts", "--p", "2,2,2", "--gamma", "zero")
    assert code == 0
    assert report["status"] == "ok"
    assert len(report["items"]) == 12
    for item in report["items"]:
        assert item["certificate"]["status"] == "smooth"
        assert item["certificate"]["dimension"] == 2
        assert item["oracle_match"] is True
    assert "12/12" in capsys.readouterr().out


def test_charts_random_gamma_seeded_deterministic(tmp_path):
    code1, rep1 = _run(tmp_path, "charts", "--p", "2,2,2", "--gamma", "random:7",
                       json_name="a.json")
    code2, rep2 = _run(tmp_path, "charts", "--p", "2,2,2", "--gamma", "random:7",
                       json_name="b.json")
    assert code1 == code2 == 0
    rep1.pop("elapsed_ms")
    rep2.pop("elapsed_ms")
    assert rep1 == rep2


def test_smooth_total_space(tmp_path):
    code, report = _run(tmp_path, "smooth", "--p", "2,2,2")
    assert code == 0
    assert all(item["certificate"]["dimension"] == 7 for item in report["items"])


def test_cover_report(tmp_path):
    code, report = _run(tmp_path, "cover", "--p", "2,2,2")
    assert code == 0
    assert report["total_supports"] == 4096
    assert report["counterexamples"] == []
    assert report["quiver"]["D"]["1"] == "d1_1*d1_2"


def test_cover_decides_thirty_arrows(tmp_path):
    # 5,5,5 has 30 arrows, 2^30 supports, counted by class without enumeration
    code, report = _run(tmp_path, "cover", "--p", "5,5,5")
    assert code == 0 and report["status"] == "ok"
    assert (report["total_supports"], report["stable_supports"], report["checked_supports"],
            report["covered_supports"]) == (2 ** 30, 2981888, 524288, 524288)


def test_fibre_outside_delta(tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(
        '{"gamma1": ["1"], "gamma2": ["0"], "gamma3": ["0"],'
        ' "a": "0", "b": "0", "A": "0", "B": "0"}',
        encoding="utf-8",
    )
    code, report = _run(tmp_path, "fibre", "--p", "2,2,2",
                        "--gamma", f"file:{gamma}")
    assert code == 0
    assert report["item"]["in_delta"] is False
    assert report["item"]["one_in_rep_ideal"] is True


def _write_gamma(tmp_path, gamma1, a):
    arms = len(gamma1)
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({
        "gamma1": gamma1, "gamma2": ["0"] * arms, "gamma3": ["0"] * arms,
        "a": a, "b": "0", "A": "0", "B": "0"}), encoding="utf-8")
    return f"file:{path}"


@pytest.mark.parametrize("field", FIELDS)
def test_fibre_in_every_field(tmp_path, field):
    # gamma1 = [1], a = -1 lies in Delta; its first form sums to 0 only
    # when prime-field sums are reduced
    code, report = _run(tmp_path, "fibre", "--p", "2,2,2", "--field", field,
                        "--gamma", _write_gamma(tmp_path, ["1"], "-1"))
    assert code == 0
    assert report["item"]["in_delta"] is True
    assert report["item"]["delta_forms"] == ["0", "0"]
    assert report["item"]["witness_satisfies_relations"] is True
    code, report = _run(tmp_path, "fibre", "--p", "2,2,2", "--field", field,
                        "--gamma", _write_gamma(tmp_path, ["1"], "0"))
    assert code == 0
    assert report["item"]["one_in_rep_ideal"] is True
    code, report = _run(tmp_path, "fibre", "--p", "3,2,2", "--field", field,
                        "--gamma", "random:2")
    assert code == 0
    assert report["item"]["in_delta"] is True


@pytest.mark.parametrize("seed", range(1, 6))
def test_random_gamma_over_a_small_prime(tmp_path, seed):
    # random denominators are drawn prime to the characteristic
    code, report = _run(tmp_path, "fibre", "--p", "3,3,3", "--field", "fp:7",
                        "--gamma", f"random:{seed}")
    assert code == 0
    assert report["item"]["in_delta"] is True


def test_fibre_builds_no_basis(tmp_path, monkeypatch):
    # both verdicts are certificates checked on the relations: a witness
    # point inside Delta, a telescoped relation sum outside
    def no_basis(ideal):
        raise AssertionError("fibre computed a Groebner basis")

    monkeypatch.setattr("starquiver.groebner.Ideal._ensure_basis", no_basis)
    for a, key in (("-1", "witness_satisfies_relations"), ("0", "one_in_rep_ideal")):
        for p, arm in (("2,2,2", 2), ("8,8,8", 8)):
            gamma = _write_gamma(tmp_path, ["1"] + ["0"] * (arm - 2), a)
            code, report = _run(tmp_path, "fibre", "--p", p, "--gamma", gamma)
            assert code == 0 and report["item"][key] is True, (a, p)


@pytest.mark.parametrize("a, label, extra", [
    ("0", "(2).1", "u2_1"),  # outside Delta: a telescoped sum keeps u2_1
    ("0", "(c)", 2),         # outside Delta: the sum's constant is off by 2
    ("-1", "(x)", 1),        # inside Delta: the witness point misses (x)
])
def test_fibre_fails_on_a_perturbed_relation_system(tmp_path, capsys, monkeypatch,
                                                    a, label, extra):
    build = cli.deformed_relations

    def perturbed(Q, gamma):
        rels = build(Q, gamma)
        rels[label] = rels[label] + (Q.arrow_poly(extra) if isinstance(extra, str) else extra)
        return rels

    monkeypatch.setattr(cli, "deformed_relations", perturbed)
    code, _ = _run(tmp_path, "fibre", "--p", "3,3,3", "--gamma",
                   _write_gamma(tmp_path, ["1", "0"], a))
    assert code == 1
    assert "-> ok" not in capsys.readouterr().out


# `fibre --p 3,3,3` witness points as the chain solve gives them: the two
# seed-independent F_65521 gammas of the benchmark, and random:1 over QQ
_WITNESS_DOWN = {"d1_1": "1", "d1_2": "1", "d1_3": "1", "d2_1": "1", "d2_2": "1",
                 "d2_3": "1", "d3_1": "1", "d3_2": "1", "d3_3": "0"}


@pytest.mark.parametrize("field, gamma, ups", [
    ("fp:65521", {"gamma1": ["1", "0"], "gamma2": ["0", "0"], "gamma3": ["0", "0"],
                  "a": "-1", "b": "0", "A": "0", "B": "0"},
     ["1", "0", "0", "0", "0", "0", "0", "0", "0"]),
    ("fp:65521", {"gamma1": ["1/2", "1/3"], "gamma2": ["1/4", "0"], "gamma3": ["-1/5", "0"],
                  "a": "-7/12", "b": "9/20", "A": "0", "B": "0"},
     ["10921", "43681", "0", "49141", "0", "0", "13104", "0", "0"]),
    ("q", "random:1",
     ["-137/140", "9/20", "29/20", "3", "2", "5/4", "-19/18", "-3/2", "0"]),
], ids=["fixed0-fp", "fixed1-fp", "random1-q"])
def test_fibre_witness_point_is_pinned(tmp_path, field, gamma, ups):
    if isinstance(gamma, dict):
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(gamma), encoding="utf-8")
        gamma = f"file:{path}"
    code, report = _run(tmp_path, "fibre", "--p", "3,3,3", "--field", field, "--gamma", gamma)
    assert code == 0
    names = [f"u{arm}_{k}" for arm in (1, 2, 3) for k in (1, 2, 3)]
    assert report["item"]["witness_point"] == dict(_WITNESS_DOWN, **dict(zip(names, ups)))


def test_fibre_inside_delta(tmp_path):
    code, report = _run(tmp_path, "fibre", "--p", "3,2,2", "--gamma", "random:2")
    assert code == 0
    assert report["item"]["in_delta"] is True
    assert report["item"]["witness_satisfies_relations"] is True


def test_pi_symbolic(tmp_path):
    code, report = _run(tmp_path, "pi", "--p", "4,3,2")
    assert code == 0
    assert report["item"]["symbolic_forms_vanish"] is True


def test_pi_with_point_file(tmp_path):
    point = tmp_path / "pt.json"
    point.write_text(
        '{"betas": ["0", "0", "0"], "alphas": [["1", "2"], ["3", "4"], ["5", "6"]]}',
        encoding="utf-8",
    )
    code, report = _run(tmp_path, "pi", "--p", "2,2,2", "--point", str(point))
    assert code == 0
    assert report["item"]["gamma"]["a"] == "2"
    assert report["item"]["in_delta"] is True


def test_minors_subcommand(tmp_path):
    code, report = _run(tmp_path, "minors", "--p", "3,3,3")
    assert code == 0
    assert report["all_vanish_under_phi"] is True
    assert len(report["minors"]) == 3


def test_kernel_report_schema(tmp_path):
    code, report = _run(tmp_path, "kernel", "--p", "2,2,2", "--field", "fp:65521")
    assert code == 0
    assert report["field"] == "F65521"
    assert report["containment_minors_in_kernel"] is True
    assert report["equal"] is True
    assert report["status"] == "confirmed"
    assert len(report["kernel_generators"]) == 3
    assert report["fibre_zero"]["status"] == "confirmed"
    assert isinstance(report["elapsed_ms"], int)


def test_refuted_kernel_reports_no_generators_and_no_origin_fibre(tmp_path, monkeypatch, capsys):
    # a matrix entry changed: its minors leave the kernel, so the run is
    # refuted, and it knows no kernel basis to report or to specialize
    matrix = invariants.det_matrix

    def perturbed(p, field):
        (a1, a2, a3), row_b = matrix(p, field)
        return (a1, a2.scale(2), a3), row_b

    monkeypatch.setattr(invariants, "det_matrix", perturbed)
    code, report = _run(tmp_path, "kernel", "--p", "2,2,2")
    assert code == 1
    assert report["status"] == "refuted"
    assert report["equal"] is False and report["containment_minors_in_kernel"] is False
    assert report["kernel_generators"] == [] and report["fibre_zero"] is None
    assert capsys.readouterr().out.endswith("origin fibre: refuted -> fail\n")


@pytest.mark.parametrize("command", ["kernel", "conjecture"])
def test_kernel_and_conjecture_confirmed_past_the_elimination(tmp_path, command):
    code, report = _run(tmp_path, command, "--p", "12,10,9")
    assert code == 0
    assert report["status"] == "confirmed"
    assert len(report["kernel_generators"]) == 3


@pytest.mark.parametrize("command, key", [("kernel", "containment_minors_in_kernel"),
                                          ("conjecture", "minors_in_kernel")])
def test_minors_check_out_of_budget_is_inconclusive(tmp_path, monkeypatch, command, key):
    # the minors-in-kernel normal forms run under the run's caps, inside the
    # check that turns a breached budget into an inconclusive report
    caps = []

    def out_of_budget(p, budget):
        caps.append(budget)
        raise groebner.Inconclusive("time budget exceeded")

    monkeypatch.setattr(invariants, "verify_minors_vanish", out_of_budget)
    code, report = _run(tmp_path, command, "--p", "2,2,2", "--time-cap", "5")
    assert code == 2
    assert report["status"] == "inconclusive"
    assert report[key] is None
    assert caps == [GroebnerBudget(time_cap=5.0)]


def test_kernel_largest_case_confirmed_within_default_caps(tmp_path):
    code, report = _run(tmp_path, "kernel", "--p", "3,3,3", "--field", "fp:65521")
    assert code == 0
    assert report["status"] == "confirmed"
    assert report["config"]["budgets"]["spair_cap"] == 200_000


def test_kernel_confirmed_under_the_normal_selection_degree_cap(tmp_path):
    # 9 was the smallest cap that confirmed the exact 2,2,2 kernel when it
    # was eliminated under normal selection; the proof needs less
    code, report = _run(tmp_path, "kernel", "--p", "2,2,2", "--deg-cap", "9")
    assert code == 0
    assert report["status"] == "confirmed"


@pytest.mark.parametrize("command", ["kernel", "conjecture"])
@pytest.mark.parametrize("cap, last_failing", [("--deg-cap", 6), ("--spair-cap", 2)])
def test_kernel_and_conjecture_budget_boundaries_pinned(tmp_path, command, cap, last_failing):
    # the caps bound only the minors' basis and the normal forms: the
    # largest cap under which the exact 2,2,2 run is inconclusive, then one
    # more, which confirms it
    code, report = _run(tmp_path, command, "--p", "2,2,2", cap, str(last_failing))
    assert (code, report["status"], report["kernel_generators"]) == (2, "inconclusive", [])
    code, report = _run(tmp_path, command, "--p", "2,2,2", cap, str(last_failing + 1))
    assert (code, report["status"]) == (0, "confirmed")


def test_conjecture_inconclusive_under_zero_budget(tmp_path):
    code, report = _run(tmp_path, "conjecture", "--p", "2,2,2",
                        "--spair-cap", "0")
    assert code == 2
    assert report["status"] == "inconclusive"


@pytest.mark.parametrize("command", ["kernel", "conjecture"])
def test_kernel_and_conjecture_are_exact_by_default(tmp_path, command):
    code, report = _run(tmp_path, command, "--p", "2,2,2")
    assert code == 0
    assert report["config"]["field"] == "q"
    assert report["field"] == "QQ"
    assert report["status"] == "confirmed"
    if command == "conjecture":
        assert report["probabilistic"] is False


# only the documented `q` and `fp:Q`, in any case and with outer spaces
@pytest.mark.parametrize("spec, code", [
    ("fp", 3), ("qq", 3), ("rational", 3), ("Q", 0), (" FP:11 ", 0)])
def test_field_grammar(tmp_path, spec, code):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("vars: x, y\nx^2 - y\n", encoding="utf-8")
    assert run_command(["gb", "--input", str(ideal), "--field", spec]) == code


def _python(*argv, cwd):
    """Run this interpreter afresh with `src` on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def _workbench(*argv, cwd):
    """Run `python -m starquiver.cli` in a fresh interpreter, so that
    `main()` and its `sys.exit` are exercised too."""
    return _python("-m", "starquiver.cli", *argv, cwd=cwd)


def test_cli_import_loads_no_process_pool(tmp_path):
    # every subcommand runs in the one process
    done = _python("-c", "import sys, starquiver.cli; print(sorted(m for m in sys.modules "
                   "if m.split('.')[0] in ('concurrent', 'multiprocessing')))", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_module_entry_point(tmp_path):
    done = _workbench("kernel", "--p", "2,2,2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "field=QQ" in done.stdout
    done = _workbench("kernel", "--p", "2,2,2", "--field", "fp", cwd=tmp_path)
    assert done.returncode == 3
    assert "unknown field spec" in done.stderr


def test_gb_subcommand(tmp_path):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("vars: x, y\norder: lex\nx^2 + y^2 - 1\nx - y\n",
                     encoding="utf-8")
    out = tmp_path / "basis.txt"
    code, report = _run(tmp_path, "gb", "--input", str(ideal),
                        "--output", str(out))
    assert code == 0
    assert sorted(report["reduced_basis"]) == ["x - y", "y^2 - 1/2"]
    assert report["dimension"] == 0
    assert "vars: x, y" in out.read_text(encoding="utf-8")


def test_gb_over_deep_nesting_is_a_usage_error(tmp_path, capsys):
    ideal = tmp_path / "deep.txt"
    ideal.write_text("vars: x\n" + "(" * 3000 + "x" + ")" * 3000 + "\n", encoding="utf-8")
    assert run_command(["gb", "--input", str(ideal)]) == 3
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["vars:\n1\n", "vars: , \nx\n", "vars:\n"])
def test_gb_header_without_variables_is_a_usage_error(tmp_path, capsys, text):
    ideal = tmp_path / "empty.txt"
    ideal.write_text(text, encoding="utf-8")
    assert run_command(["gb", "--input", str(ideal)]) == 3
    assert "'vars:' header of the ideal file names no variable" in capsys.readouterr().err


def test_props_suites(tmp_path):
    code, report = _run(tmp_path, "props", "--p", "2,2,2")
    assert code == 0
    assert all(s["ok"] for s in report["suites"].values())
    suites = report["suites"]
    assert set(suites) == {"euler_identity", "quotient_nonzero", "cycles_invariant",
                           "pi_symbolic"}
    assert suites["euler_identity"] == {"ok": True, "degree": 4}
    assert suites["quotient_nonzero"] == {"ok": True, "degree": 4}
    # the three crossing cycles and the six 2-cycles
    assert suites["cycles_invariant"] == {"ok": True, "checked": 9}


@pytest.mark.parametrize("p, degree, checked", [("3,2,2", 4, 10), ("8,8,8", 7, 27),
                                                 ("6,9,2", 8, 20)])
def test_props_euler_degree_follows_the_longest_arm(tmp_path, p, degree, checked):
    code, report = _run(tmp_path, "props", "--p", p)
    assert code == 0
    assert report["suites"]["euler_identity"] == {"ok": True, "degree": degree}
    assert report["suites"]["quotient_nonzero"] == {"ok": True, "degree": degree}
    assert report["suites"]["cycles_invariant"] == {"ok": True, "checked": checked}


def test_props_fails_under_a_perturbed_derivative(tmp_path, monkeypatch):
    derivative = Poly.derivative
    monkeypatch.setattr(Poly, "derivative", lambda f, name: derivative(f, name).scale(2))
    code, report = _run(tmp_path, "props", "--p", "2,2,2")
    assert code == 1
    assert report["status"] == "fail"
    assert report["suites"]["euler_identity"] == {"ok": False, "degree": 4}


def test_props_fails_on_a_reversed_u_arrow(tmp_path, monkeypatch):
    def reversed_u(p):
        Q = build_star_quiver(p)
        tail, head = Q.arrows["u2_1"]
        Q.arrows["u2_1"] = (head, tail)
        return Q

    monkeypatch.setattr(cli, "build_star_quiver", reversed_u)
    code, report = _run(tmp_path, "props", "--p", "2,2,2")
    assert code == 1
    assert report["suites"]["cycles_invariant"] == {"ok": False, "checked": 9}
    assert report["suites"]["euler_identity"]["ok"]


def test_props_builds_no_groebner_basis(tmp_path, monkeypatch):
    def refuse(*args):
        raise RuntimeError("props ran the Buchberger engine")

    monkeypatch.setattr(groebner, "_buchberger", refuse)
    code, report = _run(tmp_path, "props", "--p", "3,3,2")
    assert code == 0
    assert report["status"] == "ok"
    assert report["suites"]["quotient_nonzero"] == {"ok": True, "degree": 4}
    assert report["config"] == {"p": "3,3,2"}


def _props_with_misbuilt_quotient(tmp_path, monkeypatch, misbuilt):
    monkeypatch.setattr(charts, "_quotient_relations", misbuilt)
    code, report = _run(tmp_path, "props", "--p", "2,2,2")
    assert code == 1
    assert report["status"] == "fail"
    assert report["suites"]["quotient_nonzero"] == {"ok": False, "degree": 4}
    assert report["suites"]["euler_identity"]["ok"]


def test_props_fails_on_a_shifted_quotient_constant(tmp_path, monkeypatch):
    _props_with_misbuilt_quotient(tmp_path, monkeypatch, shifted_quotient_constant)


@pytest.mark.parametrize("misbuilt", [flipped_quotient_b_sign, quotient_b_read_at_xb],
                         ids=lambda f: f.__name__)
def test_props_fails_on_a_misbuilt_quotient_relation(tmp_path, monkeypatch, misbuilt):
    _props_with_misbuilt_quotient(tmp_path, monkeypatch, misbuilt)


def test_pi_and_props_fail_under_a_perturbed_pi_coordinate(tmp_path, monkeypatch):
    coordinates = invariants._pi_coordinates

    def flipped(al, p):
        g1, g2, g3, a, b, A, B = coordinates(al, p)
        return g1, g2, g3, -a, b, A, B

    monkeypatch.setattr(invariants, "_pi_coordinates", flipped)
    code, report = _run(tmp_path, "pi", "--p", "2,2,2")
    assert code == 1
    assert report["item"] == {"symbolic_forms_vanish": False}
    code, report = _run(tmp_path, "props", "--p", "2,2,2")
    assert code == 1
    assert report["suites"]["pi_symbolic"] == {"ok": False}


@pytest.mark.parametrize("field", FIELDS)
def test_charts_and_smooth_in_every_field(tmp_path, field):
    code, report = _run(tmp_path, "charts", "--p", "2,2,2", "--field", field,
                        "--gamma", "random:7")
    assert code == 0
    assert all(it["certificate"]["status"] == "smooth" and it["oracle_match"] is True
               for it in report["items"])
    code, report = _run(tmp_path, "smooth", "--p", "2,2,2", "--field", field)
    assert code == 0
    assert all(it["certificate"]["dimension"] == 7 for it in report["items"])


def test_usage_errors(tmp_path):
    assert run_command(["charts", "--p", "1,2,2"]) == 3
    assert run_command(["gb", "--input", "/nonexistent/file.txt"]) == 3
    assert run_command(["nonsense"]) == 3
    # a gamma denominator that vanishes in the field
    assert run_command(["fibre", "--p", "2,2,2", "--field", "fp:7",
                        "--gamma", _write_gamma(tmp_path, ["1/7"], "1/7")]) == 3


@pytest.mark.parametrize("flag, value", [
    ("--spair-cap", "-5"), ("--deg-cap", "-1"), ("--time-cap", "-1"),
    ("--time-cap", "nan"), ("--time-cap", "inf"), ("--time-cap", "-inf"),
    ("--spair-cap", "x"), ("--time-cap", "1e400"),
])
def test_malformed_budget_caps_are_usage_errors(tmp_path, flag, value):
    # a negative cap makes every run inconclusive, and a non-finite time
    # cap is no cap at all and cannot be echoed as JSON
    code, report = _run(tmp_path, "kernel", "--p", "2,2,2", flag, value)
    assert code == 3
    assert report is None


def test_zero_and_finite_caps_stay_valid(tmp_path):
    for flag in ("--spair-cap", "--deg-cap"):
        code, report = _run(tmp_path, "kernel", "--p", "2,2,2", flag, "0")
        assert code == 2
        assert report["status"] == "inconclusive"
    path = tmp_path / "report.json"
    assert run_command(["kernel", "--p", "2,2,2", "--time-cap", "60", "--json", str(path)]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    report = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    assert report["config"]["budgets"]["time_cap"] == 60.0


_GAMMA_REST = '"gamma2": ["0"], "gamma3": ["0"], "a": "0", "b": "0", "A": "0", "B": "0"'


@pytest.mark.parametrize("command, flag, content", [
    ("fibre", "--gamma", "42"),
    ("fibre", "--gamma", '{"gamma1": 5, ' + _GAMMA_REST + "}"),
    # a string is not a vector: "12" must not be read as the entries 1, 2
    ("fibre", "--gamma", '{"gamma1": "12", ' + _GAMMA_REST + "}"),
    ("pi", "--point", "[1, 2]"),
    ("pi", "--point", '{"betas": ["0", "0", "0"], "alphas": 5}'),
    # nesting too deep for the decoder
    ("fibre", "--gamma", "[" * 100_000),
    ("pi", "--point", "[" * 100_000),
    # a decimal exponent whose power of ten would take minutes to build
    ("fibre", "--gamma", '{"gamma1": ["0", "0"], "gamma2": ["0"], "gamma3": ["0"], '
                         '"a": "1e999999999", "b": "0", "A": "0", "B": "0"}'),
], ids=["gamma-scalar", "gamma1-scalar", "gamma1-string", "point-list", "alphas-scalar",
        "gamma-deep", "point-deep", "gamma-exponent"])
def test_malformed_json_inputs_are_usage_errors(tmp_path, command, flag, content):
    path = tmp_path / "input.json"
    path.write_text(content, encoding="utf-8")
    value = f"file:{path}" if flag == "--gamma" else str(path)
    assert run_command([command, "--p", "3,2,2", flag, value]) == 3


def test_failed_check_exits_one(monkeypatch):
    def broken(*args):
        raise CheckFailed("witness point misses the chart")

    monkeypatch.setattr("starquiver.cli.fibre_witness_point", broken)
    assert run_command(["fibre", "--p", "2,2,2"]) == 1


# the config keys each subcommand echoes: its flags, minus --json and
# --output, with the three caps nested under "budgets"
CAPS = {"spair_cap", "deg_cap", "time_cap"}
CONFIG_KEYS = {
    "charts": {"p", "field", "budgets", "gamma"},
    "smooth": {"p", "field", "budgets"},
    "cover": {"p"},
    "fibre": {"p", "field", "gamma"},
    "pi": {"p", "point"},
    "minors": {"p"},
    "kernel": {"p", "field", "budgets"},
    "conjecture": {"p", "field", "budgets"},
    "gb": {"field", "budgets", "input"},
    "props": {"p"},
}


def _declared_flags(command):
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    return {a.dest for a in sub.choices[command]._actions if a.dest != "help"}


def test_config_echoes_exactly_the_declared_flags(tmp_path):
    ideal = tmp_path / "ideal.txt"
    ideal.write_text("vars: x, y\nx^2 - y\n", encoding="utf-8")
    extra = {"gb": ["--input", str(ideal)]}
    for command, keys in CONFIG_KEYS.items():
        declared = _declared_flags(command) - {"json", "output"}
        if CAPS <= declared:
            declared = declared - CAPS | {"budgets"}
        assert declared == keys, command
        code, report = _run(tmp_path, command, *extra.get(command, []))
        assert code == 0, command
        assert set(report["config"]) == keys, command
        if "budgets" in keys:
            assert set(report["config"]["budgets"]) == CAPS


@pytest.mark.parametrize("argv", [
    ["kernel", "--jobs", "2"],
    ["cover", "--field", "q"],
    ["charts", "--height", "5"],
    ["minors", "--spair-cap", "10"],
    ["pi", "--field", "q"],
    ["fibre", "--jobs", "2"],
    ["fibre", "--spair-cap", "10"],
    ["fibre", "--deg-cap", "10"],
    ["fibre", "--time-cap", "10"],
    ["gb", "--p", "2,2,2", "--input", "ideal.txt"],
    ["props", "--field", "q"],
    ["charts", "--jobs", "2"],
    ["smooth", "--jobs", "2"],
    ["cover", "--enum-cap", "24"],
    ["props", "--euler-samples", "2"],
    ["props", "--weight-samples", "2"],
    ["props", "--spair-cap", "0"],
    ["props", "--deg-cap", "0"],
    ["props", "--time-cap", "1"],
    ["props", "--seed", "1"],
    ["props", "--nonunit-samples", "5"],
])
def test_removed_flags_are_usage_errors(argv):
    assert run_command(argv) == 3


@pytest.mark.parametrize("name", sorted(golden.GOLDEN))
def test_report_matches_its_golden_file(name, capsys):
    # the report contract: byte for byte, apart from the *_ms timings
    code, text = golden.run_report(golden.GOLDEN[name])
    assert code == 0
    assert text == (golden.DATA / name).read_text(encoding="utf-8")
    capsys.readouterr()


def test_golden_comparison_sees_one_changed_byte(tmp_path):
    name = "fibre_333_random1.json"
    report = json.loads((golden.DATA / name).read_text(encoding="utf-8"))
    report["elapsed_ms"] = 12
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert golden.main([str(path), str(golden.DATA / name)]) == 0
    report["item"]["witness_point"]["d1_1"] = "2"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert golden.main([str(path), str(golden.DATA / name)]) == 1


# a value for every flag a subcommand may declare, none of them the default
_FLAG_VALUES = {"p": "3,2,2", "field": "fp:11", "spair-cap": "7", "deg-cap": "9",
                "time-cap": "2.5", "gamma": "random:3", "point": "pt.json",
                "input": "ideal.txt", "output": "out.txt"}


def test_the_reused_parser_parses_as_a_fresh_one(capsys):
    # every run in a process reuses one parser; it must keep no state from
    # an earlier parse, a usage error included
    assert _build_parser() is _build_parser()
    for command, (_, flags) in cli._SUBCOMMANDS.items():
        required = ["--input", "ideal.txt"] if "input" in flags else []
        full = [command, "--json", "r.json"]
        for flag in flags:
            full += [f"--{flag}", _FLAG_VALUES[flag]]
        for argv in ([command] + required, full):
            assert run_command(argv[:1] + ["--no-such-flag"]) == 3
            assert run_command([command, "--p", "1,2,2"] + required) == 3
            assert _build_parser().parse_args(argv) == _build_parser.__wrapped__().parse_args(argv)
    capsys.readouterr()


def test_run_command_leaves_no_reference_cycles(tmp_path):
    # cycles left to a later full collection pin allocator arenas, so memory
    # grows over repeated in-process runs
    gc.collect()
    gc.disable()
    try:
        assert _run(tmp_path, "charts", "--p", "2,2,2")[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks() -> list:
    """The fenced code blocks of README.md, as (language, text) pairs."""
    blocks, lang, lines = [], None, []
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            if lang is None:
                lang, lines = line[3:].strip(), []
            else:
                blocks.append((lang, "\n".join(lines) + "\n"))
                lang = None
        elif lang is not None:
            lines.append(line)
    return blocks


def test_readme_examples_run(tmp_path, monkeypatch):
    blocks = _readme_blocks()
    commands = [line.split("#")[0].split()[1:]
                for lang, text in blocks if lang == "sh"
                for line in text.splitlines() if line.startswith("workbench ")]
    (gamma,) = [text for lang, text in blocks if lang == "json"]
    (ideal,) = [text for lang, text in blocks if text.startswith("vars:")]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(gamma, encoding="utf-8")
    (tmp_path / "ideal.txt").write_text(ideal, encoding="utf-8")
    assert len(commands) == 12
    for argv in commands:
        assert run_command(argv) == 0, argv
