"""Shows that every check in checks.py rejects a perturbed answer.

    python3 perfbench/selftest.py

Runs small instances of each kind of operation through the program, confirms
that the genuine reports pass their checks, then perturbs each answer in a
way aimed at one check and confirms that the check rejects it.  Exits 1 if a
genuine answer is rejected or a perturbed one accepted.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import starquiver.cli as cli  # noqa: E402

import checks as C  # noqa: E402
from workloads import FIXED_FP_GAMMAS, FP, seeded_gamma  # noqa: E402

OUT = os.path.join(ROOT, ".perfbench", "selftest")


def run(name, argv, gamma=None) -> tuple[int, dict]:
    if gamma is not None:
        path = os.path.join(OUT, name + "-gamma.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(gamma, fh)
        argv = argv + ["--gamma", f"file:{path}"]
    report_path = os.path.join(OUT, name + ".json")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run_command(argv + ["--json", report_path])
    with open(report_path, "r", encoding="utf-8") as fh:
        return code, json.load(fh)


def op(kind, p, field, gamma=None, known_fault=False) -> dict:
    return {"name": kind, "kind": kind, "p": list(p), "field": field,
            "gamma": gamma, "known_fault": known_fault}


class Outcome:
    def __init__(self):
        self.bad = 0

    def accepts(self, label, fn, *args):
        try:
            fn(*args)
        except C.CheckError as exc:
            self.bad += 1
            print(f"FAIL genuine answer rejected: {label}: {exc}")
            return
        print(f"ok   accepts the genuine {label}")

    def rejects(self, label, fn, *args):
        try:
            fn(*args)
        except C.CheckError as exc:
            print(f"ok   rejects {label} ({exc})")
            return
        self.bad += 1
        print(f"FAIL perturbed answer accepted: {label}")


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    out = Outcome()

    def rng():
        return random.Random(0)

    # kernel of the cycle map, over F_65521 and over QQ
    p = (2, 2, 2)
    _, rep = run("kernel", ["kernel", "--p", "2,2,2", "--field", FP])
    kop = op("kernel", p, FP)
    out.accepts("kernel report", C.check_kernel, rep, kop, rng())
    gens = rep["kernel_generators"]
    times_w1 = [f"w1*({gens[0]})"] + gens[1:]
    out.rejects("a kernel basis that is not reduced", C.check_kernel_basis, times_w1, p, FP)
    out.accepts("non-reduced generators that still vanish on the image",
                C.check_vanish_on_image, times_w1, p, FP, rng())
    shifted = [f"{gens[0]} + 1"] + gens[1:]
    out.rejects("a generator that misses the image", C.check_vanish_on_image,
                shifted, p, FP, rng())
    spec = rep["fibre_zero"]["specialized_generators"]
    out.rejects("an origin fibre with a generator dropped", C.check_origin_fibre,
                spec[:-1], p, FP)
    bad = copy.deepcopy(rep)
    bad["status"] = "refuted"
    out.rejects("a refuted kernel verdict", C.check_kernel, bad, kop, rng())

    _, rep = run("conjecture", ["conjecture", "--p", "2,2,2", "--field", "q"])
    cop = op("conjecture", p, "q")
    out.accepts("QQ conjecture report", C.check_conjecture, rep, cop, rng())
    bad = copy.deepcopy(rep)
    bad["kernel_generators"] = bad["kernel_generators"][1:]
    out.rejects("a QQ kernel basis with a generator dropped", C.check_conjecture,
                bad, cop, rng())

    # fibre charts, total-space charts and fibres
    p = (3, 3, 3)
    gamma = seeded_gamma(0, 0, p)
    _, rep = run("charts", ["charts", "--p", "3,3,3"], gamma)
    chop = op("charts", p, "q", gamma)
    out.accepts("charts report", C.check_charts, rep, chop, rng())
    for label, mutate in (
            ("a chart where the oracle disagrees",
             lambda r: r["items"][5].update(oracle_match=False)),
            ("a chart of dimension 3",
             lambda r: r["items"][0]["certificate"].update(dimension=3)),
            ("a missing chart", lambda r: r["items"].pop()),
    ):
        bad = copy.deepcopy(rep)
        mutate(bad)
        out.rejects(label, C.check_fibre_charts, bad, p)
    item = copy.deepcopy(rep["items"][3])
    item["relations"][0] = f"({item['relations'][0]})^2"
    out.rejects("a singular chart presentation (first relation squared)",
                C.check_one_in_jacobian, item, "q")

    _, rep = run("smooth", ["smooth", "--p", "3,3,3"])
    sop = op("smooth", p, "q")
    out.accepts("smooth report", C.check_smooth, rep, sop, rng())
    bad = copy.deepcopy(rep)
    bad["items"][2]["certificate"]["dimension"] = sum(p)
    out.rejects("a total-space chart of the wrong dimension", C.check_smooth,
                bad, sop, rng())

    _, rep = run("fibre", ["fibre", "--p", "3,3,3"], gamma)
    fop = op("fibre", p, "q", gamma)
    out.accepts("QQ fibre report", C.check_fibre, rep, fop, rng())
    bad = copy.deepcopy(rep)
    bad["item"]["witness_point"]["u2_2"] = str(
        C.to_field(rep["item"]["witness_point"]["u2_2"], "q") + 1)
    out.rejects("a witness point off the deformed relations", C.check_fibre,
                bad, fop, rng())
    if C.is_known_fault(rep, 0, dict(fop, known_fault=True)):
        out.bad += 1
        print("FAIL a correct fibre answer is counted as the known fault")

    code, rep = run("fibre-fp", ["fibre", "--p", "3,3,3", "--field", FP],
                    FIXED_FP_GAMMAS[0])
    fpop = op("fibre", p, FP, FIXED_FP_GAMMAS[0], known_fault=True)
    if code == 0:
        out.accepts("F_p fibre report", C.check_fibre, rep, fpop, rng())
    elif not C.is_known_fault(rep, code, fpop):
        out.bad += 1
        print(f"FAIL the F_p fibre fails, but not as the known fault (exit {code})")
    else:
        print("ok   the F_p fibre fails as the known fault")
        out.rejects("the F_p fibre answer as a correct one", C.check_fibre,
                    rep, fpop, rng())

    # cover
    for p, counts in (((4, 3, 3), (45056, 11264)), ((5, 3, 2), (43008, 11264))):
        if C.cover_counts(p) != counts:
            out.bad += 1
            print(f"FAIL per-arm count at {p}: {C.cover_counts(p)}, expected {counts}")
    p = (3, 2, 2)
    _, rep = run("cover", ["cover", "--p", "3,2,2"])
    vop = op("cover", p, "q")
    out.accepts("cover report", C.check_cover, rep, vop, rng())
    for label, mutate in (
            ("one stable support too many",
             lambda r: r.update(stable_supports=r["stable_supports"] + 1)),
            ("checked and covered counts that agree but are wrong",
             lambda r: r.update(checked_supports=r["checked_supports"] - 1,
                                covered_supports=r["covered_supports"] - 1)),
            ("an uncovered support", lambda r: r.update(
                covered_supports=r["covered_supports"] - 1,
                counterexamples=[["d1_1"]])),
            ("a wrong total", lambda r: r.update(total_supports=r["total_supports"] // 2)),
    ):
        bad = copy.deepcopy(rep)
        mutate(bad)
        out.rejects(label, C.check_cover, bad, vop, rng())

    print("self-test " + ("passed" if not out.bad else f"FAILED ({out.bad})"))
    return 1 if out.bad else 0


if __name__ == "__main__":
    sys.exit(main())
