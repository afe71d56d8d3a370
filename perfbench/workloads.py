"""The benchmark's workloads: fixed lists of `workbench` operations.

Each operation is one subcommand run in-process through
`starquiver.cli.run_command` with `--json`.  This module imports nothing from
the program, so the checker can rebuild the operation list without loading
it, and the worker can build it during set-up.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

WORKLOADS = ("kernel", "charts", "cover")

FP = "fp:65521"

# deformation parameters drawn from the seed for the charts workload
CHART_GAMMAS = 3

# Seed-independent gammas inside the parameter subspace on which the prime
# field `fibre` answers "outside" today, because `delta_forms` sums F_p
# residues without reducing them.  The first is the reproduction from the
# ROADMAP (gamma1 = [1, 0], a = -1), the second has fractional entries.
FIXED_FP_GAMMAS = (
    {"gamma1": ["1", "0"], "gamma2": ["0", "0"], "gamma3": ["0", "0"],
     "a": "-1", "b": "0", "A": "0", "B": "0"},
    {"gamma1": ["1/2", "1/3"], "gamma2": ["1/4", "0"], "gamma3": ["-1/5", "0"],
     "a": "-7/12", "b": "9/20", "A": "0", "B": "0"},
)


def seeded_gamma(seed: int, index: int, p: tuple) -> dict:
    """A point of the parameter subspace Delta: the free coordinates are
    drawn first, then a and b are solved exactly over QQ from the two
    defining forms."""
    rng = random.Random(f"perfbench-gamma:{seed}:{index}:{p}")

    def draw() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    g1, g2, g3 = ([draw() for _ in range(pi - 1)] for pi in p)
    A, B = draw(), draw()
    a = sum(g2, Fraction(0)) - sum(g1, Fraction(0)) - A
    b = sum(g2, Fraction(0)) - sum(g3, Fraction(0)) - B
    gamma = {f"gamma{i}": [str(v) for v in g] for i, g in enumerate((g1, g2, g3), 1)}
    gamma.update(a=str(a), b=str(b), A=str(A), B=str(B))
    return gamma


def _op(name, kind, p, field, argv, gamma=None, known_fault=False) -> dict:
    return {"name": name, "kind": kind, "p": list(p), "field": field,
            "argv": argv, "gamma": gamma, "known_fault": known_fault}


def _label(p) -> str:
    return ",".join(str(v) for v in p)


def operations(workload: str, seed: int, input_dir: str) -> list:
    """The ordered operation list of one workload; gammas go to `input_dir`
    as `file:` inputs (see `write_inputs`)."""
    if workload == "kernel":
        return [
            _op("kernel-3,3,2-fp", "kernel", (3, 3, 2), FP,
                ["kernel", "--p", "3,3,2", "--field", FP]),
            _op("kernel-3,2,2-fp", "kernel", (3, 2, 2), FP,
                ["kernel", "--p", "3,2,2", "--field", FP]),
            _op("conjecture-2,2,2-q", "conjecture", (2, 2, 2), "q",
                ["conjecture", "--p", "2,2,2", "--field", "q"]),
        ]
    if workload == "charts":
        ops = []
        for i in range(CHART_GAMMAS):
            p = (8, 8, 8)
            path = os.path.join(input_dir, f"gamma{i}-888.json")
            ops.append(_op(f"charts-8,8,8-g{i}", "charts", p, "q",
                           ["charts", "--p", _label(p), "--gamma", f"file:{path}"],
                           gamma=seeded_gamma(seed, i, p)))
        ops.append(_op("charts-5,5,5-zero", "charts", (5, 5, 5), "q",
                       ["charts", "--p", "5,5,5", "--gamma", "zero"]))
        ops.append(_op("smooth-4,4,4", "smooth", (4, 4, 4), "q",
                       ["smooth", "--p", "4,4,4"]))
        for i in range(CHART_GAMMAS):
            p = (3, 3, 3)
            path = os.path.join(input_dir, f"gamma{i}-333.json")
            ops.append(_op(f"fibre-3,3,3-g{i}-q", "fibre", p, "q",
                           ["fibre", "--p", _label(p), "--gamma", f"file:{path}"],
                           gamma=seeded_gamma(seed, i, p)))
        for i, gamma in enumerate(FIXED_FP_GAMMAS):
            path = os.path.join(input_dir, f"fixed{i}-333.json")
            ops.append(_op(f"fibre-3,3,3-fixed{i}-fp", "fibre", (3, 3, 3), FP,
                           ["fibre", "--p", "3,3,3", "--field", FP,
                            "--gamma", f"file:{path}"],
                           gamma=gamma, known_fault=True))
        return ops
    if workload == "cover":
        return [
            _op(f"cover-{_label(p)}", "cover", p, "q", ["cover", "--p", _label(p)])
            for p in ((4, 3, 3), (5, 3, 2))
        ]
    raise ValueError(f"unknown workload {workload!r} (one of {', '.join(WORKLOADS)})")


def write_inputs(ops: list) -> None:
    """Write every `file:` gamma of the operation list."""
    for op in ops:
        for arg in op["argv"]:
            if arg.startswith("file:"):
                with open(arg[len("file:"):], "w", encoding="utf-8") as fh:
                    json.dump(op["gamma"], fh, sort_keys=True)
