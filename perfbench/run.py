"""Benchmark of the workbench's three verification workloads.

    python3 perfbench/run.py --workload kernel|charts|cover --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Prints progress to stderr and, as the last
line of stdout, one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics of
a separate traced pass with `--trace 1`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 9          # set-up is timed this many times; the median is reported
DEADLINE_S = 170.0        # the whole run, set-up and checks included

sys.path.insert(0, HERE)
from speed import Probe  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="workbench verification benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "starquiver", "cli.py")):
        return _fail(f"no program source under {os.path.join(ROOT, 'src')}")
    out = os.path.join(OUT_ROOT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--out", out]

    def remaining() -> float:
        return max(1.0, DEADLINE_S - (time.monotonic() - t_start))

    # each set-up in reference seconds, the machine's speed taken just
    # before and just after it
    speed, setup, setup_wall = Probe(), [], []
    for _ in range(SETUP_PROBES):
        probe, wall, ref = speed.between_bursts(lambda: subprocess.run(
            worker + ["--setup-only"], stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=remaining()))
        setup.append(ref)
        setup_wall.append(wall)
        if probe.returncode != 0:
            return _fail("set-up failed:\n" + probe.stderr.decode(errors="replace")[-2000:])

    log_path = os.path.join(out, "worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        run = subprocess.run(
            worker + ["--seconds", str(args.seconds)] + (["--trace"] if args.trace else []),
            stdout=log, stderr=subprocess.STDOUT, timeout=remaining())
    if run.returncode != 0:
        with open(log_path, "r", encoding="utf-8") as fh:
            return _fail(f"worker exited {run.returncode}:\n" + fh.read()[-2000:])
    with open(os.path.join(out, "result.json"), "r", encoding="utf-8") as fh:
        result = json.load(fh)

    from checks import verify  # sympy is imported here, after the timed work

    ops = operations(args.workload, args.seed, os.path.join(out, "inputs"))
    failed_per_pass, problems = verify(args.seed, ops, result, os.path.join(out, "reports"))
    for problem in problems:
        print(f"perfbench: CHECK FAILED {problem}", file=sys.stderr)
    passes = len(result["times"])
    print(f"perfbench: {args.workload} seed={args.seed}: {passes} passes of {len(ops)} "
          f"operations, wall_s={result['wall_s']:.3f} ({result['raw_wall_s']:.3f} wall), "
          f"setup_s={statistics.median(setup):.4f} ({statistics.median(setup_wall):.4f} wall), "
          f"{time.monotonic() - t_start:.1f} s in all", file=sys.stderr)

    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": passes * len(ops),
        "failed": passes * failed_per_pass,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
