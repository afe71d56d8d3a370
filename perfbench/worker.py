"""Runs one workload's operations in a process of its own.

The process imports the program but never sympy or the checks, so its peak
resident memory is the program's.  With `--setup-only` it stops after the
set-up that `setup_s` covers: interpreter start, the import of `starquiver`
and the generation of the workload's inputs.  Otherwise it repeats whole
passes over the operation list for `--seconds`: at least `MIN_PASSES`, and
no pass is started that would end later, going by the mean pass.  Then, with
`--trace`, it makes one more pass with the tracer installed.  Each operation
is timed in reference seconds by `speed.Probe`, and in wall seconds.
Timings, exit codes and trace metrics go to `result.json` in `--out`; each
operation's JSON report goes to `--out/reports`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import starquiver.cli as cli  # noqa: E402

from speed import Probe  # noqa: E402
from workloads import operations, write_inputs  # noqa: E402

MIN_PASSES = 2


def _strip_timings(obj):
    """The report without its *_ms fields, which are the only ones that may
    differ between two runs of one configuration."""
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if not k.endswith("_ms")}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def run_pass(ops: list, report_dir: str, probe: Probe) -> tuple[list, list, list, list]:
    """Run every operation once; return reference times, wall times, exit
    codes and report texts."""
    times, walls, codes, reports = [], [], [], []
    for op in ops:
        path = os.path.join(report_dir, op["name"] + ".json")
        if os.path.exists(path):
            os.remove(path)
        argv = op["argv"] + ["--json", path]
        mark = probe.mark()
        code = cli.run_command(argv)
        wall, ref = probe.window(mark)
        times.append(ref)
        walls.append(wall)
        codes.append(code)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                reports.append(json.dumps(_strip_timings(json.load(fh)), sort_keys=True))
        except FileNotFoundError:
            reports.append(None)
    return times, walls, codes, reports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for inputs, reports, results")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    input_dir = os.path.join(args.out, "inputs")
    os.makedirs(input_dir, exist_ok=True)
    ops = operations(args.workload, args.seed, input_dir)
    write_inputs(ops)
    if args.setup_only:
        return 0

    report_dir = os.path.join(args.out, "reports")
    os.makedirs(report_dir, exist_ok=True)
    all_times, all_walls, all_codes = [], [], []
    first_reports, consistent = None, True
    probe = Probe()
    probe.start()
    start = time.perf_counter()
    while True:
        times, walls, codes, reports = run_pass(ops, report_dir, probe)
        all_times.append(times)
        all_walls.append(walls)
        all_codes.append(codes)
        first_reports = first_reports or reports
        consistent = consistent and reports == first_reports
        elapsed = time.perf_counter() - start
        # stop before a pass that would end after --seconds
        if len(all_times) >= MIN_PASSES and elapsed * (1 + 1 / len(all_times)) > args.seconds:
            break
    # median time of each operation over the passes, summed over operations
    wall_s = sum(statistics.median(col) for col in zip(*all_times))
    raw_wall_s = sum(statistics.median(col) for col in zip(*all_walls))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    per_layer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            times, walls, codes, reports = run_pass(ops, report_dir, probe)
        finally:
            tracer.uninstall()
        all_times.append(times)
        all_walls.append(walls)
        all_codes.append(codes)
        consistent = consistent and reports == first_reports
        metrics = tracer.metrics(sum(times), wall_s)
        tracer.dump(os.path.join(args.out, "trace.json"), metrics)
        per_layer = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    probe.stop()

    with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "ops": [op["name"] for op in ops],
            "times": all_times,
            "walls": all_walls,
            "codes": all_codes,
            "consistent": consistent,
            "wall_s": wall_s,
            "raw_wall_s": raw_wall_s,
            "peak_rss_mb": peak_rss_mb,
            "per_layer": per_layer,
        }, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
