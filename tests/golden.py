"""Golden JSON reports: the report contract, byte for byte, minus timings.

Each golden file under `tests/data/` is one subcommand's `--json` report
with every `*_ms` field dropped, written as `cli` writes reports (sorted
keys, two-space indent, a final newline).

    python tests/golden.py REPORT.json GOLDEN.json   # exit 1 unless they match
    python tests/golden.py --write                   # regenerate every golden file
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# golden file name -> the subcommand's arguments, before --json
GOLDEN = {
    "charts_333_random1.json": ["charts", "--p", "3,3,3", "--gamma", "random:1"],
    "charts_654_random2_fp7.json": ["charts", "--p", "6,5,4", "--gamma", "random:2",
                                    "--field", "fp:7"],
    "charts_555_zero.json": ["charts", "--p", "5,5,5", "--gamma", "zero"],
    "smooth_332.json": ["smooth", "--p", "3,3,2"],
    "fibre_333_random1.json": ["fibre", "--p", "3,3,3", "--gamma", "random:1"],
}


def strip_ms(value):
    """The report with every `*_ms` key dropped, at every depth."""
    if isinstance(value, dict):
        return {k: strip_ms(v) for k, v in value.items() if not k.endswith("_ms")}
    if isinstance(value, list):
        return [strip_ms(v) for v in value]
    return value


def canonical(report_path) -> str:
    """The report at `report_path` as its golden file's text."""
    report = json.loads(Path(report_path).read_text(encoding="utf-8"))
    return json.dumps(strip_ms(report), sort_keys=True, indent=2) + "\n"


def run_report(argv) -> tuple:
    """Run one subcommand in process; its exit code and canonical report."""
    from starquiver.cli import run_command

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        code = run_command(list(argv) + ["--json", str(path)])
        return code, canonical(path)


def main(argv) -> int:
    if argv == ["--write"]:
        DATA.mkdir(exist_ok=True)
        for name, args in GOLDEN.items():
            code, text = run_report(args)
            if code != 0:
                print(f"{name}: {' '.join(args)} exited {code}", file=sys.stderr)
                return 1
            (DATA / name).write_text(text, encoding="utf-8")
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 3
    report, golden = argv
    if canonical(report) != Path(golden).read_text(encoding="utf-8"):
        print(f"{report} differs from {golden}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
