"""Tooling: the benchmark's per-layer tracer still hooks the program.

`perfbench/tracing.py` wraps `Poly` methods and the public functions of each
layer by name; a renamed or deleted method would otherwise only show up as a
crashed `--trace 1` benchmark pass, and a renamed chart function as a
per-layer metric that silently reads zero.
"""

import importlib.util
from pathlib import Path

from starquiver.cli import run_command

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_counts_substitute_and_rename_on_charts_and_kernel():
    tracer = _tracer()
    try:
        tracer.install()
        codes = [
            run_command(["charts", "--p", "2,2,2", "--gamma", "random:1"]),
            run_command(["kernel", "--p", "2,2,2", "--field", "fp:65521"]),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    metrics = tracer.metrics(1.0, 1.0)
    assert metrics["poly.substitute.calls"][0] > 0
    assert metrics["poly.rename.calls"][0] > 0
    # the chart layer's metrics look its functions up by name
    for name in ("charts.fibre_chart.s", "charts.chart_by_substitution.s",
                 "charts.smoothness_certificate.s", "groebner.basis.calls"):
        assert metrics[name][0] > 0, name
