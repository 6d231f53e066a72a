"""The package against what the benchmark under ``perfbench/`` relies on.

The traced run wraps named functions of the package, and every workload
checks its outputs against the benchmark's own closed forms. A rename, a
deletion or a changed output shows here, before a benchmark run fails.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402  (puts this checkout's src/ first on the path)
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_tracer_finds_every_wrapped_function():
    tracer = Tracer()  # raises AttributeError when a listed function is gone
    wrapped = {original.__name__ for _, _, original, _ in tracer._sites}
    assert wrapped == {name for _, names in LAYERS.values() for name in names}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_round_passes_every_check(name):
    workload = WORKLOADS[name](seed=1, tiny=True)
    tally = worker.Tally()
    tracer = Tracer()
    ops = workload.warmup() + workload.round(0)
    for call_id, op in enumerate(ops):
        assert worker.run_op(op, tally, None, call_id) is not None
    tracer.install()
    try:
        for call_id, op in enumerate(workload.round(1)):
            assert worker.run_op(op, tally, tracer, call_id) is not None
    finally:
        tracer.uninstall()
    workload.finish()
    assert tally.failed == 0
    assert tally.correct
    assert tracer.calls().get("protocol", 0) + tracer.calls().get("cli", 0) > 0
