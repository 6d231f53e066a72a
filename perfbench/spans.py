"""Spans around the package's public functions, installed only in traced rounds.

The wrappers replace each function at every name a ``qtc`` module looks it
up by (for example ``qtc.protocol.channel_state`` and ``qtc.cli.run_exact``),
so calls between modules are seen without touching the package's source.
A span is ``[name, start, end, parent, call_id]``; spans stay in memory and
are written out once, when the run ends. A span's self time is its duration
minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

import qtc
from qtc import bell, cli, discrimination, formulas, protocol, registers, symmetric

MODULES = (qtc, registers, symmetric, bell, discrimination, protocol, formulas, cli)

LAYERS = {
    "registers": (registers, ("haar_random_state", "partial_trace", "check_memory")),
    "symmetric": (symmetric, ("channel_state", "clone_basis", "symmetric_basis")),
    "bell": (bell, ("reconstruction_unitaries", "bell_state", "gxor_operator", "fourier")),
    "discrimination": (
        discrimination,
        ("usd_kraus", "separation_filter", "max_confidence", "max_confidence_readout", "filter_unitary"),
    ),
    "protocol": (protocol, ("run_exact", "haar_average", "compare_to_formulas", "clone_marginal")),
    "formulas": (
        formulas,
        tuple(
            name
            for name, fn in vars(formulas).items()
            if inspect.isfunction(fn) and fn.__module__ == formulas.__name__ and not name.startswith("_")
        ),
    ),
    "cli": (cli, ("main", "config_from_report")),
}

ROOT = "op"  # the span around one timed call


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call_id = -1
        self._sites = []  # (module, attribute, original, wrapper)
        for layer, (home, names) in LAYERS.items():
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in MODULES:
                    self._sites += [(module, a, original, wrapper) for a, v in vars(module).items() if v is original]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def timed(self, call_id: int, fn):
        """Run ``fn`` as one traced operation under a root span."""
        self.call_id = call_id
        return self._wrap(ROOT, fn)()

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per layer, and for the root span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - inner
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "call_id"], "spans": self.spans}, fh)

