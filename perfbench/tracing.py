"""Outside-in per-layer tracing for the traced benchmark run.

Nothing in the package under test changes. `installed(tracer)` wraps each
layer's public functions at every module binding inside `tanglekit` (so
`skein.determinant`, `certify.fit_coefficients` and the lookups a module makes
in its own globals, such as `coloring.determinant` calling
`bareiss_determinant`, all go through the wrapper) and restores the originals
on exit.

Spans nest on one stack; the program is single-threaded. Aggregates are kept
online instead of as a span list, since a traced pass opens tens of thousands
of spans and storing them would inflate the memory it runs in. A span's self
time is its duration minus the durations of its direct children, added up
per name.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

# layer module -> functions recorded as spans
SPANS = {
    "diagram": ("parse_pd", "components", "fill_slot"),
    "tangle": ("compile_word",),
    "coloring": (
        "coloring_matrix",
        "bareiss_determinant",
        "rank_mod_p",
        "n_colorable",
        "determinant",
    ),
    "skein": ("splice", "fit_coefficients", "two_slot_scan"),
    "certify": (
        "span_certificate",
        "oriented_span_certificate",
        "verify_certificate",
        "certificate_to_json",
        "certificate_from_json",
    ),
}
# tiny functions called per certificate node: counted, not timed, so the
# wrapper does not swamp what it measures
COUNTED = {"skein": ("insertion_det",), "tangle": ("connectivity",)}

VERIFY = "certify.verify_certificate"


class Tracer:
    """Span stack plus per-name calls, self time and extra counters."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.stack: list[list] = []  # [name, start_ns, child_ns]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._op_diagrams: set[int] = set()

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0])

    def exit(self) -> int:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def add(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def high(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def begin_op(self) -> None:
        """Root span of one benchmark op; distinct-diagram sets are per op."""
        self._op_diagrams.clear()
        self.enter("op")

    def end_op(self) -> None:
        self.exit()

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    # -- hooks run before a wrapped call, outside its span ------------------

    def _before(self, name: str, args) -> None:
        if name == "coloring.bareiss_determinant":
            dim = len(args[0])
            self.high("coloring.bareiss_determinant.dim_max", dim)
            self.add("coloring.bareiss_determinant.dim_cubed_sum", dim**3)
        elif name == "coloring.determinant":
            d = args[0]
            key = hash((d.crossings, d.slots, d.loops))
            if key not in self._op_diagrams:
                self._op_diagrams.add(key)
                self.add("coloring.determinant.distinct")
        elif name == "skein.fit_coefficients" and self.inside(VERIFY):
            self.add("certify.refits_in_verify")

    def _after(self, name: str, result) -> None:
        if name == VERIFY and not result.accepted:
            self.add("certify.verify_certificate.rejects")
        elif name in ("certify.span_certificate", "certify.oriented_span_certificate"):
            self.add("certify.nodes_total", len(result))
            self.high("certify.nodes_max", len(result))

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._before(name, args)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            self._after(name, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _bindings(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) inside tanglekit bound to fn."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "tanglekit" or modname.startswith("tanglekit.")):
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                out.append((mod, attr))
    return out


@contextmanager
def installed(tracer: Tracer):
    """Route every tanglekit binding of the traced functions through tracer."""
    importlib.import_module("tanglekit")
    saved = []
    try:
        for table, make in ((SPANS, tracer.span), (COUNTED, tracer.counted)):
            for layer, names in table.items():
                mod = importlib.import_module(f"tanglekit.{layer}")
                for fname in names:
                    fn = getattr(mod, fname)
                    wrapped = make(f"{layer}.{fname}", fn)
                    for owner, attr in _bindings(fn):
                        saved.append((owner, attr, fn))
                        setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values (totals over the traced pass) by name."""
    ms = {name: ns / 1e6 for name, ns in tracer.self_ns.items()}
    calls, counts, maxima = tracer.calls, tracer.counts, tracer.maxima
    out: dict[str, float] = {}
    for layer, names in SPANS.items():
        for fname in names:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = ms.get(name, 0.0)
    for layer, names in COUNTED.items():
        for fname in names:
            out[f"{layer}.{fname}.calls"] = calls[f"{layer}.{fname}"]
    out["coloring.bareiss_determinant.dim_max"] = maxima[
        "coloring.bareiss_determinant.dim_max"
    ]
    out["coloring.bareiss_determinant.dim_cubed_sum"] = counts[
        "coloring.bareiss_determinant.dim_cubed_sum"
    ]
    det_calls = calls["coloring.determinant"]
    out["coloring.determinant.distinct_ratio"] = (
        counts["coloring.determinant.distinct"] / det_calls if det_calls else 0.0
    )
    verifies = calls[VERIFY]
    out["certify.refits_per_verify"] = (
        counts["certify.refits_in_verify"] / verifies if verifies else 0.0
    )
    out["certify.verify_certificate.rejects"] = counts[
        "certify.verify_certificate.rejects"
    ]
    out["certify.nodes_total"] = counts["certify.nodes_total"]
    out["certify.nodes_max"] = maxima["certify.nodes_max"]
    out["certify.json_bytes"] = counts["certify.json_bytes"]
    return out
