"""Self-tests of the benchmark harness.

Planted faults must show up as failed ops, a seed must give the same inputs
every time, and the tracer's self-time arithmetic must be exact.

Run: python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import tanglekit  # noqa: E402

import pdgen  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, CliOneshot  # noqa: E402


def failures(wl, inputs) -> int:
    return sum(not worker.attempt(wl, inp)[1] for inp in inputs)


@contextmanager
def patched(fn, replacement):
    """Rebind every tanglekit binding of fn, as a faulty build would."""
    bindings = tracing._bindings(fn)
    try:
        for owner, attr in bindings:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr in bindings:
            setattr(owner, attr, fn)


def det_off_by_one():
    orig = tanglekit.coloring.determinant
    return patched(orig, lambda d: orig(d) + 1)


def always_accept():
    orig = tanglekit.certify.verify_certificate
    return patched(orig, lambda cert, ambient=None: tanglekit.Verdict(True))


def inputs(name: str, count: int, seed: int = 7, **kw):
    wl = WORKLOADS[name](seed, SRC, tanglekit, **kw)
    return wl, list(islice(wl.stream(), count))


# -- planted faults ----------------------------------------------------------------


@pytest.mark.parametrize("name,count", [
    ("det-closures", 3), ("certify-verify", 4), ("template-scan", 2),
])
def test_determinant_off_by_one_fails_ops(name, count):
    wl, ops = inputs(name, count)
    assert failures(wl, ops) == 0
    with det_off_by_one():
        assert failures(wl, ops) > 0


def test_accepting_verifier_fails_forged_ops():
    wl, ops = inputs("certify-verify", 8)
    forged = [inp for inp in ops if inp["forgery"]]
    assert forged
    assert failures(wl, forged) == 0
    with always_accept():
        assert failures(wl, forged) == len(forged)


def faulty_tree(tmp_path: Path, module: str, patch: str) -> Path:
    """A copy of the package with `patch` appended to one module."""
    src = tmp_path / "src"
    shutil.copytree(SRC / "tanglekit", src / "tanglekit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "tanglekit" / module, "a", encoding="utf-8") as fh:
        fh.write("\n" + patch)
    return src


def cli_ops(src: Path, tmp_path: Path, verbs: set[str]):
    wl = CliOneshot(7, src, tanglekit, work=tmp_path / "work")
    block = wl.block()
    return wl, [inp for inp in block if inp["verb"] in verbs]


def test_cli_determinant_off_by_one(tmp_path):
    wl, ops = cli_ops(SRC, tmp_path, {"det"})
    assert failures(wl, ops) == 0
    src = faulty_tree(tmp_path, "coloring.py", (
        "_planted = determinant\n\n\n"
        "def determinant(d):\n    return _planted(d) + 1\n"
    ))
    wl, ops = cli_ops(src, tmp_path, {"det"})
    assert failures(wl, ops) == len(ops) == 1


def test_cli_accepting_verifier(tmp_path):
    src = faulty_tree(tmp_path, "certify.py", (
        "def verify_certificate(cert, ambient=None):\n    return Verdict(True)\n"
    ))
    wl, ops = cli_ops(src, tmp_path, {"certify", "verify"})
    assert [inp["verb"] for inp in ops] == ["certify", "verify", "verify"]
    assert [worker.attempt(wl, inp)[1] for inp in ops] == [True, True, False]


def test_clean_cli_block_passes(tmp_path):
    wl = CliOneshot(7, SRC, tanglekit, work=tmp_path / "work")
    assert failures(wl, wl.block()) == 0


# -- determinism -------------------------------------------------------------------

DUMP = """
import json, sys
from itertools import islice
from pathlib import Path
sys.path[:0] = [{bench!r}, {src!r}]
import tanglekit
from workloads import WORKLOADS
out = {{}}
for name, cls in sorted(WORKLOADS.items()):
    wl = cls({seed}, Path({src!r}), tanglekit)
    out[name] = list(islice(wl.stream(), 2 * len(wl.block())))
    wl.close()
print(json.dumps(out, sort_keys=True))
"""


def dump_inputs(seed: int, hashseed: str) -> dict:
    code = DUMP.format(bench=str(BENCH), src=str(SRC), seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True, timeout=120)
    return json.loads(proc.stdout)


def test_same_seed_same_inputs_across_processes():
    first = dump_inputs(5, "1")
    assert first == dump_inputs(5, "2")
    other = dump_inputs(6, "1")
    assert all(first[name] != other[name] for name in first)


def test_generated_diagrams_are_planar():
    wl, ops = inputs("det-closures", 18)
    for inp in ops:
        crossings = pdgen.parse_crossings(inp["pd"])
        assert pdgen.is_planar(crossings)
        assert len(crossings) == inp["crossings"]


# -- tracing -----------------------------------------------------------------------


def test_self_time_on_synthetic_span_tree():
    ticks = iter([0, 10, 20, 25, 40, 50, 90, 95, 97, 100])
    t = tracing.Tracer(clock=lambda: next(ticks))
    t.enter("a")        # 0
    t.enter("b")        # 10
    t.enter("c")        # 20
    t.exit()            # 25: c = 5
    t.exit()            # 40: b = 30 - 5
    t.enter("d")        # 50
    t.exit()            # 90: d = 40
    t.enter("c")        # 95
    t.exit()            # 97: c += 2
    t.exit()            # 100: a = 100 - 30 - 40 - 2
    assert dict(t.self_ns) == {"a": 28, "b": 25, "c": 7, "d": 40}
    assert dict(t.calls) == {"a": 1, "b": 1, "c": 2, "d": 1}
    assert not t.stack


def test_install_wraps_every_binding_and_restores():
    orig = tanglekit.coloring.determinant
    owners = {mod.__name__ for mod, _ in tracing._bindings(orig)}
    assert {"tanglekit.coloring", "tanglekit.skein", "tanglekit.certify"} <= owners
    with tracing.installed(tracing.Tracer()) as t:
        assert tanglekit.skein.determinant is not orig
        tanglekit.n_colorable(tanglekit.parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"), 3)
    assert tanglekit.skein.determinant is orig
    assert t.calls["coloring.determinant"] == 1
    assert t.calls["coloring.bareiss_determinant"] == 1
    assert t.calls["coloring.rank_mod_p"] == 1


def test_traced_counts_repeat_exactly():
    runs = []
    for _ in range(2):
        wl, ops = inputs("det-closures", 4)
        metrics = worker.traced(wl, ops)["metrics"]
        runs.append({k: v for k, v in metrics.items()
                     if not k.endswith("_ms") and k != "trace.overhead_ratio"})
    assert runs[0] == runs[1]
    assert runs[0]["coloring.determinant.distinct_ratio"] == 0.5
