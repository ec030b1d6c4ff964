"""The four seeded workloads: input streams, the timed op, and an oracle.

Each workload turns a seed into an endless, deterministic stream of inputs,
built block by block. A block holds every input class of the mix in a
seeded order, and the size parameters of each input (crossing count, number
of twist blocks, denominator, ...) are stratified draws, so runs
with different seeds see the same spread of sizes and their means and
quantiles vary little from seed to seed.

tanglekit receives only the generated inputs. The oracles use closed forms,
the recorded corpus determinants and plain enumeration; none of them calls
the code under test.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from math import gcd
from pathlib import Path

import pdgen

PRIMES = (3, 5, 7, 11, 13)
TREFOIL = [(1, 2, 3, 4), (2, 5, 6, 3), (4, 6, 5, 1)]


class Strata:
    """Stratified uniform draws in [0, 1): each cycle of n draws takes one
    point from each of n equal strata, in a seeded order. Whatever the seed,
    a run sees nearly the same spread of sizes, so the quantiles of ops whose
    cost is steep in size (a determinant is cubic in crossings) stay put."""

    def __init__(self, n: int, rng: random.Random) -> None:
        self.n = n
        self.rng = rng
        self.cycle: list[int] = []

    def next(self) -> float:
        if not self.cycle:
            self.cycle = list(range(self.n))
            self.rng.shuffle(self.cycle)
        return (self.cycle.pop() + self.rng.random()) / self.n


def log_uniform(u: float, lo: int, hi: int) -> int:
    return round(lo * (hi / lo) ** u)


def numerator(q: int, u: float) -> int:
    """The first p in (0, q) coprime to q from round(u * q) upward, wrapping."""
    p = min(q - 1, max(1, round(u * q)))
    while gcd(p, q) != 1:
        p = p + 1 if p + 1 < q else 1
    return p


def read_corpus(src: Path) -> list[tuple[str, str, int, int]]:
    """(name, pd, components, determinant) records of the bundled manifest."""
    out = []
    text = (src / "tanglekit" / "data" / "corpus.txt").read_text("utf-8")
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            name, pd, comps, det = (part.strip() for part in line.split("|"))
            out.append((name, pd, int(comps), int(det)))
    return out


def histogram(values, edges) -> dict[str, int]:
    """Counts per half-open bin [edges[i], edges[i+1])."""
    out = {f"{lo}-{hi - 1}": 0 for lo, hi in zip(edges, edges[1:])}
    for v in values:
        for lo, hi in zip(edges, edges[1:]):
            if lo <= v < hi:
                out[f"{lo}-{hi - 1}"] += 1
    return out


def quartiles(values) -> list[float]:
    s = sorted(values)
    if not s:
        return []
    return [s[(len(s) - 1) * k // 4] for k in range(5)]


class Workload:
    """One input mix. Subclasses define `block`, `run` and `check`."""

    name = ""
    traced_ops = 0  # ops in a traced run, fixed so that its counts repeat

    def __init__(self, seed: int, src: Path, tk) -> None:
        self.rng = random.Random(seed)
        self.tk = tk

    def stream(self):
        while True:
            yield from self.block()

    def block(self) -> list[dict]:
        raise NotImplementedError

    def run(self, inp: dict, tracer=None):
        """The timed op."""
        raise NotImplementedError

    def check(self, inp: dict, result) -> bool:
        """Oracle, run outside the timed interval."""
        raise NotImplementedError

    def prepare(self, inp: dict) -> None:
        """Untimed per-op preparation (files an op reads)."""

    def note(self, result):
        """The part of a result the input summary needs; results are not kept."""
        return None

    def summary(self, done: list[tuple[dict, object]]) -> dict:
        """Input properties of the attempted ops, from (input, note) pairs."""
        raise NotImplementedError

    def close(self) -> None:
        pass


# -- det-closures ----------------------------------------------------------------


class DetClosures(Workload):
    """parse_pd -> determinant -> n_colorable -> components on closed diagrams.

    Two thirds are closures of the stock one-slot templates (figure8: det |q|;
    twist: |p + q|; trefoil_sum: 3|q|) around a rational tangle, with 8-128
    crossings in all; one third are connected sums of 3-14 corpus knots (9-112
    crossings), whose determinant is the product of the recorded ones.
    Crossing counts are uniform, not log-uniform: the cost is cubic in them,
    and a log-uniform spread makes every latency quantile swing with the
    seed.
    """

    name = "det-closures"
    traced_ops = 72
    FAMILIES = ("figure8", "figure8", "twist", "twist", "trefoil_sum",
                "trefoil_sum", "sum", "sum", "sum")

    def __init__(self, seed, src, tk) -> None:
        super().__init__(seed, src, tk)
        self.sizes = {f: Strata(16, self.rng) for f in dict.fromkeys(self.FAMILIES)}
        self.knots = [
            (pdgen.parse_crossings(pd), det)
            for _, pd, comps, det in read_corpus(src)
            if comps == 1 and det > 1 and pd.startswith("X")
        ]

    def block(self) -> list[dict]:
        families = list(self.FAMILIES)
        self.rng.shuffle(families)
        return [self._make(f) for f in families]

    def _rational_word(self, crossings: int) -> list[tuple[str, int]]:
        """Positive twist word: `crossings` crossings in 1-9 near-equal
        blocks. The block count is a function of the size, so an op's cost
        hardly varies at a given size."""
        terms = 1 + crossings % 9
        parts = [crossings // terms + (i < crossings % terms) for i in range(terms)]
        self.rng.shuffle(parts)
        return [("v" if i % 2 == 0 else "h", k) for i, k in enumerate(parts)]

    def _make(self, family: str) -> dict:
        rng = self.rng
        u = self.sizes[family].next()
        if family == "sum":
            size = round(9 + u * 103)
            # knots are added until the crossing count reaches its drawn size
            crossings, det = rng.choice(self.knots)
            count = 1
            while count < 3 or (count < 14 and len(crossings) < size):
                other, d = rng.choice(self.knots)
                crossings = pdgen.connected_sum(
                    crossings, rng.randint(1, 2 * len(crossings)),
                    other, rng.randint(1, 2 * len(other)),
                )
                det *= d
                count += 1
            comps = 1
        else:
            extra = {"figure8": 0, "twist": 1, "trefoil_sum": 3}[family]
            word = self._rational_word(round(8 + u * 120) - extra)
            p, q = pdgen.word_fraction("h", word)
            if family == "twist":
                crossings = pdgen.rational_closure("h", word + [("v", 1)])
                det = abs(p + q)
            else:
                crossings = pdgen.rational_closure("h", word)
                det = abs(q)
                if family == "trefoil_sum":
                    crossings = pdgen.connected_sum(
                        crossings, rng.randint(1, 2 * len(crossings)),
                        TREFOIL, rng.randint(1, 6),
                    )
                    det *= 3
            comps = 1 if det % 2 else 2
        return {
            "family": family,
            "pd": pdgen.pd_text(crossings),
            "crossings": len(crossings),
            "det": det,
            "components": comps,
            "prime": rng.choice(PRIMES),
        }

    def run(self, inp, tracer=None):
        tk = self.tk
        d = tk.parse_pd(inp["pd"])
        return (
            tk.determinant(d),
            tk.n_colorable(d, inp["prime"]),
            tk.components(d),
        )

    def check(self, inp, result) -> bool:
        det, colorable, comps = result
        return (
            det == inp["det"]
            and colorable == (inp["det"] % inp["prime"] == 0)
            and comps == inp["components"]
        )

    def summary(self, done) -> dict:
        inputs = [inp for inp, _ in done]
        fam = Counter(inp["family"] for inp in inputs)
        return {
            "crossings_histogram": histogram(
                (inp["crossings"] for inp in inputs), [8, 16, 32, 64, 128, 256]
            ),
            "rational_closures": len(inputs) - fam["sum"],
            "connected_sums": fam["sum"],
            "families": dict(sorted(fam.items())),
        }


# -- certify-verify --------------------------------------------------------------


def admissible_tag(p: int, q: int, rng: random.Random) -> str:
    """The orientation an odd-denominator target forces, else a seeded pick."""
    if q % 2:
        return "antiparallel" if p % 2 == 0 else "parallel"
    return rng.choice(("parallel", "antiparallel"))


def forge(data: dict, kind: str, u: float) -> int:
    """Tamper with one node of certificate JSON; return its index.

    Every kind makes the node itself invalid, so a sound verifier rejects
    exactly there: `mediant` gives a triple node its parent's (unoriented) or
    partner's (oriented) fraction, `order` points a triple at itself, `base`
    moves a base off the generating family (to a denominator of 3), `tag`
    flips the target's tag.
    """
    nodes = data["nodes"]
    triples = [i for i, n in enumerate(nodes) if "triple" in n["just"]]
    bases = [i for i, n in enumerate(nodes) if "base" in n["just"]]
    if kind == "tag":
        m = len(nodes) - 1
        nodes[m]["orient"] = (
            "parallel" if nodes[m]["orient"] == "antiparallel" else "antiparallel"
        )
        return m
    if kind == "base":
        m = bases[int(u * len(bases))]
        p = int(nodes[m]["frac"].split("/")[0])
        nodes[m]["frac"] = f"{3 * p + 1}/3"
        return m
    m = triples[int(u * len(triples))]
    just = nodes[m]["just"]
    if kind == "order":
        just["triple"][0] = m
        return m
    i, j = just["triple"]
    source = i if "resolution" not in just else (j if just["resolution"] == i else i)
    nodes[m]["frac"] = nodes[source]["frac"]
    return m


class CertifyVerify(Workload):
    """generate -> certificate_to_json -> json round trip -> certificate_from_json
    -> verify_certificate, with one op in four carrying a forgery."""

    name = "certify-verify"
    traced_ops = 320
    AMBIENTS = ("figure8", "twist", "trefoil_sum")

    def __init__(self, seed, src, tk) -> None:
        super().__init__(seed, src, tk)
        self.templates = tk.bundled_templates()
        self.random_q = Strata(16, self.rng)
        self.random_p = Strata(16, self.rng)
        self.slow_q = Strata(16, self.rng)
        self.slow_count = 0

    def block(self) -> list[dict]:
        rng = self.rng
        kinds = ["random"] * 10 + ["slow"] * 2
        oriented = [True] * 6 + [False] * 6
        forged = [True] * 3 + [False] * 9
        for seq in (kinds, oriented, forged):
            rng.shuffle(seq)
        out = []
        for kind, ori, bad in zip(kinds, oriented, forged):
            if kind == "random":
                q = log_uniform(self.random_q.next(), 10, 20000)
                p = numerator(q, self.random_p.next())
            else:
                q = log_uniform(self.slow_q.next(), 500, 5000)
                p = 1 + self.slow_count % 2
                self.slow_count += 1
                if p == 2:
                    q |= 1
            forgeries = ("mediant", "order", "base") + (("tag",) if ori else ())
            out.append({
                "p": p,
                "q": q,
                "slow": kind == "slow",
                "tag": admissible_tag(p, q, rng) if ori else None,
                "ambient": rng.choice(self.AMBIENTS),
                "forgery": rng.choice(forgeries) if bad else None,
                "u": rng.random(),
            })
        return out

    def run(self, inp, tracer=None):
        tk = self.tk
        target = tk.TangleFraction(inp["p"], inp["q"])
        ambient = self.templates[inp["ambient"]]
        if inp["tag"]:
            cert = tk.oriented_span_certificate(
                tk.OrientedTarget(target, inp["tag"]), ambient
            )
        else:
            cert = tk.span_certificate(target, ambient)
        data = tk.certificate_to_json(cert)
        forged_at = forge(data, inp["forgery"], inp["u"]) if inp["forgery"] else None
        text = json.dumps(data)
        if tracer is not None:
            tracer.add("certify.json_bytes", len(text))
        back = json.loads(text)
        verdict = tk.verify_certificate(tk.certificate_from_json(back))
        return verdict, back, forged_at, len(back["nodes"])

    def check(self, inp, result) -> bool:
        verdict, data, forged_at, _ = result
        if inp["forgery"]:
            return verdict.accepted is False and verdict.node == forged_at
        last = data["nodes"][-1]
        return (
            verdict.accepted is True
            and data["kind"] == ("oriented" if inp["tag"] else "unoriented")
            and last["frac"] == f"{inp['p']}/{inp['q']}"
            and last.get("orient") == inp["tag"]
        )

    def note(self, result):
        return result[3]

    def summary(self, done) -> dict:
        n = len(done) or 1
        inputs = [inp for inp, _ in done]
        nodes = [n for _, n in done if n is not None]
        return {
            "nodes_quartiles": quartiles(nodes),
            "share_1_over_q": sum(i["slow"] and i["p"] == 1 for i in inputs) / n,
            "share_2_over_q": sum(i["slow"] and i["p"] == 2 for i in inputs) / n,
            "share_oriented": sum(bool(i["tag"]) for i in inputs) / n,
            "share_forged": sum(bool(i["forgery"]) for i in inputs) / n,
            "forgeries": dict(sorted(Counter(
                i["forgery"] for i in inputs if i["forgery"]).items())),
            "ambients": dict(sorted(Counter(i["ambient"] for i in inputs).items())),
        }


# -- template-scan ---------------------------------------------------------------


def scan_fractions(bound: int) -> list[str]:
    """Reduced p/q with |p| <= bound, 1 <= q <= bound, plus 1/0."""
    out = ["1/0"]
    for q in range(1, bound + 1):
        out += [f"{p}/{q}" for p in range(-bound, bound + 1) if gcd(abs(p), q) == 1]
    return out


def mirror(frac: str) -> str:
    p, q = frac.split("/")
    return frac if p == "0" or q == "0" else f"{-int(p)}/{q}"


class TemplateScan(Workload):
    """two_slot_scan on necklace2 or stack2 at bound 3-5; every insertion x
    has exactly one zero-determinant companion, its mirror."""

    name = "template-scan"
    traced_ops = 36

    def __init__(self, seed, src, tk) -> None:
        super().__init__(seed, src, tk)
        self.templates = tk.bundled_templates()

    def block(self) -> list[dict]:
        combos = [(t, b) for t in ("necklace2", "stack2") for b in (3, 4, 5)]
        self.rng.shuffle(combos)
        return [
            {"template": t, "bound": b, "slots": self.rng.choice(((0, 1), (1, 0)))}
            for t, b in combos
        ]

    def run(self, inp, tracer=None):
        s1, s2 = inp["slots"]
        return self.tk.two_slot_scan(self.templates[inp["template"]], s1, s2, inp["bound"])

    def check(self, inp, result) -> bool:
        got = {str(x): (count, tuple(str(w) for w in ws)) for x, count, ws in result.records}
        want = {x: (1, (mirror(x),)) for x in scan_fractions(inp["bound"])}
        return len(result.records) == len(want) and got == want

    def summary(self, done) -> dict:
        inputs = [inp for inp, _ in done]
        return {
            "bounds": dict(sorted(Counter(str(i["bound"]) for i in inputs).items())),
            "templates": dict(sorted(Counter(i["template"] for i in inputs).items())),
            "pairs": sum(len(scan_fractions(i["bound"])) ** 2 for i in inputs),
        }


# -- cli-oneshot -----------------------------------------------------------------


def cf_string(p: int, q: int) -> str:
    """The CLI's canonical continued fraction of p/q (q > 0, p != 0)."""
    sign = 1 if p > 0 else -1
    a, b = abs(p), q
    quotients = []
    while b:
        quotients.append(a // b)
        a, b = b, a % b
    terms = [str(sign * t) for t in reversed(quotients)]
    if len(terms) % 2 == 0:
        terms = ["inf"] + terms
    return "(" + ",".join(terms) + ")"


FIT_TEMPLATES = {
    "figure8": ("T[1,2,1,2]", "1 | 0 | 1/0"),
    "twist": ("T[1,2,3,4] X[3,4,2,1]", "-1 | 1 | -1/1"),
}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import tanglekit.cli; "
    "print((time.perf_counter() - t) * 1e3)"
)


class CliOneshot(Workload):
    """One fresh `python -m tanglekit.cli` process per op, one at a time."""

    name = "cli-oneshot"
    traced_ops = 24

    def __init__(self, seed, src, tk, work: Path | None = None) -> None:
        super().__init__(seed, src, tk)
        self.corpus = read_corpus(src)
        self.work = work or Path(__file__).resolve().parent / ".work" / f"seed-{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.closure_sizes = Strata(8, self.rng)
        self.cf_q = Strata(8, self.rng)
        self.cert_q = Strata(8, self.rng)
        self.cert_p = Strata(8, self.rng)
        self.blocks = 0

    def _closure(self) -> tuple[str, int]:
        crossings = log_uniform(self.closure_sizes.next(), 8, 32)
        terms = self.rng.randint(1, min(6, crossings))
        cuts = sorted(self.rng.sample(range(1, crossings), terms - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [crossings])]
        word = [("v" if i % 2 == 0 else "h", k) for i, k in enumerate(parts)]
        _, q = pdgen.word_fraction("h", word)
        return pdgen.pd_text(pdgen.rational_closure("h", word)), abs(q)

    def _pd(self) -> tuple[str, int]:
        if self.rng.random() < 0.5:
            return self._closure()
        _, pd, _, det = self.rng.choice(self.corpus)
        return pd, det

    def block(self) -> list[dict]:
        """One op per verb; `verify` twice, on the certificate the block's
        `certify` writes and on a forged copy of it."""
        rng = self.rng
        slot = self.blocks % 32
        self.blocks += 1
        cert = str(self.work / f"cert_{slot}.json")
        forged = str(self.work / f"forged_{slot}.json")

        def op(verb, argv, stdout, code=0, **extra):
            return {"verb": verb, "argv": argv, "stdout": stdout, "code": code, **extra}

        pd, det = self._pd()
        ops = [op("det", ["det", pd], f"{det}\n")]
        pd, det = self._pd()
        n = rng.choice(PRIMES)
        ops.append(op("colorable", ["colorable", "--n", str(n), pd],
                      "true\n" if det % n == 0 else "false\n"))
        q = log_uniform(self.cf_q.next(), 2, 10**6)
        p = rng.randint(1, q) * rng.choice((1, -1))
        while gcd(abs(p), q) != 1:
            p = rng.randint(1, q) * rng.choice((1, -1))
        ops.append(op("tangle_cf", ["tangle", "cf", "--", f"{p}/{q}"], cf_string(p, q) + "\n"))
        pd, fit = FIT_TEMPLATES[rng.choice(sorted(FIT_TEMPLATES))]
        ops.append(op("template_fit", ["--porcelain", "template", "fit", pd], fit + "\n"))
        q = log_uniform(self.cert_q.next(), 10, 2000)
        p = numerator(q, self.cert_p.next())
        tag = admissible_tag(p, q, rng) if rng.random() < 0.5 else None
        argv = ["certify", f"{p}/{q}", "-o", cert] + (["--oriented", tag] if tag else [])
        ops.append(op("certify", argv, "", target=f"{p}/{q}", tag=tag))
        ops.append(op("verify", ["verify", cert], "ACCEPT\n"))
        ops.append(op("verify", ["verify", forged], None, 2, source=cert, u=rng.random()))
        n = len(self.corpus)
        ops.append(op("corpus_check", ["corpus", "check"], f"{n}/{n} entries check out\n"))
        return ops

    def prepare(self, inp) -> None:
        """Forge the certificate the preceding certify op wrote."""
        if "source" not in inp:
            return
        with open(inp["source"], encoding="utf-8") as fh:
            data = json.load(fh)
        m = forge(data, "mediant", inp["u"])
        with open(inp["argv"][1], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        inp["prefix"] = f"REJECT (check 2 at node {m}:"

    def run(self, inp, tracer=None):
        proc = subprocess.run(
            [sys.executable, "-m", "tanglekit.cli", *inp["argv"]],
            capture_output=True, text=True, env=self.env, timeout=120,
        )
        return proc.stdout, proc.returncode

    def check(self, inp, result) -> bool:
        stdout, code = result
        if code != inp["code"]:
            return False
        if "prefix" in inp:
            return stdout.startswith(inp["prefix"]) and stdout.count("\n") == 1
        if stdout != inp["stdout"]:
            return False
        if inp["verb"] == "certify":
            with open(inp["argv"][3], encoding="utf-8") as fh:
                data = json.load(fh)
            last = data["nodes"][-1]
            return last["frac"] == inp["target"] and last.get("orient") == inp["tag"]
        return True

    def probe(self) -> tuple[float, float]:
        """Wall ms of a bare interpreter start, and the ms a fresh child
        spends importing tanglekit.cli."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True,
                       timeout=60)
        bare = (time.perf_counter() - t0) * 1e3
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.env,
                              capture_output=True, text=True, check=True, timeout=60)
        return bare, float(proc.stdout)

    def summary(self, done) -> dict:
        return {"verbs": dict(sorted(Counter(i["verb"] for i, _ in done).items()))}

    def close(self) -> None:
        for path in self.work.glob("*.json"):
            path.unlink()
        self.work.rmdir()


WORKLOADS = {w.name: w for w in (DetClosures, CertifyVerify, TemplateScan, CliOneshot)}
