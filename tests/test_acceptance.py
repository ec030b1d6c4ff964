"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS line on success (run with -s to see them);
a failure raises with the offending case.
"""

import random
from math import gcd

import sympy

from tanglekit.certify import (
    Certificate,
    OrientedTarget,
    UNORIENTED,
    oriented_span_certificate,
    span_certificate,
    verify_certificate,
)
from tanglekit.coloring import coloring_matrix, determinant, n_colorable
from tanglekit.corpus import bundled_templates, load_corpus
from tanglekit.diagram import (
    LinkDiagram,
    components,
    connected_sum,
    disjoint_union,
    parse_pd,
)
from tanglekit.skein import (
    TangleTemplate,
    figure8_template,
    reduced_fractions,
    splice,
    two_slot_scan,
    zero_locus,
)
from tanglekit.tangle import (
    ANTIPARALLEL,
    PARALLEL,
    TangleFraction,
    compile_word,
    connectivity,
    fraction_to_cf,
)
from tangle_oracles import brute_two_slot_scan, trace_connectivity

CORPUS = load_corpus()
TEMPLATES = bundled_templates()


def report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def independent_det(d: LinkDiagram) -> int:
    """Minor/nullspace brute force via sympy, separate from the shipped path."""
    if not d.crossings:
        return 1 if d.loops == 1 else 0
    if d.loops:
        return 0
    rows = coloring_matrix(d)
    if len(rows[0]) != len(rows):
        return 0
    return abs(sympy.Matrix(rows).minor_submatrix(0, 0).det())


def test_criterion_1_determinant_oracle_agreement():
    for e in CORPUS:
        d = e.diagram()
        assert determinant(d) == e.determinant, e.name
        assert independent_det(d) == e.determinant, e.name
    assert determinant(parse_pd("U")) == 1
    report(1, f"determinant matches the independent oracle on all "
              f"{len(CORPUS)} corpus entries, unknot included")


def test_criterion_2_complexity_one_law():
    t = figure8_template()
    count = 0
    for f in reduced_fractions(12):
        out = splice(t, 0, f)
        assert determinant(out) == f.q, f
        count += 1
    report(2, f"det(closure(p/q)) = |q| for all {count} reduced fractions "
              f"with |p|,|q| <= 12")


def test_criterion_3_colorability_iff_divisibility():
    primes = (2, 3, 5, 7, 11, 13)
    for e in CORPUS:
        d = e.diagram()
        for n in primes:
            assert n_colorable(d, n) == (e.determinant % n == 0), (e.name, n)
    report(3, f"n-colorability matches n | det over {len(CORPUS)} diagrams "
              f"and primes {primes}")


def test_criterion_4_parity_law():
    for e in CORPUS:
        assert (e.determinant % 2 == 1) == (e.components == 1), e.name
    report(4, "odd determinant exactly at the knots, over the whole corpus")


def test_criterion_5_split_vanishing_and_multiplicativity():
    union_entries = [e for e in CORPUS if e.name.startswith(("union_", "unlink_"))]
    assert union_entries
    for e in union_entries:
        assert e.determinant == 0, e.name
    small = [e for e in CORPUS if e.components == 1 and len(e.diagram().crossings) <= 6]
    pairs = 0
    for e1 in small[:8]:
        for e2 in small[:8]:
            d1, d2 = e1.diagram(), e2.diagram()
            assert determinant(disjoint_union(d1, d2)) == 0
            if d1.crossings and d2.crossings:
                for a1, a2 in ((1, 1), (d1.arc_count, 2)):
                    s = connected_sum(d1, a1, d2, a2)
                    assert determinant(s) == e1.determinant * e2.determinant, (
                        e1.name, e2.name, a1, a2,
                    )
                    pairs += 1
    report(5, f"disjoint unions vanish; {pairs} connected sums multiply exactly")


def test_criterion_6_connectivity_parity_formula():
    count = 0
    for f in reduced_fractions(10):
        compiled = compile_word(fraction_to_cf(f))
        assert trace_connectivity(compiled) == connectivity(f), f
        count += 1
    report(6, f"parity pairing equals traced pairing for all {count} "
              f"fractions with |p|,|q| <= 10")


def test_criterion_7_linear_model_and_zero_locus():
    rng = random.Random(414213)
    single_slot = {k: t for k, t in TEMPLATES.items() if t.slot_count == 1}
    for name, t in single_slot.items():
        a, b = t.coeffs
        picked = 0
        while picked < 20:
            p, q = rng.randint(-9, 9), rng.randint(0, 9)
            if (p, q) == (0, 0) or gcd(abs(p), q) != 1:
                continue
            f = TangleFraction.make(p, q)
            out = splice(TangleTemplate(t.diagram), 0, f)
            assert determinant(out) == abs(b * f.p - a * f.q), (name, f)
            picked += 1
        zl = zero_locus(t)
        zeros = []
        for f in reduced_fractions(8):
            out = splice(TangleTemplate(t.diagram), 0, f)
            if determinant(out) == 0:
                zeros.append(f)
        assert zeros == [zl] or (zeros == [] and abs(zl.p) > 8), (name, zeros)
    report(7, f"fitted models exact on 20 random insertions per template "
              f"({', '.join(single_slot)}); zero locus unique to bound 8")


def test_criterion_8_unoriented_span():
    count = 0
    for f in reduced_fractions(50):
        if f.q == 0:
            continue
        cert = span_certificate(f)
        assert TangleFraction(cert.ps[-1], cert.qs[-1]) == f
        v = verify_certificate(cert)
        assert v.accepted, (f, str(v))
        count += 1
    for p in (997, -1201):  # denominator induction shrugs at large numerators
        f = TangleFraction(p, 50)
        assert verify_certificate(span_certificate(f)).accepted

    sample = span_certificate(TangleFraction(2, 5))
    justs = (("base", "unknot"), ("base", "unknot"), ("triple", 0, 1, None))
    mutated_parent = Certificate(
        UNORIENTED, sample.ambient, (1, 3, 2), (1, 1, 5), (None,) * 3, justs
    )
    v = verify_certificate(mutated_parent)
    assert not v.accepted and v.check == 2
    mutated_base = Certificate(
        UNORIENTED, sample.ambient, (1, 1, 2), (2, 3, 5), (None,) * 3, justs
    )
    v = verify_certificate(mutated_base)
    assert not v.accepted and v.check == 5
    report(8, f"{count} span certificates generated and verified (|q| <= 50); "
              f"forged parents and bases rejected")


def test_criterion_9_oriented_span_and_corrected_recursion():
    count = 0
    for f in reduced_fractions(30):
        if f.q == 0:
            continue
        tags = (
            [PARALLEL, ANTIPARALLEL]
            if f.q % 2 == 0
            else [PARALLEL if f.p % 2 else ANTIPARALLEL]
        )
        for tag in tags:
            cert = oriented_span_certificate(OrientedTarget(f, tag))
            v = verify_certificate(cert)
            assert v.accepted, (f, tag, str(v))
            for q, just in zip(cert.qs, cert.justs):
                if just[0] == "base":
                    assert q in (1, 2), (f, q, just)
            count += 1
    big = OrientedTarget(TangleFraction(601, 30), ANTIPARALLEL)
    assert verify_certificate(oriented_span_certificate(big)).accepted

    checked = 0
    for k in range(2, 26):
        for i in range(0, 11):
            for j in range(1, k):
                if gcd(j, k) != 1 or (i, j) == (0, 1):
                    continue
                p = pow(j, -1, k)
                q = (p * k * i + p * j - 1) // k
                r = k - p
                s = (r * k * i + r * j + 1) // k
                assert (p * k * i + p * j - 1) % k == 0
                assert (r * k * i + r * j + 1) % k == 0
                assert abs(p * s - q * r) == 1, (k, i, j)
                assert TangleFraction.make(p + r, q + s) == TangleFraction.make(
                    k, k * i + j
                ), (k, i, j)
                checked += 1
    report(9, f"{count} oriented certificates verified (|q| <= 30) on unknot "
              f"and Hopf bases; recursion identities exact in {checked} cases")


def test_criterion_10_two_slot_scan():
    # the law is checked on pairwise enumeration: the library's scan reads
    # its zeros off the linear model, so checking the law on it would assume
    # what it shows
    for name in ("necklace2", "stack2"):
        t = TEMPLATES[name]
        for slots in ((0, 1), (1, 0)):
            oracle = brute_two_slot_scan(t, *slots, 6)
            assert oracle.max_zero_count <= 1, (name, slots, oracle.max_zero_count)
            assert oracle.records
            assert two_slot_scan(t, *slots, 6).lines() == oracle.lines(), (name, slots)
    report(10, "two-slot templates admit at most one zero-determinant "
               "companion per insertion (enumerated, bound 6, both slot "
               "orders); the closed-form scan prints the same report")
