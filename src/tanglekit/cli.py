"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error (bad input, malformed PD,
unsatisfiable request), 2 when a certificate verification rejects. Output is
plain ASCII; `--porcelain` switches multi-field results to stable
line-oriented `field | field | ...` records.
"""

from __future__ import annotations

import argparse
import re
import sys

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse reads a token starting with '-' as an option unless it
        # looks like a negative number; a negative fraction (-13/8) is one too
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="tanglekit", description=__doc__)
    p.add_argument("--porcelain", action="store_true", help="machine output")
    sub = p.add_subparsers(dest="verb", required=True)

    d = sub.add_parser("det", help="link determinant of a PD code")
    d.add_argument("pd")

    c = sub.add_parser("colorable", help="n-colorability of a PD code")
    c.add_argument("--n", type=int, required=True, help="a prime modulus")
    c.add_argument("pd")

    t = sub.add_parser("tangle", help="rational tangle calculus")
    tsub = t.add_subparsers(dest="tangle_op", required=True)
    tcf = tsub.add_parser("cf", help="continued fraction of p/q")
    tcf.add_argument("fraction")
    tev = tsub.add_parser("eval", help="evaluate a continued fraction")
    tev.add_argument("cf")
    tcn = tsub.add_parser("conn", help="endpoint pairing of p/q")
    tcn.add_argument("fraction")

    s = sub.add_parser("skein", help="skein triples")
    ssub = s.add_subparsers(dest="skein_op", required=True)
    str_ = ssub.add_parser("triple", help="mediant and partner of a Farey pair")
    str_.add_argument("f1")
    str_.add_argument("f2")

    tm = sub.add_parser("template", help="tangle templates")
    tmsub = tm.add_subparsers(dest="template_op", required=True)
    tfit = tmsub.add_parser("fit", help="fit determinant coefficients")
    tfit.add_argument("pd")
    tscan = tmsub.add_parser("scan", help="two-slot zero-determinant scan")
    tscan.add_argument("pd")
    tscan.add_argument("--bound", type=int, default=6)

    ce = sub.add_parser("certify", help="generate a span certificate")
    ce.add_argument("fraction")
    ce.add_argument("--oriented", choices=["parallel", "antiparallel"])
    ce.add_argument("-o", "--output", help="write the certificate JSON here")

    ve = sub.add_parser("verify", help="verify a certificate file")
    ve.add_argument("file")

    co = sub.add_parser("corpus", help="bundled diagram corpus")
    co.add_argument("action", choices=["list", "check"], nargs="?", default="list")
    co.add_argument("--corpus", help="manifest path (default: bundled)")
    return p


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except (_UsageError, ValueError, OSError) as exc:
        # ValueError covers PDError, TemplateError and CertificateError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    # each verb imports only the modules it needs: a process answering `det`
    # never loads the skein or certificate layers
    if args.verb == "det":
        from .coloring import determinant
        from .diagram import parse_pd

        print(determinant(parse_pd(args.pd)))
        return 0

    if args.verb == "colorable":
        from .coloring import n_colorable
        from .diagram import parse_pd

        result = n_colorable(parse_pd(args.pd), args.n)
        print("true" if result else "false")
        return 0

    if args.verb == "tangle":
        from .tangle import (
            ContinuedFraction,
            TangleFraction,
            cf_to_fraction,
            connectivity,
            fraction_to_cf,
        )

        if args.tangle_op == "cf":
            print(fraction_to_cf(TangleFraction.parse(args.fraction)))
        elif args.tangle_op == "eval":
            print(cf_to_fraction(ContinuedFraction.parse(args.cf)))
        else:
            print(connectivity(TangleFraction.parse(args.fraction)))
        return 0

    if args.verb == "skein":
        from .skein import FareyPair, mediant, partner
        from .tangle import TangleFraction

        pair = FareyPair(
            TangleFraction.parse(args.f1), TangleFraction.parse(args.f2)
        )
        med, part = mediant(pair), partner(pair)
        if args.porcelain:
            print(f"{med} | {part}")
        else:
            print(f"mediant {med}")
            print(f"partner {part}")
        return 0

    if args.verb == "template":
        from .diagram import parse_pd
        from .skein import TangleTemplate, fit_coefficients, two_slot_scan, zero_locus

        t = TangleTemplate(parse_pd(args.pd))
        if args.template_op == "fit":
            a, b = fit_coefficients(t)
            zl = zero_locus(TangleTemplate(t.diagram, (a, b)))
            if args.porcelain:
                print(f"{a} | {b} | {zl}")
            else:
                print(f"a = {a}, b = {b}: det(p/q) = |{b}*p - ({a})*q|")
                print(f"zero locus {zl}")
            return 0
        report = two_slot_scan(t, 0, 1, args.bound)
        for line in report.lines():
            print(line)
        if not args.porcelain:
            print(f"max zero-determinant companions per insertion: "
                  f"{report.max_zero_count}")
        return 0

    if args.verb == "certify":
        from .certify import (
            OrientedTarget,
            certificate_text,
            oriented_span_certificate,
            save_certificate,
            span_certificate,
            verify_certificate,
        )
        from .tangle import TangleFraction

        frac = TangleFraction.parse(args.fraction)
        if args.oriented:
            cert = oriented_span_certificate(OrientedTarget(frac, args.oriented))
        else:
            cert = span_certificate(frac)
        verdict = verify_certificate(cert)
        if args.output:
            save_certificate(cert, args.output)
        else:
            sys.stdout.write(certificate_text(cert))
        print(f"{len(cert)} nodes, {verdict}", file=sys.stderr)
        return 0 if verdict.accepted else 2

    if args.verb == "verify":
        from .certify import load_certificate, verify_certificate

        cert = load_certificate(args.file)
        verdict = verify_certificate(cert)
        print(str(verdict))
        return 0 if verdict.accepted else 2

    if args.verb == "corpus":
        from .coloring import determinant
        from .corpus import load_corpus
        from .diagram import components

        entries = load_corpus(args.corpus)
        if args.action == "list":
            for e in entries:
                print(f"{e.name} | {e.pd} | {e.components} | {e.determinant}")
            return 0
        bad = 0
        for e in entries:
            d = e.diagram()
            ok = components(d) == e.components and determinant(d) == e.determinant
            if not ok:
                bad += 1
            if args.porcelain:
                print(f"{e.name} | {'ok' if ok else 'MISMATCH'}")
            elif not ok:
                print(f"{e.name}: MISMATCH")
        if not args.porcelain:
            print(f"{len(entries) - bad}/{len(entries)} entries check out")
        return 0 if bad == 0 else 1

    raise _UsageError(f"unknown verb {args.verb!r}")  # pragma: no cover


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
