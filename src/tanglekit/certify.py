"""Skein-derivation certificates: generation and independent verification.

A certificate is a DAG of fraction-labelled links over a fixed one-slot
ambient template. BASE nodes are restricted to the generating family (integer
insertions for the unoriented kind; integer and half-integer insertions, i.e.
unknot and Hopf closures, for the oriented kind). Every TRIPLE node is a
verified skein triple with all members of nonzero determinant:

- unoriented: the node is the mediant of its two parents (a Farey pair);
- oriented: the node is the mediant of a Farey pair reconstructed from the
  node and its partner parent, with the other parent the marked resolution,
  the unique pair member whose endpoint pairing suits the orientation sector.

An orientation tag names a sector, the parities (p mod 2, q mod 2) of the
insertions it admits; `_SECTOR_PARITIES` is the format's one table of them.
OrientedTarget refuses a target outside its tag's sector, and the generators
mark the one Farey parent inside it.

The verifier re-derives every identity with exact integer arithmetic and
shares no code path with the generators' walk; it does not read the sector
table, and states the forced-tag rule itself.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import gcd

from ._record import _Record
from .diagram import LinkDiagram, PDError, parse_pd, pd_string
from . import skein as _skein
from .skein import TangleTemplate, TemplateError, figure8_template, fit_coefficients
from .skein import insertion_det
# unused here: check 0 keys its refit memo on the skein layer's binding, read
# per call; this one keeps certify among the modules that perfbench's tracer
# self-test expects to bind coloring.determinant (ROADMAP item 1 drops that)
from .skein import determinant  # noqa: F401
from .tangle import ANTIPARALLEL, PARALLEL, TangleFraction

__all__ = [
    "Certificate", "CertNode", "OrientedTarget", "Verdict", "CertificateError",
    "span_certificate", "oriented_span_certificate", "verify_certificate",
    "certificate_to_json", "certificate_from_json",
    "certificate_text", "save_certificate", "load_certificate", "UNORIENTED",
    "ORIENTED",
]

UNORIENTED = "unoriented"
ORIENTED = "oriented"

BASE_UNKNOT = "unknot"
BASE_HOPF = "hopf"

# the tag table: an odd denominator forces the tag (odd p parallel, even p
# antiparallel); an even denominator has an odd p, (1, 0), in both sectors
_SECTOR_PARITIES = {PARALLEL: {(1, 1), (1, 0)}, ANTIPARALLEL: {(0, 1), (1, 0)}}


class CertificateError(ValueError):
    """A certificate cannot be generated for the requested target."""


# Work budget of one generator run, at three steps per certificate node. The
# node count is read off the target's continued fraction before any node is
# built, and a target whose certificate needs more steps is refused: the
# Stern-Brocot path of a target can be as long as its denominator.
MAX_CERTIFICATE_STEPS = 200_000


class CertNode(_Record):
    # just: ("base", name) | ("triple", i, j, resolution_index_or_None)
    __slots__ = _fields = ("frac", "orient", "just")


class OrientedTarget(_Record):
    __slots__ = _fields = ("fraction", "orientation")

    def __init__(self, fraction: TangleFraction, orientation: str) -> None:
        if orientation not in (PARALLEL, ANTIPARALLEL):
            raise ValueError(f"unknown orientation {orientation!r}")
        if fraction.parity() not in _SECTOR_PARITIES[orientation]:
            other = ANTIPARALLEL if orientation == PARALLEL else PARALLEL
            raise CertificateError(f"{fraction} admits only the {other} orientation")
        _Record.__init__(self, fraction, orientation)


class Certificate(_Record):
    """Nodes are kept as parallel columns: numerators `ps`, denominators `qs`,
    orientation `tags` and justification tuples `justs`. The `nodes` view
    builds their CertNode records on each access; equality, hash, repr and
    pickling go through it."""

    __slots__ = ("kind", "ambient", "ps", "qs", "tags", "justs")
    _fields = ("kind", "nodes", "ambient")

    def __init__(self, kind: str, nodes, ambient: TangleTemplate) -> None:
        nodes = tuple(nodes)
        self._set(
            kind, ambient, [n.frac.p for n in nodes], [n.frac.q for n in nodes],
            [n.orient for n in nodes], [n.just for n in nodes],
        )

    @classmethod
    def _columns(cls, kind, ambient, ps, qs, tags, justs) -> Certificate:
        cert = object.__new__(cls)
        cert._set(kind, ambient, ps, qs, tags, justs)
        return cert

    def _set(self, kind, ambient, *columns) -> None:
        for name, value in zip(self.__slots__, (kind, ambient, *map(tuple, columns))):
            object.__setattr__(self, name, value)

    @property
    def nodes(self) -> tuple[CertNode, ...]:
        fracs = map(TangleFraction, self.ps, self.qs)
        return tuple(map(CertNode, fracs, self.tags, self.justs))

    @property
    def target(self) -> TangleFraction:
        return TangleFraction(self.ps[-1], self.qs[-1])

    def __len__(self) -> int:
        return len(self.ps)


class Verdict(_Record):
    __slots__ = _fields = ("accepted", "check", "node", "message")

    def __init__(
        self, accepted: bool, check: int | None = None, node: int | None = None,
        message: str = "ACCEPT",
    ) -> None:
        _Record.__init__(self, accepted, check, node, message)

    def __str__(self) -> str:
        if self.accepted:
            return "ACCEPT"
        where = f" at node {self.node}" if self.node is not None else ""
        return f"REJECT (check {self.check}{where}: {self.message})"


# -- generation ------------------------------------------------------------------


def span_certificate(
    target: TangleFraction, ambient: TangleTemplate | None = None
) -> Certificate:
    """Derive a target insertion from integer (unknot-valued) bases: every
    node is the mediant of its two Farey parents."""
    return _derive(target, None, ambient)


def oriented_span_certificate(
    target: OrientedTarget, ambient: TangleTemplate | None = None
) -> Certificate:
    """Derive an oriented target from unknot and Hopf bases: every node cites
    its crossing-change partner and the Farey parent in its sector."""
    return _derive(target.fraction, target.orientation, ambient)


def _derive(
    target: TangleFraction, tag: str | None, ambient: TangleTemplate | None
) -> Certificate:
    """One walk down the target's Stern-Brocot path, for either kind (tag
    None: unoriented).

    The walk starts from the bounds n/1 < target < (n+1)/1 and replaces one
    bound by their mediant per step, in the runs of _runs, until the mediant
    is the target. An unoriented node is a mediant and cites the current
    bounds, the upper first. An oriented node is a mediant in the target's
    sector with denominator above 2. It cites its crossing-change partner,
    the bounds' difference, which is the bound the last step replaced, and
    its marked resolution, the one bound in its sector. Denominator 1
    insertions close to the unknot and are bases, and for the oriented kind
    so are denominator 2 ones, which close to the Hopf link. The certificate
    is its bases followed by its path nodes from root to target.
    """
    ambient = ambient or figure8_template()
    if ambient.coeffs is None:  # only a one-slot template carries a model
        raise CertificateError("certificates need a one-slot ambient with its model")
    if target.q == 0:
        raise CertificateError("the infinity insertion has no certificate")
    if insertion_det(ambient, target) == 0:
        raise CertificateError(f"target {target} is the ambient zero locus")
    # an oriented target is in its sector: OrientedTarget refuses one outside it
    compat = _SECTOR_PARITIES[tag] if tag else None
    n = target.p // target.q
    runs = _runs(target.p - n * target.q, target.q)
    if 3 * _size(n, runs, compat) > MAX_CERTIFICATE_STEPS:
        raise CertificateError(
            f"certificate for {target} needs more than {MAX_CERTIFICATE_STEPS} "
            "generation steps"
        )
    a, b = ambient.coeffs
    ps, qs, justs = [], [], []

    def emit(node: list, just: tuple) -> None:
        p, q, node[2] = node[0], node[1], len(ps)
        if b * p == a * q:
            raise CertificateError(
                f"derivation of {target} passes through the zero locus {p}/{q}"
            )
        ps.append(p)
        qs.append(q)
        justs.append(just)

    # path nodes as [p, q, index], the index None unless the node is emitted;
    # h is the first mediant, the one with denominator 2
    lo, hi, h, last = [n, 1, None], [n + 1, 1, None], [2 * n + 1, 2, None], None
    if target.q == 1:
        bases = [lo]
    elif compat is None:
        bases = [hi, lo]
    else:
        # h is in either sector, and one integer bound is; a node's partner
        # has its parity, so the target's partners lead to h iff q is even
        b1 = lo if (n % 2, 1) in compat else hi
        bases = [h] if target.q == 2 else [h, b1] if target.q % 2 == 0 else [b1, h]
    for node in bases:
        emit(node, ("base", BASE_UNKNOT if node[1] == 1 else BASE_HOPF))
    for r, count in enumerate(runs):
        upper = r % 2 == 0  # the run moves the upper bound
        for _ in range(count):
            p, q = lo[0] + hi[0], lo[1] + hi[1]
            node = [p, q, None] if q > 2 else h
            if compat is None:
                emit(node, ("triple", hi[2], lo[2], None))
            elif q > 2 and (p % 2, q % 2) in compat:
                res = lo if (lo[0] % 2, lo[1] % 2) in compat else hi
                emit(node, ("triple", last[2], res[2], res[2]))
            if upper:
                last, hi = hi, node
            else:
                last, lo = lo, node
    return Certificate._columns(
        ORIENTED if tag else UNORIENTED, ambient, ps, qs, (tag,) * len(ps), justs
    )


def _runs(r: int, k: int) -> list[int]:
    """Mediants per run of the walk from 0/1 < r/k < 1/1 to r/k, 0 <= r < k:
    runs alternately move the upper and the lower bound, and their lengths
    are the partial quotients of r/k = [0; a1, ..., am], a1 less one."""
    runs = []
    while r:
        runs.append(k // r)
        k, r = r, k % r
    if runs:
        runs[0] -= 1
    return runs


def _size(n: int, runs: list[int], compat: set | None) -> int:
    """Node count of the certificate a walk emits, counted from its runs."""
    if compat is None:
        return 2 + sum(runs) if runs else 1
    # bound parities, lower and upper; a run moving x against the fixed y
    # makes mediants of parity x + y and x in turn
    bounds = [(n % 2, 1), ((n + 1) % 2, 1)]
    triples = -1  # the first mediant, (2n+1)/2, is in either sector: a base
    for r, count in enumerate(runs):
        x, y = bounds[1 - r % 2], bounds[r % 2]
        xy = ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2)
        triples += (count + 1) // 2 * (xy in compat) + count // 2 * (x in compat)
        bounds[1 - r % 2] = xy if count % 2 else x
    return 2 + triples if triples > 0 else 1


# -- verification ----------------------------------------------------------------

# Bound on the ambient fits the verifier remembers.
_REFIT_MEMO_SIZE = 64


@lru_cache(maxsize=_REFIT_MEMO_SIZE)
def _refit(diagram: LinkDiagram, det) -> tuple[int, int]:
    """fit_coefficients of a one-slot diagram, which ignores its orientation
    (an oriented diagram takes a memo entry of its own).

    A fit is made by the determinant that fit_coefficients evaluates its
    probes with, so that function keys the memo beside the diagram's value:
    a rebound determinant (a wrapper, a patched build) refits instead of
    reusing a fit it never made.
    """
    return fit_coefficients(TangleTemplate(diagram))


def verify_certificate(cert: Certificate) -> Verdict:
    """Re-check a certificate independently of how it was generated.

    0. the recorded ambient coefficients match a fresh fit of its diagram
       (the fit is memoized by diagram value and the determinant in use;
       the comparison runs on every call);
    1. each justification is a base or a triple of its length, and triples
       reference strictly earlier nodes (DAG order) by int index; an oriented
       triple marks one of them as its resolution, an unoriented one none;
    2. exact mediant/Farey identities at every triple;
    3. nonzero determinant of every node under the ambient model;
    4. (oriented) every tag is valid, forced by the fraction where the
       denominator is odd, and shared by a triple's parents. With check 2
       this puts each node and its marked resolution in the tag's sector and
       the other pair member outside it, so the resolution is the unique one;
    5. bases restricted to the generating family.

    Checks 2-5 run on the certificate's integer columns; fractions appear
    only in REJECT messages, formatted as p/q.
    """
    if cert.ambient.coeffs is None:
        return Verdict(False, 0, None, "ambient must be one fitted slot")
    try:
        refit = _refit(cert.ambient.diagram, _skein.determinant)
    except Exception as exc:  # noqa: BLE001 - a verdict, not a fault
        return Verdict(False, 0, None, f"ambient cannot be refitted: {exc}")
    if refit != cert.ambient.coeffs:
        return Verdict(
            False, 0, None,
            f"recorded coefficients {cert.ambient.coeffs} != refit {refit}",
        )
    if cert.kind not in (UNORIENTED, ORIENTED):
        return Verdict(False, 0, None, f"unknown kind {cert.kind!r}")
    if not len(cert):
        return Verdict(False, 0, None, "empty certificate")

    oriented = cert.kind == ORIENTED
    a, b = cert.ambient.coeffs
    ps, qs, tags = cert.ps, cert.qs, cert.tags
    for m, just in enumerate(cert.justs):
        p, q = ps[m], qs[m]
        kind = just[0] if just else None
        if kind == "triple" and len(just) == 4:
            _, i, j, res = just
            if type(i) is not int or type(j) is not int:
                return Verdict(False, 1, m, "triple indices must be integers")
            if not (0 <= i < m and 0 <= j < m and i != j):
                return Verdict(False, 1, m, "triple must reference earlier nodes")
            if not oriented:
                if res is not None:
                    return Verdict(
                        False, 1, m, "unoriented triple carries a resolution marker"
                    )
                msg = _mediant_fault(p, q, ps[i], qs[i], ps[j], qs[j])
                if msg is not None:
                    return Verdict(False, 2, m, msg)
            else:
                if type(res) is not int or res not in (i, j):
                    return Verdict(False, 1, m, "resolution marker must be a parent")
                # resolution (rp, rq) and crossing-change partner (xp, xq)
                o = j if res == i else i
                rp, rq, xp, xq = ps[res], qs[res], ps[o], qs[o]
                pair = _farey_pair_of(p, q, xp, xq)
                if pair is None:
                    return Verdict(
                        False, 2, m, f"{p}/{q} and {xp}/{xq} do not span a Farey pair"
                    )
                if (rp, rq) not in pair:
                    return Verdict(
                        False, 2, m,
                        f"marked resolution {rp}/{rq} is not a member of the pair",
                    )
        elif kind not in ("base", "triple"):
            return Verdict(False, 1, m, f"unknown justification {kind!r}")
        elif kind == "triple" or len(just) != 2:
            return Verdict(False, 1, m, f"malformed {kind} justification {just!r}")

        if b * p == a * q:
            return Verdict(False, 3, m, f"{p}/{q} has determinant zero")

        if oriented:
            tag = tags[m]
            if tag not in (PARALLEL, ANTIPARALLEL):
                return Verdict(False, 4, m, "oriented node missing its tag")
            # an odd denominator forces the tag: even numerator antiparallel
            if q % 2 and (PARALLEL if p % 2 else ANTIPARALLEL) != tag:
                return Verdict(False, 4, m, f"{p}/{q} cannot be {tag}")
            # hence p/q is in the tag's sector (an even q has odd p, (1, 0): in both);
            # so is res, an earlier node held to this tag below; a pair and its mediant
            # have three parities, a sector two, so the other pair member is outside it
            if kind == "triple" and (tags[i] != tag or tags[j] != tag):
                return Verdict(False, 4, m, "triple members carry different tags")
        elif tags[m] is not None:
            return Verdict(False, 4, m, "unoriented node carries a tag")

        if kind == "base":
            name = just[1]
            if oriented:
                if not (name == BASE_UNKNOT and q == 1 or name == BASE_HOPF and q == 2):
                    return Verdict(
                        False, 5, m, f"{p}/{q} ({name}) is not an unknot or Hopf base"
                    )
            elif name != BASE_UNKNOT or q != 1:
                return Verdict(
                    False, 5, m, f"{p}/{q} ({name}) is not an unknot-valued base"
                )
    return Verdict(True)


def _mediant_fault(
    p: int, q: int, pi: int, qi: int, pj: int, qj: int
) -> str | None:
    """Why p/q is not the mediant of the Farey pair pi/qi, pj/qj, or None."""
    if abs(pi * qj - qi * pj) != 1:
        return f"parents {pi}/{qi}, {pj}/{qj} are not a Farey pair"
    # the sum of a Farey pair of reduced fractions is reduced with q > 0
    if pi + pj != p or qi + qj != q:
        return f"mediant of parents is {pi + pj}/{qi + qj}, not {p}/{q}"
    return None


def _farey_pair_of(
    p: int, q: int, xp: int, xq: int
) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Reduced Farey pair whose mediant is p/q and whose crossing change is
    xp/xq: the halves of their sum and difference, or None."""
    sp, sq, dp, dq = p + xp, q + xq, p - xp, q - xq
    if sp % 2 or sq % 2 or dp % 2 or dq % 2:
        return None
    p1, q1, p2, q2 = sp // 2, sq // 2, dp // 2, dq // 2
    if abs(p1 * q2 - q1 * p2) != 1:
        return None
    # unit determinant: both are reduced and neither is 0/0; normalize the sign
    return _normalized(p1, q1), _normalized(p2, q2)


def _normalized(p: int, q: int) -> tuple[int, int]:
    if q == 0:
        return (1, 0)
    return (-p, -q) if q < 0 else (p, q)


# -- serialization ---------------------------------------------------------------


def certificate_to_json(cert: Certificate) -> dict:
    model = _model(cert)
    nodes = []
    for p, q, tag, just in zip(cert.ps, cert.qs, cert.tags, cert.justs):
        if just[0] == "base":
            j: dict = {"base": just[1]}
        else:
            j = {"triple": [just[1], just[2]]}
            if just[3] is not None:
                j["resolution"] = just[3]
        entry: dict = {"frac": f"{p}/{q}", "just": j}
        if tag is not None:
            entry["orient"] = tag
        nodes.append(entry)
    return {
        "kind": cert.kind,
        "ambient": {
            "pd": pd_string(cert.ambient.diagram),
            "coeffs": list(model),
        },
        "nodes": nodes,
    }


def _model(cert: Certificate) -> tuple[int, int]:
    """The ambient's model, which every certificate file records, once each
    justification has a form in the file: ("base", name) with a str name or
    ("triple", i, j, resolution) with int indices and an int or None
    resolution, None in an unoriented certificate."""
    if cert.ambient.coeffs is None:
        raise CertificateError("an ambient without a model cannot be written")
    for just in cert.justs:
        if len(just) == 4 and just[0] == "triple":
            _, i, j, res = just
            if type(i) is int and type(j) is int and (
                res is None or type(res) is int and cert.kind != UNORIENTED
            ):
                continue
        elif len(just) == 2 and just[0] == "base" and type(just[1]) is str:
            continue
        raise CertificateError(f"justification {just!r} cannot be written")
    return cert.ambient.coeffs


def certificate_from_json(data: dict) -> Certificate:
    """Rebuild a certificate from its JSON form.

    The shape is checked here and anything else raises CertificateError;
    what the values mean (kinds, tags, indices, identities) is left to
    verify_certificate, which rejects with a check number.
    """
    if not isinstance(data, dict):
        raise CertificateError("a certificate must be a JSON object")
    kind = _field(data, "kind", str, "certificate")
    amb = _field(data, "ambient", dict, "certificate")
    coeffs = _field(amb, "coeffs", list, "ambient")
    if len(coeffs) != 2 or not all(type(c) is int for c in coeffs):
        raise CertificateError("ambient coeffs must be two integers")
    try:
        ambient = TangleTemplate(
            parse_pd(_field(amb, "pd", str, "ambient")), tuple(coeffs)
        )
    except (PDError, TemplateError) as exc:
        raise CertificateError(f"ambient: {exc}") from None
    ps, qs, tags, justs = [], [], [], []
    for m, entry in enumerate(_field(data, "nodes", list, "certificate")):
        if not isinstance(entry, dict):
            raise CertificateError(f"node {m} must be a JSON object")
        text, j, orient = entry.get("frac"), entry.get("just"), entry.get("orient")
        if not isinstance(text, str):
            raise CertificateError(f"node {m}: 'frac' must be a JSON string")
        if not isinstance(j, dict):
            raise CertificateError(f"node {m}: 'just' must be a JSON object")
        if orient is not None and not isinstance(orient, str):
            raise CertificateError(f"node {m}: 'orient' must be a JSON string")
        # the recorded value itself must be a reduced p/q, not merely denote one
        num, sep, den = text.partition("/")
        try:
            p, q = int(num), int(den) if sep else 1
            if q <= 0 or gcd(p, q) != 1:
                TangleFraction(p, q)  # raises why, unless the value is 1/0
        except ValueError as exc:
            raise CertificateError(f"node {m}: bad fraction {text!r}: {exc}") from None
        if "base" in j:
            name = j["base"]
            if not isinstance(name, str):
                raise CertificateError(f"node {m}: 'base' must be a JSON string")
            just: tuple = ("base", name)
        elif "triple" in j:
            pair, res = j["triple"], j.get("resolution")
            if not (
                type(pair) is list and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int
            ):
                raise CertificateError(f"node {m}: 'triple' must be two node indices")
            if res is not None and type(res) is not int:
                raise CertificateError(f"node {m}: 'resolution' must be a node index")
            just = ("triple", pair[0], pair[1], res)
        else:
            raise CertificateError(f"node {m}: 'just' needs a base or a triple")
        ps.append(p)
        qs.append(q)
        tags.append(orient)
        justs.append(just)
    return Certificate._columns(kind, ambient, ps, qs, tags, justs)


def _field(obj: dict, key: str, typ: type, where: str):
    if key not in obj:
        raise CertificateError(f"{where} lacks {key!r}")
    value = obj[key]
    if not isinstance(value, typ):
        raise CertificateError(f"{where}: {key!r} must be a JSON {typ.__name__}")
    return value


def certificate_text(cert: Certificate) -> str:
    """The certificate as file text: JSON indented by 2, with sorted keys and
    a final newline. `save_certificate` writes it and the `certify` verb
    prints it."""
    return json.dumps(certificate_to_json(cert), indent=2, sort_keys=True) + "\n"


def save_certificate(cert: Certificate, path: str) -> None:
    text = certificate_text(cert)  # a refusal leaves the file as it was
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_certificate(path: str) -> Certificate:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise CertificateError("certificate JSON is nested too deeply") from None
    return certificate_from_json(data)
