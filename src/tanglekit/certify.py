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

The verifier re-derives every identity with exact integer arithmetic and
shares no code path with the generators' recursion.
"""

from __future__ import annotations

import json
from functools import lru_cache

from ._record import _Record
from .coloring import determinant
from .diagram import LinkDiagram, PDError, components, connected_sum, parse_pd
from . import skein as _skein
from .skein import (
    TangleTemplate,
    TemplateError,
    figure8_template,
    fit_coefficients,
    insertion_det,
    splice,
)
from .tangle import (
    ANTIPARALLEL,
    PARALLEL,
    TangleFraction,
    class_parity,
    compatible_classes,
    orientation_class,
)

__all__ = [
    "Certificate",
    "CertNode",
    "OrientedTarget",
    "Verdict",
    "CertificateError",
    "span_certificate",
    "oriented_span_certificate",
    "verify_certificate",
    "connected_sum_certificate",
    "certificate_to_json",
    "certificate_from_json",
    "save_certificate",
    "load_certificate",
    "UNORIENTED",
    "ORIENTED",
]

UNORIENTED = "unoriented"
ORIENTED = "oriented"

BASE_UNKNOT = "unknot"
BASE_HOPF = "hopf"

# (p mod 2, q mod 2) of the insertions each orientation sector admits
_SECTOR_PARITIES = {
    tag: frozenset(class_parity(c) for c in compatible_classes(tag))
    for tag in (PARALLEL, ANTIPARALLEL)
}


class CertificateError(ValueError):
    """A certificate cannot be generated for the requested target."""


# Work budget of one generator run, in DFS loop iterations: a node's first
# visit, its emission and each repeated push of it, at most three per emitted
# node. A target whose derivation needs more is refused: the Stern-Brocot
# path of a target can be as long as its denominator, and the search would
# otherwise run out of time or memory before emitting a node.
MAX_CERTIFICATE_STEPS = 200_000


class CertNode(_Record):
    # just: ("base", name) | ("triple", i, j, resolution_index_or_None)
    __slots__ = _fields = ("frac", "orient", "just")

    def __init__(self, frac: TangleFraction, orient: str | None, just: tuple) -> None:
        object.__setattr__(self, "frac", frac)
        object.__setattr__(self, "orient", orient)
        object.__setattr__(self, "just", just)


class OrientedTarget(_Record):
    __slots__ = _fields = ("fraction", "orientation")

    def __init__(self, fraction: TangleFraction, orientation: str) -> None:
        if orientation not in (PARALLEL, ANTIPARALLEL):
            raise ValueError(f"unknown orientation {orientation!r}")
        forced = orientation_class(fraction) if fraction.q % 2 == 1 else None
        if forced is not None and forced != orientation:
            raise CertificateError(f"{fraction} admits only the {forced} orientation")
        _Record.__init__(self, fraction, orientation)


class Certificate(_Record):
    __slots__ = _fields = ("kind", "nodes", "ambient")

    @property
    def target(self) -> TangleFraction:
        return self.nodes[-1].frac

    def __len__(self) -> int:
        return len(self.nodes)


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
    """Budgeted depth-first derivation of either kind (tag None: unoriented).

    Denominator recursion: for j/k pick q with q*j = -1 (mod k); the parents
    (qj+1)/k over q and (j(k-q)-1)/k over k-q are the Farey pair with mediant
    j/k whose denominators are positive. An unoriented node cites both. An
    oriented node cites its crossing-change partner, the parents' difference,
    and its marked resolution, the one parent in its sector; both depend on
    the unordered pair only, and the pair of -j/k mirrors the pair of j/k.
    Denominator 1 insertions close to the unknot and are bases, and for the
    oriented kind so are denominator 2 ones, which close to the Hopf link.
    """
    ambient = ambient or figure8_template()
    if ambient.slot_count != 1:
        raise CertificateError("certificates need a one-slot ambient")
    if target.q == 0:
        raise CertificateError("the infinity insertion has no certificate")
    if insertion_det(ambient, 0, target) == 0:
        raise CertificateError(f"target {target} is the ambient zero locus")
    compat = _SECTOR_PARITIES[tag] if tag else None
    if compat and target.parity() not in compat:
        raise CertificateError(f"{target} is not {tag}-compatible")
    a, b = ambient.coeffs[0]
    nodes: list[CertNode] = []
    # the recursion runs on reduced (p, q) pairs; a fraction is built only
    # for an emitted node
    memo: dict[tuple[int, int], int] = {}
    stack = [(target.p, target.q)]
    steps = 0
    while stack:
        steps += 1
        if steps > MAX_CERTIFICATE_STEPS:
            raise CertificateError(
                f"certificate for {target} needs more than {MAX_CERTIFICATE_STEPS} "
                "generation steps"
            )
        f = stack[-1]
        if f in memo:
            stack.pop()
            continue
        j, k = f
        if compat and (j % 2, k % 2) not in compat:  # pragma: no cover - selection bug
            raise CertificateError(f"node {j}/{k} incompatible with {tag} sector")
        if b * j == a * k:
            raise CertificateError(
                f"derivation of {target} passes through the zero locus {j}/{k}"
            )
        if k == 1 or (k == 2 and tag):
            just: tuple = ("base", BASE_UNKNOT if k == 1 else BASE_HOPF)
        else:
            q = (-pow(j, -1, k)) % k
            p1 = ((q * j + 1) // k, q)
            p2 = ((j * (k - q) - 1) // k, k - q)
            if compat:
                p1, p2 = _partner_and_resolution(p1, p2, compat)
            i1, i2 = memo.get(p1), memo.get(p2)
            if i1 is None or i2 is None:
                if i2 is None:
                    stack.append(p2)
                if i1 is None:
                    stack.append(p1)
                continue
            just = ("triple", i1, i2, i2 if compat else None)
        memo[f] = len(nodes)
        nodes.append(CertNode(TangleFraction(j, k), tag, just))
        stack.pop()
    return Certificate(ORIENTED if tag else UNORIENTED, tuple(nodes), ambient)


def _partner_and_resolution(
    p1: tuple[int, int], p2: tuple[int, int], compat: frozenset
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The mediant's crossing-change partner, p1 - p2 with positive
    denominator, and the one member of the Farey pair p1, p2 in the sector."""
    picks = [c for c in (p1, p2) if (c[0] % 2, c[1] % 2) in compat]
    if len(picks) != 1:  # pragma: no cover - pair classes are always distinct
        raise CertificateError(
            f"no unique compatible resolution in "
            f"({p1[0]}/{p1[1]}, {p2[0]}/{p2[1]})"
        )
    # the denominators differ: equal ones are both 1, whose mediant is a base
    dp, dq = p1[0] - p2[0], p1[1] - p2[1]
    return ((-dp, -dq) if dq < 0 else (dp, dq)), picks[0]


# -- verification ----------------------------------------------------------------

# Bound on the ambient fits the verifier remembers.
_REFIT_MEMO_SIZE = 64


@lru_cache(maxsize=_REFIT_MEMO_SIZE)
def _refit(diagram: LinkDiagram, det) -> tuple[int, int]:
    """fit_coefficients of an orientation-free one-slot diagram.

    A fit is made by the determinant that fit_coefficients evaluates its
    probes with, so that function keys the memo beside the diagram's value:
    a rebound determinant (a wrapper, a patched build) refits instead of
    reusing a fit it never made.
    """
    return fit_coefficients(TangleTemplate(diagram))


def verify_certificate(
    cert: Certificate, ambient: TangleTemplate | None = None
) -> Verdict:
    """Re-check a certificate independently of how it was generated.

    0. the recorded ambient coefficients match a fresh fit of its diagram
       (the fit is memoized by diagram value and the determinant in use;
       the comparison runs on every call);
    1. DAG order: triples reference strictly earlier nodes;
    2. exact mediant/Farey identities at every triple;
    3. nonzero determinant of every node under the ambient model;
    4. (oriented) orientation tags, compatibility of all members, and
       correctness of the marked resolution;
    5. bases restricted to the generating family.

    Checks 2-5 run on each node's integer pair; fractions appear only in
    REJECT messages, formatted as p/q.
    """
    ambient = ambient or cert.ambient
    if ambient.slot_count != 1 or ambient.coeffs[0] is None:
        return Verdict(False, 0, None, "ambient must be one fitted slot")
    diagram = ambient.diagram
    if diagram.orientation is not None:
        diagram = diagram.with_orientation(None)
    try:
        refit = _refit(diagram, _skein.determinant)
    except Exception as exc:  # noqa: BLE001 - a verdict, not a fault
        return Verdict(False, 0, None, f"ambient cannot be refitted: {exc}")
    if refit != ambient.coeffs[0]:
        return Verdict(
            False, 0, None, f"recorded coefficients {ambient.coeffs[0]} != refit {refit}"
        )
    if cert.kind not in (UNORIENTED, ORIENTED):
        return Verdict(False, 0, None, f"unknown kind {cert.kind!r}")
    if not cert.nodes:
        return Verdict(False, 0, None, "empty certificate")

    oriented = cert.kind == ORIENTED
    a, b = ambient.coeffs[0]
    nodes = cert.nodes
    ps = [n.frac.p for n in nodes]
    qs = [n.frac.q for n in nodes]
    for m, node in enumerate(nodes):
        p, q = ps[m], qs[m]
        just = node.just
        kind = just[0]
        if kind == "triple":
            _, i, j, res = just
            if not (0 <= i < m and 0 <= j < m and i != j):
                return Verdict(False, 1, m, "triple must reference earlier nodes")
            if not oriented:
                msg = _mediant_fault(p, q, ps[i], qs[i], ps[j], qs[j])
                if msg is not None:
                    return Verdict(False, 2, m, msg)
            else:
                if res not in (i, j):
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
        elif kind != "base":
            return Verdict(False, 1, m, f"unknown justification {kind!r}")

        if b * p == a * q:
            return Verdict(False, 3, m, f"{p}/{q} has determinant zero")

        if oriented:
            tag = node.orient
            if tag not in (PARALLEL, ANTIPARALLEL):
                return Verdict(False, 4, m, "oriented node missing its tag")
            # an odd denominator forces the tag: even numerator antiparallel
            if q % 2 and (PARALLEL if p % 2 else ANTIPARALLEL) != tag:
                return Verdict(False, 4, m, f"{p}/{q} cannot be {tag}")
            compat = _SECTOR_PARITIES[tag]
            if (p % 2, q % 2) not in compat:
                return Verdict(False, 4, m, f"{p}/{q} incompatible with its sector")
            if kind == "triple":
                if nodes[i].orient != tag or nodes[j].orient != tag:
                    return Verdict(False, 4, m, "triple members carry different tags")
                op, oq = pair[1] if (rp, rq) == pair[0] else pair[0]
                if (rp % 2, rq % 2) not in compat:
                    return Verdict(
                        False, 4, m, f"marked resolution {rp}/{rq} is incompatible"
                    )
                if (op % 2, oq % 2) in compat:
                    return Verdict(
                        False, 4, m,
                        f"resolution is ambiguous: {op}/{oq} is also compatible",
                    )
        elif node.orient is not None:
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


# -- composition -----------------------------------------------------------------


def connected_sum_certificate(
    c1: Certificate, c2: Certificate, k2: LinkDiagram
) -> Certificate:
    """Lift every node of c1 to its connected sum with k2.

    c2 must be a verified certificate witnessing k2's closure (its target
    insertion matches k2's determinant and component count). Determinants
    multiply, so the lifted ambient's coefficients scale by det(k2) and the
    lifted certificate verifies as-is.
    """
    det2 = determinant(k2)
    if det2 == 0:
        raise CertificateError("summand has determinant zero")
    v1 = verify_certificate(c1)
    if not v1.accepted:
        raise CertificateError(f"first certificate does not verify: {v1}")
    v2 = verify_certificate(c2)
    if not v2.accepted:
        raise CertificateError(f"witness certificate does not verify: {v2}")
    witness = splice(
        TangleTemplate(c2.ambient.diagram.with_orientation(None)), 0, c2.target
    )
    if determinant(witness) != det2 or components(witness) != components(k2):
        raise CertificateError(
            "witness certificate does not match the summand's invariants"
        )
    lifted_diagram = connected_sum(c1.ambient.diagram, 1, k2, 1)
    a, b = c1.ambient.coeffs[0]
    lifted = TangleTemplate(lifted_diagram, ((a * det2, b * det2),))
    return Certificate(c1.kind, c1.nodes, lifted)


# -- serialization ---------------------------------------------------------------


def certificate_to_json(cert: Certificate) -> dict:
    from .diagram import pd_string

    nodes = []
    for n in cert.nodes:
        just = n.just
        if just[0] == "base":
            j: dict = {"base": just[1]}
        else:
            j = {"triple": [just[1], just[2]]}
            if just[3] is not None:
                j["resolution"] = just[3]
        entry: dict = {"frac": f"{n.frac.p}/{n.frac.q}", "just": j}
        if n.orient is not None:
            entry["orient"] = n.orient
        nodes.append(entry)
    return {
        "kind": cert.kind,
        "ambient": {
            "pd": pd_string(cert.ambient.diagram),
            "coeffs": list(cert.ambient.coeffs[0]),
        },
        "nodes": nodes,
    }


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
            parse_pd(_field(amb, "pd", str, "ambient")), (tuple(coeffs),)
        )
    except (PDError, TemplateError) as exc:
        raise CertificateError(f"ambient: {exc}") from None
    nodes = [
        _node_from_json(entry, m)
        for m, entry in enumerate(_field(data, "nodes", list, "certificate"))
    ]
    return Certificate(kind, tuple(nodes), ambient)


def _node_from_json(entry, m: int) -> CertNode:
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
        frac = TangleFraction(int(num), int(den) if sep else 1)
    except ValueError as exc:
        raise CertificateError(f"node {m}: bad fraction {text!r}: {exc}") from None
    if "base" in j:
        name = j["base"]
        if not isinstance(name, str):
            raise CertificateError(f"node {m}: 'base' must be a JSON string")
        return CertNode(frac, orient, ("base", name))
    if "triple" in j:
        pair, res = j["triple"], j.get("resolution")
        if not (
            type(pair) is list and len(pair) == 2
            and type(pair[0]) is int and type(pair[1]) is int
        ):
            raise CertificateError(f"node {m}: 'triple' must be two node indices")
        if res is not None and type(res) is not int:
            raise CertificateError(f"node {m}: 'resolution' must be a node index")
        return CertNode(frac, orient, ("triple", pair[0], pair[1], res))
    raise CertificateError(f"node {m}: 'just' needs a base or a triple")


def _field(obj: dict, key: str, typ: type, where: str):
    if key not in obj:
        raise CertificateError(f"{where} lacks {key!r}")
    value = obj[key]
    if not isinstance(value, typ):
        raise CertificateError(f"{where}: {key!r} must be a JSON {typ.__name__}")
    return value


def save_certificate(cert: Certificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificate_to_json(cert), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_certificate(path: str) -> Certificate:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise CertificateError("certificate JSON is nested too deeply") from None
    return certificate_from_json(data)
