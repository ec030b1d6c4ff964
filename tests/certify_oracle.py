"""The depth-first certificate generator that the Stern-Brocot walk in
`tanglekit.certify` replaced, kept as the reference that the walk's output is
compared with node for node: a budgeted search with a stack and a memo, which
derives each node's Farey parents from a modular inverse.

Also the node view that tests write forgeries in: `Node` is one node as a
(frac, orient, just) triple, `nodes(cert)` reads a certificate's columns as
nodes, and `from_nodes` builds a certificate from a node list."""

from __future__ import annotations

from typing import NamedTuple

from tanglekit.certify import (
    ANTIPARALLEL,
    BASE_HOPF,
    BASE_UNKNOT,
    MAX_CERTIFICATE_STEPS,
    ORIENTED,
    PARALLEL,
    UNORIENTED,
    _SECTOR_PARITIES,
    Certificate,
    CertificateError,
)
from tanglekit.skein import TangleTemplate, figure8_template, insertion_det
from tanglekit.tangle import TangleFraction


class Node(NamedTuple):
    frac: TangleFraction
    orient: str | None
    just: tuple


def nodes(cert: Certificate) -> list[Node]:
    """The certificate's columns read node by node."""
    fracs = map(TangleFraction, cert.ps, cert.qs)
    return list(map(Node, fracs, cert.tags, cert.justs))


def from_nodes(kind: str, node_list, ambient: TangleTemplate) -> Certificate:
    """A certificate from a list of (frac, orient, just) nodes."""
    node_list = list(node_list)
    return Certificate(
        kind, ambient, [n[0].p for n in node_list], [n[0].q for n in node_list],
        [n[1] for n in node_list], [n[2] for n in node_list],
    )


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
    if insertion_det(ambient, target) == 0:
        raise CertificateError(f"target {target} is the ambient zero locus")
    compat = _SECTOR_PARITIES[tag] if tag else None
    if compat and target.parity() not in compat:
        other = ANTIPARALLEL if tag == PARALLEL else PARALLEL
        raise CertificateError(f"{target} admits only the {other} orientation")
    a, b = ambient.coeffs
    ps: list[int] = []
    qs: list[int] = []
    justs: list[tuple] = []
    # the recursion runs on reduced (p, q) pairs
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
        memo[f] = len(ps)
        ps.append(j)
        qs.append(k)
        justs.append(just)
        stack.pop()
    kind = ORIENTED if tag else UNORIENTED
    return Certificate(kind, ambient, ps, qs, (tag,) * len(ps), justs)


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
