import copy
import hashlib
import json
import random
import time
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tanglekit import certify
from tanglekit.certify import (
    ANTIPARALLEL,
    ORIENTED,
    PARALLEL,
    UNORIENTED,
    CertNode,
    Certificate,
    CertificateError,
    OrientedTarget,
    Verdict,
    certificate_from_json,
    certificate_text,
    certificate_to_json,
    load_certificate,
    oriented_span_certificate,
    save_certificate,
    span_certificate,
    verify_certificate,
)
from tanglekit.coloring import determinant
from tanglekit.corpus import bundled_templates
from tanglekit.diagram import connected_sum, parse_pd
from tanglekit.skein import (
    TangleTemplate,
    figure8_template,
    reduced_fractions,
    splice,
    zero_locus,
)
from tanglekit.tangle import TangleFraction, connectivity

from certify_oracle import _derive as dfs_derive
from tangle_oracles import compatible_classes, component_reduction_step

F = TangleFraction.parse
TREFOIL = parse_pd("X[1,2,3,4] X[2,5,6,3] X[4,6,5,1]")
TEMPLATES = bundled_templates()


def node_fracs(cert):
    return [n.frac for n in cert.nodes]


class TestSpanCertificate:
    def test_base_case(self):
        c = span_certificate(F("0/1"))
        assert len(c) == 1
        assert c.nodes[0].just == ("base", "unknot")

    def test_integer_targets_are_bases(self):
        for n in range(-10, 11):
            c = span_certificate(F(f"{n}/1"))
            assert len(c) == 1

    def test_two_fifths_parents(self):
        c = span_certificate(F("2/5"))
        tri = c.nodes[-1]
        i, j = tri.just[1], tri.just[2]
        assert {c.nodes[i].frac, c.nodes[j].frac} == {F("1/2"), F("1/3")}

    def test_zero_locus_target_rejected(self):
        with pytest.raises(CertificateError):
            span_certificate(F("1/0"))

    def test_every_generated_certificate_verifies(self):
        for f in reduced_fractions(20):
            if f.q == 0:
                continue
            c = span_certificate(f)
            assert c.target == f
            v = verify_certificate(c)
            assert v.accepted, (f, str(v))

    def test_base_minimality(self):
        for f in reduced_fractions(15):
            if f.q == 0:
                continue
            for n in span_certificate(f).nodes:
                if n.just[0] == "base":
                    assert n.frac.q == 1

    def test_depth_linear_in_size(self):
        for f in reduced_fractions(25):
            if f.q == 0:
                continue
            c = span_certificate(f)
            assert len(c) <= 2 * (abs(f.p) + f.q) + 1, f


class TestWorkBudget:
    """Both generators count a certificate's nodes N from the target's
    continued fraction and refuse it iff 3N > certify.MAX_CERTIFICATE_STEPS."""

    GENERATORS = [
        (span_certificate, F("1/40")),
        (span_certificate, F("55/89")),
        (lambda f: oriented_span_certificate(OrientedTarget(f, PARALLEL)), F("1/41")),
        (lambda f: oriented_span_certificate(OrientedTarget(f, ANTIPARALLEL)), F("34/55")),
    ]

    @pytest.mark.parametrize("generate, target", GENERATORS)
    def test_three_steps_per_node_suffice(self, monkeypatch, generate, target):
        cert = generate(target)
        monkeypatch.setattr(certify, "MAX_CERTIFICATE_STEPS", 3 * len(cert) + 1)
        assert generate(target) == cert

    @pytest.mark.parametrize("generate, target", GENERATORS)
    def test_refuses_past_the_budget(self, monkeypatch, generate, target):
        monkeypatch.setattr(certify, "MAX_CERTIFICATE_STEPS", len(generate(target)))
        with pytest.raises(CertificateError, match="generation steps"):
            generate(target)

    @pytest.mark.parametrize("tag", [None, PARALLEL])
    def test_refusal_is_counted_before_any_node_is_built(self, tag):
        # a Stern-Brocot path of about 10^11 steps, refused from its
        # continued fraction before any node is built
        target = F("99999999999/100000000000")
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(CertificateError, match="generation steps"):
                if tag is None:
                    span_certificate(target)
                else:
                    oriented_span_certificate(OrientedTarget(target, tag))
            best = min(best, time.perf_counter() - start)
        assert best < 0.010

    def test_largest_budgeted_path_certifies(self):
        assert 3 * 66_001 <= certify.MAX_CERTIFICATE_STEPS < 3 * 66_668
        assert len(span_certificate(F("1/66000"))) == 66_001
        with pytest.raises(CertificateError, match="generation steps"):
            span_certificate(F("1/66667"))


class TestForgeries:
    def test_non_farey_parents_rejected_check2(self):
        c = span_certificate(F("2/5"))
        # replace the final triple's parents with non-neighbors
        nodes = list(c.nodes)
        bad = CertNode(F("2/5"), None, ("triple", 0, 1, None))
        fracs = [n.frac for n in nodes]
        i0 = fracs.index(F("1/2"))
        # rebuild a tiny certificate with wrong parents: 1/2 and 2/5's own
        forged = Certificate(
            UNORIENTED,
            (
                CertNode(F("1/1"), None, ("base", "unknot")),
                CertNode(F("3/1"), None, ("base", "unknot")),
                CertNode(F("2/5"), None, ("triple", 0, 1, None)),
            ),
            c.ambient,
        )
        v = verify_certificate(forged)
        assert not v.accepted and v.check == 2

    def test_mutated_base_set_rejected_check5(self):
        forged = Certificate(
            UNORIENTED,
            (
                CertNode(F("1/2"), None, ("base", "unknot")),
                CertNode(F("1/3"), None, ("base", "unknot")),
                CertNode(F("2/5"), None, ("triple", 0, 1, None)),
            ),
            figure8_template(),
        )
        v = verify_certificate(forged)
        assert not v.accepted and v.check == 5

    def test_zero_locus_intermediate_rejected_check3(self):
        # route through the default ambient's zero locus 1/0
        forged = Certificate(
            UNORIENTED,
            (
                CertNode(F("1/0"), None, ("base", "unknot")),
                CertNode(F("0/1"), None, ("base", "unknot")),
                CertNode(F("1/1"), None, ("triple", 0, 1, None)),
            ),
            figure8_template(),
        )
        v = verify_certificate(forged)
        assert not v.accepted and v.check == 3 and v.node == 0

    def test_forged_ambient_coefficients_rejected_check0(self):
        # the recorded coefficients cannot be refitted from the bare closure
        # diagram, whose true model is det |q|
        ambient = TangleTemplate(parse_pd("T[1,2,1,2]"), (3, 2))
        forged = Certificate(
            UNORIENTED,
            (CertNode(F("0/1"), None, ("base", "unknot")),),
            ambient,
        )
        v = verify_certificate(forged)
        assert not v.accepted and v.check == 0

    def test_non_planar_ambient_rejected_check0(self):
        # a virtual one-slot diagram whose fit holds at every positive probe;
        # its -1/2 closure has determinant 0, not the model's 2
        ambient = TangleTemplate(parse_pd("T[4,1,3,2] X[1,4,2,3]"), (1, 0))
        v = verify_certificate(span_certificate(F("-1/2"), ambient))
        assert not v.accepted and v.check == 0
        assert "linear model (a=1, b=0) fails at -1/2: 0 != 2" in v.message

    def test_memoized_refit_still_compares_coefficients(self):
        # the refit of this diagram is remembered after the first ACCEPT;
        # tampered coefficients on the same diagram must still fail check 0
        twist = TEMPLATES["twist"]
        c = span_certificate(F("2/5"), ambient=twist)
        assert verify_certificate(c).accepted
        tampered = TangleTemplate(twist.diagram, (-1, 2))
        v = verify_certificate(Certificate(c.kind, c.nodes, tampered))
        assert not v.accepted and v.check == 0
        data = certificate_to_json(c)
        data["ambient"]["coeffs"] = [1, -1]
        v = verify_certificate(certificate_from_json(data))
        assert not v.accepted and v.check == 0
        assert verify_certificate(c).accepted

    def test_span_rejects_zero_locus_of_custom_ambient(self):
        from tanglekit.corpus import bundled_templates

        twist = bundled_templates()["twist"]  # det |p + q|, zero locus -1/1
        with pytest.raises(CertificateError):
            span_certificate(F("-1/1"), ambient=twist)
        c = span_certificate(F("2/5"), ambient=twist)
        assert verify_certificate(c).accepted

    def test_explicit_ambient_changes_the_verdict(self):
        from tanglekit.corpus import bundled_templates

        # -1/1 closes to the unknot in the default ambient but sits on the
        # twist template's zero locus
        c = span_certificate(F("-1/1"))
        assert verify_certificate(c).accepted
        v = verify_certificate(Certificate(c.kind, c.nodes, bundled_templates()["twist"]))
        assert not v.accepted and v.check == 3

    def test_dag_violation_rejected_check1(self):
        forged = Certificate(
            UNORIENTED,
            (
                CertNode(F("1/1"), None, ("base", "unknot")),
                CertNode(F("1/2"), None, ("triple", 0, 2, None)),
                CertNode(F("0/1"), None, ("base", "unknot")),
            ),
            figure8_template(),
        )
        v = verify_certificate(forged)
        assert not v.accepted and v.check == 1

    def test_wrong_resolution_marker_rejected_check2(self):
        # marking the partner 0/1 makes 1/2 the partner, and 2/5 and 1/2 are
        # not the mediant and partner of any Farey pair
        c = oriented_span_certificate(OrientedTarget(F("2/5"), ANTIPARALLEL))
        nodes = list(c.nodes)
        last = nodes[-1]
        _, i, j, res = last.just
        other = j if res == i else i
        nodes[-1] = CertNode(last.frac, last.orient, ("triple", i, j, other))
        forged = Certificate(ORIENTED, tuple(nodes), c.ambient)
        v = verify_certificate(forged)
        assert v == Verdict(False, 2, 2, "2/5 and 1/2 do not span a Farey pair")


def _two_fifths_json(tag=ANTIPARALLEL):
    """The 2/5 certificate as JSON: oriented (0/1 unknot, 1/2 hopf, 2/5
    triple [0, 1] with resolution 1) unless tag is None."""
    if tag is None:
        return certificate_to_json(span_certificate(F("2/5")))
    return certificate_to_json(oriented_span_certificate(OrientedTarget(F("2/5"), tag)))


def _set(path, value):
    """An edit of _two_fifths_json(): the value at a key path."""

    def edit(data):
        box = data
        for key in path[:-1]:
            box = box[key]
        box[path[-1]] = value

    return edit


def _three_integers(data):
    data["nodes"] = [
        {"frac": "1/1", "just": {"base": "unknot"}, "orient": PARALLEL},
        {"frac": "3/1", "just": {"base": "unknot"}, "orient": PARALLEL},
        {"frac": "7/3", "orient": PARALLEL,
         "just": {"triple": [0, 1], "resolution": 1}},
    ]


# (name, tag of the 2/5 certificate edited, edit, verdict); each reaches a
# REJECT branch of verify_certificate that a generated certificate never does
BRANCH_FORGERIES = [
    ("kind", ANTIPARALLEL, _set(["kind"], "sideways"),
     Verdict(False, 0, None, "unknown kind 'sideways'")),
    ("empty", ANTIPARALLEL, _set(["nodes"], []),
     Verdict(False, 0, None, "empty certificate")),
    ("forced-tag", ANTIPARALLEL, _set(["nodes", 0, "orient"], PARALLEL),
     Verdict(False, 4, 0, "0/1 cannot be parallel")),
    ("parent-tag", ANTIPARALLEL, _set(["nodes", 1, "orient"], PARALLEL),
     Verdict(False, 4, 2, "triple members carry different tags")),
    ("resolution-member", ANTIPARALLEL, _set(["nodes", 1, "frac"], "3/2"),
     Verdict(False, 2, 2, "marked resolution 3/2 is not a member of the pair")),
    ("base-name", ANTIPARALLEL, _set(["nodes", 0, "just", "base"], "hopf"),
     Verdict(False, 5, 0, "0/1 (hopf) is not an unknot or Hopf base")),
    ("unoriented-tag", None, _set(["nodes", 0, "orient"], PARALLEL),
     Verdict(False, 4, 0, "unoriented node carries a tag")),
    ("unoriented-resolution", None, _set(["nodes", 2, "just", "resolution"], 7),
     Verdict(False, 1, 2, "unoriented triple carries a resolution marker")),
    ("integer-halves", ANTIPARALLEL, _three_integers,
     Verdict(False, 2, 2, "7/3 and 1/1 do not span a Farey pair")),
]


class TestVerifierBranches:
    """The verify_certificate branches that generated certificates never
    reach, each pinned to its verdict."""

    @pytest.mark.parametrize(
        "tag,edit,verdict", [f[1:] for f in BRANCH_FORGERIES],
        ids=[f[0] for f in BRANCH_FORGERIES],
    )
    def test_json_forgery(self, tag, edit, verdict):
        data = _two_fifths_json(tag)
        edit(data)
        assert verify_certificate(certificate_from_json(data)) == verdict

    def test_unknown_justification_rejected_check1(self):
        cert = Certificate(
            UNORIENTED, [CertNode(F("1/1"), None, ("lemma", 0))], figure8_template()
        )
        assert verify_certificate(cert) == Verdict(
            False, 1, 0, "unknown justification 'lemma'"
        )

    @pytest.mark.parametrize("just, message", [
        ((), "unknown justification None"),
        (("base",), "malformed base justification ('base',)"),
        (("base", "unknot", 0), "malformed base justification ('base', 'unknot', 0)"),
        (("triple", 0), "malformed triple justification ('triple', 0)"),
        (("triple", 0, 1, 1, 0), "malformed triple justification ('triple', 0, 1, 1, 0)"),
    ])
    def test_justification_of_the_wrong_length_rejected_check1(self, just, message):
        cert = Certificate(UNORIENTED, [CertNode(F("1/1"), None, just)], figure8_template())
        assert verify_certificate(cert) == Verdict(False, 1, 0, message)

    @pytest.mark.parametrize("i, j", [("a", "b"), (0, None), (1.0, 0), (0, True)])
    def test_triple_indices_must_be_ints_check1(self, i, j):
        # "a" and None raised TypeError from 0 <= i; 1.0 passed it and
        # raised TypeError from ps[i]
        c = span_certificate(F("2/5"))
        node = CertNode(c.nodes[2].frac, None, ("triple", i, j, None))
        forged = Certificate(c.kind, (*c.nodes[:2], node, *c.nodes[3:]), c.ambient)
        assert verify_certificate(forged) == Verdict(
            False, 1, 2, "triple indices must be integers"
        )

    @pytest.mark.parametrize("res", [True, 1.0, "1"])
    def test_resolution_marker_must_be_an_int_check1(self, res):
        # True equals 1 and was read as node 1 (ACCEPT); 1.0 raised TypeError
        c = oriented_span_certificate(OrientedTarget(F("2/5"), ANTIPARALLEL))
        n = c.nodes[2]
        assert n.just == ("triple", 0, 1, 1)
        node = CertNode(n.frac, n.orient, ("triple", 0, 1, res))
        forged = Certificate(c.kind, (*c.nodes[:2], node), c.ambient)
        assert verify_certificate(forged) == Verdict(
            False, 1, 2, "resolution marker must be a parent"
        )

    @pytest.mark.parametrize("tag", [PARALLEL, ANTIPARALLEL])
    def test_oriented_ambient_is_refitted(self, tag):
        ambient = figure8_template(tag)
        assert ambient.diagram.is_oriented
        cert = oriented_span_certificate(OrientedTarget(F("7/12"), tag), ambient)
        assert cert.ambient == ambient
        assert verify_certificate(cert) == Verdict(True)
        data = certificate_to_json(cert)
        data["ambient"]["coeffs"] = [0, 1]
        v = verify_certificate(certificate_from_json(data))
        assert (v.accepted, v.check) == (False, 0)

    def test_unknown_target_orientation_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown orientation 'sideways'"):
            OrientedTarget(F("1/3"), "sideways")


def _mutated_oriented(rng):
    """An oriented certificate with one to three random edits of its tags (one
    or all), resolution markers, parents, fractions or node list."""
    tag = rng.choice((PARALLEL, ANTIPARALLEL))
    while True:
        f = TangleFraction.make(rng.randint(-40, 40), rng.randint(1, 24))
        if f.q % 2 == 0 or (PARALLEL if f.p % 2 else ANTIPARALLEL) == tag:
            break
    ambient = TEMPLATES[rng.choice(("figure8", "twist", "trefoil_sum"))]
    try:
        cert = oriented_span_certificate(OrientedTarget(f, tag), ambient)
    except CertificateError:
        return None
    fracs, tags, justs = list(zip(cert.ps, cert.qs)), list(cert.tags), list(cert.justs)
    for _ in range(rng.randint(1, 3)):
        n = len(fracs)
        m, k = rng.randrange(n), rng.randrange(n)
        edit = rng.randrange(6)
        if edit == 0:
            tags[m] = rng.choice((PARALLEL, ANTIPARALLEL))
        elif edit == 1 and justs[m][0] == "triple":
            _, i, j, res = justs[m]
            justs[m] = ("triple", i, j, j if res == i else i)
        elif edit == 2 and justs[m][0] == "triple":
            _, i, j, res = justs[m]
            i = rng.randrange(m)
            justs[m] = ("triple", i, j, rng.choice((i, j)))
        elif edit == 3:
            fracs[m] = fracs[k]
        elif edit == 4:
            for col in (fracs, tags, justs):
                col.append(col[m])
        elif edit == 5:
            tags = [ANTIPARALLEL if tags[m] == PARALLEL else PARALLEL] * n
    nodes = [
        CertNode(TangleFraction(p, q), t, j) for (p, q), t, j in zip(fracs, tags, justs)
    ]
    return Certificate(ORIENTED, nodes, ambient)


def test_accepted_resolutions_are_the_pair_member_in_the_sector():
    """On mutated oriented certificates that verify, every triple's marked
    resolution suits its node's orientation and the other pair member does
    not, by the connectivity classes of the tangles, which the verifier
    never reads."""
    rng = random.Random(21)
    accepted = triples = 0
    for _ in range(3000):
        cert = _mutated_oriented(rng)
        if cert is None or not verify_certificate(cert).accepted:
            continue
        accepted += 1
        for node in cert.nodes:
            if node.just[0] != "triple":
                continue
            _, i, j, res = node.just
            f, x = node.frac, cert.nodes[j if res == i else i].frac
            members = {
                TangleFraction.make((f.p + s * x.p) // 2, (f.q + s * x.q) // 2)
                for s in (1, -1)
            }
            marked = cert.nodes[res].frac
            assert marked in members
            (other,) = members - {marked}
            sector = compatible_classes(node.orient)
            assert connectivity(marked) in sector
            assert connectivity(other) not in sector
            triples += 1
    assert accepted >= 300 and triples >= 1000, (accepted, triples)


class TestOrientedSpan:
    def test_hopf_bases(self):
        for tag in (PARALLEL, ANTIPARALLEL):
            c = oriented_span_certificate(OrientedTarget(F("1/2"), tag))
            assert len(c) == 1
            assert c.nodes[0].just == ("base", "hopf")

    def test_one_fifth_parallel_ladder(self):
        c = oriented_span_certificate(OrientedTarget(F("1/5"), PARALLEL))
        fracs = node_fracs(c)
        assert F("1/3") in fracs and F("1/4") in fracs
        assert verify_certificate(c).accepted

    def test_two_fifths_partner_is_zero(self):
        c = oriented_span_certificate(OrientedTarget(F("2/5"), ANTIPARALLEL))
        tri = c.nodes[-1]
        _, i, j, res = tri.just
        partner = c.nodes[j if res == i else i].frac
        resolution = c.nodes[res].frac
        assert partner == F("0/1")
        assert resolution == F("1/2")

    def test_forced_orientation_validation(self):
        with pytest.raises(CertificateError):
            OrientedTarget(F("1/3"), ANTIPARALLEL)
        with pytest.raises(CertificateError):
            OrientedTarget(F("2/3"), PARALLEL)

    def test_incompatible_requests_rejected(self):
        with pytest.raises(CertificateError):
            oriented_span_certificate(OrientedTarget(F("1/0"), PARALLEL))

    def test_oriented_certificates_verify(self):
        for f in reduced_fractions(12):
            if f.q == 0:
                continue
            tags = (
                [PARALLEL, ANTIPARALLEL]
                if f.q % 2 == 0
                else [PARALLEL if f.p % 2 else ANTIPARALLEL]
            )
            for tag in tags:
                c = oriented_span_certificate(OrientedTarget(f, tag))
                assert c.target == f
                v = verify_certificate(c)
                assert v.accepted, (f, tag, str(v))

    def test_oriented_base_minimality(self):
        for f in reduced_fractions(10):
            if f.q == 0:
                continue
            tags = (
                [PARALLEL, ANTIPARALLEL]
                if f.q % 2 == 0
                else [PARALLEL if f.p % 2 else ANTIPARALLEL]
            )
            for tag in tags:
                for n in oriented_span_certificate(OrientedTarget(f, tag)).nodes:
                    if n.just[0] == "base":
                        assert n.frac.q in (1, 2)

    def test_negative_targets_mirror(self):
        c = oriented_span_certificate(OrientedTarget(F("-3/4"), PARALLEL))
        assert c.target == F("-3/4")
        assert verify_certificate(c).accepted


    def test_mirrored_target_zero_locus_is_tested_in_the_output_frame(self):
        # 19/55's derivation meets 1/1, the mirror image of the twist
        # template's zero locus -1/1, so -19/55 has no parallel certificate
        with pytest.raises(CertificateError, match="zero locus -1/1"):
            oriented_span_certificate(
                OrientedTarget(F("-19/55"), PARALLEL), TEMPLATES["twist"]
            )

    def test_negative_targets_on_twist_verify_or_raise(self):
        for f in reduced_fractions(12):
            if f.q == 0 or f.p >= 0:
                continue
            for tag in (PARALLEL, ANTIPARALLEL):
                try:
                    c = oriented_span_certificate(
                        OrientedTarget(f, tag), TEMPLATES["twist"]
                    )
                except CertificateError:
                    continue
                assert verify_certificate(c).accepted, (f, tag)


class TestConnectedSumLift:
    """figure8 # K has figure8's model scaled by det K, so a certificate over
    it has the figure8 certificate's nodes, and check 0's refit confirms the
    scaled model."""

    @staticmethod
    def lift(target, summand):
        fig8 = figure8_template()
        a, b = fig8.coeffs
        det2 = determinant(summand)
        ambient = TangleTemplate(
            connected_sum(fig8.diagram, 1, summand, 1), (a * det2, b * det2)
        )
        return span_certificate(F(target)), span_certificate(F(target), ambient)

    def test_lift_by_trefoil(self):
        c1, lifted = self.lift("1/3", TREFOIL)
        assert lifted.ambient.coeffs == (3, 0)
        assert verify_certificate(lifted).accepted
        assert node_fracs(lifted) == node_fracs(c1)

    def test_lift_by_unknot_is_isomorphic(self):
        c1, lifted = self.lift("2/5", parse_pd("U"))
        assert node_fracs(lifted) == node_fracs(c1)
        assert lifted.ambient == c1.ambient
        assert verify_certificate(lifted).accepted

    def test_lift_by_hopf_doubles_determinants(self):
        c1, lifted = self.lift("1/3", parse_pd("X[1,4,2,3] X[3,2,4,1]"))
        assert lifted.ambient.coeffs == (2, 0)
        assert verify_certificate(lifted).accepted
        assert node_fracs(lifted) == node_fracs(c1)
        out = splice(TangleTemplate(lifted.ambient.diagram), 0, F("1/3"))
        assert determinant(out) == 6


class TestComponentReduction:
    def test_figure8_companions_avoid_zero_locus(self):
        t = figure8_template()
        tri = component_reduction_step(t, 0, F("1/2"))
        assert tri.f1 == F("1/2")
        zl = zero_locus(t)
        assert tri.f2 != zl and tri.mediant != zl

    def test_classes_pairwise_distinct(self):
        t = figure8_template()
        for f in reduced_fractions(6):
            if f.q == 0:
                continue
            tri = component_reduction_step(t, 0, f)
            classes = {
                connectivity(tri.f1),
                connectivity(tri.f2),
                connectivity(tri.mediant),
            }
            assert len(classes) == 3

    def test_mediant_identity(self):
        t = figure8_template()
        tri = component_reduction_step(t, 0, F("3/5"))
        assert tri.mediant == TangleFraction.make(
            tri.f1.p + tri.f2.p, tri.f1.q + tri.f2.q
        )

    def test_oriented_step_resolution_is_input(self):
        t = figure8_template(PARALLEL)
        tri = component_reduction_step(t, 0, F("1/2"))
        assert tri.kind == ORIENTED
        assert tri.resolution == F("1/2")
        assert connectivity(tri.f2) not in compatible_classes(PARALLEL)

    def test_zero_locus_companion_is_skipped(self):
        # integer insertions have the infinity tangle as canonical neighbor,
        # which sits on the default zero locus; the step must walk past it
        t = figure8_template()
        tri = component_reduction_step(t, 0, F("2/1"))
        assert tri.f2 == F("3/1")
        assert tri.mediant == F("5/2")


class TestOneFittedModel:
    """A determinant model belongs to a one-slot template; certificates refuse
    an ambient with two slots or with no model."""

    def test_json_ambient_with_two_slots_is_refused(self, tmp_path):
        data = certificate_to_json(span_certificate(F("2/5")))
        data["ambient"]["pd"] = "T[1,2,3,4] T[2,1,4,3]"
        with pytest.raises(CertificateError, match="^ambient: "):
            certificate_from_json(data)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        from tanglekit.cli import run

        assert run(["verify", str(path)]) == 1

    def test_generators_refuse_a_two_slot_ambient(self):
        necklace2 = bundled_templates()["necklace2"]
        with pytest.raises(CertificateError, match="one-slot ambient"):
            span_certificate(F("2/5"), necklace2)
        with pytest.raises(CertificateError, match="one-slot ambient"):
            oriented_span_certificate(OrientedTarget(F("2/5"), ANTIPARALLEL), necklace2)

    def test_generators_refuse_an_unfitted_ambient(self):
        unfitted = TangleTemplate(parse_pd("T[1,2,1,2]"))
        with pytest.raises(CertificateError, match="one-slot ambient with its model"):
            span_certificate(F("2/5"), unfitted)
        with pytest.raises(CertificateError, match="one-slot ambient with its model"):
            oriented_span_certificate(OrientedTarget(F("2/5"), ANTIPARALLEL), unfitted)

    def test_certificate_without_a_model_is_not_written(self, tmp_path):
        c = span_certificate(F("2/5"))
        unfitted = Certificate(c.kind, c.nodes, TangleTemplate(parse_pd("T[1,2,1,2]")))
        path = tmp_path / "c.json"
        path.write_text("kept")
        save = lambda c: save_certificate(c, path)  # noqa: E731
        for write in (certificate_to_json, certificate_text, save):
            with pytest.raises(CertificateError, match="without a model"):
                write(unfitted)
        assert path.read_text() == "kept"

    @pytest.mark.parametrize("just", [
        ("lemma", 0), ("lemma", 0, 1, None), (), ("base",), ("base", "unknot", 0),
        ("triple", 0, 1), ("triple", 0, 1, None, 0),
        # not JSON as certificate_text wrote them, or not loadable
        ("triple", "a", "b", None), ("triple", 0, 1.0, None), ("triple", True, 0, None),
        ("triple", 0, 1, "1"), ("triple", 0, 1, False), ("base", None), ("base", 1.0),
        # a resolution marker in an unoriented certificate ("resolution": 7
        # was written)
        ("triple", 0, 1, 7), ("triple", 0, 1, 0),
    ])
    def test_justification_without_a_file_form_is_not_written(self, just, tmp_path):
        c = span_certificate(F("2/5"))
        node = CertNode(F("2/5"), None, just)
        forged = Certificate(c.kind, (*c.nodes[:2], node), c.ambient)
        path = tmp_path / "c.json"
        path.write_text("kept")
        save = lambda c: save_certificate(c, path)  # noqa: E731
        for write in (certificate_to_json, certificate_text, save):
            with pytest.raises(CertificateError, match="cannot be written"):
                write(forged)
        assert path.read_text() == "kept"

    @pytest.mark.parametrize("pd", ["T[1,2,1,2]", "T[1,2,3,4] T[2,1,4,3]"])
    def test_unfitted_ambient_rejects_at_check_0(self, pd):
        c = span_certificate(F("2/5"))
        v = verify_certificate(Certificate(c.kind, c.nodes, TangleTemplate(parse_pd(pd))))
        assert not v.accepted and v.check == 0 and v.node is None
        assert v.message == "ambient must be one fitted slot"


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        c = span_certificate(F("2/5"))
        path = tmp_path / "c.json"
        save_certificate(c, str(path))
        loaded = load_certificate(str(path))
        assert loaded == c
        assert verify_certificate(loaded).accepted

    def test_schema_fields(self):
        c = oriented_span_certificate(OrientedTarget(F("2/5"), ANTIPARALLEL))
        data = certificate_to_json(c)
        assert data["kind"] == "oriented"
        assert set(data["ambient"]) == {"pd", "coeffs"}
        tri = [n for n in data["nodes"] if "triple" in n["just"]][-1]
        assert "resolution" in tri["just"]
        assert certificate_from_json(data) == c

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_certificate(span_certificate(F("7/19")), str(p1))
        save_certificate(span_certificate(F("7/19")), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "data",
        [
            [1, 2],
            "certificate",
            {"kind": "unoriented", "nodes": []},
            {"kind": "unoriented", "ambient": {"pd": "T[1,2,1,2]"}, "nodes": []},
            {
                "kind": "unoriented",
                "ambient": {"pd": "X[1,2,3", "coeffs": [1, 0]},
                "nodes": [],
            },
        ],
    )
    def test_malformed_json_raises_certificate_error(self, data):
        with pytest.raises(CertificateError):
            certificate_from_json(data)

    @pytest.mark.parametrize(
        "node",
        [
            {"frac": "2/5", "just": {"triple": [0]}},
            {"frac": "2/5", "just": {"triple": [0, "1"]}},
            {"frac": "2/5", "just": {"triple": [0, 1], "resolution": "0"}},
            {"frac": "2/5", "just": {}},
            {"frac": "2/5"},
            {"frac": 0.4, "just": {"base": "unknot"}},
            {"frac": "2/x", "just": {"base": "unknot"}},
            {"frac": "4/10", "just": {"base": "unknot"}},
            {"frac": "2/5", "just": {"base": 1}},
            {"frac": "2/5", "just": {"base": "unknot"}, "orient": 1},
            ["2/5"],
        ],
    )
    def test_malformed_node_raises_certificate_error(self, node):
        data = certificate_to_json(span_certificate(F("2/5")))
        data["nodes"][-1] = node
        with pytest.raises(CertificateError):
            certificate_from_json(data)


# SHA-256 of json.dumps(certificate_to_json(c), sort_keys=True), recorded
# before the generators moved to integer pairs: bytes must not change.
# The stock twist ambient was then T[1,2,3,4] X[3,4,2,1], printed as below;
# its planar coloring twin has the same fit and the same determinants, so
# its certificates differ only in the ambient's PD text, mapped back here.
RECORDED_TWIST_PD = ('"X[2,4,3,1] T[1,2,3,4]"', '"X[2,1,3,4] T[1,2,3,4]"')


def as_recorded(text: str) -> str:
    return text.replace(*RECORDED_TWIST_PD)


GOLDEN = {
    ("figure8", None, "13/34"): "c8f1b60b99945bbc29997ced85ad52dcc436c7c03d7c619aa1e8566c0382989b",
    ("figure8", None, "233/377"): "fcd3e5fda26e4416514cbc4ce59dfdebfeea6cbabf27dfc552494d74ecfcf22c",
    ("figure8", None, "1/500"): "972c92150ed5471801075711e14579ad60f0217d41fe90cbf15612978ea09db8",
    ("figure8", PARALLEL, "21/55"): "f71db6bb017aca19dbc4425244734ffc6a598bb0b26c67672b412c16d480880b",
    ("figure8", PARALLEL, "7/12"): "fdee9972eb93b5e67e789ac06b974f40157bee9926afa060cc2e146aac760669",
    ("figure8", PARALLEL, "1/509"): "1449440f77b52fbee51d9a26fbd0ccf2d04d4b2e61fe9261093ef877f82622c3",
    ("figure8", ANTIPARALLEL, "34/89"): "0e044ed5ffc8397244544e1fed8b512860290cfb25e6dc8f73a0f9b92d1b688b",
    ("figure8", ANTIPARALLEL, "7/12"): "29cbd12dc09b43d440c5d21e1cedc3104ec050345ca2fb231b2337ffaa2223c4",
    ("figure8", ANTIPARALLEL, "1/500"): "1214e927aedd750d9a91702d70b855a7c90777ac120a733b69db80a67e27fbe1",
    ("twist", None, "13/34"): "e802acc1b5c4fdfe6636e5303b0be9ce3ab9e28314af9f950bac8a2d1e328448",
    ("twist", None, "233/377"): "85efae4a401b1d3cabf7819f598121712593124353c64df2d891597355aed492",
    ("twist", None, "1/500"): "0ac53b3c5bac3c2b84e3cda6cfb589a688a49bd8f1bd78c5d8a18fd156b35591",
    ("twist", PARALLEL, "21/55"): "030a9ee90ad72b338841c2811efafc3ee40615923dba0d610ff50527bc2489dd",
    ("twist", PARALLEL, "7/12"): "81584b67f8563b6675f748b3a8cfc8b0857cbc14fbaa6f3d4acdd2643f0cc177",
    ("twist", PARALLEL, "1/509"): "1c99dbfdf2bb1072307488d363b1c52016e31babba166debbef0ac7a8d58f35d",
    ("twist", ANTIPARALLEL, "34/89"): "08537c3905b8a8655e5bbde8dc39e15bde806b28a3f63eea605e306c3f20ec27",
    ("twist", ANTIPARALLEL, "7/12"): "a6326bc1d6e038b8270e9c3a50fda2e580e6390e7881360e6deca1058bed1860",
    ("twist", ANTIPARALLEL, "1/500"): "fb193d82a469a09a78ab7637932f7829e84e7a7c8d666da0437b06624e89fffb",
    ("trefoil_sum", None, "13/34"): "e43a93b5bd1c0f8efd5d73ee7f0ab4b23bbb39b7e2846c56d353329935bff31e",
    ("trefoil_sum", None, "233/377"): "9c3f6fc37e78ea503160e23f596c590a3ba27ccf9ab5e61bdcacce7d21c9f5cf",
    ("trefoil_sum", None, "1/500"): "e3f941e1774aef7ad336967f16587f80e87801b36b5d3ae9ce6cda74656de350",
    ("trefoil_sum", PARALLEL, "21/55"): "2d0abed6d44c28680e688eac188b20d2ab6f5cc6402a984fa54a73fdabbdde42",
    ("trefoil_sum", PARALLEL, "7/12"): "4cdcab57a5b8ecfcf6d0aa67b1d8642879a72063e5cf36f17eeb6f9db1c068fe",
    ("trefoil_sum", PARALLEL, "1/509"): "226bf696503ed332bd4e4b36b8f4922c4cd2674f5227c173daeb7da301c9d62f",
    ("trefoil_sum", ANTIPARALLEL, "34/89"): "d4529e951a14217280bf38a30f1e65e6aa30df7c207e6adba97d2c4b0517ffa6",
    ("trefoil_sum", ANTIPARALLEL, "7/12"): "9e4311c1de62e3fb16dfc1601a0312428a717ccef5bfbf9631210c289cf37a78",
    ("trefoil_sum", ANTIPARALLEL, "1/500"): "c021c423a1153c5126b77ce8499ed02d5a426e899a2cc45d27b6370aefc54437",
}


@pytest.mark.parametrize("ambient,tag,target", sorted(GOLDEN, key=str))
def test_certificate_bytes_are_unchanged(ambient, tag, target):
    t = TEMPLATES[ambient]
    if tag is None:
        c = span_certificate(F(target), t)
    else:
        c = oriented_span_certificate(OrientedTarget(F(target), tag), t)
    text = json.dumps(certificate_to_json(c), sort_keys=True)
    recorded = as_recorded(text).encode()
    assert hashlib.sha256(recorded).hexdigest() == GOLDEN[ambient, tag, target]
    assert verify_certificate(certificate_from_json(json.loads(text))).accepted


# Recorded with the numerator recursion and its mirror frame for negative
# targets, before both generators walked Farey parents: bytes must not change.
SIGNED_GOLDEN = {
    ("figure8", PARALLEL, "-21/55"): "120eac9b2744323ed3cdab447bda344435f6609cca021ef4f6ee8c6847ac707d",
    ("figure8", ANTIPARALLEL, "-34/89"): "0463bcdb1514899fd79b7415bbd1fbdb287fd2bc32a3bcacef1364cc79ed3646",
    ("figure8", PARALLEL, "-1/509"): "10331221ef26383d774b47a977ef95c641f44d2baa5fd697b64936c42c8e2318",
    ("trefoil_sum", ANTIPARALLEL, "-7/12"): "36f8c4aa859bbb92ff04d234b6b0d79a9c2f628c5e9686112d851a69acf203c2",
    ("figure8", PARALLEL, "55/21"): "fa84d854f0f0b0a2ea705d73515805d0c4cb7151b52519270c6457d23156a7e8",
}


@pytest.mark.parametrize("ambient,tag,target", sorted(SIGNED_GOLDEN))
def test_signed_oriented_certificate_bytes_are_unchanged(ambient, tag, target):
    c = oriented_span_certificate(OrientedTarget(F(target), tag), TEMPLATES[ambient])
    text = json.dumps(certificate_to_json(c), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SIGNED_GOLDEN[ambient, tag, target]
    assert verify_certificate(c).accepted


def test_every_small_target_has_unchanged_bytes_or_refusal():
    """One digest over every reduced |p|, q <= 30 (1/0 and negatives
    included) on each stock ambient, unoriented and in both sectors; a
    refused target hashes as a fixed marker."""
    digest = hashlib.sha256()
    made = refused = 0
    for name in ("figure8", "twist", "trefoil_sum"):
        for tag in (None, PARALLEL, ANTIPARALLEL):
            for f in reduced_fractions(30):
                try:
                    if tag is None:
                        c = span_certificate(f, TEMPLATES[name])
                    else:
                        c = oriented_span_certificate(
                            OrientedTarget(f, tag), TEMPLATES[name]
                        )
                except CertificateError:
                    digest.update(b"refused\n")
                    refused += 1
                    continue
                text = json.dumps(certificate_to_json(c), sort_keys=True)
                digest.update(as_recorded(text).encode())
                digest.update(b"\n")
                made += 1
    assert (made, refused) == (7090, 2918)
    assert digest.hexdigest() == (
        "ca05974b72a8df1c5dc10d5e8195759cf4677c06183c7432fc13485c091483c4"
    )


def indented_json(cert) -> str:
    """The file text as the `json` module writes it."""
    return json.dumps(certificate_to_json(cert), indent=2, sort_keys=True) + "\n"


def golden_certificates():
    for ambient, tag, target in sorted(GOLDEN, key=str) + sorted(SIGNED_GOLDEN):
        if tag is None:
            yield span_certificate(F(target), TEMPLATES[ambient])
        else:
            yield oriented_span_certificate(
                OrientedTarget(F(target), tag), TEMPLATES[ambient]
            )


class TestCertificateText:
    """`certificate_text` is the `json` module's indented text, on every kind
    of certificate the writers take."""

    def test_every_golden_certificate(self):
        certs = list(golden_certificates())
        assert len(certs) == len(GOLDEN) + len(SIGNED_GOLDEN)
        for c in certs:
            assert certificate_text(c) == indented_json(c)

    def test_oriented_certificate_with_resolutions(self):
        c = oriented_span_certificate(OrientedTarget(F("-34/89"), ANTIPARALLEL))
        assert any(j[0] == "triple" and j[3] is not None for j in c.justs)
        assert certificate_text(c) == indented_json(c)

    def test_empty_node_list(self):
        data = certificate_to_json(span_certificate(F("2/5")))
        data["nodes"] = []
        c = certificate_from_json(data)
        assert '"nodes": []\n' in certificate_text(c)
        assert certificate_text(c) == indented_json(c)

    def test_loaded_names_that_need_escaping(self, tmp_path):
        data = certificate_to_json(
            oriented_span_certificate(OrientedTarget(F("21/55"), PARALLEL))
        )
        data["kind"] = "ori\u00e9nted"
        data["nodes"][0]["just"]["base"] = 'un"kn\\ot\n\u2603'
        data["nodes"][1]["orient"] = "par\tallel/\u00e9"
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        c = load_certificate(str(path))
        assert c.justs[0][1] == 'un"kn\\ot\n\u2603'
        text = certificate_text(c)
        assert text == indented_json(c)
        assert json.loads(text) == data

    def test_save_writes_the_text(self, tmp_path):
        c = span_certificate(F("-21/55"), TEMPLATES["trefoil_sum"])
        path = tmp_path / "c.json"
        save_certificate(c, str(path))
        assert path.read_text(encoding="utf-8") == indented_json(c)


def _differential_targets():
    rng = random.Random(20240611)
    targets = []
    while len(targets) < 300:
        q = rng.randint(1, 20_000)
        p = rng.randint(-2 * q, 2 * q)
        if gcd(p, q) == 1:
            targets.append(TangleFraction(p, q))
    return targets + [TangleFraction(p, q) for p in (1, 2) for q in (499, 500, 4999)
                      if gcd(p, q) == 1]


def _walk(target, tag, ambient):
    """The Stern-Brocot walk through the public generators, where
    OrientedTarget refuses an oriented target outside its sector."""
    if tag is None:
        return span_certificate(target, ambient)
    return oriented_span_certificate(OrientedTarget(target, tag), ambient)


def _generated(derive, target, tag, ambient):
    try:
        return derive(target, tag, ambient)
    except CertificateError as exc:
        return str(exc)


@pytest.mark.parametrize("tag", [None, PARALLEL, ANTIPARALLEL])
@pytest.mark.parametrize("ambient", ["figure8", "twist", "trefoil_sum"])
def test_walk_matches_the_depth_first_oracle(ambient, tag):
    """The Stern-Brocot walk emits the depth-first search's certificate node
    for node, or refuses with the same message, and its up-front node count
    is exact."""
    made = 0
    for target in _differential_targets():
        new = _generated(_walk, target, tag, TEMPLATES[ambient])
        old = _generated(dfs_derive, target, tag, TEMPLATES[ambient])
        if isinstance(old, str) or isinstance(new, str):
            assert new == old, target
            continue
        assert new.kind == old.kind and new.ambient == old.ambient, target
        assert new.nodes == old.nodes, target
        # the budget's node count, made before the walk, is the walk's
        runs = certify._runs(target.p % target.q, target.q)
        compat = certify._SECTOR_PARITIES.get(tag)
        assert certify._size(target.p // target.q, runs, compat) == len(new), target
        made += 1
    assert made >= 90


def test_loading_and_verifying_builds_no_node_records(monkeypatch):
    cert = span_certificate(F("1/999"))
    assert len(cert) == 1000
    data = json.loads(json.dumps(certificate_to_json(cert)))
    assert verify_certificate(cert).accepted  # the ambient refit is memoized
    built = []
    for cls in (CertNode, TangleFraction):
        init = cls.__init__
        monkeypatch.setattr(
            cls, "__init__",
            lambda self, *args, _init=init, _cls=cls: built.append(_cls) or _init(self, *args),
        )
    assert verify_certificate(certificate_from_json(data)).accepted
    assert built == []
    certificate_from_json(data).nodes  # noqa: B018 - the view builds them
    assert built.count(CertNode) == built.count(TangleFraction) == 1000


# -- fuzzing the JSON loader ------------------------------------------------------

SEED_CERTS = [
    certificate_to_json(span_certificate(F("5/13"))),
    certificate_to_json(
        oriented_span_certificate(OrientedTarget(F("2/5"), ANTIPARALLEL))
    ),
    certificate_to_json(
        oriented_span_certificate(OrientedTarget(F("1/4"), PARALLEL), TEMPLATES["twist"])
    ),
]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(
        ["1/2", "0/1", "3/-4", "1/0", "unknot", "hopf", "parallel", "T[1,2,1,2]"]
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["base", "triple", "resolution", "frac", "just", "orient"])
        | st.text(max_size=4),
        inner,
        max_size=3,
    ),
    max_leaves=6,
)


def _containers(obj, found):
    if isinstance(obj, (dict, list)):
        found.append(obj)
        for v in obj.values() if isinstance(obj, dict) else obj:
            _containers(v, found)
    return found


@st.composite
def mutated_certificates(draw):
    data = copy.deepcopy(draw(st.sampled_from(SEED_CERTS)))
    for _ in range(draw(st.integers(1, 3))):
        spots = _containers(data, [])
        if not spots:
            break
        box = draw(st.sampled_from(spots))
        keys = list(box) if isinstance(box, dict) else list(range(len(box)))
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "insert" or not keys:
            value = draw(JSON_VALUES)
            if isinstance(box, dict):
                box[draw(st.text(max_size=6))] = value
            else:
                box.insert(draw(st.integers(0, len(box))), value)
            continue
        key = draw(st.sampled_from(keys))
        if action == "replace":
            box[key] = draw(JSON_VALUES)
        else:
            del box[key]
    return data


@given(mutated_certificates())
@settings(max_examples=300, deadline=None)
def test_mutated_json_yields_a_verdict_or_certificate_error(data):
    try:
        cert = certificate_from_json(data)
    except CertificateError:
        return
    assert isinstance(verify_certificate(cert), Verdict)
