"""Cross-module properties at desk scale, all by exact arithmetic."""

import pytest

from tanglekit.certify import span_certificate, verify_certificate
from tanglekit.coloring import bareiss_determinant, coloring_matrix, determinant
from tanglekit.corpus import bundled_templates, load_corpus
from tanglekit.diagram import LinkDiagram, connected_sum, resolve
from tanglekit.skein import (
    FareyPair,
    TangleTemplate,
    figure8_template,
    mediant,
    reduced_fractions,
    splice,
)
from tanglekit.tangle import TangleFraction, connectivity, fraction_to_cf
from tangle_oracles import aligned_words, insert, mediant_words

CORPUS = load_corpus()
BY_NAME = {e.name: e for e in CORPUS}
FIG8 = figure8_template()


def all_farey_pairs(bound: int):
    fracs = reduced_fractions(bound)
    for i, f in enumerate(fracs):
        for g in fracs[i + 1 :]:
            if abs(f.p * g.q - f.q * g.p) == 1:
                yield FareyPair(f, g)


class TestMediantWitness:
    def test_resolutions_carry_parent_determinants(self):
        # for every mediant whose parents have denominators <= 20: resolving
        # the distinguished crossing of its compilation yields diagrams
        # carrying the parents' determinants, and the crossing change carries
        # the companion's
        seen = 0
        for med in reduced_fractions(20):
            if med.p == 0 or med.q == 0:
                continue
            aw = mediant_words(med)
            f, g = aw.res_block_fraction, aw.res_trivial_fraction
            assert abs(f.p * g.q - f.q * g.p) == 1, med
            d_med = insert(FIG8, aw.mediant)
            assert isinstance(d_med, LinkDiagram)
            assert determinant(d_med) == med.q
            dets = {determinant(resolve(d_med, aw.distinguished, w)) for w in (0, 1)}
            assert dets == {f.q, g.q}, med
            d_part = insert(FIG8, aw.partner_flipped)
            assert determinant(d_part) == aw.partner_fraction.q, med
            seen += 1
        assert seen > 500

    def test_partner_differs_in_exactly_one_crossing_after_splice(self):
        for f1, f2 in [("1/2", "1/3"), ("2/3", "1/2"), ("3/4", "2/3"), ("5/3", "3/2")]:
            pair = FareyPair(TangleFraction.parse(f1), TangleFraction.parse(f2))
            aw = aligned_words(pair)
            d1 = insert(FIG8, aw.mediant)
            d2 = insert(FIG8, aw.partner_flipped)
            assert len(d1.crossings) == len(d2.crossings)
            diff = [i for i, (x, y) in enumerate(zip(d1.crossings, d2.crossings)) if x != y]
            assert len(diff) == 1, (f1, f2, diff)


class TestResolutionLocality:
    @staticmethod
    def tuples_match_up_to_relabel(before, after):
        """Greedy label bijection between two equally long tuple lists,
        allowing each tuple its two-position rotation."""
        phi: dict[int, int] = {}

        def try_map(src, dst, mapping):
            m = dict(mapping)
            for x, y in zip(src, dst):
                if m.setdefault(x, y) != y:
                    return None
            return m

        for t_old, t_new in zip(before, after):
            rot = (t_old[2], t_old[3], t_old[0], t_old[1])
            m = try_map(t_old, t_new, phi)
            if m is None:
                m = try_map(rot, t_new, phi)
            if m is None:
                return False
            phi = m
        return True

    def test_smoothings_touch_only_the_site(self):
        for e in CORPUS:
            d = e.diagram()
            for s in range(len(d.crossings)):
                rest = [t for i, t in enumerate(d.crossings) if i != s]
                for w in (0, 1):
                    r = resolve(d, s, w)
                    assert self.tuples_match_up_to_relabel(rest, r.crossings), (
                        e.name, s, w,
                    )


class TestMinorIndependence:
    def test_all_row_column_pairs_agree_over_corpus(self):
        for e in CORPUS:
            d = e.diagram()
            if not d.crossings or d.loops or len(d.crossings) > 8:
                continue
            rows = coloring_matrix(d)
            k = len(rows)
            if len(rows[0]) != k:
                continue
            want = e.determinant
            for i in range(k):
                for j in range(k):
                    minor = [
                        [v for jj, v in enumerate(row) if jj != j]
                        for ii, row in enumerate(rows)
                        if ii != i
                    ]
                    assert abs(bareiss_determinant(minor)) == want, (e.name, i, j)


class TestConnectivityMatrixModel:
    def test_f2_matrix_product_equals_parity(self):
        # fold the continued fraction through the mod-2 transvection matrices
        for f in reduced_fractions(30):
            cf = fraction_to_cf(f)
            if cf.terms[0] is None:
                v = (1, 0)
            else:
                v = (cf.terms[0] % 2, 1)
            for pos, a in enumerate(cf.terms[1:], start=2):
                if pos % 2 == 0:  # vertical: lower transvection
                    v = (v[0], (a * v[0] + v[1]) % 2)
                else:  # horizontal: upper transvection
                    v = ((v[0] + a * v[1]) % 2, v[1])
            assert v == f.parity(), f


class TestParityPartition:
    def test_farey_triples_have_pairwise_distinct_classes(self):
        count = 0
        for pair in all_farey_pairs(20):
            m = mediant(pair)
            classes = {
                connectivity(pair.f1),
                connectivity(pair.f2),
                connectivity(m),
            }
            assert len(classes) == 3, pair
            count += 1
        assert count > 1000


class TestLinearModelExhaustive:
    def test_corpus_templates_to_bound_ten(self):
        for name, t in bundled_templates().items():
            if t.slot_count != 1:
                continue
            a, b = t.coeffs
            for f in reduced_fractions(10):
                out = splice(TangleTemplate(t.diagram), 0, f)
                assert determinant(out) == abs(b * f.p - a * f.q), (name, f)


class TestConnectedSumLiftOverCorpus:
    def test_lift_accepts_for_every_corpus_knot(self):
        # figure8 # K has the model (det K, 0): check 0 refits it, and the
        # certificate keeps figure8's nodes
        targets = [TangleFraction(1, 3), TangleFraction(2, 5), TangleFraction(-3, 7)]
        certs = [(f, span_certificate(f)) for f in targets]
        for e in CORPUS:
            if e.components != 1 or e.determinant == 0:
                continue
            summed = connected_sum(FIG8.diagram, 1, e.diagram(), 1)
            ambient = TangleTemplate(summed, (e.determinant, 0))
            for f, c1 in certs:
                lifted = span_certificate(f, ambient)
                v = verify_certificate(lifted)
                assert v.accepted, (e.name, str(v))
                assert (lifted.ps, lifted.qs, lifted.justs) == (c1.ps, c1.qs, c1.justs)


class TestHalfIntegerClosures:
    def test_denominator_two_closures_are_hopf_valued(self):
        # the oriented base family at denominator 2: every such closure is a
        # two-component link of determinant 2
        from tanglekit.diagram import components

        for k in range(-9, 10, 2):
            out = splice(FIG8, 0, TangleFraction(k, 2))
            assert isinstance(out, LinkDiagram)
            assert components(out) == 2, k
            assert determinant(out) == 2, k
