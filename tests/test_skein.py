import hashlib
import random

import pytest
from hypothesis import given, strategies as st

import tanglekit.skein
from tanglekit.coloring import determinant
from tanglekit.corpus import bundled_templates, load_corpus
from tanglekit.diagram import (
    LinkDiagram,
    connected_sum,
    is_planar,
    parse_pd,
    pd_string,
    resolve,
)
from tanglekit.skein import (
    MAX_SCAN_BOUND,
    FareyPair,
    ScanReport,
    TangleTemplate,
    TemplateError,
    figure8_template,
    fit_coefficients,
    insertion_det,
    mediant,
    orientation_compatible,
    partner,
    reduced_fractions,
    splice,
    two_slot_scan,
    zero_locus,
)
from tanglekit.tangle import (
    AB_CD,
    AC_BD,
    AD_BC,
    ANTIPARALLEL,
    PARALLEL,
    TangleFraction,
    compile_word,
    connectivity,
    fraction_to_cf,
)
from tangle_oracles import aligned_words, brute_two_slot_scan, farey_neighbor, insert

F = TangleFraction.parse
NECKLACE2 = TangleTemplate(parse_pd("T[1,2,3,4] T[2,1,4,3]"))
# one fraction of each connectivity class
CLASS_FRACTIONS = {AB_CD: F("0/1"), AC_BD: F("1/0"), AD_BC: F("1/1")}


def admitted(t, slot=0):
    """The connectivity classes orientation_compatible admits at a slot."""
    return {c for c, f in CLASS_FRACTIONS.items() if orientation_compatible(t, slot, f)}


def resolution(pair, t):
    """The oriented skein triple's resolution: the one pair member the
    slot admits, where the mediant is admitted too."""
    assert orientation_compatible(t, 0, mediant(pair))
    (res,) = [f for f in (pair.f1, pair.f2) if orientation_compatible(t, 0, f)]
    return res


def farey_ok(f1, f2) -> bool:
    return abs(f1.p * f2.q - f1.q * f2.p) == 1


class TestFareyNeighbor:
    def test_examples(self):
        assert farey_neighbor(F("1/0")) == F("0/1")
        assert farey_neighbor(F("5/7")) == F("2/3")
        # brute force over q' <= 5 confirms 1/3 is a valid canonical choice
        assert farey_neighbor(F("2/5")) in (F("1/2"), F("1/3"))

    def test_identity_holds_everywhere(self):
        for f in reduced_fractions(25):
            g = farey_neighbor(f)
            assert farey_ok(f, g), (f, g)

    def test_neighbors_of_trivials(self):
        assert farey_neighbor(F("0/1")) == F("1/0")


class TestMediant:
    def test_examples(self):
        assert mediant(FareyPair(F("0/1"), F("1/0"))) == F("1/1")
        assert mediant(FareyPair(F("1/2"), F("1/3"))) == F("2/5")

    def test_integer_neighbor_family(self):
        # (v+1)/1 with (vd+d-1)/d are neighbors; their mediant follows suit
        for v in range(6):
            for d in range(1, 6):
                a = F(f"{v + 1}/1")
                c = TangleFraction.make(v * d + d - 1, d)
                pair = FareyPair(a, c)
                m = mediant(pair)
                assert m == TangleFraction.make(v + 1 + c.p, 1 + c.q)

    def test_rejects_non_neighbors(self):
        with pytest.raises(ValueError):
            FareyPair(F("1/3"), F("1/5"))

    def test_mediant_is_reduced_automatically(self):
        for f in reduced_fractions(12):
            g = farey_neighbor(f)
            m = mediant(FareyPair(f, g))
            from math import gcd

            assert gcd(abs(m.p), m.q) == 1

    @given(st.integers(-40, 40), st.integers(0, 40))
    def test_triple_classes_pairwise_distinct(self, p, q):
        if p == 0 and q == 0:
            return
        f = TangleFraction.make(p, q)
        g = farey_neighbor(f)
        m = mediant(FareyPair(f, g))
        assert len({f.parity(), g.parity(), m.parity()}) == 3


class TestReducedFractions:
    @pytest.mark.parametrize("bound", [True, False, 2.0, 1.5])
    def test_bound_must_be_an_exact_int(self, bound):
        # True listed bound 1's four fractions; 2.0 reached range()
        with pytest.raises(ValueError, match="bound must be an int"):
            reduced_fractions(bound)


class TestFigure8Template:
    def test_fit_is_det_q(self):
        t = TangleTemplate(parse_pd("T[1,2,1,2]"))
        assert fit_coefficients(t) == (1, 0)
        assert TangleTemplate(t.diagram, fit_coefficients(t)).coeffs == (1, 0)

    def test_insertions(self):
        t = figure8_template()
        assert determinant(splice(t, 0, F("0/1"))) == 1  # unknot
        assert determinant(splice(t, 0, F("1/0"))) == 0  # split pair
        assert determinant(splice(t, 0, F("1/2"))) == 2  # Hopf link
        assert determinant(splice(t, 0, F("1/3"))) == 3  # trefoil

    def test_closure_det_is_abs_q(self):
        t = figure8_template()
        for f in reduced_fractions(8):
            assert determinant(splice(t, 0, f)) == f.q, f

    def test_zero_locus(self):
        assert zero_locus(figure8_template()) == F("1/0")

    def test_zero_locus_examples(self):
        t = TangleTemplate(parse_pd("T[1,2,1,2]"), (3, 2))
        assert zero_locus(t) == F("3/2")
        t = TangleTemplate(parse_pd("T[1,2,1,2]"), (1, 1))
        assert zero_locus(t) == F("1/1")

    def test_zero_locus_rejects_null_model(self):
        t = TangleTemplate(parse_pd("T[1,2,1,2]"), (0, 0))
        with pytest.raises(TemplateError):
            zero_locus(t)

    def test_insertion_det_against_splice(self):
        t = figure8_template()
        for f in reduced_fractions(6):
            assert insertion_det(t, f) == determinant(splice(t, 0, f))


class TestOneSlotModel:
    """Only a one-slot template carries a determinant model, a pair (a, b)."""

    def test_model_on_two_slots_is_refused(self):
        with pytest.raises(TemplateError, match="one-slot"):
            TangleTemplate(NECKLACE2.diagram, (1, 0))
        with pytest.raises(TemplateError, match="one-slot"):
            TangleTemplate(NECKLACE2.diagram, ((1, 0), (0, 1)))

    @pytest.mark.parametrize(
        "coeffs", [(1, 2, 3), (1,), ((1, 0),), (), (1.0, 0), (True, 0), [1, 0], 5]
    )
    def test_model_that_is_not_a_pair_of_integers_is_refused(self, coeffs):
        # ((1, 0),) is a tuple holding one pair, not a pair; a float model
        # would give a certificate whose file certificate_from_json refuses
        with pytest.raises(TemplateError, match="pair of integers"):
            TangleTemplate(parse_pd("T[1,2,1,2]"), coeffs)

    def test_unfitted_template_has_no_zero_locus_or_insertion_det(self):
        t = TangleTemplate(parse_pd("T[1,2,1,2]"))
        assert t.coeffs is None
        with pytest.raises(TemplateError, match="not fitted"):
            zero_locus(t)
        with pytest.raises(TemplateError, match="not fitted"):
            insertion_det(t, F("2/5"))

    def test_partly_filled_template_is_unfitted(self):
        out = splice(NECKLACE2, 0, F("1/2"))
        assert isinstance(out, TangleTemplate) and out.slot_count == 1
        assert out.coeffs is None
        fit = fit_coefficients(out)
        assert TangleTemplate(out.diagram, fit).coeffs == fit


class TestOrientation:
    def test_compatible_classes_parallel(self):
        assert admitted(figure8_template(PARALLEL)) == {AD_BC, AC_BD}

    def test_compatible_classes_antiparallel(self):
        assert admitted(figure8_template(ANTIPARALLEL)) == {AB_CD, AC_BD}

    def test_even_denominator_compatible_both_ways(self):
        for tag in (PARALLEL, ANTIPARALLEL):
            t = figure8_template(tag)
            assert orientation_compatible(t, 0, F("1/2"))
            assert orientation_compatible(t, 0, F("3/4"))

    def test_one_one_only_parallel(self):
        assert orientation_compatible(figure8_template(PARALLEL), 0, F("1/1"))
        assert not orientation_compatible(
            figure8_template(ANTIPARALLEL), 0, F("1/1")
        )

    def test_requires_oriented_template(self):
        with pytest.raises(TemplateError):
            orientation_compatible(figure8_template(), 0, F("1/1"))

    def test_oriented_splice_rejects_incompatible(self):
        t = figure8_template(ANTIPARALLEL)
        with pytest.raises(TemplateError):
            splice(t, 0, F("1/1"))
        out = splice(t, 0, F("2/3"))
        assert isinstance(out, LinkDiagram)
        assert out.is_oriented

    def test_splice_takes_only_fractions(self):
        f = F("2/3")
        for value in (fraction_to_cf(f), compile_word(fraction_to_cf(f))):
            for t in (figure8_template(), figure8_template(ANTIPARALLEL)):
                with pytest.raises(TypeError):
                    splice(t, 0, value)


class TestOrientedTriple:
    """The oriented triple of a Farey pair at a slot: its mediant, the
    crossing-change partner, and the one pair member the slot admits."""

    def test_base_pair(self):
        pair = FareyPair(F("0/1"), F("1/0"))
        assert mediant(pair) == F("1/1")
        assert partner(pair) == F("-1/1")
        assert resolution(pair, figure8_template(PARALLEL)) == F("1/0")

    def test_ladder_pair(self):
        pair = FareyPair(F("1/4"), F("0/1"))
        assert mediant(pair) == F("1/5")
        assert partner(pair) == F("1/3")
        assert resolution(pair, figure8_template(PARALLEL)) == F("1/4")

    def test_antiparallel_selection(self):
        pair = FareyPair(F("1/2"), F("1/3"))
        assert mediant(pair) == F("2/5")
        assert partner(pair) == F("0/1")
        assert resolution(pair, figure8_template(ANTIPARALLEL)) == F("1/2")

    def test_incompatible_mediant_rejected(self):
        pair = FareyPair(F("1/2"), F("0/1"))  # mediant 1/3, class AD|BC
        t = figure8_template(ANTIPARALLEL)
        assert not orientation_compatible(t, 0, mediant(pair))
        with pytest.raises(TemplateError, match="not orientation compatible"):
            splice(t, 0, mediant(pair))


class TestSlotRange:
    """Every slot-level orientation query refuses a slot out of range, a
    negative one included, which would otherwise index from the end."""

    @pytest.mark.parametrize("slot", [-1, -2, 1, 5])
    def test_slot_out_of_range_is_template_error(self, slot):
        for tag in (PARALLEL, ANTIPARALLEL):
            t = figure8_template(tag)
            for query in (
                lambda: orientation_compatible(t, slot, F("1/0")),
                lambda: splice(t, slot, F("1/0")),
            ):
                with pytest.raises(TemplateError, match="out of range"):
                    query()

    @pytest.mark.parametrize("slot", [True, False, 0.0, 1.0])
    def test_slot_must_be_an_exact_int(self, slot):
        # True and 1.0 equal 1, so a range test passed them as slot 1
        for t in (NECKLACE2, NECKLACE2.oriented((1, -1, 1, -1))):
            with pytest.raises(TemplateError, match="slot must be an int"):
                splice(t, slot, F("1/2"))
        with pytest.raises(TemplateError, match="slot must be an int"):
            orientation_compatible(NECKLACE2.oriented((1, -1, 1, -1)), slot, F("1/2"))

    def test_second_slot_of_an_oriented_two_slot_template(self):
        t = NECKLACE2.oriented((1, -1, 1, -1))
        # strands run in at endpoints 1 and 3 and out at 0 and 2
        assert t.diagram.incoming_positions(1) == {1, 3}
        assert admitted(t, 1) == {AB_CD, AD_BC}
        every_in = NECKLACE2.oriented((1, 1, 1, 1)).diagram
        assert every_in.incoming_positions(1) == {0, 1, 2, 3}
        with pytest.raises(TemplateError, match="out of range"):
            orientation_compatible(t, 2, F("1/0"))


class TestAlignedWords:
    def test_base_case(self):
        aw = aligned_words(FareyPair(F("0/1"), F("1/0")))
        assert aw.res_block_fraction == F("0/1")
        assert aw.res_trivial_fraction == F("1/0")
        assert len(aw.mediant.crossings) == 1

    def test_fractions_and_flip(self):
        pair = FareyPair(F("1/2"), F("1/3"))
        aw = aligned_words(pair)
        assert {aw.res_block_fraction, aw.res_trivial_fraction} == {F("1/2"), F("1/3")}
        assert aw.partner_fraction == F("0/1")
        # flipped compilation differs from the mediant's in exactly one tuple
        diff = [
            i
            for i, (x, y) in enumerate(
                zip(aw.mediant.crossings, aw.partner_flipped.crossings)
            )
            if x != y
        ]
        assert diff == [aw.distinguished]

    def test_mediant_witness_small(self):
        # spliced resolutions of the distinguished crossing carry the
        # determinants |q| of the two pair members; the flipped diagram
        # carries the partner's
        t = figure8_template()
        for f1, f2 in [(F("1/2"), F("1/3")), (F("2/3"), F("1/2")), (F("3/4"), F("2/3"))]:
            pair = FareyPair(f1, f2)
            aw = aligned_words(pair)
            d_med = insert(t, aw.mediant)
            dets = {determinant(resolve(d_med, aw.distinguished, w)) for w in (0, 1)}
            assert dets == {f1.q, f2.q}
            d_part = insert(t, aw.partner_flipped)
            assert determinant(d_part) == aw.partner_fraction.q


class TestTwoSlotScan:
    def test_necklace_at_most_one_zero(self):
        t = TangleTemplate(parse_pd("T[1,2,3,4] T[2,1,4,3]"))
        report = two_slot_scan(t, 0, 1, 4)
        assert report.max_zero_count <= 1

    def test_bound_zero_empty(self):
        t = TangleTemplate(parse_pd("T[1,2,3,4] T[2,1,4,3]"))
        report = two_slot_scan(t, 0, 1, 0)
        assert report.records == ()

    def test_knot_forming_companions_have_odd_nonzero_det(self):
        from tanglekit.diagram import components

        t = TangleTemplate(parse_pd("T[1,2,3,4] T[2,1,4,3]"))
        seen_knot = False
        for x in reduced_fractions(3):
            filled = t and splice(t, 0, x)
            for y in reduced_fractions(3):
                out = splice(filled, 0, y)
                if components(out) == 1:
                    seen_knot = True
                    d = determinant(out)
                    assert d % 2 == 1 and d != 0, (x, y)
        assert seen_knot

    def test_rejects_three_slot_necklace(self):
        # refused up front, before any splice: even bound 0 raises
        t = TangleTemplate(parse_pd("T[1,2,3,4] T[2,5,4,6] T[5,1,6,3]"))
        for bound in (0, 2):
            with pytest.raises(TemplateError):
                two_slot_scan(t, 0, 1, bound)

    def test_report_lines_format(self):
        t = TangleTemplate(parse_pd("T[1,2,3,4] T[2,1,4,3]"))
        report = two_slot_scan(t, 0, 1, 1)
        for line in report.lines():
            assert line.count("|") == 2

    def test_slot_order_does_not_change_the_law(self):
        t = TangleTemplate(parse_pd("T[1,2,3,4] T[3,4,1,2]"))
        fwd = two_slot_scan(t, 0, 1, 3)
        rev = two_slot_scan(t, 1, 0, 3)
        assert fwd.max_zero_count <= 1 and rev.max_zero_count <= 1
        assert len(fwd.records) == len(rev.records)

    def test_matches_enumeration_on_stock_templates(self):
        for t in (NECKLACE2, TangleTemplate(parse_pd("T[1,2,3,4] T[3,4,1,2]"))):
            for slots in ((0, 1), (1, 0)):
                for bound in range(0, 5):
                    assert two_slot_scan(t, *slots, bound) == brute_two_slot_scan(
                        t, *slots, bound
                    ), (pd_string(t.diagram), slots, bound)

    def test_matches_enumeration_on_random_planar_templates(self):
        rng = random.Random(20191)
        for _ in range(200):
            d = random_planar_two_slot(rng, rng.randint(0, 4))
            slots = rng.choice(((0, 1), (1, 0)))
            t = TangleTemplate(d)
            assert two_slot_scan(t, *slots, 2) == brute_two_slot_scan(
                t, *slots, 2
            ), (pd_string(d), slots)

    def test_all_zero_row_lists_every_fraction(self):
        # a connected sum of two one-slot closures has det |q1| * |q2|: with
        # 1/0 in either slot the closure is split for every other insertion
        fig8 = parse_pd("T[1,2,1,2]")
        t = TangleTemplate(connected_sum(fig8, 1, fig8, 1))
        fractions = tuple(reduced_fractions(3))
        for slots in ((0, 1), (1, 0)):
            report = two_slot_scan(t, *slots, 3)
            assert report == brute_two_slot_scan(t, *slots, 3)
            assert report.records[0] == (F("1/0"), len(fractions), fractions)
            assert all(r[1:] == (1, (F("1/0"),)) for r in report.records[1:])

    def test_rejects_oriented_template(self):
        t = NECKLACE2.oriented((1, 1, 1, 1))
        for bound in (0, 2):
            with pytest.raises(TemplateError):
                two_slot_scan(t, 0, 1, bound)

    def test_rejects_slots_out_of_range(self):
        for slots in ((0, 2), (2, 1), (-1, 0)):
            with pytest.raises(TemplateError):
                two_slot_scan(NECKLACE2, *slots, 0)

    @pytest.mark.parametrize(
        "slots", [(True, False), (0, True), (1.0, 0), (0, 1.0), (0.0, 1)]
    )
    def test_slots_must_be_exact_ints(self, slots):
        # {True, False} == {0, 1}, so a set test scanned them as slots 0 and 1
        with pytest.raises(TemplateError, match="scan slots must be ints"):
            two_slot_scan(NECKLACE2, *slots, 2)

    @pytest.mark.parametrize("bound", [True, False, 2.5, 2.0])
    def test_bound_must_be_an_exact_int(self, bound):
        # a True bound was reported as True; 2.5 reached range()
        with pytest.raises(TemplateError, match="scan bound must be an int"):
            two_slot_scan(NECKLACE2, 0, 1, bound)

    def test_rejects_non_planar_template(self, monkeypatch):
        # the linear form passes every validation fit on this diagram, yet
        # misses the second zero that enumeration finds for seven x
        t = TangleTemplate(parse_pd("X[2,1,5,6] T[3,3,5,4] T[6,1,2,4]"))
        assert not is_planar(t.diagram)
        for bound in (0, 2):
            with pytest.raises(TemplateError, match="planar"):
                two_slot_scan(t, 0, 1, bound)
        oracle = brute_two_slot_scan(t, 0, 1, 2)
        assert oracle.max_zero_count == 8
        assert [r[1] for r in oracle.records].count(2) == 7
        monkeypatch.setattr(tanglekit.skein, "is_planar", lambda d: True)
        assert two_slot_scan(t, 0, 1, 2) != oracle

    def test_bound_cap_refused_before_any_fraction(self, monkeypatch):
        def no_fractions(bound):
            raise AssertionError("fractions built for a refused bound")

        monkeypatch.setattr(tanglekit.skein, "reduced_fractions", no_fractions)
        with pytest.raises(TemplateError):
            two_slot_scan(NECKLACE2, 0, 1, MAX_SCAN_BOUND + 1)

    def test_capped_bound_answers(self):
        report = two_slot_scan(NECKLACE2, 0, 1, MAX_SCAN_BOUND)
        assert len(report.records) == len(reduced_fractions(MAX_SCAN_BOUND))
        assert all(ws == (x.mirror(),) for x, _, ws in report.records)


def scan_digest(reports) -> str:
    """SHA-256 over the report lines of a sequence of scans."""
    h = hashlib.sha256()
    for report in reports:
        h.update(("\n".join(report.lines()) + "\n\n").encode())
    return h.hexdigest()


class TestScanGoldens:
    """Scan reports pinned by digest, as the closed form with its five extra
    validation fits printed them: 124 stock scans and 1,000 random ones."""

    # necklace2 and stack2 give the same report, in either slot order: the
    # zero of x is its mirror
    STOCK = "e20a9c51979f881e8e29ed4ab9db3ea228bc81e4774c41b7ceda934347f8aded"
    # ten blocks of 100 seeded planar templates with 0-5 crossings, slot
    # order and bound (0-6) drawn with each
    RANDOM = (
        "7c6c0643eea7d94c738148e6d46d3cc89e886d8227b0c3267de945b9c9b14a96",
        "8fcc8e7d91a472b692d4ff53fff269aafc29a5dd63933bed8a13fdf0ae656693",
        "d3ec6c6dcb4d857fc717e152cc5d431ba483923ab6a34508746ca3c02eaedb2b",
        "fcfa5ca1c78135df9dbbd4fef12e596726e2ec0b11653d1f58e4a857b5898862",
        "82ac8f8ae904387d6d6bfe28f8c3b8c7ccbdc89baa73d5c317375c01094e782c",
        "6920846cc2662bfd44da1d03d79ab6f3785534eeb4d842582f00454f80238e96",
        "8f16ec4f53cf9e9f5c3f845a4524d4df1816ef06dc04658bf6f45e91a4bc7d91",
        "7f734a22658636b05cd8e235cc1b626c3471e759fe64b816389812a238b67df3",
        "954daba77ec16b92036279f4ac4b7992ff39f98abadaede2166efd84a31c51d6",
        "a4eeba912b42b0bdfee39cbc01d85cab75b4a3791ab5f243c7bce115b5d39b0a",
    )

    @pytest.mark.parametrize("name", ["necklace2", "stack2"])
    @pytest.mark.parametrize("slots", [(0, 1), (1, 0)])
    def test_stock_templates_at_bounds_0_to_30(self, name, slots):
        t = bundled_templates()[name]
        scans = (two_slot_scan(t, *slots, b) for b in range(MAX_SCAN_BOUND + 1))
        assert scan_digest(scans) == self.STOCK

    def test_random_planar_templates(self):
        rng = random.Random(1124)
        digests = []
        for _ in range(10):
            scans = []
            for _ in range(100):
                d = random_planar_two_slot(rng, rng.randint(0, 5))
                slots = rng.choice(((0, 1), (1, 0)))
                scans.append(two_slot_scan(TangleTemplate(d), *slots, rng.randint(0, 6)))
            digests.append(scan_digest(scans))
        assert tuple(digests) == self.RANDOM


def random_planar_two_slot(rng: random.Random, crossings: int) -> LinkDiagram:
    """A two-slot diagram with the given number of crossings: random edge
    labels drawn until the Euler check calls the result planar."""
    while True:
        ends = list(range(4 * (crossings + 2)))
        rng.shuffle(ends)
        label = [0] * len(ends)
        for i in range(0, len(ends), 2):
            label[ends[i]] = label[ends[i + 1]] = i // 2 + 1
        tuples = [tuple(label[i : i + 4]) for i in range(0, len(label), 4)]
        d = LinkDiagram(
            crossings=tuple(tuples[:crossings]), slots=tuple(tuples[crossings:])
        )
        if is_planar(d):
            return d


class TestPlanarity:
    def test_stock_diagrams_are_planar(self):
        templates = bundled_templates()
        for name in ("necklace2", "stack2", "figure8", "trefoil_sum"):
            assert is_planar(templates[name].diagram), name
        for e in load_corpus():
            assert is_planar(e.diagram()), e.name

    def test_virtual_diagrams_are_not(self):
        for pd in ("T[4,1,3,2] X[1,4,2,3]", "X[1,2,3,4] X[1,2,3,4]"):
            assert not is_planar(parse_pd(pd)), pd

    def test_stock_twist_is_planar_and_its_old_pd_is_not(self):
        # the earlier stock twist PD has the coloring matrix, and so the
        # determinants, of the planar one-crossing diagram that replaced it;
        # its own rotation is not planar
        assert pd_string(bundled_templates()["twist"].diagram) == "X[2,4,3,1] T[1,2,3,4]"
        assert is_planar(bundled_templates()["twist"].diagram)
        assert not is_planar(parse_pd("T[1,2,3,4] X[3,4,2,1]"))


class TestPartnerNormalization:
    def test_negative_denominator_normalized(self):
        assert partner(FareyPair(F("1/2"), F("1/3"))) == F("0/1")
        assert partner(FareyPair(F("0/1"), F("1/0"))) == F("-1/1")

    def test_unoriented_triple(self):
        pair = FareyPair(F("1/2"), F("1/3"))
        assert (mediant(pair), partner(pair)) == (F("2/5"), F("0/1"))


class TestCompileOnce:
    """splice compiles each fraction's tangle once, through a bounded cache."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        calls = []
        compile_ = tanglekit.skein.compile_word

        def counted(cf):
            calls.append(cf)
            return compile_(cf)

        monkeypatch.setattr(tanglekit.skein, "compile_word", counted)
        tanglekit.skein._compiled.cache_clear()
        yield calls
        tanglekit.skein._compiled.cache_clear()

    def test_a_fit_compiles_its_eight_probes_once(self, compiles):
        assert fit_coefficients(figure8_template()) == (1, 0)
        assert len(compiles) == 8
        assert fit_coefficients(TangleTemplate(parse_pd("T[1,2,3,4] X[3,4,2,1]"))) == (-1, 1)
        assert len(compiles) == 8

    def test_a_scan_compiles_each_fraction_once(self, compiles):
        report = two_slot_scan(NECKLACE2, 0, 1, 3)
        assert len(compiles) == len(set(compiles)) <= 16
        assert report == two_slot_scan(NECKLACE2, 0, 1, 3)
        assert len(compiles) == len(set(compiles))

    def test_cache_is_bounded_and_matches_compile_word(self, compiles):
        assert tanglekit.skein._compiled.cache_info().maxsize == 256
        for f in reduced_fractions(4):
            assert tanglekit.skein._compiled(f) == compile_word(fraction_to_cf(f))


class TestScanCost:
    """A scan makes three fits, whatever its bound: the first slot filled
    with 1/0, 0/1 and 1/1, each fitted by three probes and five validations."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"fit_coefficients": 0, "determinant": 0, "splice": 0}
        for name in counts:
            real = getattr(tanglekit.skein, name)

            def counted(*args, _name=name, _real=real):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(tanglekit.skein, name, counted)
        return counts

    @pytest.mark.parametrize("name", ["necklace2", "stack2"])
    @pytest.mark.parametrize("bound", [1, 4, MAX_SCAN_BOUND])
    def test_three_fits_and_24_determinants(self, calls, name, bound):
        two_slot_scan(bundled_templates()[name], 0, 1, bound)
        assert calls == {"fit_coefficients": 3, "determinant": 24, "splice": 27}

    def test_bound_zero_fits_nothing(self, calls):
        assert two_slot_scan(NECKLACE2, 1, 0, 0).records == ()
        assert calls == {"fit_coefficients": 0, "determinant": 0, "splice": 0}
