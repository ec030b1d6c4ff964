from math import gcd

import pytest
from hypothesis import given, strategies as st

from tanglekit.tangle import (
    AB_CD,
    AC_BD,
    AD_BC,
    ContinuedFraction,
    TangleFraction,
    cf_to_fraction,
    compile_word,
    connectivity,
    fraction_to_cf,
)
from tanglekit.diagram import parse_pd, pd_string
from tangle_oracles import (
    as_diagram,
    cf_to_word,
    compile_twist_word,
    trace_connectivity,
    word_fraction,
)


def all_reduced(bound: int, include_infinity: bool = True):
    """All reduced p/q with |p|, q <= bound, plus 1/0."""
    out = []
    if include_infinity:
        out.append(TangleFraction(1, 0))
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(abs(p), q) == 1:
                out.append(TangleFraction(p, q))
    return out


class TestFraction:
    def test_normalization(self):
        assert TangleFraction.make(2, 4) == TangleFraction(1, 2)
        assert TangleFraction.make(-2, -4) == TangleFraction(1, 2)
        assert TangleFraction.make(2, -4) == TangleFraction(-1, 2)
        assert TangleFraction.make(-3, 0) == TangleFraction(1, 0)
        assert TangleFraction.make(0, -5) == TangleFraction(0, 1)

    def test_rejects_zero_over_zero(self):
        with pytest.raises(ValueError):
            TangleFraction.make(0, 0)

    @pytest.mark.parametrize("p, q", [(2.5, 0), (True, 3), (1.0, 1), (3, False)])
    def test_make_takes_only_exact_ints(self, p, q):
        # 2.5/0 was normalized to 1/0 and True/3 to 1/3; 1.0/1 reached gcd
        with pytest.raises(ValueError, match="fraction terms must be integers"):
            TangleFraction.make(p, q)

    def test_parse_and_str(self):
        assert TangleFraction.parse("9/7") == TangleFraction(9, 7)
        assert TangleFraction.parse("-3/2") == TangleFraction(-3, 2)
        assert TangleFraction.parse("4") == TangleFraction(4, 1)
        assert str(TangleFraction(1, 0)) == "1/0"


class TestContinuedFraction:
    def test_trivial_values(self):
        assert cf_to_fraction(ContinuedFraction((None,))) == TangleFraction(1, 0)
        assert cf_to_fraction(ContinuedFraction((0,))) == TangleFraction(0, 1)

    def test_hand_evaluated_example(self):
        # 1 + 1/(3 + 1/2) = 9/7
        assert cf_to_fraction(ContinuedFraction((2, 3, 1))) == TangleFraction(9, 7)

    def test_negative_terms(self):
        # 3 + 1/(-2 + 1/2) = 3 - 2/3 = 7/3
        assert cf_to_fraction(ContinuedFraction((2, -2, 3))) == TangleFraction(7, 3)

    def test_infinity_roundtrip(self):
        assert fraction_to_cf(TangleFraction(1, 0)) == ContinuedFraction((None,))

    def test_odd_length_enforced(self):
        with pytest.raises(ValueError):
            ContinuedFraction((1, 2))
        with pytest.raises(ValueError):
            ContinuedFraction(())

    def test_interior_zero_rejected(self):
        with pytest.raises(ValueError):
            ContinuedFraction((1, 0, 1))

    @pytest.mark.parametrize("terms", [(True,), (None, True, 2), (2.0,), (1, 2, 1.0)])
    def test_terms_must_be_exact_ints(self, terms):
        # (True,) evaluated to 1/1 and (None, True, 2) to 3/1; a True term
        # would compile as one crossing
        with pytest.raises(ValueError, match="terms must be integers"):
            ContinuedFraction(terms)

    def test_infinite_term_only_first(self):
        with pytest.raises(ValueError, match="allowed only in the first slot"):
            ContinuedFraction((1, None, 2))
        with pytest.raises(ValueError, match="allowed only first"):
            ContinuedFraction.parse("(1,inf,2)")

    def test_parse(self):
        assert ContinuedFraction.parse("(2,3,1)") == ContinuedFraction((2, 3, 1))
        assert ContinuedFraction.parse("inf") == ContinuedFraction((None,))

    def test_roundtrip_exhaustive_small(self):
        for f in all_reduced(30):
            cf = fraction_to_cf(f)
            assert len(cf.terms) % 2 == 1
            assert cf_to_fraction(cf) == f

    @given(st.integers(-500, 500), st.integers(0, 500))
    def test_roundtrip_property(self, p, q):
        if p == 0 and q == 0:
            return
        f = TangleFraction.make(p, q)
        assert cf_to_fraction(fraction_to_cf(f)) == f


class TestWord:
    """compile_word reads a continued fraction's terms as its twist blocks."""

    def test_zero_cf_is_empty_word(self):
        t = compile_word(ContinuedFraction((0,)))
        assert t.crossings == ()
        # nw = ne = 1 and sw = se = 2, listed as T[nw, sw, ne, se]
        assert t.slots == ((1, 2, 1, 2),)
        assert t == parse_pd("T[1,2,1,2]")

    def test_three_horizontal_twists(self):
        t = compile_word(ContinuedFraction((3,)))
        assert t.crossings == ((1, 2, 4, 3), (3, 4, 6, 5), (5, 6, 8, 7))
        assert t.slots == ((1, 2, 7, 8),)  # nw 1, ne 7, sw 2, se 8
        assert (t.loops, t.orientation) == (0, None)

    def test_crossing_count_is_term_sum(self):
        assert len(compile_word(ContinuedFraction((2, 3, 1))).crossings) == 6
        assert len(compile_word(ContinuedFraction((None, -2, 3))).crossings) == 5

    def test_word_fraction_matches_cf(self):
        for f in all_reduced(12):
            assert word_fraction(cf_to_word(fraction_to_cf(f))) == f

    def test_compiled_edges_occur_at_most_twice(self):
        for f in all_reduced(8):
            t = compile_word(fraction_to_cf(f))
            seen: dict[int, int] = {}
            for tup in t.crossings:
                for e in tup:
                    seen[e] = seen.get(e, 0) + 1
            for stub in t.slots[0]:
                seen[stub] = seen.get(stub, 0) + 1
            assert all(v == 2 for v in seen.values())

    def test_every_tangle_round_trips_through_pd_text(self):
        fractions = all_reduced(30)
        assert len(fractions) == 1_112
        for f in fractions:
            t = compile_word(fraction_to_cf(f))
            assert parse_pd(pd_string(t)) == t, f


class TestCompileDifferential:
    def test_compile_matches_the_twist_word_compiler(self):
        # the word layer the library compiled through before it read the
        # continued fraction directly, kept in tangle_oracles
        fractions = [TangleFraction(1, 0)] + [
            TangleFraction(p, q)
            for q in range(1, 60)
            for p in range(-80, 81)
            if gcd(abs(p), q) == 1
        ]
        assert len(fractions) == 5_846  # 5,845 finite ones and 1/0
        for f in fractions:
            cf = fraction_to_cf(f)
            word = compile_twist_word(cf_to_word(cf))
            t = compile_word(cf)
            # the constructor keeps the crossings as compiled: no renumbering
            # and no rotation
            assert t == as_diagram(word) and t.crossings == word.crossings, f


class TestConnectivity:
    def test_trivial_tangle_classes(self):
        assert connectivity(TangleFraction(0, 1)) == AB_CD
        assert connectivity(TangleFraction(1, 0)) == AC_BD
        assert connectivity(TangleFraction(1, 1)) == AD_BC

    def test_parity_rule_matches_strand_tracing(self):
        for f in all_reduced(30):
            compiled = compile_word(fraction_to_cf(f))
            assert trace_connectivity(compiled) == connectivity(f), f
