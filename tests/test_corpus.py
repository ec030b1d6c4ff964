from math import gcd

import pytest

from tanglekit.coloring import coloring_matrix, determinant
from tanglekit.corpus import bundled_templates, load_corpus, parse_manifest
from tanglekit.diagram import components, parse_pd, pd_string, resolve
from tanglekit.skein import fit_coefficients, TangleTemplate

CORPUS = load_corpus()
BY_NAME = {e.name: e for e in CORPUS}


def test_expected_size_and_coverage():
    names = set(BY_NAME)
    eight_crossing = {f"8_{i}" for i in range(1, 22)}
    seven = {f"7_{i}" for i in range(1, 8)}
    six = {f"6_{i}" for i in range(1, 4)}
    assert eight_crossing <= names
    assert seven <= names
    assert six <= names
    assert {"3_1", "4_1", "5_1", "5_2", "hopf", "unlink_2"} <= names


def test_manifest_roundtrip_format():
    entry = BY_NAME["3_1"]
    line = f"{entry.name} | {entry.pd} | {entry.components} | {entry.determinant}"
    assert parse_manifest(line)[0] == entry


def test_every_entry_parses_and_matches_manifest():
    for e in CORPUS:
        d = e.diagram()
        assert pd_string(d) == e.pd
        assert components(d) == e.components, e.name
        assert determinant(d) == e.determinant, e.name


def test_double_occurrence_everywhere():
    for e in CORPUS:
        d = e.diagram()
        counts: dict[int, int] = {}
        for t in d.crossings + d.slots:
            for x in t:
                counts[x] = counts.get(x, 0) + 1
        assert all(v == 2 for v in counts.values()), e.name
        assert d.arc_count == max(counts, default=0), e.name


def test_parity_law_over_corpus():
    # odd determinant exactly for the knots
    for e in CORPUS:
        assert (e.determinant % 2 == 1) == (e.components == 1), e.name


def test_resolutions_drop_one_crossing():
    for e in CORPUS:
        d = e.diagram()
        for s in range(len(d.crossings)):
            for w in (0, 1):
                assert len(resolve(d, s, w).crossings) == len(d.crossings) - 1


def test_skein_zero_pattern():
    # among a diagram and its two smoothings at a site, the number of
    # zero-determinant members is never exactly two
    for e in CORPUS:
        if len(e.diagram().crossings) > 8:
            continue
        d = e.diagram()
        for s in range(len(d.crossings)):
            dets = [determinant(d)] + [determinant(resolve(d, s, w)) for w in (0, 1)]
            assert sum(1 for x in dets if x == 0) != 2, (e.name, s, dets)


def test_bundled_templates_fit():
    ts = bundled_templates()
    for name in ("figure8", "twist", "trefoil_sum"):
        t = ts[name]
        assert fit_coefficients(TangleTemplate(t.diagram)) == t.coeffs, name
    assert ts["necklace2"].slot_count == 2
    assert ts["stack2"].slot_count == 2


def test_knot_determinant_table():
    table = {
        "3_1": 3, "4_1": 5, "5_1": 5, "5_2": 7,
        "6_1": 9, "6_2": 11, "6_3": 13,
        "7_1": 7, "7_2": 11, "7_3": 13, "7_4": 15, "7_5": 17, "7_6": 19, "7_7": 21,
        "8_1": 13, "8_2": 17, "8_3": 17, "8_4": 19, "8_5": 21, "8_6": 23,
        "8_7": 23, "8_8": 25, "8_9": 25, "8_10": 27, "8_11": 27, "8_12": 29,
        "8_13": 29, "8_14": 31, "8_15": 33, "8_16": 35, "8_17": 37, "8_18": 45,
        "8_19": 3, "8_20": 9, "8_21": 15,
    }
    for name, det in table.items():
        assert BY_NAME[name].determinant == det, name


def test_crossing_numbers():
    for name, e in BY_NAME.items():
        if "_" in name and name[0].isdigit():
            want = int(name.split("_")[0])
            assert len(e.diagram().crossings) == want, name
