import contextlib
import io
import json
import time

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from tanglekit.certify import save_certificate, span_certificate
from tanglekit.cli import run
from tanglekit.diagram import parse_pd
from tanglekit.skein import MAX_SCAN_BOUND, TangleTemplate
from tanglekit.tangle import TangleFraction
from test_certify import BRANCH_FORGERIES, FITTING_NON_PLANAR

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
HOPF = "X[1,4,2,3] X[3,2,4,1]"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDet:
    def test_trefoil(self, capsys):
        code, out, _ = invoke(capsys, "det", TREFOIL)
        assert code == 0 and out.strip() == "3"

    def test_unknot_and_hopf(self, capsys):
        assert invoke(capsys, "det", "U")[1].strip() == "1"
        assert invoke(capsys, "det", HOPF)[1].strip() == "2"

    def test_malformed_pd_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "det", "X[1,2,3]")
        assert code == 1 and "error" in err

    def test_contradictory_orientation_directive_is_domain_error(self, capsys):
        code, out, err = invoke(capsys, "det", HOPF + " O[1:+,1:-,2:+]")
        assert code == 1 and out == ""
        assert err == "error: orientation directive names component 1 twice\n"


class TestColorable:
    def test_trefoil_mod3(self, capsys):
        code, out, _ = invoke(capsys, "colorable", "--n", "3", TREFOIL)
        assert code == 0 and out.strip() == "true"

    def test_trefoil_mod5(self, capsys):
        assert invoke(capsys, "colorable", "--n", "5", TREFOIL)[1].strip() == "false"

    def test_composite_modulus_rejected(self, capsys):
        code, _, err = invoke(capsys, "colorable", "--n", "6", TREFOIL)
        assert code == 1


    @pytest.mark.parametrize("pd", ["X[1,2,1,2]", "X[2,1,2,1]"])
    def test_non_planar_disagreement_is_domain_error(self, capsys, pd):
        code, out, err = invoke(capsys, "colorable", "--n", "3", pd)
        assert code == 1 and out == ""
        assert err.startswith("error: diagram is not planar")

    def test_large_prime_modulus_answers_at_once(self, capsys):
        n = 1000000000000000003
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "colorable", "--n", str(n), TREFOIL)
        assert time.perf_counter() - start < 2.0
        assert sympy.isprime(n)
        assert code == 0 and out.strip() == "false"

    def test_modulus_beyond_proven_primality_range_is_domain_error(self, capsys):
        code, _, err = invoke(
            capsys, "colorable", "--n", "318665857834031151167483", TREFOIL
        )
        assert code == 1 and err.startswith("error:")


class TestTangle:
    def test_cf(self, capsys):
        assert invoke(capsys, "tangle", "cf", "9/7")[1].strip() == "(2,3,1)"

    def test_eval(self, capsys):
        assert invoke(capsys, "tangle", "eval", "(2,3,1)")[1].strip() == "9/7"

    @pytest.mark.parametrize("text, term", [("(1e3)", "'1e3'"), ("(1,2", "'(1'")])
    def test_eval_bad_term_is_domain_error(self, capsys, text, term):
        code, out, err = invoke(capsys, "tangle", "eval", text)
        assert code == 1 and out == ""
        assert err.startswith("error: continued fraction term " + term)
        assert "invalid literal" not in err

    def test_conn(self, capsys):
        assert invoke(capsys, "tangle", "conn", "1/1")[1].strip() == "AD|BC"
        assert invoke(capsys, "tangle", "conn", "0/1")[1].strip() == "AB|CD"
        assert invoke(capsys, "tangle", "conn", "1/0")[1].strip() == "AC|BD"


class TestNegativeFractions:
    @pytest.mark.parametrize(
        "argv, want",
        [
            (("tangle", "cf", "-13/8"), "(-2,-1,-1,-1,-1)"),
            (("tangle", "cf", "--", "-13/8"), "(-2,-1,-1,-1,-1)"),
            (("tangle", "conn", "-1/2"), "AC|BD"),
            (("--porcelain", "skein", "triple", "-1/2", "-1/3"), "-2/5 | 0/1"),
            (("--porcelain", "skein", "triple", "--", "-1/2", "-1/3"), "-2/5 | 0/1"),
        ],
    )
    def test_negative_fraction_arguments(self, capsys, argv, want):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and out.strip() == want

    def test_certify_negative_target(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, _, err = invoke(capsys, "certify", "-2/5", "-o", str(path))
        assert code == 0 and "ACCEPT" in err
        assert json.loads(path.read_text())["nodes"][-1]["frac"] == "-2/5"
        assert invoke(capsys, "verify", str(path))[0] == 0


class TestSkein:
    def test_triple(self, capsys):
        code, out, _ = invoke(capsys, "skein", "triple", "1/2", "1/3")
        assert code == 0
        assert "mediant 2/5" in out and "partner 0/1" in out

    def test_porcelain(self, capsys):
        code, out, _ = invoke(capsys, "--porcelain", "skein", "triple", "1/2", "1/3")
        assert out.strip() == "2/5 | 0/1"

    def test_non_neighbors_rejected(self, capsys):
        assert invoke(capsys, "skein", "triple", "1/3", "1/5")[0] == 1


class TestTemplate:
    def test_fit_default_closure(self, capsys):
        code, out, _ = invoke(capsys, "--porcelain", "template", "fit", "T[1,2,1,2]")
        assert code == 0 and out.strip() == "1 | 0 | 1/0"

    def test_scan(self, capsys):
        code, out, _ = invoke(
            capsys, "template", "scan", "T[1,2,3,4] T[2,1,4,3]", "--bound", "2"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if "|" in l]
        assert lines
        assert all(l.count("|") == 2 for l in lines)

    def test_scan_bound_over_cap_is_domain_error(self, capsys):
        code, out, err = invoke(
            capsys, "template", "scan", "T[1,2,3,4] T[2,1,4,3]",
            "--bound", str(MAX_SCAN_BOUND + 1),
        )
        assert code == 1 and out == "" and err.startswith("error:")

    def test_scan_negative_bound_is_domain_error(self, capsys):
        code, out, err = invoke(
            capsys, "template", "scan", "T[1,2,3,4] T[2,1,4,3]", "--bound", "-1"
        )
        assert code == 1 and out == "" and err.startswith("error:")

    def test_scan_non_planar_is_domain_error(self, capsys):
        code, out, err = invoke(
            capsys, "template", "scan", "X[2,1,5,6] T[3,3,5,4] T[6,1,2,4]",
            "--bound", "2",
        )
        assert code == 1 and out == "" and "planar" in err


class TestCertifyVerify:
    def test_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, _, err = invoke(capsys, "certify", "2/5", "-o", str(path))
        assert code == 0 and "ACCEPT" in err
        code, out, _ = invoke(capsys, "verify", str(path))
        assert code == 0 and out.strip() == "ACCEPT"

    def test_oriented_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, _, _ = invoke(
            capsys, "certify", "2/5", "--oriented", "antiparallel", "-o", str(path)
        )
        assert code == 0
        assert invoke(capsys, "verify", str(path))[0] == 0

    def test_certify_stdout_json(self, capsys):
        code, out, _ = invoke(capsys, "certify", "1/3")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "unoriented"

    @pytest.mark.parametrize("orient", [[], ["--oriented", "parallel"]])
    def test_certify_stdout_is_the_saved_file(self, capsys, tmp_path, orient):
        path = tmp_path / "c.json"
        _, out, _ = invoke(capsys, "certify", "-21/55", *orient)
        invoke(capsys, "certify", "-21/55", *orient, "-o", str(path))
        assert out == path.read_text(encoding="utf-8")
        assert out.startswith("{\n  ") and out.endswith("}\n")

    def test_tampered_certificate_exits_2(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        invoke(capsys, "certify", "2/5", "-o", str(path))
        data = json.loads(path.read_text())
        data["nodes"][0]["frac"] = "1/2"  # forge a base
        path.write_text(json.dumps(data))
        code, out, _ = invoke(capsys, "verify", str(path))
        assert code == 2 and "REJECT" in out

    def test_non_planar_ambient_certificate_exits_2(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        ambient = TangleTemplate(parse_pd("T[4,1,3,2] X[1,4,2,3]"), (1, 0))
        save_certificate(span_certificate(TangleFraction(-1, 2), ambient), str(path))
        code, out, _ = invoke(capsys, "verify", str(path))
        assert code == 2
        assert out.startswith("REJECT (check 0") and "fails at -1/2: 0 != 2" in out

    def test_non_planar_ambient_whose_fit_holds_exits_2(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(FITTING_NON_PLANAR))
        code, out, _ = invoke(capsys, "verify", str(path))
        assert code == 2
        assert out == (
            "REJECT (check 0: ambient cannot be refitted: diagram is not planar)\n"
        )

    @pytest.mark.parametrize(
        "tag,edit,verdict", [f[1:] for f in BRANCH_FORGERIES],
        ids=[f[0] for f in BRANCH_FORGERIES],
    )
    def test_forgery_prints_its_verdict_and_exits_2(
        self, capsys, tmp_path, tag, edit, verdict
    ):
        path = tmp_path / "c.json"
        orient = [] if tag is None else ["--oriented", tag]
        invoke(capsys, "certify", "2/5", *orient, "-o", str(path))
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        assert invoke(capsys, "verify", str(path)) == (2, f"{verdict}\n", "")

    def test_zero_locus_target_is_domain_error(self, capsys):
        assert invoke(capsys, "certify", "1/0")[0] == 1

    @pytest.mark.parametrize("orient", [[], ["--oriented", "parallel"]])
    def test_over_budget_target_is_refused_quickly(self, capsys, orient):
        # the Stern-Brocot path of (q - 1)/q has q - 1 steps
        start = time.perf_counter()
        code, out, err = invoke(
            capsys, "certify",
            "99999999999999999999999/100000000000000000000000", *orient,
        )
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == ""
        assert err.startswith("error:") and "generation steps" in err

    def test_incompatible_orientation_is_domain_error(self, capsys):
        code, _, err = invoke(capsys, "certify", "1/3", "--oriented", "antiparallel")
        assert code == 1 and "error" in err


    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"kind": "unoriented", "nodes": []}',
            '{"kind": "unoriented", "ambient": {"pd": "T[1,2,1,2]", "coeffs": [1, 0]},'
            ' "nodes": [{"frac": "2/5", "just": {"triple": [0]}}]}',
            "{not json",
            pytest.param("[" * 200_000, id="deeply-nested"),
        ],
    )
    def test_malformed_certificate_file_is_domain_error(self, capsys, tmp_path, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        code, out, err = invoke(capsys, "verify", str(path))
        assert code == 1 and out == "" and err.startswith("error:")
        assert "Traceback" not in err

    def test_a_node_fraction_with_a_leading_zero_is_domain_error(self, capsys, tmp_path):
        # 02/5 denotes the written 2/5, but the reader takes only p/q as written
        path = tmp_path / "c.json"
        save_certificate(span_certificate(TangleFraction(2, 5)), str(path))
        data = json.loads(path.read_text())
        data["nodes"][-1]["frac"] = "02/5"
        path.write_text(json.dumps(data))
        code, out, err = invoke(capsys, "verify", str(path))
        assert (code, out) == (1, "")
        assert err == "error: node 4: '02/5' is not written 2/5\n"


class TestCorpus:
    def test_list_contains_standard_names(self, capsys):
        code, out, _ = invoke(capsys, "corpus", "list")
        assert code == 0
        assert "3_1 |" in out and "8_19 |" in out

    def test_check_passes(self, capsys):
        code, out, _ = invoke(capsys, "corpus", "check")
        assert code == 0
        assert "check out" in out

    def test_custom_manifest(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("k | X[1,2,2,1] | 1 | 1\n")
        code, out, _ = invoke(capsys, "corpus", "check", "--corpus", str(path))
        assert code == 0

    def test_bad_manifest_value_fails(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("k | X[1,2,2,1] | 1 | 7\n")
        code, _, _ = invoke(capsys, "corpus", "check", "--corpus", str(path))
        assert code == 1


class TestUsage:
    def test_unknown_verb(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 1

    def test_determinism_of_porcelain(self, capsys):
        a = invoke(capsys, "--porcelain", "template", "fit", "T[1,2,1,2]")[1]
        b = invoke(capsys, "--porcelain", "template", "fit", "T[1,2,1,2]")[1]
        assert a == b


# -- fuzzing the command line ----------------------------------------------------

PD_POOL = [
    TREFOIL,
    HOPF,
    HOPF + " O[1:+,2:-]",
    HOPF + " O[1:+]",
    "U",
    "U U",
    "X[1,2,2,1]",
    # not planar
    "X[1,2,1,2]",
    "X[2,1,2,1]",
    "X[1,2,3,4] X[1,2,3,4]",
    "X[1,2,3,4] X[3,4,1,2]",
    # templates, oriented ones among them
    "T[1,2,1,2]",
    "T[1,2,1,2] O[1:+,2:+]",
    "T[1,2,1,2] O[1:+,2:-]",
    "X[2,1,3,4] T[1,2,3,4]",
    "X[1,4,5,6] X[4,7,8,5] X[6,8,7,3] T[1,2,3,2]",
    "T[1,2,3,4] T[2,1,4,3]",
    "T[1,2,3,4] T[3,4,1,2]",
    "X[2,1,5,6] T[3,3,5,4] T[6,1,2,4]",
    "T[1,2,3,4] X[1,2,3,4] T[5,6,5,6]",
    # malformed
    "",
    "X[1,2,3]",
    "X[1,2,3,4",
    "Q[1,2,3,4]",
    "X[1,1,1,1]",
    "X[a,b,c,d]",
]
JUNK = ["", "x", "-", "1/0", "0/0", "3/-4", "1/2/3", "1e3", "+1/2", " 2/5", "--n"]
FRACTIONS = st.one_of(
    st.builds(
        "{}/{}".format, st.integers(-10**4, 10**4), st.integers(0, 10**4)
    ),
    st.integers(-10**4, 10**4).map(str),
    st.sampled_from(JUNK),
)
CF_TERMS = st.one_of(
    st.integers(-10**4, 10**4).map(str), st.sampled_from(["1e3", "", "x", " 2", "1/2"])
)
CONTINUED_FRACTIONS = st.one_of(
    st.lists(CF_TERMS, max_size=6).map(lambda ts: f"({','.join(ts)})"),
    st.sampled_from(["(1,2", "1,2", "()", "(,)", "((1))"]),
)
PDS = st.sampled_from(PD_POOL)
# names in the fuzz directory, marked with "@" until the test resolves them
FILES = st.sampled_from(["good.json", "forged.json", "junk.json", "manifest.txt",
                         "missing.json", "", "nodir/out.json"]).map("@".__add__)
ORIENTED = st.sampled_from(
    [[], ["--oriented", "parallel"], ["--oriented", "antiparallel"]]
)
MODULI = st.one_of(
    st.sampled_from(["2", "3", "5", "7", "13", "6", "1", "0", "-3", "x"]),
    st.integers(-5, 10**6).map(str),
)


def _verb_argvs():
    return st.one_of(
        st.tuples(st.just("det"), PDS),
        st.tuples(st.just("colorable"), st.just("--n"), MODULI, PDS),
        st.tuples(st.just("tangle"), st.sampled_from(["cf", "conn"]), FRACTIONS),
        st.tuples(st.just("tangle"), st.just("eval"), CONTINUED_FRACTIONS),
        st.tuples(st.just("skein"), st.just("triple"), FRACTIONS, FRACTIONS),
        st.tuples(st.just("template"), st.just("fit"), PDS),
        st.tuples(
            st.just("template"), st.just("scan"), PDS,
            st.just("--bound"), st.integers(-1, 31).map(str),
        ),
        st.builds(
            lambda f, tag, out: ("certify", f, *tag, *out),
            FRACTIONS, ORIENTED, st.one_of(st.just(()), FILES.map(lambda p: ("-o", p))),
        ),
        st.tuples(st.just("verify"), FILES),
        st.builds(
            lambda action, path: ("corpus", *action, *path),
            st.sampled_from([(), ("list",), ("check",), ("nope",)]),
            st.one_of(st.just(()), FILES.map(lambda p: ("--corpus", p))),
        ),
    )


ARGVS = st.builds(
    lambda porcelain, verb: (["--porcelain"] if porcelain else []) + list(verb),
    st.booleans(),
    _verb_argvs(),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_certificate(span_certificate(TangleFraction(2, 5)), str(root / "good.json"))
    data = json.loads((root / "good.json").read_text())
    data["nodes"][0]["frac"] = "1/2"
    (root / "forged.json").write_text(json.dumps(data))
    (root / "junk.json").write_text("{not json")
    (root / "manifest.txt").write_text("k | X[1,2,2,1] | 1 | 7\n")
    return root


@given(argv=ARGVS)
@example(argv=["colorable", "--n", "3", "X[1,2,1,2]"])
@settings(max_examples=400, deadline=None)
def test_every_verb_returns_an_exit_code(fuzz_dir, argv):
    argv = [str(fuzz_dir / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()


# -- random PD text ----------------------------------------------------------------

LABELS = st.integers(-1, 12)
BODIES = st.lists(LABELS, min_size=3, max_size=5).map(lambda ls: ",".join(map(str, ls)))
ORIENT_ENTRIES = st.builds(
    "{}:{}".format, st.integers(0, 4), st.sampled_from(["+", "-", "x"])
)
TOKENS = st.one_of(
    st.builds("X[{}]".format, BODIES),
    st.builds("T[{}]".format, BODIES),
    st.just("U"),
    st.lists(ORIENT_ENTRIES, max_size=4).map(lambda es: f"O[{','.join(es)}]"),
    st.sampled_from(["X[", "]", ",", "T[1,2,3,4", "X[1 2 3 4]", "u"]),
)
TOKEN_TEXT = st.lists(TOKENS, max_size=7).map(" ".join)


@st.composite
def paired_label_text(draw):
    """PD text whose labels 1..2n each occur twice, shuffled into n X or T
    tuples (rarely planar), plus loops and an orientation directive."""
    n = draw(st.integers(1, 6))
    labels = draw(st.permutations(list(range(1, 2 * n + 1)) * 2))
    kinds = draw(st.lists(st.sampled_from("XXXT"), min_size=n, max_size=n))
    tokens = [
        f"{kind}[{','.join(map(str, labels[4 * i : 4 * i + 4]))}]"
        for i, kind in enumerate(kinds)
    ]
    tokens += ["U"] * draw(st.sampled_from([0, 0, 1, 2]))
    if draw(st.sampled_from([False, False, True])):
        flags = draw(st.lists(st.sampled_from("+-"), min_size=1, max_size=4))
        tokens.append(f"O[{','.join(f'{i + 1}:{f}' for i, f in enumerate(flags))}]")
    return " ".join(draw(st.permutations(tokens)))


RANDOM_PDS = st.one_of(TOKEN_TEXT, paired_label_text())


@given(pd=RANDOM_PDS)
@settings(max_examples=150, deadline=None)
def test_random_pd_text_gets_an_exit_code(pd):
    runs = [["det", pd], ["template", "fit", pd], ["template", "scan", pd, "--bound", "2"]]
    runs += [["colorable", "--n", n, pd] for n in ("2", "3", "5", "7")]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
