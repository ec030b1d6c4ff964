import random

import pytest
import sympy

from tanglekit import coloring, skein
from tanglekit.coloring import (
    _dense_determinant,
    _sparse_determinant,
    _SparseRows,
    bareiss_determinant,
    coloring_matrix,
    determinant,
    n_colorable,
    rank_mod_p,
)
from tanglekit.corpus import bundled_templates, load_corpus
from tanglekit.diagram import (
    LinkDiagram,
    PDError,
    connected_sum,
    crossing_change,
    disjoint_union,
    is_planar,
    parse_pd,
    resolve,
)
from tanglekit.skein import TemplateError, figure8_template, fit_coefficients, splice
from tanglekit.tangle import ContinuedFraction, cf_to_fraction

UNKNOT_KINK = parse_pd("X[1,2,2,1]")
UNKNOT_0 = parse_pd("U")
HOPF = parse_pd("X[1,4,2,3] X[3,2,4,1]")
TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
TREFOIL = parse_pd(TREFOIL_PD)
# standard figure-eight knot diagram
FIG8_KNOT = parse_pd("X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]")


def det_oracle(d) -> int:
    """Independent determinant: sympy minor of an independently built matrix."""
    n = d.arc_count
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for _, b, _, dd in d.crossings:
        ra, rb = find(b), find(dd)
        if ra != rb:
            parent[ra] = rb
    arcs = sorted({find(e) for e in range(1, n + 1)})
    col = {r: i for i, r in enumerate(arcs)}
    if not d.crossings:
        return 1 if d.loops == 1 else 0
    if d.loops or len(arcs) != len(d.crossings):
        return 0
    rows = []
    for a, b, c, _ in d.crossings:
        row = [0] * len(arcs)
        row[col[find(b)]] += 2
        row[col[find(a)]] -= 1
        row[col[find(c)]] -= 1
        rows.append(row)
    m = sympy.Matrix(rows)
    return abs(m.minor_submatrix(0, 0).det())


def dense_minor_det(d) -> int:
    """The dense-minor path: the full dense k x k coloring matrix, its minor
    without the last row and column, and bareiss_determinant on dense rows.
    Shares only the arc map and the elimination kernels with determinant."""
    if not d.crossings:
        return 1 if d.loops == 1 else 0
    arc_of, m = coloring._fox_arcs(d)
    k = len(d.crossings)
    if d.loops or m != k:
        return 0
    entries = []
    for a, b, c, _ in d.crossings:
        row = [0] * m
        row[arc_of[b]] += 2
        row[arc_of[a]] -= 1
        row[arc_of[c]] -= 1
        entries.append(row)
    minor = [row[: k - 1] for row in entries[: k - 1]]
    return abs(bareiss_determinant(minor))


def as_dicts(matrix):
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


class TestBareiss:
    def test_empty_is_one(self):
        assert bareiss_determinant([]) == 1

    def test_small_matrices(self):
        assert bareiss_determinant([[7]]) == 7
        assert bareiss_determinant([[1, 2], [3, 4]]) == -2
        assert bareiss_determinant([[0, 1], [1, 0]]) == -1

    def test_singular(self):
        assert bareiss_determinant([[1, 2], [2, 4]]) == 0

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 10])
    def test_matches_sympy(self, n):
        import random

        rng = random.Random(n)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert bareiss_determinant(m) == sympy.Matrix(m).det()

    def test_rank_deficient_with_pivot_swaps(self):
        # leading zeros force row swaps; duplicated rows force a zero result
        m = [[0, 2, 1], [0, 0, 3], [0, 2, 1]]
        assert bareiss_determinant(m) == 0
        m2 = [[0, 1, 0], [1, 0, 0], [0, 0, 5]]
        assert bareiss_determinant(m2) == -5


def dense_rank_mod_p(matrix, p: int) -> int:
    """Reference rank over GF(p): dense Gauss-Jordan, column by column."""
    m = [[v % p for v in row] for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    row = 0
    for col in range(cols):
        pivot = next((i for i in range(row, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = [(v * inv) % p for v in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[row])]
        row += 1
        rank += 1
        if row == len(m):
            break
    return rank


def coloring_shaped(rng, n: int) -> list[list[int]]:
    """A minor of a random (n+1)-square matrix whose rows hold 2, -1, -1,
    the -1s summed where they share a column, as coloring rows are."""
    m = [[0] * (n + 1) for _ in range(n + 1)]
    over = list(range(n + 1))
    rng.shuffle(over)
    for i, row in enumerate(m):
        row[over[i]] = 2
        for _ in range(2):
            row[rng.choice([j for j in range(n + 1) if j != over[i]])] -= 1
    return [row[:n] for row in m[:n]]


def sparse_general(rng, n: int) -> list[list[int]]:
    """Random entries in [-9, 9] on a permuted diagonal plus about 3 per row."""
    m = [[0] * n for _ in range(n)]
    cols = list(range(n))
    rng.shuffle(cols)
    for i, row in enumerate(m):
        row[cols[i]] = rng.choice([-9, -5, -2, -1, 1, 3, 7])
        for j in rng.sample(range(n), min(n, 3)):
            row[j] = rng.randint(-9, 9)
    return m


def made_singular(rng, m: list[list[int]], how: str) -> list[list[int]]:
    n = len(m)
    m = [list(row) for row in m]
    if how == "zero row":
        m[rng.randrange(n)] = [0] * n
    elif how == "duplicate row":
        i, k = rng.sample(range(n), 2)
        m[i] = list(m[k])
    else:  # the leading columns span too little: row and column swaps needed
        lead = max(1, n // 3)
        for row in m[lead - 1 :]:
            row[:lead] = [0] * lead
        m.reverse()
    return m


SIZES = list(range(1, 17)) + [17, 20, 24, 31, 40, 57, 80]


class TestSparseDeterminant:
    """The sparse kernel at every size, whatever the dense/sparse crossover."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("shape", [coloring_shaped, sparse_general])
    def test_matches_sympy_and_dense(self, n, shape):
        rng = random.Random(1000 * n + len(shape.__name__))
        for _ in range(3 if n <= 16 else 1):
            m = shape(rng, n)
            want = sympy.Matrix(m).det(method="domain-ge")
            assert _sparse_determinant(m) == want
            assert _dense_determinant(m) == want
            assert bareiss_determinant(m) == want
            # {col: value} rows give the same value and are left unchanged
            rows = as_dicts(m)
            assert bareiss_determinant(rows) == want
            assert _dense_determinant(rows) == want
            assert rows == as_dicts(m)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 17, 40])
    @pytest.mark.parametrize("how", ["zero row", "duplicate row", "short leading rank"])
    def test_singular(self, n, how):
        rng = random.Random(n)
        for shape in (coloring_shaped, sparse_general):
            m = made_singular(rng, shape(rng, n), how)
            assert sympy.Matrix(m).det(method="domain-ge") == 0
            assert _sparse_determinant(m) == 0
            assert bareiss_determinant(m) == 0

    def test_sign_of_pivot_permutations(self):
        assert _sparse_determinant([]) == 1
        assert _sparse_determinant([[0, 1], [1, 0]]) == -1
        assert _sparse_determinant([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
        assert _sparse_determinant([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
        assert _sparse_determinant([[0, 2, 1], [0, 0, 3], [0, 2, 1]]) == 0

    @pytest.mark.parametrize("m", [17, 33, 65])
    def test_large_figure8_closures(self, m):
        # 8m crossings: 136, 264 and 520
        f = cf_to_fraction(ContinuedFraction((8,) * m))
        d = splice(figure8_template(), 0, f)
        assert len(d.crossings) == 8 * m
        assert determinant(d) == abs(f.q)
        # the rank kernel at the same sizes
        for p in (3, 5, 7):
            assert n_colorable(d, p) == (determinant(d) % p == 0)


class TestPivotRule:
    """`_SparseRows.pivot`: the shortest live row, and within it the column
    held by the fewest rows."""

    @staticmethod
    def check_pivot(el, pick):
        r, c = pick
        assert len(el.rows[r]) == min(len(row) for row in el.rows.values())
        assert len(el.cols[c]) == min(len(el.cols[j]) for j in el.rows[r])

    def test_hand_built(self):
        # row 1 is the shortest; of its columns, 0 is in 2 rows and 1 in 3
        el = _SparseRows([{0: 1, 1: 1, 2: 1}, {1: 1, 0: 1}, {1: 1, 2: 1, 3: 1}])
        assert el.pivot() == (1, 0)

    @pytest.mark.parametrize("p", [2, 3, 13])
    def test_every_pivot_of_both_eliminations(self, monkeypatch, p):
        pivot = _SparseRows.pivot

        def checked(el):
            pick = pivot(el)
            if pick is None:
                assert not el.rows
            else:
                self.check_pivot(el, pick)
            return pick

        monkeypatch.setattr(_SparseRows, "pivot", checked)
        rng = random.Random(p)
        for shape in (coloring_shaped, sparse_general):
            for n in (5, 17, 40):
                m = shape(rng, n)
                assert rank_mod_p(m, p) == dense_rank_mod_p(m, p)
                assert _sparse_determinant(m) == _dense_determinant(m)

    def test_lengthened_row_is_not_chosen_by_its_stale_entry(self):
        el = _SparseRows([{0: 1, 1: 1, 2: 1}, {0: 1, 3: 1}, {4: 1, 5: 1}])
        assert el.take(0, 0)[1] == {1}
        el.put(1, {1: 1, 2: 1, 3: 1})  # row 1: 2 entries -> 3
        r, c = el.pivot()
        assert (r, c) in ((2, 4), (2, 5))

    def test_emptied_row_never_comes_back(self):
        el = _SparseRows([{0: 1}, {0: 2}, {1: 1, 2: 1}])
        assert el.pivot() == (0, 0)
        el.take(0, 0)
        el.put(1, {})  # row 1 eliminated to nothing
        assert 1 not in el.rows
        r, c = el.pivot()
        assert r == 2
        el.take(r, c)
        assert el.pivot() is None

    def test_none_once_no_rows_are_left(self):
        assert _SparseRows([]).pivot() is None
        assert _SparseRows([{}, {}]).pivot() is None
        el = _SparseRows([{0: 1}])
        el.take(*el.pivot())
        assert el.pivot() is None
        assert el.pivot() is None


class TestRankModP:
    @pytest.mark.parametrize("p", [2, 3, 5, 13])
    def test_matches_dense_oracle(self, p):
        rng = random.Random(p)
        for _ in range(150):
            rows, cols = rng.randint(0, 12), rng.randint(1, 12)
            density = rng.choice([0.15, 0.4, 1.0])
            m = [
                [rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            if rows > 1 and rng.random() < 0.3:
                m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
            assert rank_mod_p(m, p) == dense_rank_mod_p(m, p), (m, p)
            assert rank_mod_p(as_dicts(m), p) == dense_rank_mod_p(m, p), (m, p)

    @pytest.mark.parametrize("p", [2, 3, 5, 13])
    def test_coloring_shaped(self, p):
        rng = random.Random(p)
        for n in (4, 16, 40):
            m = coloring_shaped(rng, n)
            # square, and with zero columns as n_colorable appends for loops
            for extra in (0, 2):
                wide = [row + [0] * extra for row in m]
                assert rank_mod_p(wide, p) == dense_rank_mod_p(wide, p)


class TestColoringMatrix:
    def test_kink_collapses_to_zero_row(self):
        assert coloring_matrix(UNKNOT_KINK) == ((0,),)

    def test_hopf_hand_built(self):
        assert sorted(coloring_matrix(HOPF)) == [(-2, 2), (2, -2)]

    def test_trefoil_rows_are_two_minus_one_minus_one(self):
        for row in coloring_matrix(TREFOIL):
            assert sorted(row) == [-1, -1, 2]
            assert sum(row) == 0

    def test_columns_sum_to_zero(self):
        for d in (HOPF, TREFOIL, FIG8_KNOT):
            rows = coloring_matrix(d)
            for j in range(len(rows[0])):
                assert sum(row[j] for row in rows) == 0

    def test_full_matrix_is_singular(self):
        rows = coloring_matrix(TREFOIL)
        assert bareiss_determinant([list(r) for r in rows]) == 0

    def test_needs_a_crossing(self):
        with pytest.raises(PDError):
            coloring_matrix(UNKNOT_0)


class TestDeterminant:
    def test_unknots(self):
        assert determinant(UNKNOT_0) == 1
        assert determinant(UNKNOT_KINK) == 1

    def test_standard_values(self):
        assert determinant(HOPF) == 2
        assert determinant(TREFOIL) == 3
        assert determinant(FIG8_KNOT) == 5

    def test_matches_oracle(self):
        for d in (UNKNOT_KINK, HOPF, TREFOIL, FIG8_KNOT):
            assert determinant(d) == det_oracle(d)

    def test_disjoint_unions_vanish(self):
        assert determinant(disjoint_union(UNKNOT_0, UNKNOT_0)) == 0
        assert determinant(disjoint_union(TREFOIL, HOPF)) == 0
        assert determinant(disjoint_union(TREFOIL, UNKNOT_KINK)) == 0

    def test_minor_independence(self):
        for d in (HOPF, TREFOIL, FIG8_KNOT):
            rows = coloring_matrix(d)
            k = len(rows)
            vals = set()
            for i in range(k):
                for j in range(k):
                    minor = [
                        [v for jj, v in enumerate(row) if jj != j]
                        for ii, row in enumerate(rows)
                        if ii != i
                    ]
                    vals.add(abs(bareiss_determinant(minor)))
            assert vals == {determinant(d)}

    def test_connected_sum_multiplicative(self):
        assert determinant(connected_sum(TREFOIL, 1, TREFOIL, 1)) == 9
        assert determinant(connected_sum(TREFOIL, 2, FIG8_KNOT, 3)) == 15
        assert determinant(connected_sum(HOPF, 1, TREFOIL, 1)) == 6

    def test_sum_with_unknot_preserves(self):
        for d in (HOPF, TREFOIL):
            s = connected_sum(d, 1, UNKNOT_KINK, 1)
            assert determinant(s) == determinant(d)

    def test_crossing_change_examples(self):
        # unknotting the trefoil
        changed = {determinant(crossing_change(TREFOIL, s)) for s in range(3)}
        assert changed == {1}
        # unlinking the Hopf link
        assert determinant(crossing_change(HOPF, 0)) == 0

    def test_trefoil_smoothings_give_hopf_and_unknot(self):
        dets = sorted(determinant(resolve(TREFOIL, 0, w)) for w in (0, 1))
        assert dets == [1, 2]


class TestColorability:
    def test_trefoil(self):
        assert n_colorable(TREFOIL, 3) is True
        assert n_colorable(TREFOIL, 5) is False

    def test_knots_never_two_colorable(self):
        for d in (UNKNOT_KINK, TREFOIL, FIG8_KNOT):
            assert n_colorable(d, 2) is False

    def test_links_two_colorable(self):
        assert n_colorable(HOPF, 2) is True
        assert n_colorable(disjoint_union(TREFOIL, TREFOIL), 2) is True

    def test_figure_eight(self):
        assert n_colorable(FIG8_KNOT, 5) is True
        assert n_colorable(FIG8_KNOT, 3) is False

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            n_colorable(TREFOIL, 6)

    @pytest.mark.parametrize("n", [3.0, 5.0, True, 3.5])
    def test_modulus_must_be_an_exact_int(self, n):
        # 3.0 reached pow() and raised TypeError; 5.0 passed the primality
        # test and answered False
        with pytest.raises(ValueError, match="modulus must be an int"):
            n_colorable(TREFOIL, n)

    @pytest.mark.parametrize("n", [1763, 1681, 3215031751])
    def test_composites_without_small_factors_are_refused(self, n):
        # no base divides 1763 = 41*43 or 1681 = 41**2 (whose n - 1 = 16*105
        # makes the test square its witness); 3215031751 is a strong
        # pseudoprime to bases 2, 3, 5 and 7, so only a later base refuses it
        with pytest.raises(ValueError, match=f"^{n} is not prime$"):
            n_colorable(TREFOIL, n)

    @pytest.mark.parametrize("n", [41, 2**61 - 1])
    def test_primes_past_the_bases_are_accepted(self, n):
        # neither divides det 3; 41 - 1 = 8*5 makes the test square a witness
        assert n_colorable(TREFOIL, n) is False

    def test_modulus_beyond_the_proven_range_is_refused(self):
        for n in (coloring._MR_LIMIT, coloring._MR_LIMIT + 2):
            with pytest.raises(ValueError, match="beyond the proven range"):
                n_colorable(TREFOIL, n)

    def test_explicit_trefoil_coloring(self):
        # the coloring (0,1,2) mod 3 satisfies every crossing relation
        for colors in [(0, 1, 2), (1, 2, 0)]:
            assert all(
                sum(c * x for c, x in zip(row, colors)) % 3 == 0
                for row in coloring_matrix(TREFOIL)
            )

    @pytest.mark.parametrize("pd", ["X[1,2,1,2]", "X[2,1,2,1]"])
    @pytest.mark.parametrize("n", [3, 5, 7, 13])
    def test_disagreement_on_a_non_planar_diagram_is_pd_error(self, pd, n):
        # one component never passes under, so the determinant is 0, while
        # the coloring system mod n has nullity 1: the criteria disagree
        d = parse_pd(pd)
        assert determinant(d) == 0 and not is_planar(d)
        with pytest.raises(PDError, match="not planar"):
            n_colorable(d, n)

    def test_disagreement_on_a_planar_diagram_stays_an_assertion(self, monkeypatch):
        # a faked determinant 0 is divisible by 5, so the rank pass runs and
        # finds the trefoil's system mod 5 of nullity 1
        monkeypatch.setattr(coloring, "determinant", lambda d: 0)
        with pytest.raises(AssertionError, match="criteria disagree"):
            n_colorable(TREFOIL, 5)

    def test_divisibility_matches_rank_over_corpus_primes(self):
        for d in (UNKNOT_0, UNKNOT_KINK, HOPF, TREFOIL, FIG8_KNOT):
            det = determinant(d)
            for p in (2, 3, 5, 7, 11, 13):
                assert n_colorable(d, p) == (det % p == 0)


def stock_closures():
    """Closures of the one-slot stock templates at 8-128 inserted crossings."""
    rng = random.Random(8)
    out = []
    for name, t in bundled_templates().items():
        if t.slot_count != 1:
            continue
        for total in (8, 16, 32, 64, 128):
            # an odd number of positive terms, one crossing per unit
            count = 2 * rng.randint(0, total // 8) + 1
            cuts = sorted(rng.sample(range(1, total), count - 1))
            terms = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
            f = cf_to_fraction(ContinuedFraction(tuple(terms)))
            out.append((f"{name}-{total}", splice(t, 0, f)))
    return out


PRIMES = (2, 3, 5, 7, 11, 13)


def random_pd_codes(seed: int = 16, per_size: int = 40):
    """Diagrams from random perfect matchings of the 4k crossing positions,
    k = 1..12, labelled pair by pair: PD codes that are mostly not planar."""
    rng = random.Random(seed)
    out = []
    for k in range(1, 13):
        for _ in range(per_size):
            positions = list(range(4 * k))
            rng.shuffle(positions)
            flat = [0] * (4 * k)
            for label, i in enumerate(range(0, 4 * k, 2), 1):
                flat[positions[i]] = flat[positions[i + 1]] = label
            quads = iter(flat)
            out.append(LinkDiagram(list(zip(quads, quads, quads, quads))))
    return out


def both_criteria(d, n: int) -> bool:
    """Reference for n_colorable: the rank criterion and divisibility, both
    on every call, with its errors where they disagree."""
    if not d.crossings:
        by_rank = d.loops >= 2
    else:
        rows, arcs = coloring._system(d)
        by_rank = arcs + d.loops - rank_mod_p(rows, n) >= 2
    if by_rank != (determinant(d) % n == 0):
        raise PDError("not planar") if not is_planar(d) else AssertionError()
    return by_rank


def outcome(f, d, n: int):
    """f(d, n), or the type of the error it raises."""
    try:
        return f(d, n)
    except (PDError, AssertionError) as e:
        return type(e)


class TestDeterminantSettlesColorability:
    """n_colorable reads the determinant first; a prime that does not divide
    it is answered without a rank pass."""

    def test_nullity_one_when_p_does_not_divide_det(self):
        # on any PD code, planar or not: rank >= k-1 from a minor nonzero
        # mod p, rank <= k-1 from the all-ones kernel vector
        diagrams = random_pd_codes()
        cases = non_planar = 0
        for d in diagrams:
            non_planar += not is_planar(d)
            rows, arcs = coloring._system(d)
            for p in PRIMES:
                if determinant(d) % p:
                    assert arcs + d.loops - rank_mod_p(rows, p) < 2, (d, p)
                    cases += 1
        assert non_planar > len(diagrams) // 2
        assert cases > 1000

    def test_same_answer_as_both_criteria(self):
        diagrams = [e.diagram() for e in load_corpus()]
        diagrams += [d for _, d in stock_closures()]
        diagrams += random_pd_codes(per_size=10)
        errors = 0
        for d in diagrams:
            for p in PRIMES:
                want = outcome(both_criteria, d, p)
                assert outcome(n_colorable, d, p) == want, (d, p)
                errors += want is PDError
        assert errors > 0  # the non-planar refusal is exercised

    def test_rank_pass_only_where_n_divides_det(self, monkeypatch):
        diagrams = [e.diagram() for e in load_corpus()]
        diagrams += random_pd_codes(per_size=5)
        dets = [determinant(d) for d in diagrams]
        calls = {"determinant": 0, "rank_mod_p": 0}
        for name in calls:
            orig = getattr(coloring, name)

            def counted(*args, _name=name, _orig=orig):
                calls[_name] += 1
                return _orig(*args)

            monkeypatch.setattr(coloring, name, counted)
        ranked = 0
        for d, det in zip(diagrams, dets):
            for p in PRIMES:
                calls.update(determinant=0, rank_mod_p=0)
                outcome(n_colorable, d, p)
                runs = bool(d.crossings) and det % p == 0
                assert calls == {"determinant": 1, "rank_mod_p": int(runs)}, (d, p)
                ranked += runs
        assert 0 < ranked < len(diagrams) * len(PRIMES)


class TestSparseSystem:
    """determinant stages the coloring system sparse and keeps it, with the
    determinant, on the diagram instance."""

    def test_dense_minor_oracle_on_corpus(self):
        corpus = load_corpus()
        assert len(corpus) == 52
        for e in corpus:
            d = e.diagram()
            assert determinant(d) == dense_minor_det(d) == e.determinant, e.name

    def test_dense_minor_oracle_on_stock_closures(self):
        closures = stock_closures()
        sizes = [len(d.crossings) for _, d in closures]
        assert min(sizes) >= 8 and max(sizes) >= 128
        for name, d in closures:
            assert determinant(d) == dense_minor_det(d), name

    def test_dense_minor_oracle_at_520_crossings(self):
        f = cf_to_fraction(ContinuedFraction((8,) * 65))
        d = splice(figure8_template(), 0, f)
        assert len(d.crossings) == 520
        assert determinant(d) == dense_minor_det(d) == abs(f.q)

    def test_coloring_matrix_renders_the_system(self):
        for d in (UNKNOT_KINK, HOPF, TREFOIL, FIG8_KNOT):
            rows, arcs = coloring._system(d)
            dense = coloring_matrix(d)
            assert type(dense) is tuple and all(type(row) is tuple for row in dense)
            assert {len(row) for row in dense} == {arcs}
            assert as_dicts(dense) == rows

    # 3 crossings: a dense minor; 24 crossings: a sparse one
    @pytest.mark.parametrize("terms", [None, (8, 8, 8)], ids=["dense", "sparse"])
    def test_one_elimination_and_one_system_per_diagram(self, monkeypatch, terms):
        if terms is None:
            d = parse_pd(TREFOIL_PD)
        else:
            d = splice(figure8_template(), 0, cf_to_fraction(ContinuedFraction(terms)))
        assert len(d.crossings) in (3, 24)
        calls = {"bareiss": 0, "system": 0}
        bareiss, build = coloring.bareiss_determinant, coloring._build_system

        def counted_bareiss(matrix):
            calls["bareiss"] += 1
            return bareiss(matrix)

        def counted_build(diagram):
            calls["system"] += 1
            return build(diagram)

        monkeypatch.setattr(coloring, "bareiss_determinant", counted_bareiss)
        monkeypatch.setattr(coloring, "_build_system", counted_build)
        det = determinant(d)
        assert determinant(d) == det
        for p in (3, 5, 7):
            assert n_colorable(d, p) == (det % p == 0)
        coloring_matrix(d)
        assert calls == {"bareiss": 1, "system": 1}

    def test_equal_diagrams_do_not_share_a_determinant(self, monkeypatch):
        first, second = parse_pd(TREFOIL_PD), parse_pd(TREFOIL_PD)
        assert first == second and first is not second
        assert determinant(first) == 3
        calls = []
        bareiss = coloring.bareiss_determinant
        monkeypatch.setattr(
            coloring, "bareiss_determinant", lambda m: calls.append(1) or bareiss(m)
        )
        assert determinant(second) == 3
        assert determinant(first) == 3
        assert len(calls) == 1

    def test_patched_determinant_reaches_every_caller(self, monkeypatch):
        d = parse_pd(TREFOIL_PD)
        t = figure8_template()
        assert determinant(d) == 3  # the value is now kept on d
        assert fit_coefficients(t) == (1, 0)
        orig = coloring.determinant

        def off_by_one(diagram):
            return orig(diagram) + 1

        for module in (coloring, skein):
            monkeypatch.setattr(module, "determinant", off_by_one)
        # the patched determinant 4 says 2-colorable, rank says not
        with pytest.raises(AssertionError, match="criteria disagree"):
            n_colorable(d, 2)
        with pytest.raises(TemplateError):
            fit_coefficients(t)
