from __future__ import annotations

import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import histrel.io
from histrel import (
    SUPPORTING,
    Alphabet,
    AlphabetMismatch,
    DualWeight,
    EmptySet,
    Histogram,
    HistogramSet,
    NumericalFailure,
    ReductionStep,
    ReductionTrace,
    Sample,
    UnknownSymbol,
    ValidationError,
    Weight,
    build_histogram,
    irrelevance_score,
    make_solution,
    relevance_score,
    score_profile,
    solve_covering,
    solve_profile,
    solve_supporting,
)
from histrel.core import FLOAT_EPS, Field, distinct_rows, require_arithmetic, require_problem_mode
from histrel.simplex import StandardFormLP, simplex_optimize
from histrel.verify import random_histogram_set
from conftest import pairing

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Alphabet(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            Alphabet(("a", "a"))

    @pytest.mark.parametrize(
        "label", ["\ud800", "\udcff", "a\ud800\udc00"], ids=["lone", "escaped-byte", "pair"]
    )
    def test_rejects_surrogate_labels(self, label):
        # no UTF-8 file holds one, and json reads the written pair back as U+10000
        with pytest.raises(ValidationError, match="surrogate"):
            Alphabet(("a", label))

    def test_order_is_preserved(self):
        assert Alphabet(("b", "a")).symbols == ("b", "a")

    def test_index_of_unknown_label(self):
        assert "a" in AB and "z" not in AB
        with pytest.raises(UnknownSymbol):
            AB.index("z")


class TestBuildHistogram:
    def test_direct_count(self):
        sample = Sample(("a", "a", "b", "b", "a"))
        assert len(sample) == 5
        assert build_histogram(sample, AB).counts == (3, 2)

    def test_absent_symbol_counts_zero(self):
        hist = build_histogram(Sample(("a", "a", "a")), AB)
        assert hist.counts == (3, 0)

    def test_unknown_symbol_reports_position(self):
        with pytest.raises(UnknownSymbol) as err:
            build_histogram(Sample(("a", "c")), AB)
        assert err.value.position == 2
        assert err.value.label == "c"

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=40))
    def test_counts_sum_to_sample_length(self, entries):
        hist = build_histogram(Sample(tuple(entries)), ABC)
        assert hist.total == len(entries)

    def test_matches_a_per_entry_count(self):
        rng = random.Random(5)
        for labels in [("a", "b", "c"), ("ab", "a", "b c", "\xe9")]:
            alphabet, strays = Alphabet(labels), ("x", "yz")
            weights = (30,) * len(labels) + (1, 1)
            samples = [rng.choices(labels + strays, weights, k=rng.randint(1, 60)) for _ in range(200)]
            # two unknown labels, the first to appear sorting after the other
            samples.append([labels[0], "yz", labels[-1], "x", "yz"])
            for entries in samples:
                counts, stray = [0] * len(labels), None
                for pos, label in enumerate(entries, start=1):
                    if label not in labels:
                        stray = (label, pos)
                        break
                    counts[labels.index(label)] += 1
                if stray is None:
                    hist, want = build_histogram(Sample(entries), alphabet), Histogram(alphabet, counts)
                    assert hist == want and hash(hist) == hash(want)
                else:
                    with pytest.raises(UnknownSymbol) as err:
                        build_histogram(Sample(entries), alphabet)
                    assert (err.value.label, err.value.position) == stray


class TestHistogramSet:
    def test_empty_members_rejected(self):
        with pytest.raises(EmptySet):
            HistogramSet.from_counts(AB, [])

    def test_inconsistent_totals_rejected(self):
        with pytest.raises(ValidationError):
            HistogramSet.from_counts(AB, [(7, 3), (6, 5)])

    def test_foreign_alphabet_rejected(self):
        member = Histogram(ABC, (1, 1, 1))
        with pytest.raises(AlphabetMismatch):
            HistogramSet(AB, 3, (member,))

    @pytest.mark.parametrize(
        "labels, rows",
        [("ab", [(7, 3)]), ("a", [(5,), (5,), (5,)]), ("a", [(2,)]), ("abc", [(4, 1, 1), (3, 2, 1)])],
    )
    def test_columns_are_the_transposed_count_rows(self, labels, rows):
        histograms = HistogramSet.from_counts(Alphabet(tuple(labels)), rows)
        assert histograms._columns == tuple(zip(*histograms.count_rows()))
        assert histograms._columns is histograms._columns

    def test_distinct_rows_keeps_first_occurrences(self):
        unique, origins = distinct_rows([(7, 3), (6, 4), (7, 3)])
        assert unique == ((7, 3), (6, 4))
        assert origins == (0, 1)


class TestWeight:
    def test_rational_sum_must_be_exact(self):
        with pytest.raises(ValidationError):
            Weight(AB, (Fraction(1, 2), Fraction(1, 3)))

    def test_negative_component_rejected(self):
        with pytest.raises(ValidationError):
            Weight(AB, (Fraction(3, 2), Fraction(-1, 2)))

    def test_float_mode_tolerates_roundoff(self):
        w = Weight(ABC, (0.2, 0.3, 0.5 + 2e-10), mode="float")
        assert w.mode == "float"

    def test_uniform(self):
        assert Weight.uniform(ABC).values == (Fraction(1, 3),) * 3

    def test_single_symbol_alphabet(self):
        w = Weight.uniform(Alphabet(("only",)))
        assert w.values == (Fraction(1),)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    @pytest.mark.parametrize("position", [-1, -3, 3, 10])
    def test_point_mass_outside_the_alphabet_is_rejected(self, mode, position):
        # a negative position would otherwise index from the end
        with pytest.raises(ValidationError, match=rf"point mass position {position} is not in 0\.\.2"):
            Weight.point_mass(ABC, position, mode)


class TestValidationBranches:
    """Each check of a public type's constructor raises with its message."""

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: require_problem_mode("banana"), ValidationError, "unknown problem mode 'banana'"),
            (lambda: require_arithmetic("decimal"), ValidationError, "unknown arithmetic mode 'decimal'"),
            (lambda: Sample(()), ValidationError, "sample must contain at least one entry"),
            (lambda: Histogram(AB, (1, 1, 1)), ValidationError, "histogram has 3 counts for 2 symbols"),
            (lambda: Histogram(AB, (0, 0)), ValidationError, "histogram total must be at least 1"),
            (lambda: HistogramSet(AB, 2, ()), EmptySet, "histogram set has no members"),
            (
                lambda: HistogramSet(AB, 0, (Histogram(AB, (1, 1)),)),
                ValidationError,
                "sample length must be an integer of at least 1, got 0",
            ),
            (
                lambda: HistogramSet(AB, "2", (Histogram(AB, (1, 1)),)),
                ValidationError,
                "sample length must be an integer of at least 1, got '2'",
            ),
            (lambda: Weight(AB, (Fraction(1),)), ValidationError, "weight has 1 components for 2 symbols"),
            (lambda: DualWeight(()), ValidationError, "dual weight needs at least one component"),
            (lambda: ReductionTrace((), ()), ValidationError, "reduction must leave at least one symbol"),
            (
                lambda: ReductionTrace(
                    (ReductionStep("a", SUPPORTING, 1), ReductionStep("a", SUPPORTING, 2)), ("b",)
                ),
                ValidationError,
                "eliminated symbols must be distinct",
            ),
            (
                lambda: StandardFormLP((1,), (), ()),
                ValidationError,
                "program needs at least one constraint row",
            ),
            (
                lambda: StandardFormLP((1, 1), ((1, 1), (1,)), (1, 1)),
                ValidationError,
                "constraint rows must match the objective length",
            ),
            (
                lambda: StandardFormLP((1,), ((1,),), (1, 1)),
                ValidationError,
                "right-hand side must match the number of rows",
            ),
        ],
        ids=[
            "problem-mode",
            "arithmetic",
            "sample-empty",
            "histogram-length",
            "histogram-total",
            "set-members",
            "set-length",
            "set-length-type",
            "weight-length",
            "dual-empty",
            "trace-survivor",
            "trace-repeat",
            "lp-rows",
            "lp-ragged",
            "lp-rhs",
        ],
    )
    def test_each_check_raises_with_its_message(self, build, error, message):
        with pytest.raises(error, match=re.escape(message)):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda big: solve_profile(big, "decimal"),
            lambda big: solve_supporting(big, "decimal"),
            lambda big: solve_covering(big, "decimal"),
            lambda big: simplex_optimize(StandardFormLP((0.5,), ((1,),), (1,)), "decimal"),
            lambda big: Weight(AB, (1,), "decimal"),
            lambda big: DualWeight((), "decimal"),
        ],
        ids=["solve_profile", "solve_supporting", "solve_covering", "simplex_optimize", "Weight", "DualWeight"],
    )
    def test_an_unknown_arithmetic_mode_fails_first_at_every_solver_entry(self, monkeypatch, build):
        # each input is faulty in another way too; the mode is named first
        def digest(histograms):
            raise AssertionError("the digest was computed before the mode was checked")

        monkeypatch.setattr(histrel.io, "digest_histogram_set", digest)
        big = HistogramSet.from_counts(AB, [(10**400, 0), (0, 10**400)])
        with pytest.raises(ValidationError, match="^unknown arithmetic mode 'decimal'$"):
            build(big)


class TestPairing:
    """The public scores pair by ``Field.pairings``, the library's one rule."""

    def test_point_mass_selects_one_count(self):
        hist = Histogram(AB, (7, 3))
        assert relevance_score(hist, Weight.point_mass(AB, 0)) == 7
        assert irrelevance_score(hist, Weight.point_mass(AB, 1, "float")) == 3.0

    def test_even_split_averages(self):
        hist = Histogram(AB, (7, 3))
        assert relevance_score(hist, Weight.uniform(AB)) == 5

    def test_uniform_weight_gives_length_over_size(self):
        hist = Histogram(ABC, (3, 2, 1))
        assert irrelevance_score(hist, Weight.uniform(ABC)) == Fraction(6, 3) == 2

    @pytest.mark.parametrize("score", [relevance_score, irrelevance_score])
    def test_float_counts_beyond_the_float_range_are_a_numerical_failure(self, score):
        hist = Histogram(AB, (10**400, 1))
        with pytest.raises(NumericalFailure, match="^counts exceed the float range; use rational mode$"):
            score(hist, Weight.uniform(AB, "float"))
        assert score(hist, Weight.uniform(AB)) == Fraction(10**400 + 1, 2)

    def test_alphabet_mismatch(self):
        for score in (relevance_score, irrelevance_score):
            with pytest.raises(AlphabetMismatch, match="^histogram and weight use different alphabets"):
                score(Histogram(ABC, (1, 1, 1)), Weight.uniform(AB))

    @given(
        st.lists(st.integers(0, 9), min_size=3, max_size=3).filter(any),
        st.lists(st.integers(0, 9), min_size=3, max_size=3).filter(any),
        st.lists(st.integers(0, 20), min_size=3, max_size=3).filter(any),
        st.fractions(0, 1),
    )
    def test_bilinearity(self, x, y, m, share):
        wx, wy = (Weight(ABC, tuple(Fraction(r, sum(raw)) for r in raw)) for raw in (x, y))
        mixed = Weight(ABC, tuple(share * a + (1 - share) * b for a, b in zip(wx.values, wy.values)))
        hist = Histogram(ABC, tuple(m))
        expected = share * relevance_score(hist, wx) + (1 - share) * relevance_score(hist, wy)
        assert relevance_score(hist, mixed) == expected

    @given(
        st.lists(st.integers(0, 12), min_size=2, max_size=2).filter(any),
        st.lists(st.integers(0, 12), min_size=2, max_size=2).filter(any),
    )
    def test_linearity_in_histogram_argument(self, m1, m2):
        w = Weight(AB, (Fraction(1, 4), Fraction(3, 4)))
        summed = Histogram(AB, tuple(a + b for a, b in zip(m1, m2)))
        parts = relevance_score(Histogram(AB, m1), w) + relevance_score(Histogram(AB, m2), w)
        assert relevance_score(summed, w) == parts


class TestFieldPairings:
    RATIONAL = Field.for_mode("rational")
    FLOAT = Field.for_mode("float")

    @pytest.mark.parametrize("seed", range(20))
    def test_rational_matches_pairing_exactly(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        choices = (
            lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
            lambda: Fraction(0),
            lambda: rng.randint(-3, 3),
        )
        values = [rng.choice(choices)() for _ in range(n)]
        rows = [tuple(rng.randint(0, 30) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        rows.append((0,) * n)
        numerators, denominator = self.RATIONAL.pairings(self.RATIONAL.scaled(values), rows)
        assert all(type(n) is int for n in numerators) and type(denominator) is int
        assert [Fraction(n, denominator) for n in numerators] == [pairing(values, row) for row in rows]

    @pytest.mark.parametrize("seed", range(20))
    def test_float_is_bit_identical_to_the_plain_sum(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        values = [rng.random() / n for _ in range(n)]
        rows = [tuple(rng.randint(0, 10**6) for _ in range(n)) for _ in range(rng.randint(1, 6))]
        expected = [sum(a * b for a, b in zip(values, row)) for row in rows]
        assert self.FLOAT.pairings(self.FLOAT.scaled(values), rows) == (expected, 1)

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_a_point_mass_reads_one_column(self, mode):
        field = Field.for_mode(mode)
        rows = [(3, 0, 7), (0, 5, 0), (2**60 + 1, 1, 4)]
        for j in range(3):
            values = Weight.point_mass(ABC, j, mode).values
            numerators, denominator = field.pairings(field.scaled(values), rows)
            expected = [pairing(values, row) for row in rows]
            assert denominator == 1 and numerators == expected
            assert {type(n) for n in numerators} == {int if mode == "rational" else float}

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_no_rows_give_no_pairings(self, mode):
        field = Field.for_mode(mode)
        assert field.pairings(field.scaled(Weight.uniform(ABC, mode).values), [])[0] == []

    def test_make_solution_rejects_a_weight_on_another_alphabet(self):
        histograms = HistogramSet.from_counts(ABC, [(3, 2, 1), (1, 2, 3)])
        with pytest.raises(AlphabetMismatch):
            make_solution(
                Fraction(1), Weight.uniform(AB), DualWeight((Fraction(1), Fraction(0))),
                histograms, SUPPORTING,
            )


class TestScores:
    def test_relevance_examples(self):
        support = Weight.point_mass(AB, 0)
        assert relevance_score(Histogram(AB, (5, 5)), support) == 5
        assert relevance_score(Histogram(AB, (7, 3)), support) == 7
        uniform = Weight.uniform(ABC)
        assert relevance_score(Histogram(ABC, (3, 2, 1)), uniform) == 2

    def test_irrelevance_examples(self):
        cover = Weight.point_mass(AB, 1)
        assert irrelevance_score(Histogram(AB, (5, 5)), cover) == 5
        assert irrelevance_score(Histogram(AB, (6, 4)), cover) == 4
        assert irrelevance_score(Histogram(AB, (0, 10)), cover) == 10

    def test_scores_require_matching_alphabets(self):
        with pytest.raises(AlphabetMismatch):
            relevance_score(Histogram(ABC, (1, 1, 1)), Weight.uniform(AB))

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_scores_pair_like_score_profile_and_the_reference(self, mode):
        """One pairing rule: each sample's scores are, to the last bit, its
        ``score_profile`` row and the reference ``pairing``, for the solved
        weights, point masses and, in float mode, weights with components in
        ``[-FLOAT_EPS, 0)``."""
        rng = random.Random(21)
        checked = 0
        for seed in range(40):
            histograms = random_histogram_set(random.Random(seed), 6, 8, 30)
            profile = solve_profile(histograms, mode)
            samples = HistogramSet.from_counts(
                histograms.alphabet,
                [*histograms.count_rows(), *_random_rows(rng, histograms, 4)],
                histograms.sample_length,
            )
            solved = (profile.supporting.weight, profile.covering.weight)
            for supporting, covering in [solved, *_odd_weights(rng, histograms.alphabet, mode)]:
                swapped = replace(
                    profile,
                    supporting=replace(profile.supporting, weight=supporting),
                    covering=replace(profile.covering, weight=covering),
                )
                for row, sample in zip(score_profile(swapped, samples).rows, samples.members):
                    relevance = relevance_score(sample, supporting)
                    irrelevance = irrelevance_score(sample, covering)
                    assert repr(relevance) == repr(row.relevance) == repr(pairing(supporting, sample))
                    assert repr(irrelevance) == repr(row.irrelevance) == repr(pairing(covering, sample))
                    checked += 1
        assert checked > 1000


def _random_rows(rng, histograms, k):
    n = len(histograms.alphabet)
    rows = []
    for _ in range(k):
        counts = [0] * n
        for j in rng.choices(range(n), k=histograms.sample_length):
            counts[j] += 1
        rows.append(tuple(counts))
    return rows


def _odd_weights(rng, alphabet, mode):
    """(supporting, covering) pairs: every point mass, each paired with the
    next one, and three random weights; in float mode the random weights
    carry components in ``[-FLOAT_EPS, 0)``, which ``Weight`` tolerates."""
    n = len(alphabet)
    masses = [Weight.point_mass(alphabet, j, mode) for j in range(n)]
    pairs = [(masses[j], masses[(j + 1) % n]) for j in range(n)]
    for _ in range(3):
        raw = [rng.randint(1, 9) for _ in range(n)]
        if mode == "rational":
            values = [Fraction(r, sum(raw)) for r in raw]
        else:
            values = [r / sum(raw) for r in raw]
            for j in rng.sample(range(1, n), max(1, (n - 1) // 2)):
                values[j] = -FLOAT_EPS * rng.choice((1.0, 0.5, 1e-3))
            values[0] += 1 - sum(values)
            assert any(-FLOAT_EPS <= v < 0 for v in values)
        weight = Weight(alphabet, tuple(values), mode)
        pairs.append((weight, weight))
    return pairs
