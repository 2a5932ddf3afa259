"""Domain types: alphabets, samples, histograms, weights, and the scores.

Everything here is immutable and pure. Rational mode keeps exact
``fractions.Fraction`` values; float mode keeps IEEE doubles and tolerates
``FLOAT_EPS`` of slack in every normalization and comparison check. The
internal ``Field`` carries that one decision: rational mode is the float rule
with a tolerance of exactly zero. It also holds the one pairing rule
(``pairings``), which the certificates, ``score_profile`` and the relevance
and irrelevance scores share, and makes every comparison of values with a
value (``gaps`` and the tests on them), for the certificates, the tight sets
and the score flags alike. The internal ``_solve_integer`` is the one exact
linear solve: one fraction-free LU of a square integer matrix solves both
the system and its transpose, for the simplex's basis check, and the oracle
reads the system's solution.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import _count_elements
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import mul
from typing import Iterable, Literal, Sequence, Union

from .errors import (
    AlphabetMismatch,
    EmptySet,
    NumericalFailure,
    ParseError,
    UnknownSymbol,
    ValidationError,
)

ArithmeticMode = Literal["rational", "float"]
ProblemMode = Literal["supporting", "covering"]
Number = Union[int, Fraction, float]

RATIONAL: ArithmeticMode = "rational"
FLOAT: ArithmeticMode = "float"
SUPPORTING: ProblemMode = "supporting"
COVERING: ProblemMode = "covering"

#: Absolute tolerance for all float-mode normalization and comparison checks.
FLOAT_EPS = 1e-9

_SURROGATE = re.compile("[\ud800-\udfff]")  # a code point that no UTF-8 text can hold


def _float_text(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)  # NaN, Infinity


def require_problem_mode(problem: str) -> None:
    if problem not in (SUPPORTING, COVERING):
        raise ValidationError(f"unknown problem mode {problem!r}")


def require_arithmetic(arithmetic: str) -> None:
    if arithmetic not in (RATIONAL, FLOAT):
        raise ValidationError(f"unknown arithmetic mode {arithmetic!r}")


@dataclass(frozen=True)
class Field:
    """The numbers of one arithmetic mode and the comparisons made on them.

    ``tol`` is the fixed ``FLOAT_EPS`` in float mode and exactly zero in
    rational mode, so ``support``, ``within``, ``near`` and ``ratios``' zero
    test are the exact tests there and the tolerant ones in float mode.
    """

    mode: ArithmeticMode
    of: type
    zero: Number
    one: Number

    @staticmethod
    def for_mode(arithmetic: str) -> "Field":
        require_arithmetic(arithmetic)
        return _RATIONAL_FIELD if arithmetic == RATIONAL else _FLOAT_FIELD

    @property
    def exact(self) -> bool:
        return self.of is Fraction

    @property
    def tol(self) -> Number:
        return 0 if self.exact else FLOAT_EPS

    def require_counts_fit(self, sample_length: int) -> None:
        """Float mode converts counts to doubles; every count of a set is at
        most its sample length, so that one bound decides whether they fit."""
        if not self.exact and sample_length > sys.float_info.max:
            raise NumericalFailure("counts exceed the float range; use rational mode")

    def scaled(self, values) -> tuple[list, Number]:
        """``values`` as numerators over one denominator.

        Rational mode returns integer numerators over the lcm of the values'
        denominators. Float mode returns the values themselves over 1, so
        the same expressions on numerators and denominators are, in float
        mode, the float arithmetic on the values.
        """
        if not self.exact:
            return list(values), 1
        ratios = [v.as_integer_ratio() for v in values]
        denominator = math.lcm(*[q for _, q in ratios])
        return [p * (denominator // q) for p, q in ratios], denominator

    def support(self, scaled) -> list[int]:
        """Positions of the positive values, given ``scaled(values)``."""
        numerators, denominator = scaled
        floor = self.tol * denominator
        return [i for i, v in enumerate(numerators) if v > floor]

    def pairings(self, scaled, rows) -> tuple[list, Number]:
        """Pair one vector, given as ``scaled(values)``, with every row, as
        numerators over its denominator: the pairing of ``values`` with
        ``rows[i]`` is ``numerators[i] / denominator``.

        This is the library's one pairing rule. Each row costs one dot
        product: an integer one in rational mode, and in float mode the
        left-to-right sum of the products. A point mass reads one count per
        row, which that sum equals too.
        """
        numerators, denominator = scaled
        if numerators.count(0) == len(numerators) - 1 and denominator in numerators:
            j = numerators.index(denominator)
            mass = numerators[j]
            return [mass * row[j] for row in rows], denominator
        return [sum(map(mul, numerators, row)) for row in rows], denominator

    def gaps(self, scaled, value) -> tuple[list, Number]:
        """The values ``scaled`` holds less ``value``, as numerators over one
        positive scale: with ``value == p / q``, ``n / s`` less it is
        ``(n * q - p * s) / (q * s)``. This is every comparison with a value:
        integers in rational mode, a subtraction in float mode (``q == s == 1``)."""
        numerators, denominator = scaled
        p, q = self._ratio(value)
        target = p * denominator
        return [n * q - target for n in numerators], q * denominator

    def within(self, excess, scale) -> bool:
        """Whether ``excess / scale``, with ``scale > 0``, is at most the tolerance."""
        return excess <= self.tol * scale

    def near(self, gaps) -> list[int]:
        """Positions of the values equal to the value, given ``gaps(scaled, value)``."""
        numerators, scale = gaps
        bound = self.tol * scale
        return [i for i, g in enumerate(numerators) if abs(g) <= bound]

    def ratios(self, scaled, value) -> tuple[list, Number] | None:
        """The values ``scaled`` holds divided by a positive ``value``, as
        numerators over one denominator; None when the value is zero."""
        numerators, denominator = scaled
        if abs(value) <= self.tol:
            return None
        p, q = self._ratio(value)
        return [n * q for n in numerators], denominator * p

    def cleared(self, values):
        """Float round-off at or below zero, within the tolerance, as ``+0.0``."""
        return values if self.exact else [0.0 if -self.tol <= v <= 0 else v for v in values]

    def _ratio(self, value) -> tuple[Number, Number]:
        """``value`` as an integer ratio in rational mode, ``(value, 1)`` in float mode."""
        return value.as_integer_ratio() if self.exact else (value, 1)

    def quotient(self, numerator, denominator) -> Number:
        """The number ``numerator / denominator`` of this field; an exact
        zero is the field's own ``zero``, so no ``Fraction`` is built for it."""
        if not self.exact:
            return numerator / denominator
        return Fraction(numerator, denominator) if numerator else self.zero

    def divided(self, numerators, total) -> list:
        """Each of ``numerators`` over a positive ``total``: the ``quotient``
        in rational mode, and in float mode the product with the one float
        ``1 / total``, so each carries that reciprocal's rounding."""
        if self.exact:
            return [self.quotient(v, total) for v in numerators]
        reciprocal = 1 / total
        return [v * reciprocal for v in numerators]

    def texts(self, scaled) -> list[str]:
        """The JSON text of each value ``scaled`` holds, with a positive
        denominator, without building the values: the exact ``p/q`` string
        (``str`` of the ``Fraction``, reduced by the gcd) in rational mode,
        and the float's shortest round-trip form in float mode. With a
        denominator of 1, as a rational point mass has, each numerator is
        written as it stands."""
        numerators, denominator = scaled
        if not self.exact:
            return [_float_text(v / denominator) for v in numerators]
        if denominator == 1:
            return list(map('"%d"'.__mod__, numerators))
        gcds = map(math.gcd, numerators, repeat(denominator))
        return [
            '"%d"' % (v // g) if g == denominator else '"%d/%d"' % (v // g, denominator // g)
            for v, g in zip(numerators, gcds)
        ]

    def decode(self, value, what: str) -> Number:
        """A number read from JSON: an integer or a string that ``texts``
        writes (``str`` of the ``Fraction``) in rational mode, a JSON number
        in float mode. A ``ParseError`` names the field ``what``."""
        # exact types: a bool is no number, and neither mode reads the other's
        if type(value) in ((int, str) if self.exact else (int, float)):
            try:
                number = self.of(value)
            except (ValueError, ZeroDivisionError, OverflowError):
                pass
            else:  # Fraction also parses "0.5", " 1/2", "+1" and "5_0e-2"
                if type(value) is not str or str(number) == value:
                    return number
        raise ParseError(None, f"{what} {value!r} is not a {self.mode} number")


_RATIONAL_FIELD = Field(RATIONAL, Fraction, Fraction(0), Fraction(1))
_FLOAT_FIELD = Field(FLOAT, float, 0.0, 1.0)


def _on_simplex(holder, values, field: Field, what: str) -> None:
    """Convert ``values`` to the field, check nonnegativity and unit total,
    and set them as ``holder.values``. Their ``Field.scaled`` numerators,
    which the check computes, are kept as ``holder._scaled``: the
    certificates, the scores and the profile writer read them, and no one
    scales the values again."""
    of = field.of
    values = tuple(v if type(v) is of else of(v) for v in values)
    numerators, denominator = field.scaled(values)
    slack = field.tol * denominator
    if any(v < -slack for v in numerators):
        raise ValidationError(f"{what} components must be nonnegative")
    if not abs(sum(numerators) - denominator) <= slack:
        raise ValidationError(f"{what} components sum to {sum(values)}, expected 1")
    object.__setattr__(holder, "values", values)
    object.__setattr__(holder, "_scaled", (tuple(numerators), denominator))


def _solve_integer(matrix, rhs, costs=None):
    """Solve ``matrix . x == rhs`` and, given ``costs``, ``matrix^T . y ==
    costs`` for a square integer matrix, without fractions and from one
    factorization.

    One fraction-free (Bareiss) forward elimination of ``[matrix | rhs]``,
    pivoting on the first nonzero entry of each column, factors ``P matrix
    = L D^-1 U`` (W. Zhou and D. J. Jeffrey, "Fraction-free matrix factors",
    2008). Every entry it makes is a minor of the augmented matrix, so each
    division by the previous pivot is exact; the pivots ``p_k`` are U's
    diagonal, ``det = p_n`` is ``det(P matrix)``, and ``L[i][k]``, row
    ``i``'s column-``k`` entry just before step ``k``, stays in place below
    the diagonal. Back-substitution over ``U`` gives ``x * |det|``. For the
    transpose, ``U^T D^-1 L^T`` factors ``(P matrix)^T``: the Bareiss step on
    ``costs`` with ``U^T`` as lower factor, then back-substitution over
    ``L^T``, give ``P y * |det|``. Every division there is exact too.

    Returns ``(det, x, y)`` with ``det`` the positive ``|det(matrix)|``,
    ``x[i]`` the numerator of the ``i``-th unknown over it and ``y`` the
    same for the transposed system (None without ``costs``), or None when
    the matrix is singular.
    """
    size = len(matrix)
    rows = [[*row, value] for row, value in zip(matrix, rhs)]
    order = list(range(size))
    previous = 1
    for k in range(size):
        pivot_row = next((r for r in range(k, size) if rows[r][k]), None)
        if pivot_row is None:
            return None
        rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
        order[k], order[pivot_row] = order[pivot_row], order[k]
        pivot, *pivot_tail = rows[k][k:]
        for row in rows[k + 1 :]:
            factor = row[k]  # L[i][k]: kept, columns left of k+1 are never rewritten
            if factor or pivot != previous:
                tail = zip(row[k + 1 :], pivot_tail)
                row[k + 1 :] = [(pivot * v - factor * w) // previous for v, w in tail]
        previous = pivot
    det = abs(previous)
    x = _back_substitute(rows, det, [row[size] for row in rows])
    if costs is None:
        return det, x, None
    # the Bareiss step on costs: the lower factor U^T's column k is U's row k
    c = list(costs)
    previous = 1
    for k, row in enumerate(rows):
        pivot, ck = row[k], c[k]
        tail = zip(c[k + 1 :], row[k + 1 : size])
        c[k + 1 :] = [(pivot * v - u * ck) // previous for v, u in tail]
        previous = pivot
    y = _spread(_back_substitute([*zip(*rows)], det, c), order, size, 0)  # over L^T: P y
    return det, x, y


def _spread(values, positions, size, zero) -> list:
    """``size`` entries, ``values[i]`` at ``positions[i]`` and ``zero``
    elsewhere; values past the last position are dropped. The one scatter of
    a solved vector onto the positions it was solved for."""
    spread = [zero] * size
    for i, v in zip(positions, values):
        spread[i] = v
    return spread


def _back_substitute(upper, scale, rhs) -> list[int]:
    """``scale`` times the solution of the triangular system ``upper . X ==
    rhs``, which reads ``upper[i][j]`` for ``j >= i`` only: ``X[i] == (scale
    * rhs[i] - sum_{j>i} upper[i][j] X[j]) / upper[i][i]``. With ``scale``
    the determinant of the system it was eliminated from, up to sign, every
    ``X[i]`` is an integer (Cramer's rule) and every division is exact."""
    size = len(rhs)
    solved = [0] * size
    for i in range(size - 1, -1, -1):
        row = upper[i]
        known = sum(map(mul, row[i + 1 : size], solved[i + 1 :]))
        solved[i] = (scale * rhs[i] - known) // row[i]
    return solved


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct value labels.

    The construction order is canonical: histograms and weights index and
    serialize in this order everywhere.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValidationError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet labels must be distinct")
        if any(map(_SURROGATE.search, self.symbols)):  # a written file would read back other labels
            raise ValidationError("alphabet labels must hold no surrogate code point")

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, label: str) -> bool:
        return label in self.symbols

    def index(self, label: str) -> int:
        try:
            return self.symbols.index(label)
        except ValueError:
            raise UnknownSymbol(label) from None


@dataclass(frozen=True)
class Sample:
    """A finite sequence of labels; positions are reported 1-based."""

    entries: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValidationError("sample must contain at least one entry")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Histogram:
    """Per-symbol occurrence counts of one sample.

    The counts always sum to the originating sample length.
    """

    alphabet: Alphabet
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) != len(self.alphabet):
            raise ValidationError(
                f"histogram has {len(self.counts)} counts for {len(self.alphabet)} symbols"
            )
        for c in self.counts:
            if type(c) is not int or c < 0:  # exact type: bool is an int subclass
                raise ValidationError(f"histogram counts must be nonnegative integers, got {c!r}")
        if sum(self.counts) < 1:
            raise ValidationError("histogram total must be at least 1")

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class HistogramSet:
    """A nonempty family of equal-length histograms over one alphabet."""

    alphabet: Alphabet
    sample_length: int
    members: tuple[Histogram, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise EmptySet("histogram set has no members")
        if type(self.sample_length) is not int or self.sample_length < 1:
            raise ValidationError(
                f"sample length must be an integer of at least 1, got {self.sample_length!r}"
            )
        for i, member in enumerate(self.members):
            if member.alphabet != self.alphabet:
                raise AlphabetMismatch(f"member {i} is defined on a different alphabet")
            if member.total != self.sample_length:
                raise ValidationError(
                    f"member {i} sums to {member.total}, expected {self.sample_length}"
                )

    @classmethod
    def from_counts(
        cls,
        alphabet: Alphabet,
        rows: Iterable[Sequence[int]],
        sample_length: int | None = None,
    ) -> "HistogramSet":
        members = tuple(Histogram(alphabet, tuple(row)) for row in rows)
        if not members:
            raise EmptySet("histogram set has no members")
        if sample_length is None:
            sample_length = members[0].total
        return cls(alphabet, sample_length, members)

    def count_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(m.counts for m in self.members)

    @cached_property
    def _row_texts(self) -> tuple[str, ...]:
        """Each member's counts as compact decimal text, ``"7,3"``: the one
        conversion of the counts that the digest and the writers share."""
        template = ",".join(["%d"] * len(self.alphabet))
        return tuple(template % m.counts for m in self.members)

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        """Each symbol's counts over the members: the one transposition of
        the counts that the reduction, the certificate and the one-survivor
        dual share."""
        return tuple(zip(*self.count_rows()))


def distinct_rows(rows: Sequence[Sequence]) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """Collapse duplicate rows, keeping first-occurrence order.

    Returns ``(unique, origins)`` where ``origins[u]`` is the index of the
    first original row equal to ``unique[u]``.
    """
    first: dict[tuple, int] = {}
    for i, row in enumerate(rows):
        first.setdefault(tuple(row), i)
    return tuple(first), tuple(first.values())


@dataclass(frozen=True)
class Weight:
    """A probability vector over an alphabet.

    Rational mode stores exact fractions summing to one; float mode stores
    doubles with components above ``-FLOAT_EPS`` and total within
    ``FLOAT_EPS`` of one. The private ``_scaled`` keeps the values'
    ``Field.scaled`` numerators over their denominator.
    """

    alphabet: Alphabet
    values: tuple[Number, ...]
    mode: ArithmeticMode = RATIONAL

    def __post_init__(self):
        field = Field.for_mode(self.mode)
        values = tuple(self.values)
        if len(values) != len(self.alphabet):
            raise ValidationError(
                f"weight has {len(values)} components for {len(self.alphabet)} symbols"
            )
        _on_simplex(self, values, field, "weight")

    @classmethod
    def uniform(cls, alphabet: Alphabet, mode: ArithmeticMode = RATIONAL) -> "Weight":
        n = len(alphabet)
        return cls(alphabet, (Field.for_mode(mode).one / n,) * n, mode)

    @classmethod
    def point_mass(cls, alphabet: Alphabet, position: int, mode: ArithmeticMode = RATIONAL) -> "Weight":
        if not 0 <= position < len(alphabet):
            raise ValidationError(f"point mass position {position} is not in 0..{len(alphabet) - 1}")
        field = Field.for_mode(mode)
        return cls(alphabet, _spread((field.one,), (position,), len(alphabet), field.zero), mode)


def _score(histogram: Histogram, weight: Weight) -> Number:
    """Pair ``histogram`` with ``weight`` by ``Field.pairings``, the rule that
    ``score_profile`` and the certificates use, in the weight's mode."""
    if histogram.alphabet != weight.alphabet:
        raise AlphabetMismatch("histogram and weight use different alphabets")
    field = Field.for_mode(weight.mode)
    field.require_counts_fit(histogram.total)
    (paired,), scale = field.pairings(weight._scaled, [histogram.counts])
    return field.quotient(paired, scale)


def relevance_score(histogram: Histogram, supporting_weight: Weight) -> Number:
    """Pairing of a test histogram with the supporting weight; higher means
    the sample sits closer to the set."""
    return _score(histogram, supporting_weight)


def irrelevance_score(histogram: Histogram, covering_weight: Weight) -> Number:
    """Pairing of a test histogram with the covering weight; lower means the
    sample sits closer to the set."""
    return _score(histogram, covering_weight)


def build_histogram(sample: Sample, alphabet: Alphabet) -> Histogram:
    """Count the sample's entries per alphabet symbol, in alphabet order.

    Raises ``UnknownSymbol`` with the 1-based position of the first entry
    outside the alphabet. Otherwise the counts, one nonnegative ``int`` per
    symbol, sum to the sample's length, so the histogram is valid by
    construction and is not checked again.
    """
    return _counter(alphabet)(sample.entries)


def _counter(alphabet: Alphabet):
    """The one histogram counter: a function from a nonempty sequence of
    labels to its ``Histogram`` over ``alphabet``.

    Each call copies a tally prefilled with a zero per symbol, in alphabet
    order, and counts the labels into it with ``collections._count_elements``,
    the C loop of ``Counter.update``, so its values are the counts in
    alphabet order. A label outside the alphabet lengthens the tally: the
    first extra key is the first unknown label, raised as ``UnknownSymbol``
    with its 1-based position.

    Otherwise the counts are, by construction, one nonnegative ``int`` per
    symbol that sum to the number of labels, at least 1. They pass every
    check of ``Histogram.__post_init__``, so it is not run again; that holds
    for this tally only.
    """
    zeros = dict.fromkeys(alphabet.symbols, 0)
    size = len(zeros)

    def count(labels) -> Histogram:
        tally = zeros.copy()
        _count_elements(tally, labels)
        if len(tally) != size:
            label = [*tally][size]
            raise UnknownSymbol(label, position=labels.index(label) + 1)
        histogram = object.__new__(Histogram)
        object.__setattr__(histogram, "alphabet", alphabet)
        object.__setattr__(histogram, "counts", tuple(tally.values()))
        return histogram

    return count
