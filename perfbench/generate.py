"""Seeded input generator for the benchmark.

Every function takes a ``random.Random`` and is deterministic under it, so
the same seed gives byte-identical files. Three shapes are produced:

- multinomial histogram sets: each member is one ``choices(k=|T|)`` draw
  from equal symbol probabilities;
- staircase histogram sets: symbol probabilities grow geometrically, so the
  threshold reduction leaves one symbol per problem;
- batch CSV files of samples to score, some of whose rows are permutations
  of training members.
"""

from __future__ import annotations

import json
import math
import random
import string


def alphabet_of(size: int) -> list[str]:
    return list(string.ascii_lowercase[:size])


def multinomial_rows(rng: random.Random, symbols: int, members: int, length: int) -> list[list[int]]:
    positions = range(symbols)
    rows = []
    for _ in range(members):
        counts = [0] * symbols
        for j in rng.choices(positions, k=length):
            counts[j] += 1
        rows.append(counts)
    return rows


def staircase_rows(
    rng: random.Random, symbols: int, members: int, length: int, ratio: float
) -> list[list[int]]:
    """Members with symbol probabilities proportional to ``ratio ** rank``.

    The ranks are shuffled once per set. Drawing ``|T| = 10**6`` symbols one
    by one is too slow, so each member is a chain of conditional binomials,
    each taken from its normal approximation (every expected count is in the
    thousands at the sizes used here) and clamped to what is left.
    """
    ranks = list(range(symbols))
    rng.shuffle(ranks)
    weights = [ratio**r for r in ranks]
    rows = []
    for _ in range(members):
        left, mass = length, math.fsum(weights)
        counts = []
        for p in weights[:-1]:
            q = min(1.0, p / mass)
            draw = round(rng.gauss(left * q, math.sqrt(left * q * (1.0 - q))))
            draw = min(max(draw, 0), left)
            counts.append(draw)
            left -= draw
            mass -= p
        counts.append(left)
        rows.append(counts)
    return rows


def batch_samples(
    rng: random.Random,
    alphabet: list[str],
    length: int,
    size: int,
    training_rows: list[list[int]],
    member_rows: int,
) -> tuple[list[list[str]], list[int]]:
    """``size`` samples of ``length`` symbols; ``member_rows`` of them are
    shuffled copies of training members, at seeded positions. Returns the
    samples and the sorted positions of the member rows."""
    members = sorted(rng.sample(range(size), member_rows))
    chosen = set(members)
    samples = []
    for i in range(size):
        if i in chosen:
            row = rng.choice(training_rows)
            tokens = [symbol for symbol, count in zip(alphabet, row) for _ in range(count)]
            rng.shuffle(tokens)
        else:
            tokens = rng.choices(alphabet, k=length)
        samples.append(tokens)
    return samples, members


def histogram_of(tokens: list[str], alphabet: list[str]) -> list[int]:
    position = {symbol: j for j, symbol in enumerate(alphabet)}
    counts = [0] * len(alphabet)
    for token in tokens:
        counts[position[token]] += 1
    return counts


def write_histogram_set(path: str, alphabet: list[str], length: int, rows: list[list[int]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"alphabet": alphabet, "sample_length": length, "histograms": rows}, handle)


def write_samples_csv(path: str, samples: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(",".join(tokens) + "\n" for tokens in samples))
