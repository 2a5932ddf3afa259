"""The four workloads: what set-up writes, what each call runs, how its
output is checked.

Each workload writes a pool of inputs in set-up; call ``i`` runs on pool
entry ``i % len(pool)``. Set-up for ``score-exact`` also solves the training
profile through the CLI, as a user would before scoring.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checker
import generate


@dataclass(frozen=True)
class Call:
    argv: list[str]
    check: Callable[[dict], list[str]]


@dataclass(frozen=True)
class Solve:
    """``histrel solve`` on one histogram set per call."""

    name: str
    why: str
    mode: str
    symbols: int
    members: int
    length: int
    pool: int
    staircase: float | None = None

    def setup(self, rng: random.Random, directory: str, main) -> list[Call]:
        alphabet = generate.alphabet_of(self.symbols)
        calls = []
        for i in range(self.pool):
            if self.staircase is None:
                rows = generate.multinomial_rows(rng, self.symbols, self.members, self.length)
            else:
                rows = generate.staircase_rows(rng, self.symbols, self.members, self.length, self.staircase)
            path = os.path.join(directory, f"set-{i}.json")
            generate.write_histogram_set(path, alphabet, self.length, rows)
            check = partial(
                checker.check_profile, mode=self.mode, alphabet=alphabet, length=self.length, rows=rows
            )
            calls.append(Call(["solve", path, "--mode", self.mode], check))
        return calls


@dataclass(frozen=True)
class Score:
    """``histrel score`` of one CSV batch per call against a profile solved
    in set-up."""

    name: str
    why: str
    symbols: int
    members: int
    length: int
    batch: int
    member_rows: int
    pool: int

    def setup(self, rng: random.Random, directory: str, main) -> list[Call]:
        alphabet = generate.alphabet_of(self.symbols)
        training = generate.multinomial_rows(rng, self.symbols, self.members, self.length)
        training_path = os.path.join(directory, "training.json")
        profile_path = os.path.join(directory, "profile.json")
        generate.write_histogram_set(training_path, alphabet, self.length, training)
        code = main(["solve", training_path, "--mode", "rational", "-o", profile_path])
        if code != 0:
            raise RuntimeError(f"solving the training set exited with {code}")
        with open(profile_path, encoding="utf-8") as handle:
            profile = json.load(handle)
        problems = checker.check_profile(profile, "rational", alphabet, self.length, training)
        if problems:
            raise RuntimeError(f"training profile fails the checker: {problems[:3]}")
        key = checker.ScoreKey(profile)
        calls = []
        for i in range(self.pool):
            samples, members = generate.batch_samples(
                rng, alphabet, self.length, self.batch, training, self.member_rows
            )
            path = os.path.join(directory, f"batch-{i}.csv")
            generate.write_samples_csv(path, samples)
            histograms = [generate.histogram_of(tokens, alphabet) for tokens in samples]
            check = partial(checker.check_scores, key=key, histograms=histograms, member_rows=members)
            calls.append(Call(["score", profile_path, path], check))
        return calls


WORKLOADS = {
    w.name: w
    for w in (
        Solve(
            "solve-exact",
            "rational solve of small multinomial sets; Fraction pivoting in simplex dominates",
            mode="rational", symbols=10, members=20, length=80, pool=128,
        ),
        Solve(
            "solve-float",
            "float solve of 26x80 multinomial sets; LP build, certification and io take larger shares",
            mode="float", symbols=26, members=80, length=400, pool=128,
        ),
        Solve(
            "solve-reduce",
            "rational solve of tall staircase sets; reduction leaves one symbol, simplex never runs",
            mode="rational", symbols=26, members=300, length=10**6, pool=32, staircase=1.2,
        ),
        Score(
            "score-exact",
            "rational scoring of 200-sample CSV batches; profile load, exact scoring and io dominate",
            symbols=26, members=30, length=200, batch=200, member_rows=20, pool=16,
        ),
    )
}
