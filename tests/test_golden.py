"""Byte-level pins of the serialized profile and score report.

Each set is solved in both modes and scores its own members. A digest that
stops matching means the written output changed; update it only for an
intended change of format or of the returned vertex. The values themselves
are pinned separately and never change: a returned vertex may move between
optimal weights, the value may not.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from fractions import Fraction

from histrel import score_profile, solve_profile
from histrel.io import dumps_profile, dumps_score_report
from histrel.verify import TARGETED, fixture_set, random_histogram_set

SETS = {name: fixture_set(spec) for name, spec, _, _ in TARGETED}
for _seed in (9, 10):
    SETS[f"random-{_seed}"] = random_histogram_set(
        random.Random(_seed), max_symbols=6, max_members=8, max_length=30
    )

# (set, mode) -> (sha256 of dumps_profile, sha256 of dumps_score_report)
GOLDEN = {
    ("E1", "rational"): (
        "c79c444459635df0fce252c066e1b8468698492ef879039edf0515e1a2b3bf29",
        "39b124b851c2a5d575b350a9b63a12458e2ba59ed5a16064bb8b7b92bf205420",
    ),
    ("E1", "float"): (
        "a4d85fab6cfacd15d82b82c561e452637597446d6c1bee90def57abfff3a586c",
        "7de9eba5eb46725cf086d32868272119ec77798e1e54206da32e2adad6f9bac7",
    ),
    ("E2", "rational"): (
        "f58e1028d72a7ba01e9d28eb6a597d1226e751976960f9c145ebc889305b7a31",
        "0bb404a701d0b1626ad4f4e81c61477c0419cd4a57d8af32f90c50e3391976ac",
    ),
    ("E2", "float"): (
        "6825ea2eb64a758f458778bc158bcecdb8296fb0cad059b849134674b890e090",
        "278d17f479b0b4597d822b196e779badabb3a4411aabdb62cad4e23af35ad089",
    ),
    # the largest reduced cost enters: both E3 weights moved from (0, 1, 0) to
    # the other optimal vertex (1/2, 0, 1/2), tight symbols (1,) -> (0, 2);
    # duals (1/2, 1/2), tight members and the score report are unchanged
    ("E3", "rational"): (
        "a35e78d35b84a77429d9c9ea4ca9a41211baf02897af4c7bb41a20320ec12726",
        "239c32925440592efd9aeab66945c783f3f782befef94e263dd1e6b8634b6a32",
    ),
    ("E3", "float"): (
        "26c9b1b49e6cbb268366b70bc8443bf7c1e5a82760fc4fac6ae509119d61be1b",
        "8be8b129b8440b3c09c0b266646bb31cbccee911aaaad30ba6e2e97ef41aa34d",
    ),
    ("E4", "rational"): (
        "d0acc4a91ef5279e44cf7d816403b1075bdb570ca1b91f202519ed4eded6607a",
        "8d84776d3e12ab5922b8b0727e9ab43a38fa8c78935c124dc148c01c987ac576",
    ),
    ("E4", "float"): (
        "a35bf42b1c7613f1b293d66cc3068347481e7ab94fb65aa363338083e0c33a26",
        "d14a5e96cac2856158ecd4f07c0271c61a26935e73e7e2a9f88d7ca62a796f41",
    ),
    # random-9 has more distinct members than symbols, so it is solved on the
    # transposed matrix: the supporting weight moved to another optimal vertex
    # (and float values by rounding); both values are unchanged.
    ("random-9", "rational"): (
        "3aa8e5b5ff9e20a2f62f544109707421a14d032bd616e9ff4e8df9cdf808b38e",
        "45ea8b3c04e3bdb22126db11b00756e1b83ec918222963e6d60d3acc989ee6f8",
    ),
    # float ratios within FLOAT_EPS tie, so the smaller basis index leaves as
    # in exact arithmetic: the float supporting weight moved from
    # (0, 0.3929, 0.2619, 0.3452, 0) to the rational vertex (0, 7/16, 5/24, 17/48, 0).
    # The largest-coefficient pivot path keeps both vertices and tight sets and
    # moves only float rounding in the values and duals.
    ("random-9", "float"): (
        "e228ec1f57ed9481e47c8cae26590fdbf750cc29545348f73e0bc9954f0177cb",
        "cfc5ff2a51bfd3d57b852c86d5d9e76891ef9963195a394279d2bd0c6374a134",
    ),
    ("random-10", "rational"): (
        "3563ed3cbd7fb0f6a8924705fccf0c27f22d46c3e1a79000e5134a3816cfa1e9",
        "19902ac9a6a02315cc2b1d5b017ee2dad5ced62405cce92e2e98237595a48d2b",
    ),
    ("random-10", "float"): (
        "73e3e73a950b2e85472ada08e42ff322f69ffcef7bfccbe21169880d92ff59f7",
        "b4cc054bdc406c42e081d122ea370354a1b2f6c8b167876a9ec7ceb2c9b0c32a",
    ),
}

# set -> exact (supporting, covering) values
VALUES = {
    "E1": (Fraction(6), Fraction(4)),
    "E2": (Fraction(5), Fraction(5)),
    "E3": (Fraction(2), Fraction(2)),
    "E4": (Fraction(3), Fraction(1)),
    "random-9": (Fraction(14, 3), Fraction(71, 23)),
    "random-10": (Fraction(1, 3), Fraction(1, 3)),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_random_sets_leave_the_binary_path():
    assert all(len(SETS[f"random-{seed}"].alphabet) >= 3 for seed in (9, 10))


@pytest.mark.parametrize("name, mode", list(GOLDEN))
def test_profile_and_score_bytes_are_pinned(name, mode):
    histograms = SETS[name]
    profile = solve_profile(histograms, mode)
    report = score_profile(profile, histograms)
    digests = (_sha256(dumps_profile(profile)), _sha256(dumps_score_report(report)))
    assert digests == GOLDEN[name, mode]


@pytest.mark.parametrize("name, mode", list(GOLDEN))
def test_values_are_pinned(name, mode):
    profile = solve_profile(SETS[name], mode)
    values = (profile.supporting.alpha, profile.covering.alpha)
    if mode == "rational":
        assert values == VALUES[name]
    else:
        assert values == pytest.approx(VALUES[name], rel=0, abs=1e-9)
