"""Tests for the probe streams of the random families."""

from __future__ import annotations

import numpy as np
import pytest

from kahler_lab import list_scenarios
from kahler_lab.families import family_rng


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_probe_streams_are_distinct_for_every_scenario(seed):
    names = [name for name, _ in list_scenarios()]
    assert len(names) == 15
    for name in names:
        draws = {index: tuple(family_rng(seed, name, index).standard_normal(4))
                 for index in (0, 1, 2, 10_000)}
        assert len(set(draws.values())) == len(draws), name


def test_probe_stream_is_reproducible():
    a = family_rng(7, "krf_monotone", 3).standard_normal(5)
    b = family_rng(7, "krf_monotone", 3).standard_normal(5)
    assert np.array_equal(a, b)
