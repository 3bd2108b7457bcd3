"""Unit tests for the exact combinatorial verifications.

Oracles recompute each identity through a different arithmetic route than
the module under test: Pascal-triangle binomials instead of math.comb, and
elementary symmetric functions of rational spectra as coefficients of the
generating product prod_i (1 + t lam_i), against their subset sums, where
the module counts the subsets of a symbolic spectrum.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import numpy as np

from kahler_lab import exact


def _pascal(rows: int) -> list[list[int]]:
    table = [[1]]
    for _ in range(rows):
        prev = table[-1]
        table.append([1] + [prev[i] + prev[i + 1]
                            for i in range(len(prev) - 1)] + [1])
    return table


def _binom(table, a: int, b: int) -> int:
    if b < 0 or b > a:
        return 0
    return table[a][b]


def test_zero_identity_against_pascal_triangle_oracle():
    table = _pascal(16)
    for n in range(1, 13):
        for k in range(n + 1):
            for i in range(1, k + 2):
                value = ((n - i + 1) * _binom(table, k + 1, i)
                         - (k + 1) * _binom(table, k, i)
                         - (n - k) * _binom(table, k + 1, i))
                assert value == 0, (n, k, i)
    result = exact.verify_zero_identity()
    assert result.passed
    assert result.cases == sum(1 for n in range(1, 13)
                               for k in range(n + 1)
                               for _ in range(1, k + 2))


def test_alternating_sum_identity_against_pascal_triangle_oracle():
    table = _pascal(34)
    for k in range(1, 31):
        for j in range(k):
            total = sum(_binom(table, k + 1, i + 1) * _binom(table, i - 1, j)
                        * (-1) ** (i + j)
                        for i in range(j + 1, k + 1))
            assert total == j - k, (k, j)
    result = exact.verify_binomial_identity()
    assert result.passed
    assert result.cases == sum(k for k in range(1, 31))


def test_symmetric_function_expansion_against_subset_enumeration():
    # coefficient of t^k in prod_i (1 + t lam_i) is the sum over all
    # k-element subsets of the product of their entries
    rng = np.random.default_rng(3)
    for n in range(1, 5):
        lams = [Fraction(int(a), int(b))
                for a, b in zip(rng.integers(-9, 10, n),
                                rng.integers(1, 7, n))]
        poly = [Fraction(1)]
        for lam in lams:
            poly = ([poly[0]]
                    + [poly[d] + lam * poly[d - 1] for d in range(1, len(poly))]
                    + [lam * poly[-1]])
        for k in range(n + 1):
            subset_sum = sum(
                (_prod(sub) for sub in itertools.combinations(lams, k)),
                Fraction(0))
            assert poly[k] == subset_sum, (n, k)
    result = exact.verify_sigma_expansion()
    assert result.passed


def _prod(values) -> Fraction:
    out = Fraction(1)
    for v in values:
        out *= v
    return out


def test_run_all_passes_quickly():
    start = time.perf_counter()
    results = exact.run_all()
    elapsed = time.perf_counter() - start
    assert [r.name for r in results] == [
        "zero_identity", "binomial_identity", "sigma_expansion"]
    assert all(r.passed for r in results)
    assert [r.cases for r in results] == [454, 465, 14]
    assert elapsed < 1.0


def test_exact_result_reports_failures():
    bad = exact.ExactResult("demo", 3, [(1, 2)])
    assert not bad.passed
    good = exact.ExactResult("demo", 3, [])
    assert good.passed
