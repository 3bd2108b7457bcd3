"""Exact combinatorial identities behind the energy-functional bookkeeping.

Everything here runs in integer arithmetic (math.comb, and
collections.Counter for polynomials) with zero floating point and zero
heavyweight imports, so the whole suite completes in well under a second.

Three families are covered:

1. a per-index linear relation among binomial coefficients that makes the
   telescoping in the energy integration-by-parts close up,
2. an alternating double-binomial sum with the closed form j - k,
3. the expansion of elementary symmetric functions of a two-eigenvalue
   spectrum with multiplicities (1, n-1), checked against their
   definition: one monomial per k-element subset of the spectrum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb


@dataclass
class ExactResult:
    name: str
    cases: int
    failures: list[tuple]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_zero_identity() -> ExactResult:
    """(n-i+1) C(k+1,i) - (k+1) C(k,i) - (n-k) C(k+1,i) == 0.

    Checked for every 0 <= k <= n <= 12 and 1 <= i <= k+1, with the
    standard convention C(a, b) = 0 for b > a.  That convention settles the
    boundary tuples where i exceeds k (for example n = 1, k = 0, i = 1,
    where the middle term carries C(0, 1) = 0 and the identity reads
    1 - 0 - 1 = 0): the relation holds on the whole stated range with no
    excluded cases.
    """
    failures = []
    cases = 0
    for n in range(1, 13):
        for k in range(0, n + 1):
            for i in range(1, k + 2):
                cases += 1
                value = ((n - i + 1) * comb(k + 1, i)
                         - (k + 1) * comb(k, i)
                         - (n - k) * comb(k + 1, i))
                if value != 0:
                    failures.append((n, k, i, value))
    return ExactResult("zero_identity", cases, failures)


def verify_binomial_identity() -> ExactResult:
    """sum_{i=j+1}^{k} C(k+1,i+1) C(i-1,j) (-1)^{i+j} == j - k  for
    0 <= j < k <= 30."""
    failures = []
    cases = 0
    for k in range(1, 31):
        for j in range(0, k):
            cases += 1
            total = 0
            for i in range(j + 1, k + 1):
                total += comb(k + 1, i + 1) * comb(i - 1, j) * (-1) ** (i + j)
            if total != j - k:
                failures.append((k, j, total, j - k))
    return ExactResult("binomial_identity", cases, failures)


# bivariate polynomials in the two eigenvalues (a, b) are Counters of
# monomials keyed by (power of a, power of b)


def _sigma_closed_form(n: int, k: int) -> Counter:
    """C(n-1,k) b^k + C(n-1,k-1) b^{k-1} a, with no zero coefficient."""
    if k == 0:
        return Counter({(0, 0): 1})
    return +Counter({(0, k): comb(n - 1, k), (1, k - 1): comb(n - 1, k - 1)})


def _sigma_by_subsets(n: int, k: int) -> Counter:
    """sigma_k of the spectrum (a, b, ..., b) by its definition: the sum
    over the k-element subsets of the product of their entries."""
    roots = [(1, 0)] + [(0, 1)] * (n - 1)
    # the exponent pair of a subset's product; (0, 0) for the empty one
    return Counter(tuple(map(sum, zip((0, 0), *subset)))
                   for subset in combinations(roots, k))


def verify_sigma_expansion() -> ExactResult:
    """Closed-form sigma_k matches the subset sum exactly, for
    0 <= k <= n <= 4."""
    failures = []
    cases = 0
    for n in range(1, 5):
        for k in range(0, n + 1):
            cases += 1
            closed, subsets = _sigma_closed_form(n, k), _sigma_by_subsets(n, k)
            if closed != subsets:
                failures.append((n, k, closed, subsets))
    return ExactResult("sigma_expansion", cases, failures)


def run_all() -> list[ExactResult]:
    """All three families over their index ranges."""
    return [verify_zero_identity(), verify_binomial_identity(), verify_sigma_expansion()]
