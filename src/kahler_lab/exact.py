"""Exact combinatorial identities behind the energy-functional bookkeeping.

Everything here runs in integer / rational arithmetic (math.comb and
fractions.Fraction) with zero floating point and zero heavyweight imports,
so the whole suite completes in well under a second.

Three families are covered:

1. a per-index linear relation among binomial coefficients that makes the
   telescoping in the energy integration-by-parts close up,
2. an alternating double-binomial sum with the closed form j - k,
3. the expansion of elementary symmetric functions of a two-eigenvalue
   spectrum with multiplicities (1, n-1), checked against a brute-force
   polynomial product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb


@dataclass
class ExactResult:
    name: str
    cases: int
    failures: list[tuple]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_zero_identity(max_n: int = 12) -> ExactResult:
    """(n-i+1) C(k+1,i) - (k+1) C(k,i) - (n-k) C(k+1,i) == 0.

    Checked for every 0 <= k <= n <= max_n and 1 <= i <= k+1, with the
    standard convention C(a, b) = 0 for b > a.  That convention settles the
    boundary tuples where i exceeds k (for example n = 1, k = 0, i = 1,
    where the middle term carries C(0, 1) = 0 and the identity reads
    1 - 0 - 1 = 0): the relation holds on the whole stated range with no
    excluded cases.
    """
    failures = []
    cases = 0
    for n in range(1, max_n + 1):
        for k in range(0, n + 1):
            for i in range(1, k + 2):
                cases += 1
                value = ((n - i + 1) * comb(k + 1, i)
                         - (k + 1) * comb(k, i)
                         - (n - k) * comb(k + 1, i))
                if value != 0:
                    failures.append((n, k, i, value))
    return ExactResult("zero_identity", cases, failures)


def verify_binomial_identity(max_k: int = 30) -> ExactResult:
    """sum_{i=j+1}^{k} C(k+1,i+1) C(i-1,j) (-1)^{i+j} == j - k  for 0 <= j < k."""
    failures = []
    cases = 0
    for k in range(1, max_k + 1):
        for j in range(0, k):
            cases += 1
            total = 0
            for i in range(j + 1, k + 1):
                total += comb(k + 1, i + 1) * comb(i - 1, j) * (-1) ** (i + j)
            if total != j - k:
                failures.append((k, j, total, j - k))
    return ExactResult("binomial_identity", cases, failures)


# -- tiny exact bivariate polynomials over Fraction -------------------------
# keys are (power of a, power of b); values are Fraction coefficients


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for (i, j), c in p.items():
        for (k, l), d in q.items():
            key = (i + k, j + l)
            out[key] = out.get(key, Fraction(0)) + c * d
    return {k: v for k, v in out.items() if v}


def _poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def _sigma_closed_form(n: int, k: int) -> dict:
    """C(n-1,k) b^k + C(n-1,k-1) b^{k-1} a  as an exact polynomial."""
    out: dict = {}
    if k == 0:
        return {(0, 0): Fraction(1)}
    if comb(n - 1, k):
        out[(0, k)] = Fraction(comb(n - 1, k))
    out[(1, k - 1)] = Fraction(comb(n - 1, k - 1))
    return out


def _sigma_from_product(n: int) -> list[dict]:
    """Coefficients of t^k in (1 + t a)(1 + t b)^{n-1}, exactly.

    Returns the list [sigma_0, ..., sigma_n] as bivariate polynomials;
    this is the defining generating function of the elementary symmetric
    functions of the spectrum (a, b, ..., b).
    """
    # represent sum_k sigma_k t^k as a list indexed by k
    acc: list[dict] = [{(0, 0): Fraction(1)}]
    factors = [{(1, 0): Fraction(1)}] + [{(0, 1): Fraction(1)}] * (n - 1)
    for root in factors:
        nxt: list[dict] = [dict() for _ in range(len(acc) + 1)]
        for deg, poly in enumerate(acc):
            nxt[deg] = _poly_add(nxt[deg], poly)
            nxt[deg + 1] = _poly_add(nxt[deg + 1], _poly_mul(poly, root))
        acc = nxt
    return acc


def verify_sigma_expansion(max_n: int = 4) -> ExactResult:
    """Closed-form sigma_k matches the generating-function expansion exactly."""
    failures = []
    cases = 0
    for n in range(1, max_n + 1):
        product = _sigma_from_product(n)
        for k in range(0, n + 1):
            cases += 1
            closed = _sigma_closed_form(n, k)
            if closed != product[k]:
                failures.append((n, k, closed, product[k]))
    return ExactResult("sigma_expansion", cases, failures)


def run_all(max_n: int = 12, max_k: int = 30, max_sigma_n: int = 4) -> list[ExactResult]:
    return [
        verify_zero_identity(max_n),
        verify_binomial_identity(max_k),
        verify_sigma_expansion(max_sigma_n),
    ]
