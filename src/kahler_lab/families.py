"""Reproducible random families of admissible perturbation potentials.

Sampling uses counter-based PRNG streams (Philox) keyed by a global seed,
a stable hash of the scenario name, and the probe index, so any probe of
any scenario can be regenerated in isolation -- in particular, families
are identical when drawn in any order.

Projective probes are Chebyshev series in the rescaled coordinate with a
quadratically decaying amplitude envelope; torus probes are cosine series
with random phases.  Candidates violating metric positivity are rejected
and redrawn; an error is raised if the rejection rate indicates an
ill-chosen amplitude.

A probe is an admissible metric: `generate_probe` returns the MetricState
its admissibility test built, whose `phi` is the mean-zero potential drawn.
"""

from __future__ import annotations

from zlib import crc32

import numpy as np

from .errors import NotKahlerError, ParameterError
from .geometry import Background, MetricState, make_metric

Array = np.ndarray

DEFAULT_MODES = 6
DEFAULT_AMPLITUDE = {"cpn": 0.08, "torus": 0.004}
_MAX_DRAWS = 100


def family_rng(seed: int, scenario: str, index: int) -> np.random.Generator:
    """Independent stream for one probe of one scenario."""
    tag = (crc32(scenario.encode()) << 32) ^ index
    # an explicit uint64 key: a plain list holding a tag of 2**63 or more
    # would pass through float64 and merge neighbouring indices
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, tag], dtype=np.uint64)))


def _draw_cpn(bg: Background, rng: np.random.Generator, modes: int,
              amplitude: float) -> Array:
    # Chebyshev polynomials in 2x/L - 1, starting at degree 1 (degree 0 is
    # a constant and does nothing), with 1/j^2 decay
    s = 2.0 * bg.x / bg.length - 1.0
    coeffs = rng.standard_normal(modes) / (1.0 + np.arange(modes)) ** 2
    values = np.zeros(bg.size)
    for j, c in enumerate(coeffs, start=1):
        values += c * np.cos(j * np.arccos(np.clip(s, -1.0, 1.0)))
    return amplitude * values


def _draw_torus(bg: Background, rng: np.random.Generator, modes: int,
                amplitude: float) -> Array:
    values = np.zeros(bg.size)
    for j in range(1, modes + 1):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        values += rng.standard_normal() * np.cos(
            2.0 * np.pi * j * bg.x + phase) / j ** 2
    return amplitude * values


def generate_probe(bg: Background, seed: int, scenario: str, index: int,
                   modes: int = DEFAULT_MODES,
                   amplitude: float | None = None) -> MetricState:
    """The metric state of one admissible mean-zero probe; deterministic in
    all arguments."""
    if amplitude is None:
        amplitude = DEFAULT_AMPLITUDE[bg.model]
    rng = family_rng(seed, scenario, index)
    rejected = 0
    for _ in range(_MAX_DRAWS):
        if bg.model == "cpn":
            values = _draw_cpn(bg, rng, modes, amplitude)
        else:
            values = _draw_torus(bg, rng, modes, amplitude)
        values = values - bg.mean(values)
        try:
            return make_metric(bg, values)
        except NotKahlerError:
            rejected += 1
    raise ParameterError(
        f"rejection rate too high ({rejected}/{_MAX_DRAWS}) at amplitude "
        f"{amplitude}; the family parameters are inadmissible")
