"""Exception hierarchy shared across the laboratory."""

from __future__ import annotations


class LabError(Exception):
    """Base class for all laboratory failures."""


class ParameterError(LabError, ValueError):
    """Invalid argument, configuration key, or out-of-range index."""


class UnsupportedModelError(LabError):
    """Operation not defined for the requested background model."""


class NotKahlerError(LabError):
    """A candidate potential fails metric positivity.

    Carries the first offending grid node, the violating value and, in a
    stack, its row, so callers can report where admissibility broke; `rows`
    lists every failing row of the stack, `row` first.
    """

    def __init__(self, message: str, node: int, value: float, row: int = 0,
                 rows: list[int] | None = None):
        super().__init__(f"{message} (node {node}, value {value:.6e})")
        self.node = node
        self.value = value
        self.row = row
        self.rows = [row] if rows is None else rows


class SolverError(LabError):
    """A nonlinear solve (row `row` of a stacked one) failed."""

    def __init__(self, message: str, t: float | None = None,
                 residual: float | None = None, row: int = 0):
        super().__init__(message)
        self.t = t
        self.residual = residual
        self.row = row


class GeneratorError(LabError):
    """The positivity-improving generator failed to certify its output."""

    def __init__(self, message: str, achieved_min: float):
        super().__init__(f"{message} (achieved minimum {achieved_min:.6e})")
        self.achieved_min = achieved_min
