"""Closed forms and decay bounds for coarse-grained multifold ensembles.

For a two-state ensemble the partial-transpose objective of the L-fold
coarse graining has an exact closed form; for any number of states it decays
toward 1/n geometrically in L whenever the single-copy value is below 2/n.
Those facts power the data-hiding analysis: an orthogonal ensemble with a
small single-copy value hides an n-ary symbol that stays globally readable
while every per-copy-local strategy's success collapses to chance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrimination import SolverOptions, qg_two_state, solve_optimal_value, trace_norm
from .discrimination import _weighted_difference
from .ensembles import StateEnsemble, is_mutually_orthogonal

_BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class DecayCurve:
    """Per-L bound data: (L, chance floor 1/n, upper bound) triples."""

    n: int
    which: str
    levels: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def points(self):
        return list(zip(self.levels.tolist(), self.lower.tolist(), self.upper.tolist()))


def qg_level_two_state(ensemble: StateEnsemble, copies: int) -> float:
    """Exact coarse-grained two-state value: 1/2 + 1/2 * t**L.

    ``t`` is the trace norm of the weighted partial-transpose difference of
    the single-copy pair, i.e. twice the single-copy value minus one.
    """
    if ensemble.n != 2:
        raise ValueError("closed form requires exactly two states")
    if copies < 1:
        raise ValueError("copies must be >= 1")
    t = trace_norm(_weighted_difference(ensemble, use_pt=True))
    return 0.5 + 0.5 * t**copies


def qg_level_upper_bound(qg: float, n: int, copies: int) -> float:
    """Upper bound 1/n + ((n-1)/n) * (n*qg - 1)**L for the coarse-grained value."""
    _check_bound_args(qg, n, copies)
    return 1.0 / n + ((n - 1) / n) * (n * qg - 1.0) ** copies


def uniform_encoding_bound(qg: float, n: int, copies: int) -> float:
    """Per-copy-local success bound for directly encoded symbols.

    When the n coarse-grained states are used with uniform priors, any
    strategy implementable with local operations and classical communication
    succeeds with probability at most
    ``1/n + (n-1)(n^2-n+2)/(2n) * (n*qg - 1)**L``.
    """
    _check_bound_args(qg, n, copies)
    coeff = (n - 1) * (n * n - n + 2) / (2 * n)
    return 1.0 / n + coeff * (n * qg - 1.0) ** copies


def _check_bound_args(qg: float, n: int, copies: int):
    if n < 2:
        raise ValueError("n must be >= 2")
    if copies < 1:
        raise ValueError("copies must be >= 1")
    # No upper rejection: strongly NPT pairs can push the single-copy value
    # above 1, and the bound derivation only needs n*qg - 1 >= 0.
    if qg < 1.0 / n - _BOUND_SLACK:
        raise ValueError(f"value {qg} below the chance floor 1/{n}; not a guessing value")


@dataclass(frozen=True)
class HidingConditionResult:
    """Outcome of the data-hiding sufficiency check on an ensemble.

    ``passes`` is None when the optimizer failed to converge, leaving the
    verdict indeterminate rather than wrong.
    """

    orthogonal: bool
    qg: float
    passes: bool | None
    converged: bool
    n: int


def hiding_condition(
    ensemble: StateEnsemble, opts: SolverOptions | None = None
) -> HidingConditionResult:
    """Check the sufficiency condition for hiding an n-ary symbol.

    Requires the states to be mutually orthogonal (globally perfectly
    distinguishable) and the partial-transpose value to sit strictly below
    2/n, with the solver's ``gap_tol`` as margin.  Two-state ensembles use
    the closed form; larger ones run the optimizer and take the upper end of
    its certified bracket.
    """
    n = ensemble.n
    opts = opts or SolverOptions()
    orthogonal = is_mutually_orthogonal(ensemble)
    qg, converged = _pt_upper_value(ensemble, opts)
    if not converged:
        passes = None
    else:
        passes = bool(orthogonal and (qg + opts.gap_tol < 2.0 / n))
    return HidingConditionResult(orthogonal, qg, passes, converged, n)


def decay_curve_from_value(qg: float, n: int, max_copies: int, which: str = "coarse") -> DecayCurve:
    """Decay curve of the chosen bound for L = 1..max_copies, given the
    single-copy value."""
    if which not in ("coarse", "uniform"):
        raise ValueError("which must be 'coarse' or 'uniform'")
    if max_copies < 1:
        raise ValueError("max_copies must be >= 1")
    bound = qg_level_upper_bound if which == "coarse" else uniform_encoding_bound
    levels = np.arange(1, max_copies + 1)
    upper = np.array([bound(qg, n, int(level)) for level in levels])
    lower = np.full(levels.shape, 1.0 / n)
    return DecayCurve(n=n, which=which, levels=levels, lower=lower, upper=upper)


def decay_curve(
    ensemble: StateEnsemble,
    max_copies: int,
    which: str = "coarse",
    opts: SolverOptions | None = None,
) -> DecayCurve:
    """Decay curve for an explicit ensemble, anchored at the certified upper
    end of its single-copy value."""
    qg, converged = _pt_upper_value(ensemble, opts)
    if not converged:
        raise ValueError(
            "optimizer did not converge; cannot anchor the decay curve "
            f"(certified upper value {qg})"
        )
    return decay_curve_from_value(qg, ensemble.n, max_copies, which)


def _pt_upper_value(ensemble: StateEnsemble, opts: SolverOptions | None) -> tuple[float, bool]:
    """(certified upper end of the partial-transpose value, converged).

    Two states use the exact closed form.  More states run the optimizer and
    take ``value + gap``: an upper bound must be anchored at the upper end of
    the certified bracket, never at the primal value below it.
    """
    if ensemble.n == 2:
        return qg_two_state(ensemble), True
    report = solve_optimal_value(ensemble, use_pt=True, opts=opts)
    return report.value + report.gap, report.converged
