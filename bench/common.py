"""Types and input generators shared by the workloads."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes goes here, inside the checkout.
OUT_DIR = ROOT / ".bench_out"

#: Failure categories counted in ``fail_ratio``.  Only HARD_FAILURES make a
#: task count as failed in the result line: a solve that exhausts its
#: iteration budget still returns a certified bracket, which is checked.
NONCONVERGED = "nonconverged"
POVM_INVALID = "povm_invalid"
DUAL_REJECTED = "dual_rejected"
CLI_NONZERO_EXIT = "cli_nonzero_exit"
EXCEPTION = "exception"
CATEGORIES = (NONCONVERGED, POVM_INVALID, DUAL_REJECTED, CLI_NONZERO_EXIT, EXCEPTION)
HARD_FAILURES = (POVM_INVALID, DUAL_REJECTED, CLI_NONZERO_EXIT, EXCEPTION)


@dataclass
class Outcome:
    """What one task produced: failure categories, wrong values, trial count."""

    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    trials: int = 0

    def expect(self, ok: bool, message: str):
        if not ok:
            self.wrong.append(message)


@dataclass
class Task:
    label: str
    run: Callable[[], Outcome]


def random_state(pthide, rec, dims, rng):
    """Full-rank random density operator (Ginibre), built by the benchmark."""
    d = dims.total
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    rho /= np.trace(rho).real
    with rec.span("operators.HermitianOperator"):
        return pthide.HermitianOperator(dims, (rho + rho.conj().T) / 2)


def random_two_state_ensemble(pthide, rec, rng, dims):
    eta0 = rng.uniform(0.1, 0.9)
    return pthide.StateEnsemble(
        dims,
        ((eta0, random_state(pthide, rec, dims, rng)),
         (1.0 - eta0, random_state(pthide, rec, dims, rng))),
    )


def random_ensemble(pthide, rec, rng, n, dims):
    etas = rng.dirichlet(np.ones(n))
    return pthide.StateEnsemble(
        dims, tuple((etas[i], random_state(pthide, rec, dims, rng)) for i in range(n))
    )


def within_sigmas(p_hat: float, ref: float, trials: int) -> bool:
    """A Monte Carlo estimate within 5 binomial standard errors of ``ref``."""
    return abs(p_hat - ref) <= 5.0 * np.sqrt(max(ref * (1.0 - ref), 0.0) / trials) + 1e-12


def check_valid(pthide, ensemble):
    """Refuse a generated input that is not a valid ensemble."""
    report = pthide.validate(ensemble)
    if not report.ok:
        raise ValueError(f"generated an invalid ensemble: {report.failures()}")


def check_povm(pthide, out: Outcome, povm):
    """validate_povm on a returned measurement; a failure is categorised."""
    checks = pthide.validate_povm(povm)
    if not all(ok for _, _, ok in checks):
        out.failures.append(POVM_INVALID)


def check_dual(pthide, out: Outcome, ensemble, report, tol: float = 1e-9):
    """dual_bound on a returned dual H; returns the certified upper bound."""
    dual = pthide.dual_bound(ensemble, report.dual_h)
    if not dual.feasible:
        out.failures.append(DUAL_REJECTED)
        return None
    out.expect(
        abs(dual.bound - (report.value + report.gap)) <= tol * (1.0 + abs(dual.bound)),
        f"Tr H {dual.bound} differs from value + gap {report.value + report.gap}",
    )
    return dual.bound
