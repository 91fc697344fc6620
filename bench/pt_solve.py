"""pt-solve: projected-ascent solves of the partial-transpose objective.

Two-state instances are random 2x2 ensembles coarse-grained to L=2 (D=16) and
L=3 (D=64); the closed form qg_level_two_state must lie in the certified
bracket [value, value + gap].  Random n=3 and n=4 ensembles on 2x3 (D=6) run
Dykstra's projection; their dual H must pass dual_bound and bound the trivial
measurement's value max_i eta_i from above.  Every returned POVM goes through
validate_povm.  The two-state solves share one iteration budget, and the
instances that exhaust it stay in the sample: they are the iteration tail this
workload exists to measure.  The Dykstra solves get a smaller budget of their
own: one of their iterations costs as much as 40 to 70 two-state ones, and
under a shared budget of 1000 the one n=4 solve took 0.15 to 3.3 s, as the
seed fell.
"""

from __future__ import annotations

import numpy as np

from common import (
    NONCONVERGED,
    Outcome,
    Task,
    check_dual,
    check_povm,
    check_valid,
    random_ensemble,
    random_two_state_ensemble,
)

#: One pass: (kind, count).  L=2 instances are cheap and many, so the pass
#: total is steady across seeds.  The heavy kinds are few: each of their
#: tasks outlasts every L=2 solve, so task_tail_s, with ten tasks beyond it,
#: lands among the L=2 solves that exhaust the budget.  These all do the same
#: work, and the deeper into them it lands, the less one stalled solve moves it.
MIX = (("L2", 1150), ("L3", 2), ("n3", 1), ("n4", 1))
MAX_ITERS = 250
DYKSTRA_MAX_ITERS = 50
GAP_TOL = 1e-7
BRACKET_TOL = 1e-9
PASS_S = 18.0


def build(pthide, seed: int, rec) -> list[Task]:
    rng = np.random.default_rng([seed, 1])
    opts = pthide.SolverOptions(gap_tol=GAP_TOL, max_iters=MAX_ITERS)
    dykstra_opts = pthide.SolverOptions(gap_tol=GAP_TOL, max_iters=DYKSTRA_MAX_ITERS)
    d22, d23 = pthide.BipartiteDims(2, 2), pthide.BipartiteDims(2, 3)
    tasks = []
    for kind, count in MIX:
        for _ in range(count):
            if kind in ("L2", "L3"):
                base = random_two_state_ensemble(pthide, rec, rng, d22)
                check_valid(pthide, base)
                copies = int(kind[1])
                ensemble = pthide.coarse_grain(base, copies)
                tasks.append(Task(kind, _two_state_task(pthide, base, ensemble, copies, opts)))
            else:
                ensemble = random_ensemble(pthide, rec, rng, int(kind[1]), d23)
                check_valid(pthide, ensemble)
                tasks.append(Task(kind, _many_state_task(pthide, ensemble, dykstra_opts)))
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


def _solve(pthide, ensemble, opts, out):
    report = pthide.solve_optimal_value(ensemble, use_pt=True, opts=opts)
    if not report.converged:
        out.failures.append(NONCONVERGED)
    check_povm(pthide, out, report.povm)
    # Certifying is part of the work a caller does; its verdict is not gated
    # because a non-converged POVM is expected to miss the tolerance.
    pthide.certify_optimal(ensemble, report.povm, use_pt=True)
    return report, check_dual(pthide, out, ensemble, report)


def _two_state_task(pthide, base, ensemble, copies, opts):
    def run():
        out = Outcome()
        report, _ = _solve(pthide, ensemble, opts, out)
        closed = pthide.qg_level_two_state(base, copies)
        out.expect(
            report.value - BRACKET_TOL <= closed <= report.value + report.gap + BRACKET_TOL,
            f"closed form {closed} outside [{report.value}, {report.value + report.gap}]",
        )
        return out

    return run


def _many_state_task(pthide, ensemble, opts):
    trivial = float(ensemble.probabilities.max())

    def run():
        out = Outcome()
        report, bound = _solve(pthide, ensemble, opts, out)
        upper = report.value + report.gap if bound is None else bound
        out.expect(
            trivial <= upper + BRACKET_TOL,
            f"certified upper bound {upper} below the trivial value {trivial}",
        )
        return out

    return run
