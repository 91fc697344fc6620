"""multifold-dense: dense L-fold coarse graining and the commuting fast path.

Werner-family ensembles from example2 are coarse-grained at increasing L up
to D=1024 and solved through the commuting-eigenbasis fast path, so projected
ascent never runs: a rejected fast path gets no iterations and shows up as a
non-converged solve.  n=2 values are checked against qg_level_two_state, n=3
values against qg_level_upper_bound and dual_bound, and the coarse PT
difference against the tensor power of the single-copy one.  The global
support measurement on example1(bell_state()) must succeed with probability 1
up to L=5.  The families are fixed and run in a fixed order, so the seed only
seeds the fast path's random probes.
"""

from __future__ import annotations

import numpy as np

from common import NONCONVERGED, Outcome, Task, check_dual, check_povm, check_valid

#: (d, m, n) -> largest L; L=6 of (2,1,2) would be D=4096 and 63 s.
FAMILIES = (((2, 1, 2), 5), ((3, 1, 2), 3), ((2, 2, 3), 2))
BELL_MAX_L = 5
DECAY_MAX_L = 20
TOL = 1e-9
IDENTITY_TOL = 1e-12
PASS_S = 8.3


def build(pthide, seed: int, rec) -> list[Task]:
    rng = np.random.default_rng([seed, 2])
    opts = pthide.SolverOptions(max_iters=0, fast_path_seed=int(rng.integers(2**31)))
    tasks = []
    for (d, m, n), max_l in FAMILIES:
        fam = pthide.example2(d=d, m=m, n=n)
        check_valid(pthide, fam.ensemble)
        tasks.append(Task(f"hiding-{d}{m}{n}", _hiding_task(pthide, fam)))
        for copies in range(1, max_l + 1):
            label = f"werner-{d}{m}{n}-L{copies}"
            tasks.append(Task(label, _level_task(pthide, fam, copies, opts)))
    bell = pthide.example1(pthide.bell_state())
    check_valid(pthide, bell)
    for copies in range(1, BELL_MAX_L + 1):
        tasks.append(Task(f"bell-L{copies}", _bell_task(pthide, bell, copies)))
    return tasks


def _level_task(pthide, fam, copies, opts):
    base = fam.ensemble
    n = base.n

    def run():
        out = Outcome()
        coarse = pthide.coarse_grain(base, copies)
        report = pthide.solve_optimal_value(coarse, use_pt=True, opts=opts)
        if not report.converged:
            out.failures.append(NONCONVERGED)
        check_povm(pthide, out, report.povm)
        bound = check_dual(pthide, out, coarse, report)
        if n == 2:
            closed = pthide.qg_level_two_state(base, copies)
            out.expect(
                report.value - TOL <= closed <= report.value + report.gap + TOL,
                f"closed form {closed} outside [{report.value}, {report.value + report.gap}]",
            )
            _check_pt_identity(pthide, out, base, coarse, copies)
        else:
            upper = pthide.qg_level_upper_bound(fam.qg, n, copies)
            out.expect(report.value <= upper + TOL, f"value {report.value} above bound {upper}")
            out.expect(
                bound is None or report.value <= bound + TOL,
                f"value {report.value} above its dual bound {bound}",
            )
        return out

    return run


def _check_pt_identity(pthide, out, base, coarse, copies):
    """Coarse PT difference equals the tensor power of the single-copy one."""

    def pt_difference(ens):
        (e0, r0), (e1, r1) = ens.items
        return pthide.partial_transpose(r0).entries * e0 - pthide.partial_transpose(r1).entries * e1

    single = pt_difference(base)
    power = pthide.tensor_power(
        pthide.HermitianOperator(base.dims, single), copies, cap=coarse.dims.total
    ).entries
    resid = float(np.abs(pt_difference(coarse) - power).max())
    out.expect(resid <= IDENTITY_TOL, f"PT tensor identity residual {resid:.2e} at L={copies}")


def _hiding_task(pthide, fam):
    n = fam.ensemble.n
    exact = float(fam.eta0)

    def run():
        out = Outcome()
        hc = pthide.hiding_condition(fam.ensemble)
        out.expect(hc.orthogonal, "Werner-family states are not reported orthogonal")
        out.expect(abs(hc.qg - exact) <= 1e-6, f"hiding-condition value {hc.qg} != {exact}")
        out.expect(hc.passes == (exact + 1e-6 < 2.0 / n), f"hiding verdict {hc.passes} is wrong")
        curve = pthide.decay_curve(fam.ensemble, DECAY_MAX_L)
        levels = np.arange(1, DECAY_MAX_L + 1)
        expected = 1.0 / n + (n - 1) / n * (n * exact - 1.0) ** levels
        out.expect(
            np.abs(curve.upper - expected).max() <= 1e-6, "decay curve misses the closed form"
        )
        return out

    return run


def _bell_task(pthide, bell, copies):
    def run():
        out = Outcome()
        strategy = pthide.orthogonal_support_strategy(bell, copies)
        check_povm(pthide, out, strategy.povm)
        success = pthide.exact_strategy_success(bell, copies, strategy)
        out.expect(abs(success - 1.0) <= TOL, f"global strategy success {success} at L={copies}")
        return out

    return run
