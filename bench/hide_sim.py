"""hide-sim: the Monte Carlo hiding samplers.

The broadcast scheme (with and without withholding the broadcast) and direct
encoding run for L up to 16 at a fixed trial count, with a per-copy parity
strategy on the PT Helstrom measurement.  Two ensembles: example1 of the Bell
state and example1 of a seeded random NPT state on 2x3 (see NPT_TOL).  Each
estimate must lie within 5 sigma of exact_strategy_success while the
enumeration fits its 10^7 cap, and of the closed form below beyond it;
withholding the broadcast leaves chance, 1/2.  Dense algebra is nearly absent.
"""

from __future__ import annotations

import numpy as np

from common import Outcome, Task, check_povm, check_valid, within_sigmas

LEVELS = (1, 2, 4, 6, 8, 10, 12, 14, 16)
TRIALS = 250_000
SCHEMES = ("broadcast", "withhold", "direct")
ENUMERATION_CAP = 10_000_000
PASS_S = 18.0
#: Direct encoding samples by rejection, and its work grows like 1/(T - 1)
#: for a trace norm T of sigma^PT near 1: on plain random NPT states 1% of
#: seeds need 10x the median work and some would outrun a run's time limit.
#: Requiring a PT eigenvalue below -0.02 keeps T - 1 >= 0.04.
NPT_TOL = 0.02


def parity_success(etas, table, copies: int, scheme: str) -> float:
    """Closed-form success of per-copy measuring plus parity, n = 2.

    A copy prepared as c is misread with probability e_c = 1 - table[c, c],
    independently per copy.  With F(s, t) = (sum_c eta_c s^c (1 - e_c + e_c t))^L
    for s, t in {1, -1}, the chance that the preparation sum has parity x and
    the number of misreads parity k is (1/4) sum_{s,t} s^x t^k F(s, t).  The
    guess is right iff the misread count is even.
    """
    err = 1.0 - np.array([table[0, 0], table[1, 1]])

    def f(s, t):
        return sum(etas[c] * s**c * (1.0 - err[c] + err[c] * t) for c in range(2)) ** copies

    def joint(x, k):
        return sum(s**x * t**k * f(s, t) for s in (1, -1) for t in (1, -1)) / 4.0

    if scheme == "broadcast":
        return joint(0, 0) + joint(1, 0)
    return sum(0.5 * joint(x, 0) / (joint(x, 0) + joint(x, 1)) for x in (0, 1))


def build(pthide, seed: int, rec) -> list[Task]:
    rng = np.random.default_rng([seed, 3])
    sigma = pthide.random_npt_state(
        pthide.BipartiteDims(2, 3), int(rng.integers(2**31)), npt_tol=NPT_TOL
    )
    tasks = []
    for label, ensemble in (("bell", pthide.example1(pthide.bell_state())),
                            ("npt23", pthide.example1(sigma))):
        check_valid(pthide, ensemble)
        if not pthide.is_mutually_orthogonal(ensemble):
            raise ValueError(f"{label}: example1 ensemble is not orthogonal")
        measurement = pthide.helstrom_measurement(ensemble, use_pt=True)
        setup_out = Outcome()
        check_povm(pthide, setup_out, measurement)
        if setup_out.failures:
            raise ValueError(f"{label}: Helstrom measurement fails validate_povm")
        cert = pthide.certify_optimal(ensemble, measurement, use_pt=True)
        if not cert.certified:
            raise ValueError(f"{label}: Helstrom measurement is not PT-optimal")
        strategy = pthide.PerCopyParityStrategy(measurement)
        table = strategy.outcome_table(ensemble)
        for scheme in SCHEMES:
            for copies in LEVELS:
                sim_seed = int(rng.integers(2**63))
                tasks.append(Task(
                    f"{label}-{scheme}-L{copies}",
                    _sim_task(pthide, ensemble, strategy, table, scheme, copies, sim_seed),
                ))
    return tasks


def _sim_task(pthide, ensemble, strategy, table, scheme, copies, sim_seed):
    etas = ensemble.probabilities
    cfg = pthide.ProtocolConfig(
        ensemble=ensemble, copies=copies, trials=TRIALS, seed=sim_seed, strategy=strategy
    )
    enumerable = ensemble.n**copies * 2**copies <= ENUMERATION_CAP

    def run():
        out = Outcome(trials=TRIALS)
        if scheme == "direct":
            res = pthide.simulate_direct_encoding(cfg)
        else:
            res = pthide.simulate_broadcast_scheme(cfg, withhold_broadcast=scheme == "withhold")
        if scheme == "withhold":
            ref = 0.5
        else:
            ref = parity_success(etas, table, copies, scheme)
            if enumerable:
                exact = pthide.exact_strategy_success(
                    ensemble, copies, strategy, scheme=scheme
                )
                out.expect(abs(exact - ref) <= 1e-9, f"exact {exact} != closed form {ref}")
                ref = exact
        out.expect(
            within_sigmas(res.empirical_success, ref, TRIALS),
            f"{scheme} L={copies}: {res.empirical_success} vs {ref}",
        )
        return out

    return run
