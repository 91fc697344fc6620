"""cli: in-process calls of pthide.cli.main with --out into .bench_out/.

Covers every subcommand that ROADMAP names as an end-to-end run, plus the
serialize layer on both sides: the inputs are written with serialize, the
outputs are read back with it.  Each call must exit 0 and its output must
parse and match the value the library computes directly (computed once, in
set-up).
"""

from __future__ import annotations

import csv
import json

import numpy as np

from common import (
    CLI_NONZERO_EXIT,
    OUT_DIR,
    Outcome,
    Task,
    check_povm,
    check_valid,
    random_two_state_ensemble,
    within_sigmas,
)

LMAX = 12
FIG3 = (1, 2, 3)  # m, n, d
SIM_L = 4
SIM_TRIALS = 50_000
SIM_LMAX = 5
TOL = 1e-9
PASS_S = 0.25
CSV_OUT = ("bounds", "fig3", "hide-sim-csv")


def build(pthide, seed: int, rec) -> list[Task]:
    rng = np.random.default_rng([seed, 4])
    serialize = pthide.serialize
    out_dir = OUT_DIR / f"cli-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)

    ensemble = random_two_state_ensemble(pthide, rec, rng, pthide.BipartiteDims(2, 2))
    check_valid(pthide, ensemble)
    bell = pthide.example1(pthide.bell_state())
    measurement = pthide.helstrom_measurement(bell, use_pt=True)
    ens_path = out_dir / "ensemble.json"
    povm_path = out_dir / "povm.json"
    for path, doc in ((ens_path, serialize.ensemble_to_dict(ensemble)),
                      (povm_path, serialize.povm_to_dict(measurement))):
        with rec.span("serialize.write"), open(path, "w") as fh:
            json.dump(doc, fh)

    qg_file = pthide.qg_two_state(ensemble)
    fig3 = pthide.example2(d=FIG3[2], m=FIG3[0], n=FIG3[1], explicit=False)
    sim_seed = int(rng.integers(2**31))
    strategy = pthide.PerCopyParityStrategy(measurement)
    ref = {
        "qg-bell": pthide.qg_two_state(bell),
        "qg-file": qg_file,
        "certify": pthide.certify_optimal(bell, measurement, use_pt=True).residual_min_eigs,
        "bounds": pthide.decay_curve_from_value(qg_file, 2, LMAX).upper,
        "fig3": pthide.decay_curve_from_value(fig3.qg, FIG3[1], LMAX).upper,
        "example2": fig3.normalization,
        "hide-sim": pthide.exact_strategy_success(bell, SIM_L, strategy),
        "hide-sim-csv": [
            pthide.exact_strategy_success(bell, copies, strategy)
            for copies in range(1, SIM_LMAX + 1)
        ],
    }
    sim = ["--trials", str(SIM_TRIALS), "--seed", str(sim_seed)]
    calls = {
        "qg-bell": ["qg", "--ensemble", "bell-example1"],
        "qg-file": ["qg", "--ensemble", str(ens_path), "--gap-tol", "1e-7"],
        "certify": ["certify", "--ensemble", "bell-example1", "--povm", str(povm_path)],
        "validate": ["validate", "--ensemble", str(ens_path)],
        "bounds": ["bounds", "--ensemble", str(ens_path), "--lmax", str(LMAX)],
        "fig3": ["fig3", "--params", ",".join(map(str, FIG3)), "--lmax", str(LMAX)],
        "example2": ["example2", "--m", str(FIG3[0]), "--n", str(FIG3[1]), "--d", str(FIG3[2])],
        "hide-sim": ["hide-sim", "--ensemble", "bell-example1", "--L", str(SIM_L), *sim],
        "hide-sim-csv": ["hide-sim", "--ensemble", "bell-example1", "--csv",
                         "--lmax", str(SIM_LMAX), *sim],
    }
    checks = {
        "qg-bell": lambda out, doc: _check_qg(pthide, out, doc, bell, ref["qg-bell"]),
        "qg-file": lambda out, doc: _check_qg(pthide, out, doc, ensemble, ref["qg-file"]),
        "certify": lambda out, doc: _check_certify(out, doc, ref["certify"]),
        "validate": lambda out, doc: out.expect(doc["ok"] is True, "validate reports not ok"),
        "bounds": lambda out, rows: _check_curve(out, rows, ref["bounds"]),
        "fig3": lambda out, rows: _check_curve(out, rows, ref["fig3"]),
        "example2": lambda out, doc: out.expect(
            doc["normalization"] == ref["example2"], "example2 normalization differs"
        ),
        "hide-sim": lambda out, doc: _check_sim(out, doc, ref["hide-sim"]),
        "hide-sim-csv": lambda out, rows: _check_sim_csv(out, rows, ref["hide-sim-csv"]),
    }
    tasks = []
    for label, argv in calls.items():
        path = out_dir / f"{label}.out"
        argv = [*argv, "--out", str(path)]
        tasks.append(Task(label, _call(pthide, argv, path, label in CSV_OUT, checks[label])))
    return tasks


def _call(pthide, argv, path, is_csv, check):
    def run():
        out = Outcome()
        code = pthide.cli.main(argv)
        if code != 0:
            out.failures.append(CLI_NONZERO_EXIT)
            return out
        with open(path) as fh:
            if is_csv:
                rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")][1:]
                doc = [[float(v) if v else None for v in r] for r in rows]
            else:
                doc = json.load(fh)
        check(out, doc)
        return out

    return run


def _check_qg(pthide, out, doc, ensemble, closed):
    value, gap = doc["value"], doc["gap"]
    out.expect(
        value - TOL <= closed <= value + gap + TOL,
        f"qg closed form {closed} outside [{value}, {value + gap}]",
    )
    check_povm(pthide, out, pthide.serialize.povm_from_dict(doc["povm"]))
    dual = pthide.dual_bound(ensemble, pthide.serialize.operator_from_dict(doc["dual_h"]))
    out.expect(dual.feasible, "qg dual H rejected by dual_bound")


def _check_certify(out, doc, residuals):
    out.expect(doc["certified"] is True, "certify did not certify the Helstrom measurement")
    out.expect(
        np.allclose(doc["residual_min_eigs"], residuals, atol=TOL), "certify residuals differ"
    )


def _check_curve(out, rows, upper):
    got = np.array([r[2] for r in rows])
    out.expect(got.shape == upper.shape and np.allclose(got, upper, rtol=0, atol=TOL),
               "decay curve differs from the library value")


def _check_sim(out, doc, exact):
    out.trials = doc["trials"]
    out.expect(abs(doc["analytic_reference"] - exact) <= TOL, "hide-sim reference differs")
    out.expect(within_sigmas(doc["empirical_success"], exact, doc["trials"]),
               f"hide-sim estimate {doc['empirical_success']} vs {exact}")


def _check_sim_csv(out, rows, exact):
    out.trials = SIM_TRIALS * len(rows)
    out.expect(len(rows) == len(exact), "hide-sim CSV has the wrong number of rows")
    for (copies, p_hat, _, reference), want in zip(rows, exact):
        out.expect(abs(reference - want) <= TOL, f"hide-sim CSV reference differs at L={copies}")
        out.expect(within_sigmas(p_hat, want, SIM_TRIALS),
                   f"hide-sim CSV estimate off at L={copies}")
