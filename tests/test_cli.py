import json
import time

import numpy as np
import pytest

from pthide import cli
from pthide.cli import main
from pthide.constructions import bell_state, example1
from pthide.ensembles import coarse_grain
from pthide.discrimination import helstrom_measurement
from pthide.serialize import ensemble_to_dict, povm_to_dict

from pthide.operators import BipartiteDims

from conftest import random_ensemble, random_two_state_ensemble


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fig3_csv_first_row(capsys):
    code, out, _ = run(capsys, "fig3", "--params", "2,3,6", "--lmax", "10")
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
    assert lines[0] == "L,lower,upper"
    assert len(lines) == 11
    first = lines[1].split(",")
    qg = 1764.0 / 4284.0
    assert int(first[0]) == 1
    assert abs(float(first[2]) - (2 * qg - 1.0 / 3.0)) < 1e-12
    uppers = [float(ln.split(",")[2]) for ln in lines[1:]]
    assert all(a >= b for a, b in zip(uppers, uppers[1:]))


def test_qg_builtin_bell(capsys):
    code, out, _ = run(capsys, "qg", "--ensemble", "bell-example1")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 0.75) < 1e-6
    assert payload["converged"]
    assert payload["manifest"]["subcommand"] == "qg"


def test_qg_no_pt(capsys):
    code, out, _ = run(capsys, "qg", "--ensemble", "bell-example1", "--no-pt")
    assert code == 0
    assert abs(json.loads(out)["value"] - 1.0) < 1e-6  # orthogonal states


def test_validate_malformed_probabilities_exits_2(tmp_path, capsys):
    e = example1(bell_state())
    payload = ensemble_to_dict(e)
    payload["items"][0]["eta"] = 0.9  # probabilities now sum to 1.15
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "validate", "--ensemble", str(path))
    assert code == 2
    assert not json.loads(out)["ok"]


def test_validate_good_ensemble(capsys):
    code, out, _ = run(capsys, "validate", "--ensemble", "bell-example1")
    assert code == 0
    assert json.loads(out)["ok"]


def test_unreadable_file_exits_2(capsys):
    code, _, err = run(capsys, "qg", "--ensemble", "/nonexistent/file.json")
    assert code == 2
    assert "error" in err


def test_unknown_flag_exits_2(capsys):
    assert main(["fig3", "--params", "2,3,6", "--lmax", "3", "--bogus"]) == 2


def test_bad_params_exits_2(capsys):
    code, _, err = run(capsys, "fig3", "--params", "2,3", "--lmax", "3")
    assert code == 2


def test_nonconvergence_exits_3(tmp_path, capsys):
    e = random_two_state_ensemble(np.random.default_rng(0))
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(ensemble_to_dict(e)))
    code, out, _ = run(capsys, "qg", "--ensemble", str(path), "--max-iters", "0")
    assert code == 3
    assert not json.loads(out)["converged"]


def test_gap_tol_below_rounding_exits_3_without_spending_the_budget(tmp_path, capsys):
    # at --gap-tol 0 the rounding floor is never reached; the solve stops,
    # unconverged, once its iterate stops changing (was the full budget of
    # 100,000 iterations, about 14 s)
    e = coarse_grain(random_two_state_ensemble(np.random.default_rng(19)), 2)
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(ensemble_to_dict(e)))
    code, out, _ = run(capsys, "qg", "--ensemble", str(path), "--gap-tol", "0")
    assert code == 3
    payload = json.loads(out)
    assert not payload["converged"] and payload["iterations"] <= 64


def test_stalled_barrier_solve_exits_3_within_seconds(tmp_path, capsys):
    # n = 3 at --gap-tol 0: the barrier's certified gap stops falling near
    # 1e-11, and the run stops there, unconverged (Dykstra ran on at about
    # 11 ms per iteration to the 100,000-iteration budget)
    e = random_ensemble(np.random.default_rng([11, 0]), 3, BipartiteDims(2, 3))
    path = tmp_path / "ens.json"
    path.write_text(json.dumps(ensemble_to_dict(e)))
    start = time.monotonic()
    code, out, _ = run(capsys, "qg", "--ensemble", str(path), "--gap-tol", "0")
    assert time.monotonic() - start < 5.0
    assert code == 3
    payload = json.loads(out)
    assert not payload["converged"] and payload["method"] == "log-det-barrier"
    assert 0.0 < payload["gap"] <= 1e-9 and payload["iterations"] <= 200


@pytest.mark.parametrize(
    "option,name",
    [("--gap-tol=nan", "gap_tol"), ("--gap-tol=-1e-6", "gap_tol"), ("--max-iters=-5", "max_iters")],
)
def test_bad_solver_options_exit_2(capsys, option, name):
    code, out, err = run(capsys, "qg", "--ensemble", "bell-example1", option)
    assert code == 2
    assert out == "" and f"error: {name}" in err


def test_certify_subcommand(tmp_path, capsys):
    povm = helstrom_measurement(example1(bell_state()), use_pt=True)
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(povm_to_dict(povm)))
    code, out, _ = run(capsys, "certify", "--ensemble", "bell-example1", "--povm", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"]
    assert min(payload["residual_min_eigs"]) >= -1e-8


def test_example1_subcommand(capsys):
    code, out, _ = run(capsys, "example1", "--sigma", "bell")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["reference"]["eta0"] - 0.75) < 1e-12
    assert abs(payload["reference"]["qg"] - 0.75) < 1e-12
    assert abs(payload["reference"]["pt_trace_norm"] - 2.0) < 1e-9
    assert len(payload["ensemble"]["items"]) == 2


def test_example1_random_npt(capsys):
    code, out, _ = run(capsys, "example1", "--sigma", "random-npt:2x2:7")
    assert code == 0
    payload = json.loads(out)
    assert payload["reference"]["pt_trace_norm"] > 1.0


def test_example2_subcommand(capsys):
    code, out, _ = run(capsys, "example2", "--m", "2", "--n", "3", "--d", "6", "--formulas-only")
    assert code == 0
    payload = json.loads(out)
    assert payload["normalization"] == 4284
    assert payload["probabilities"][0] == {"numerator": 7, "denominator": 17}
    assert payload["ensemble"] is None
    assert payload["meets_threshold"]


def test_example2_conflicting_mode_flags_exit_2(capsys):
    code, out, err = run(
        capsys, "example2", "--m", "1", "--n", "2", "--d", "3", "--explicit", "--formulas-only"
    )
    assert code == 2
    assert out == ""
    assert "not allowed with" in err


def test_seed_and_cap_only_where_used(capsys):
    # --seed exists only on hide-sim, and fig3, which builds no matrix, has no --cap
    assert main(["validate", "--ensemble", "bell-example1", "--seed", "3"]) == 2
    assert main(["fig3", "--params", "2,3,6", "--lmax", "3", "--cap", "64"]) == 2
    capsys.readouterr()


def test_example2_invalid_params_exit_2(capsys):
    code, _, err = run(capsys, "example2", "--m", "1", "--n", "3", "--d", "3")
    assert code == 2


def test_bounds_subcommand(tmp_path, capsys):
    out_path = tmp_path / "bounds.csv"
    code, _, _ = run(
        capsys,
        "bounds",
        "--ensemble",
        "bell-example1",
        "--lmax",
        "4",
        "--which",
        "uniform",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = [ln for ln in out_path.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "L,lower,upper"
    # n = 2 uniform-encoding bound: 1/2 + (2 qg - 1)^L with qg = 3/4
    row = lines[1].split(",")
    assert abs(float(row[2]) - 1.0) < 1e-12


def test_hide_sim_json(capsys):
    code, out, _ = run(
        capsys,
        "hide-sim",
        "--ensemble",
        "bell-example1",
        "--L",
        "2",
        "--trials",
        "20000",
        "--seed",
        "3",
    )
    assert code == 0
    payload = json.loads(out)
    ref = payload["analytic_reference"]
    assert abs(ref - 0.625) < 1e-9
    assert abs(payload["empirical_success"] - ref) <= 5 * payload["stderr"]
    assert payload["rng"] == "numpy-philox"


def test_hide_sim_reference_honours_cap(capsys, monkeypatch):
    # the exact reference is built under --cap, not under the default cap
    monkeypatch.setattr(cli, "DEFAULT_DIM_CAP", 64)
    code, out, _ = run(
        capsys,
        "hide-sim", "--ensemble", "bell-example1", "--L", "4",
        "--strategy", "global-orthogonal", "--cap", "4096", "--trials", "2000",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["analytic_reference"] - 1.0) < 1e-9
    assert payload["analytic_reference"] <= 1.0
    assert payload["empirical_success"] == 1.0
    assert payload["z_score"] == 0.0


def test_hide_sim_withheld_broadcast_reference_is_chance(capsys):
    # without the broadcast x is uniform and independent of the guess, so the
    # reference is exactly 1/n, not the broadcast success 0.625
    code, out, _ = run(
        capsys,
        "hide-sim", "--ensemble", "bell-example1", "--L", "2",
        "--trials", "100000", "--seed", "3", "--withhold-broadcast",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["analytic_reference"] == 0.5
    assert abs(payload["z_score"]) <= 5.0


def test_hide_sim_direct_encoding_and_withheld_broadcast_exit_2(capsys):
    # direct encoding publishes no broadcast to withhold: the pair is refused
    # instead of printing the direct-encoding result under both settings
    code, out, err = run(
        capsys,
        "hide-sim", "--ensemble", "bell-example1", "--L", "2", "--trials", "2000",
        "--direct-encoding", "--withhold-broadcast",
    )
    assert code == 2
    assert out == ""
    assert "not allowed with" in err


def test_hide_sim_builds_the_bin_table_once(capsys, monkeypatch):
    # the run draws from the side-D^L bin table and reads its reference off
    # the same table: one build per run
    from pthide import hiding

    calls = []
    build = hiding._coarse_table

    def counted(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(hiding, "_coarse_table", counted)
    for scheme in ([], ["--direct-encoding"]):
        calls.clear()
        code, out, _ = run(
            capsys,
            "hide-sim", "--ensemble", "bell-example1", "--L", "3",
            "--strategy", "global-orthogonal", "--trials", "2000", *scheme,
        )
        assert code == 0
        assert calls == [3]
        assert abs(json.loads(out)["analytic_reference"] - 1.0) <= 1e-12


def test_hide_sim_reference_at_many_copies(capsys):
    code, out, _ = run(
        capsys, "hide-sim", "--ensemble", "bell-example1", "--L", "12", "--trials", "1000"
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["analytic_reference"] - (0.5 + 0.5 * 2.0**-12)) < 1e-12
    assert payload["z_score"] is not None


def test_hide_sim_csv_sweep(capsys):
    code, out, _ = run(
        capsys,
        "hide-sim",
        "--ensemble",
        "bell-example1",
        "--csv",
        "--lmax",
        "3",
        "--trials",
        "5000",
        "--seed",
        "1",
    )
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
    assert lines[0] == "L,empirical,stderr,reference"
    assert len(lines) == 4


def test_csv_outputs_are_deterministic(tmp_path, capsys, monkeypatch):
    # identical argv (including --out) and seed must give identical bytes;
    # SOURCE_DATE_EPOCH pins the manifest timestamp
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    p = tmp_path / "run.csv"
    argv = [
        "hide-sim", "--ensemble", "bell-example1", "--csv", "--lmax", "3",
        "--trials", "2000", "--seed", "42", "--out", str(p),
    ]
    assert main(list(argv)) == 0
    capsys.readouterr()
    first = p.read_bytes()
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert p.read_bytes() == first


def test_csv_values_all_finite(capsys):
    code, out, _ = run(capsys, "fig3", "--params", "4,9,12", "--lmax", "25")
    assert code == 0
    for ln in out.strip().splitlines():
        if ln.startswith("#") or ln.startswith("L,"):
            continue
        for tok in ln.split(",")[1:]:
            assert np.isfinite(float(tok))


def test_version_flag():
    assert main(["--version"]) == 0
