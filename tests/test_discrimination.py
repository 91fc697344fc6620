import numpy as np
import pytest

from pthide import (
    BipartiteDims,
    HermitianOperator,
    Povm,
    SolverOptions,
    StateEnsemble,
    certify_optimal,
    coarse_grain,
    dual_bound,
    helstrom_measurement,
    helstrom_two_state,
    identity,
    partial_transpose,
    positive_part,
    qg_level_two_state,
    qg_two_state,
    solve_optimal_value,
    success_probability,
    validate_povm,
)
from pthide.constructions import bell_state, example1, example2
from pthide.discrimination import _objective_operators, _projected_ascent

from conftest import random_ensemble, random_povm, random_state, random_two_state_ensemble

D22 = BipartiteDims(2, 2)


def _pure(vec):
    v = np.asarray(vec, dtype=float)
    return HermitianOperator(D22, np.outer(v, v))


def guess_first_povm(dims, n):
    blocks = [identity(dims)] + [
        HermitianOperator(dims, np.zeros((dims.total, dims.total))) for _ in range(n - 1)
    ]
    return Povm(dims, tuple(blocks))


def test_povm_validation():
    rng = np.random.default_rng(0)
    povm = random_povm(rng, D22, 3)
    checks = validate_povm(povm)
    assert all(ok for _, _, ok in checks)
    bad = Povm(D22, (identity(D22), identity(D22)))
    assert [name for name, _, ok in validate_povm(bad) if not ok] == ["completeness"]


def test_success_probability_guess_most_likely():
    rng = np.random.default_rng(1)
    e = random_two_state_ensemble(rng)
    povm = guess_first_povm(D22, 2)
    assert abs(success_probability(e, povm) - e.items[0][0]) < 1e-12


def test_success_probability_orthogonal_projectors():
    e = StateEnsemble(D22, ((0.4, _pure([1, 0, 0, 0])), (0.6, _pure([0, 1, 0, 0]))))
    povm = Povm(
        D22,
        (
            _pure([1, 0, 0, 0]),
            HermitianOperator(D22, np.eye(4) - _pure([1, 0, 0, 0]).entries),
        ),
    )
    assert abs(success_probability(e, povm) - 1.0) < 1e-12


def test_success_probability_example2_identity_measurement():
    res = example2(d=3, m=2, n=3)
    povm = guess_first_povm(res.ensemble.dims, 3)
    value = success_probability(res.ensemble, povm, use_pt=True)
    assert abs(value - float(res.eta0)) < 1e-12


def test_success_probability_size_mismatch():
    rng = np.random.default_rng(2)
    e = random_two_state_ensemble(rng)
    with pytest.raises(ValueError, match="outcomes"):
        success_probability(e, random_povm(rng, D22, 3))


def test_qg_two_state_examples():
    rho = random_state(D22, np.random.default_rng(3))
    same = StateEnsemble(D22, ((0.5, rho), (0.5, rho)))
    assert abs(qg_two_state(same) - 0.5) < 1e-12

    assert abs(qg_two_state(example1(bell_state())) - 0.75) < 1e-12

    # product pure states stay orthogonal under partial transposition
    prod = StateEnsemble(D22, ((0.5, _pure([1, 0, 0, 0])), (0.5, _pure([0, 1, 0, 0]))))
    assert abs(qg_two_state(prod) - 1.0) < 1e-12
    assert 0.5 <= qg_two_state(prod) <= 1.0

    with pytest.raises(ValueError):
        qg_two_state(random_ensemble(np.random.default_rng(4), 3))


def test_helstrom_two_state_examples():
    rho = random_state(D22, np.random.default_rng(5))
    same = StateEnsemble(D22, ((0.5, rho), (0.5, rho)))
    assert abs(helstrom_two_state(same) - 0.5) < 1e-12
    orth = StateEnsemble(D22, ((0.3, _pure([1, 0, 0, 0])), (0.7, _pure([0, 1, 0, 0]))))
    assert abs(helstrom_two_state(orth) - 1.0) < 1e-12


def test_solver_matches_closed_forms_both_objectives():
    rng = np.random.default_rng(6)
    for _ in range(10):
        e = random_two_state_ensemble(rng)
        rep_pt = solve_optimal_value(e, use_pt=True, opts=SolverOptions(gap_tol=1e-8))
        rep_plain = solve_optimal_value(e, use_pt=False, opts=SolverOptions(gap_tol=1e-8))
        assert abs(rep_pt.value - qg_two_state(e)) < 1e-6
        assert abs(rep_plain.value - helstrom_two_state(e)) < 1e-6
        assert rep_pt.converged and rep_plain.converged


def test_solver_single_state_ensemble():
    rho = random_state(D22, np.random.default_rng(7))
    e = StateEnsemble(D22, ((1.0, rho),))
    rep = solve_optimal_value(e, use_pt=True)
    assert abs(rep.value - 1.0) < 1e-9
    assert np.allclose(rep.povm.elements[0].entries, np.eye(4), atol=1e-9)


def test_solver_example2_small_value_and_certificate():
    res = example2(d=3, m=1, n=2)
    rep = solve_optimal_value(res.ensemble, use_pt=True)
    assert abs(rep.value - 2.0 / 3.0) < 1e-6
    assert rep.residual_min_eigs.min() >= -1e-8
    assert rep.gap >= -1e-8


def test_fast_path_agrees_with_generic_on_commuting_input():
    res = example2(d=3, m=2, n=3)
    fast = solve_optimal_value(res.ensemble, use_pt=True)
    g = _objective_operators(res.ensemble, use_pt=True)
    slow = _projected_ascent(g, res.ensemble.dims, SolverOptions(gap_tol=1e-8))
    assert fast.method == "commuting-eigenbasis"
    assert slow.method == "projected-ascent"
    assert fast.value_history.shape == (1, 4)
    assert abs(fast.value - slow.value) < 1e-6
    assert abs(fast.value - 0.5) < 1e-12  # exact rational optimum for these params


def test_fast_path_not_taken_for_generic_states():
    rng = np.random.default_rng(8)
    rep = solve_optimal_value(random_two_state_ensemble(rng), use_pt=True)
    assert rep.method == "projected-ascent"


def test_solver_value_history_monotone():
    rng = np.random.default_rng(9)
    for n in (2, 3):
        e = random_ensemble(rng, n)
        rep = solve_optimal_value(e, use_pt=True, opts=SolverOptions(gap_tol=1e-8))
        values = rep.value_history[:, 1]
        assert np.all(np.diff(values) >= -1e-10)
        # rows are (iteration, value, gap, step); the last row is the report
        assert rep.value_history.shape[1] == 4
        iters, _, gaps, steps = rep.value_history.T
        assert iters[-1] == rep.iterations and values[-1] == rep.value
        assert abs(gaps[-1] - rep.gap) <= 1e-12 and gaps[-1] <= 1e-8
        assert np.all(steps > 0)
        if n == 2:
            # exact projections are never rejected, so the step doubles every row
            assert np.allclose(steps[1:], 2 * steps[:-1], rtol=1e-15)


def test_geometric_schedule_converges_in_tens_of_iterations():
    rng = np.random.default_rng(16)
    opts = SolverOptions(gap_tol=1e-7)
    for _ in range(20):
        e = random_two_state_ensemble(rng)
        for ell in (2, 3):
            rep = solve_optimal_value(coarse_grain(e, ell), use_pt=True, opts=opts)
            # two-state solves run the optimizer, never the closed form
            assert rep.method == "projected-ascent"
            assert rep.converged
            assert 0 < rep.iterations <= 40
            closed = qg_level_two_state(e, ell)
            assert rep.value - 1e-9 <= closed <= rep.value + rep.gap + 1e-9


def test_sandwich_any_povm_below_certified_value():
    rng = np.random.default_rng(10)
    for n in (2, 3):
        e = random_ensemble(rng, n)
        rep = solve_optimal_value(e, use_pt=True, opts=SolverOptions(gap_tol=1e-7))
        assert rep.converged
        # the dual certificate bounds every measurement, tried or not
        for _ in range(5):
            povm = random_povm(rng, D22, n)
            assert success_probability(e, povm, use_pt=True) <= rep.value + 1e-6
        assert e.probabilities.max() <= rep.value + 1e-6


def test_duality_and_certification_on_converged_runs():
    rng = np.random.default_rng(11)
    gap_tol = 1e-7
    for n in (2, 3, 4):
        e = random_ensemble(rng, n)
        rep = solve_optimal_value(e, use_pt=True, opts=SolverOptions(gap_tol=gap_tol))
        assert rep.converged
        assert -1e-12 <= rep.gap <= gap_tol
        cert = certify_optimal(e, rep.povm, use_pt=True, tol=10 * gap_tol)
        assert cert.certified
        # the returned dual operator is feasible by construction
        assert dual_bound(e, rep.dual_h, tol=1e-8).feasible
    # Dykstra projections (n > 2) under the step back-off: 20 seeds on 2x3
    opts = SolverOptions(gap_tol=gap_tol, max_iters=1000)
    for seed in range(20):
        for n in (3, 4):
            e = random_ensemble(np.random.default_rng([11, seed]), n, BipartiteDims(2, 3))
            rep = solve_optimal_value(e, use_pt=True, opts=opts)
            assert rep.converged
            assert -1e-12 <= rep.gap <= gap_tol
            assert all(ok for _, _, ok in validate_povm(rep.povm))
            assert dual_bound(e, rep.dual_h, tol=1e-8).feasible


def test_pt_objective_equals_plain_on_diagonal_states():
    rng = np.random.default_rng(12)
    items = []
    for eta in (0.3, 0.7):
        p = rng.dirichlet(np.ones(4))
        items.append((eta, HermitianOperator(D22, np.diag(p))))
    e = StateEnsemble(D22, tuple(items))
    assert qg_two_state(e) == helstrom_two_state(e)


def test_certify_projector_measurement_optimal():
    rng = np.random.default_rng(13)
    for _ in range(10):
        e = random_two_state_ensemble(rng)
        povm = helstrom_measurement(e, use_pt=True)
        cert = certify_optimal(e, povm, use_pt=True)
        assert cert.certified
        value = success_probability(e, povm, use_pt=True)
        assert abs(value - qg_two_state(e)) < 1e-10


def test_certify_swapped_measurement_fails():
    e = example1(bell_state())
    povm = helstrom_measurement(e, use_pt=True)
    swapped = Povm(povm.dims, (povm.elements[1], povm.elements[0]))
    cert = certify_optimal(e, swapped, use_pt=True)
    assert not cert.certified
    assert cert.residual_min_eigs.min() < -1e-8


def test_certify_outcome_count_mismatch():
    e = example1(bell_state())
    with pytest.raises(ValueError, match="outcomes"):
        certify_optimal(e, guess_first_povm(D22, 3))


def test_dual_bound_positive_parts_feasible():
    rng = np.random.default_rng(14)
    for n in (2, 3):
        e = random_ensemble(rng, n)
        h = None
        for eta, rho in e.items:
            part = positive_part(eta * partial_transpose(rho))
            h = part if h is None else h + part
        res = dual_bound(e, h)
        assert res.feasible
        assert res.bound >= qg_two_state(e) - 1e-9 if n == 2 else res.bound >= 1.0 / n


def test_dual_bound_rejects_zero():
    e = example1(bell_state())
    res = dual_bound(e, HermitianOperator(D22, np.zeros((4, 4))))
    assert not res.feasible
    assert res.bound is None
    assert len(res.violations) == 2
    assert all(lmin < 0 for _, lmin in res.violations)


def test_dual_bound_from_solver_closes_gap():
    res = example2(d=3, m=1, n=2)
    rep = solve_optimal_value(res.ensemble, use_pt=True)
    out = dual_bound(res.ensemble, rep.dual_h, tol=1e-7)
    assert out.feasible
    assert abs(out.bound - 2.0 / 3.0) < 1e-6
