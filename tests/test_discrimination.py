import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from pthide import discrimination
from pthide.constructions import bell_state, example1, example2
from pthide.discrimination import _MAX_STEP_NORM, _dual_lift, _objective_operators
from pthide.discrimination import _barrier, _repair_povm, _solve_stack
from pthide.operators import _eig_apply

from conftest import random_ensemble, random_hermitian, random_povm, random_state
from conftest import random_two_state_ensemble

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
    # one operator commutes with itself, so n = 1 never reaches the ascent
    rng = np.random.default_rng(7)
    for dims in (BipartiteDims(2, 2), BipartiteDims(2, 3), BipartiteDims(3, 3)):
        for complex_entries in (False, True):
            rho = random_state(dims, rng, complex_entries)
            e = StateEnsemble(dims, ((1.0, rho),))
            for use_pt in (True, False):
                rep = solve_optimal_value(e, use_pt=use_pt)
                assert rep.method == "commuting-eigenbasis"
                assert rep.converged
                assert abs(rep.value - 1.0) < 1e-12
                assert np.allclose(rep.povm.elements[0].entries, np.eye(dims.total), atol=1e-9)


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
    start = time.monotonic()
    _, (slow_value, *_), _, history, slow_method = _barrier(g, SolverOptions(gap_tol=1e-8))
    # about 0.2 s; a dense Hessian (6561 x 6561 here) did not finish
    assert time.monotonic() - start < 10.0
    assert fast.method == "commuting-eigenbasis"
    assert slow_method == "log-det-barrier"
    assert fast.value_history.shape == (1, 4)
    assert abs(fast.value - slow_value) < 1e-6
    # the barrier's bracket holds the exact value
    assert slow_value <= fast.value <= history[-1][1] + history[-1][2] + 1e-12
    assert 0.0 <= history[-1][2] <= 1e-8
    assert abs(fast.value - 0.5) < 1e-12  # exact rational optimum for these params


def _three_path_cases():
    """One ensemble per solver path: the commuting fast path, the two-state
    eigenbasis ascent and the log-det barrier."""
    rng = np.random.default_rng(29)
    return [
        (example2(d=3, m=1, n=2).ensemble, "commuting-eigenbasis"),
        (random_two_state_ensemble(rng), "projected-ascent"),
        (random_ensemble(rng, 3), "log-det-barrier"),
    ]


def test_solve_stack_is_solve_optimal_value_on_the_raw_stack():
    opts = SolverOptions(gap_tol=1e-7, max_iters=200)
    for e, method in _three_path_cases():
        for use_pt in (True, False):
            rep = solve_optimal_value(e, use_pt=use_pt, opts=opts)
            m, lifted, iterations, history, got = _solve_stack(
                _objective_operators(e, use_pt), opts
            )
            value, z, _, lam = lifted
            gap = float(np.trace(z + lam * np.eye(e.dims.total)).real) - value
            assert rep.method == got == method
            assert (value, gap, iterations) == (rep.value, rep.gap, rep.iterations)
            assert np.array_equal(np.array(history), rep.value_history)
            assert np.array_equal(m, [el.entries for el in rep.povm.elements])


def test_operators_are_built_only_where_they_are_returned(monkeypatch):
    # the solver and the closed forms work on arrays: a solve wraps its n
    # POVM elements and its dual, and the closed forms and the certificates
    # wrap nothing
    built = []
    post_init = HermitianOperator.__post_init__

    def counted(self):
        built.append(self.dims)
        post_init(self)

    cases = _three_path_cases()
    pair = cases[1][0]
    povm = helstrom_measurement(pair, use_pt=True)
    h = solve_optimal_value(pair).dual_h
    monkeypatch.setattr(HermitianOperator, "__post_init__", counted)
    for e, _ in cases:
        built.clear()
        solve_optimal_value(e, opts=SolverOptions(gap_tol=1e-7, max_iters=200))
        assert len(built) == e.n + 1
    built.clear()
    qg_two_state(pair)
    helstrom_two_state(pair)
    qg_level_two_state(pair, 3)
    certify_optimal(pair, povm)
    dual_bound(pair, h)
    assert built == []


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
        # rows are (iteration, value, gap, step), or (iteration, value, gap,
        # t) for n > 2; the last row is the report
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


def _clip_ascent_oracle(g, opts):
    """The two-state loop on matrices: every step projects M + step * G onto
    the POVM set by the n = 2 clip, and lifts the dual from the iterate."""
    d = g.shape[-1]
    eye = np.eye(d, dtype=g.dtype)
    g_norm = max(float(np.linalg.norm(g)), 1e-300)
    step = 2.0 / g_norm
    m = np.stack([eye / 2, eye / 2])
    value, z, _, lam = _dual_lift(g, m)
    history, iterations = [], 0
    while True:
        history.append((iterations, value, lam * d, step))
        if lam * d <= opts.gap_tol or iterations >= opts.max_iters:
            break
        x = m + step * g
        # minimize ||M0 - X0||^2 + ||(I - M0) - X1||^2 over 0 <= M0 <= I
        m0 = _eig_apply((x[0] + eye - x[1]) / 2, lambda w: np.clip(w, 0.0, 1.0))
        m = np.stack([m0, eye - m0])
        iterations += 1
        value, z, _, lam = _dual_lift(g, m)
        if step * g_norm < _MAX_STEP_NORM:
            step *= 2
    gap = float(np.trace(z).real) + lam * d - value
    return iterations, np.array(history), value, gap


@pytest.mark.parametrize("complex_entries", [False, True])
def test_two_state_eigenbasis_path_matches_clip_oracle(complex_entries):
    rng = np.random.default_rng([17, complex_entries])
    cases = [(ell, SolverOptions(gap_tol=1e-7)) for ell in (1, 2, 3)]
    cut = SolverOptions(gap_tol=1e-10, max_iters=2)
    cases.append((2, cut))
    for _ in range(3):
        e = random_two_state_ensemble(rng, complex_entries=complex_entries)
        for ell, opts in cases:
            ce = coarse_grain(e, ell)
            rep = solve_optimal_value(ce, use_pt=True, opts=opts)
            assert rep.method == "projected-ascent"
            iterations, history, value, gap = _clip_ascent_oracle(
                _objective_operators(ce, use_pt=True), opts
            )
            assert rep.iterations == iterations
            assert rep.value_history.shape == history.shape
            assert np.abs(rep.value_history - history).max() <= 1e-12
            assert abs(rep.value - value) <= 1e-12 and abs(rep.gap - gap) <= 1e-12
            assert rep.converged == (opts is not cut)
            closed = qg_level_two_state(e, ell)
            assert rep.value - 1e-9 <= closed <= rep.value + rep.gap + 1e-9
            assert dual_bound(ce, rep.dual_h).feasible


def test_two_state_gap_missed_by_rounding_is_checked_on_matrices():
    # at gap_tol=0 the eigenvalue model stops once every eigenvalue clips, but
    # the gap of the actual matrices is rounding above 0: the iterate is
    # checked on its matrices, and as the next iterate is the same matrix the
    # run stops there, unconverged, long before its budget
    base = random_two_state_ensemble(np.random.default_rng(19))
    e = coarse_grain(base, 2)
    reps = [
        solve_optimal_value(e, use_pt=True, opts=SolverOptions(gap_tol=0.0, max_iters=budget))
        for budget in (30, 2000, SolverOptions().max_iters)
    ]
    rep = reps[0]
    assert rep.iterations <= 64 and not rep.converged
    iters, values, gaps, _ = rep.value_history.T
    assert np.array_equal(iters, np.arange(rep.iterations + 1))
    assert values[-1] == values[-2] and gaps[-1] == gaps[-2]
    assert 0.0 < gaps[-1] <= 1e-12 and abs(gaps[-1] - rep.gap) <= 1e-12
    for other in reps[1:]:
        assert other.iterations == rep.iterations and not other.converged
        assert other.value == rep.value and other.gap == rep.gap
        assert np.array_equal(other.value_history, rep.value_history)
    # the same bracket as lifting every iterate on matrices until the budget
    _, _, value, gap = _clip_ascent_oracle(
        _objective_operators(e, use_pt=True), SolverOptions(gap_tol=0.0, max_iters=30)
    )
    assert abs(rep.value - value) <= 1e-12 and abs(rep.gap - gap) <= 1e-12
    closed = qg_level_two_state(base, 2)
    assert rep.value - 1e-9 <= closed <= rep.value + rep.gap + 1e-9
    assert dual_bound(e, rep.dual_h).feasible


def test_two_state_solve_spectral_calls_do_not_grow_with_iterations(monkeypatch):
    # D = G0 - G1 has small eigenvalues here, so the tighter gap costs 16 more
    # iterations (13 -> 29); on most instances every eigenvalue clips early
    e = coarse_grain(random_two_state_ensemble(np.random.default_rng(23)), 3)
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    counts, iterations = [], []
    for gap_tol in (1e-4, 1e-10):
        calls.update(eigh=0, eigvalsh=0)
        rep = solve_optimal_value(e, use_pt=True, opts=SolverOptions(gap_tol=gap_tol))
        assert rep.method == "projected-ascent" and rep.converged
        counts.append(dict(calls))
        iterations.append(rep.iterations)
    assert iterations[1] >= iterations[0] + 10
    assert counts[0] == counts[1]
    assert counts[0]["eigh"] + counts[0]["eigvalsh"] < iterations[0]


@settings(max_examples=40, deadline=None)
@given(
    dims=st.sampled_from([BipartiteDims(2, 2), BipartiteDims(2, 3)]),
    complex_entries=st.booleans(),
    copies=st.integers(1, 2),
    eta0=st.floats(0.05, 0.95),
    ranks=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_state_bracket_holds_the_closed_form(
    dims, complex_entries, copies, eta0, ranks, seed
):
    # value <= closed form <= value + gap, on a valid POVM and a checked dual
    rng = np.random.default_rng(seed)
    rho0, rho1 = (
        random_state(dims, rng, complex_entries, rank=min(r, dims.total)) for r in ranks
    )
    e = StateEnsemble(dims, ((eta0, rho0), (1.0 - eta0, rho1)))
    ce = coarse_grain(e, copies)
    rep = solve_optimal_value(ce, use_pt=True)
    closed = qg_level_two_state(e, copies)
    assert rep.value - 1e-9 <= closed <= rep.value + rep.gap + 1e-9
    assert all(ok for _, _, ok in validate_povm(rep.povm))
    out = dual_bound(ce, rep.dual_h)
    assert out.feasible
    assert abs(out.bound - (rep.value + rep.gap)) <= 1e-9


def test_solver_options_reject_bad_values():
    for bad in (float("nan"), float("inf"), -1e-9):
        with pytest.raises(ValueError, match="gap_tol"):
            SolverOptions(gap_tol=bad)
    with pytest.raises(ValueError, match="max_iters"):
        SolverOptions(max_iters=-5)
    assert SolverOptions(gap_tol=0.0, max_iters=0).max_iters == 0


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
    # the log-det barrier (n > 2): 20 seeds on 2x3
    opts = SolverOptions(gap_tol=gap_tol, max_iters=1000)
    for seed in range(20):
        for n in (3, 4):
            e = random_ensemble(np.random.default_rng([11, seed]), n, BipartiteDims(2, 3))
            rep = solve_optimal_value(e, use_pt=True, opts=opts)
            assert rep.converged
            assert -1e-12 <= rep.gap <= gap_tol
            assert all(ok for _, _, ok in validate_povm(rep.povm))
            assert dual_bound(e, rep.dual_h, tol=1e-8).feasible


def _pure_ensemble(rng, dims, n, complex_entries):
    etas = rng.dirichlet(np.ones(n))
    return StateEnsemble(
        dims, tuple((eta, random_state(dims, rng, complex_entries, rank=1)) for eta in etas)
    )


def _assert_checked_bracket(e, rep):
    assert np.isfinite([rep.value, rep.gap]).all()
    assert all(ok for _, _, ok in validate_povm(rep.povm))
    out = dual_bound(e, rep.dual_h)
    assert out.feasible
    assert abs(out.bound - (rep.value + rep.gap)) <= 1e-9


def test_barrier_bracket_holds_commuting_values():
    # diagonal stacks commute, so the fast path gives the exact value; the
    # barrier, run on the same stack, must bracket it
    rng = np.random.default_rng(31)
    opts = SolverOptions(gap_tol=1e-7)
    for dims in (D22, BipartiteDims(2, 3)):
        for n in (3, 4):
            for _ in range(3):
                etas = rng.dirichlet(np.ones(n))
                e = StateEnsemble(
                    dims,
                    tuple(
                        (eta, HermitianOperator(dims, np.diag(rng.dirichlet(np.ones(dims.total)))))
                        for eta in etas
                    ),
                )
                g = _objective_operators(e, use_pt=True)
                _, (exact, *_), _, _, method = _solve_stack(g, opts)
                assert method == "commuting-eigenbasis"
                _, (value, *_), _, history, method = _barrier(g, opts)
                assert method == "log-det-barrier"
                gap = history[-1][2]
                assert 0.0 <= gap <= opts.gap_tol
                assert value <= exact <= value + gap + 1e-12


def test_barrier_on_rank_deficient_stacks():
    # pure states and a repeated state leave the optimal POVM elements rank
    # deficient, so H - G_i grows singular along the central path
    rng = np.random.default_rng(37)
    cases = [
        _pure_ensemble(rng, dims, n, complex_entries)
        for dims in (D22, BipartiteDims(2, 3))
        for n in (3, 4)
        for complex_entries in (False, True)
    ]
    d23 = BipartiteDims(2, 3)
    rho, sigma = random_state(d23, rng), random_state(d23, rng, rank=1)
    cases.append(StateEnsemble(d23, ((0.3, rho), (0.3, rho), (0.4, sigma))))
    cases.append(StateEnsemble(d23, ((0.3, sigma), (0.3, sigma), (0.4, rho))))
    for e in cases:
        rep = solve_optimal_value(e, use_pt=True, opts=SolverOptions(gap_tol=1e-7))
        assert rep.method == "log-det-barrier"
        assert rep.converged and 0.0 <= rep.gap <= 1e-7
        _assert_checked_bracket(e, rep)


def test_repair_povm_refuses_a_singular_sum():
    m = np.stack([np.diag([1.0, 0.0]), np.zeros((2, 2)), np.zeros((2, 2))])
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _repair_povm(m)
    m[0, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _repair_povm(m)


def test_barrier_stops_unconverged_when_the_gap_stops_falling():
    # at gap_tol=0 the gap falls by _T_FACTOR per centring down to about
    # 1e-11, then rounding stops it: the run stops there, with the same
    # report at every budget beyond it
    e = random_ensemble(np.random.default_rng([11, 0]), 3, BipartiteDims(2, 3))
    reps = [
        solve_optimal_value(e, use_pt=True, opts=SolverOptions(gap_tol=0.0, max_iters=budget))
        for budget in (200, SolverOptions().max_iters)
    ]
    rep = reps[0]
    assert not rep.converged and rep.iterations < 100
    assert 0.0 < rep.gap <= 1e-9
    gaps = rep.value_history[:, 2]
    assert np.all(np.diff(gaps) < 0)
    other = reps[1]
    assert (other.value, other.gap, other.iterations) == (rep.value, rep.gap, rep.iterations)
    _assert_checked_bracket(e, rep)
    # no Newton step at all: the starting point's bracket
    start = solve_optimal_value(e, use_pt=True, opts=SolverOptions(max_iters=0))
    assert start.iterations == 0 and not start.converged
    assert start.value_history.shape == (1, 4)
    _assert_checked_bracket(e, start)


def test_barrier_stops_unconverged_at_the_step_floor(monkeypatch):
    # with the floor at 1 every backtrack ends the line search: the run
    # stops at the first one and reports the last certified bracket
    monkeypatch.setattr(discrimination, "_MIN_STEP", 1.0)
    e = random_ensemble(np.random.default_rng([11, 1]), 4, BipartiteDims(2, 3))
    rep = solve_optimal_value(e, use_pt=True, opts=SolverOptions(gap_tol=1e-7))
    assert not rep.converged and rep.gap > 1e-7
    assert rep.iterations < 20
    _assert_checked_bracket(e, rep)


@settings(max_examples=30, deadline=None)
@given(
    dims=st.sampled_from([BipartiteDims(2, 2), BipartiteDims(2, 3)]),
    n=st.integers(3, 4),
    complex_entries=st.booleans(),
    rank=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_barrier_bracket_bounds_every_povm(dims, n, complex_entries, rank, seed):
    # value + gap bounds the success of any measurement, the trivial guess
    # max_i eta_i among them, and the bracket is checked on its matrices
    rng = np.random.default_rng(seed)
    etas = rng.dirichlet(np.ones(n))
    e = StateEnsemble(
        dims,
        tuple(
            (eta, random_state(dims, rng, complex_entries, rank=min(rank, dims.total)))
            for eta in etas
        ),
    )
    rep = solve_optimal_value(e, use_pt=True, opts=SolverOptions(gap_tol=1e-7))
    upper = rep.value + rep.gap
    assert rep.converged
    for _ in range(3):
        assert success_probability(e, random_povm(rng, dims, n), use_pt=True) <= upper + 1e-12
    assert e.probabilities.max() <= upper + 1e-12
    _assert_checked_bracket(e, rep)


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


def test_certify_judges_a_complex_povm_on_a_real_ensemble():
    # the residuals are those of M itself, not of Re(M)
    e = example1(bell_state())
    c, s = np.cos(0.3), np.sin(0.3)
    u = np.eye(4, dtype=complex)
    u[:2, :2] = [[c, 1j * s], [1j * s, c]]
    m0 = u @ np.diag([1.0, 0.0, 1.0, 0.0]) @ u.conj().T
    povm = Povm(D22, (HermitianOperator(D22, m0), HermitianOperator(D22, np.eye(4) - m0)))
    g = _objective_operators(e, use_pt=True)
    assert g.dtype == float

    def residual_minima(m):
        z = g[0] @ m[0] + g[1] @ m[1]
        z = (z + z.conj().T) / 2
        return np.linalg.eigvalsh(z[None] - g)[:, 0]

    m = np.stack([m0, np.eye(4) - m0])
    want = residual_minima(m)
    assert np.abs(want - residual_minima(m.real)).max() > 1e-3
    cert = certify_optimal(e, povm, use_pt=True)
    assert np.abs(cert.residual_min_eigs - want).max() <= 1e-12
    assert not cert.certified


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


def test_dual_bound_judges_a_complex_h_on_a_real_ensemble():
    # Re(H) = 0.6 I would pass with bound 2.4; H itself has
    # lambda_min(H - G_i) = -1.593 and -1.467
    e = example1(bell_state())
    k = np.zeros((4, 4), dtype=complex)
    k[0, 1], k[1, 0] = 2j, -2j
    h = HermitianOperator(D22, 0.6 * np.eye(4) + k)
    mins = np.linalg.eigvalsh(h.entries - _objective_operators(e, use_pt=True))[:, 0]
    assert np.allclose(mins, [-1.593, -1.467], atol=1e-3)
    res = dual_bound(e, h)
    assert not res.feasible
    assert res.bound is None
    assert res.violations == ((0, float(mins[0])), (1, float(mins[1])))


def test_dual_bound_from_solver_closes_gap():
    res = example2(d=3, m=1, n=2)
    rep = solve_optimal_value(res.ensemble, use_pt=True)
    out = dual_bound(res.ensemble, rep.dual_h, tol=1e-7)
    assert out.feasible
    assert abs(out.bound - 2.0 / 3.0) < 1e-6


@settings(max_examples=60, deadline=None)
@given(
    dims=st.sampled_from([BipartiteDims(2, 2), BipartiteDims(2, 3)]),
    n=st.integers(2, 3),
    complex_entries=st.booleans(),
    tol=st.sampled_from([1e-10, 1e-8, 1e-6]),
    shift=st.sampled_from(["-1e-3", "-2tol", "-tol/2", "0", "1e-3"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dual_bound_cholesky_verdict_matches_the_spectrum(
    dims, n, complex_entries, tol, shift, seed
):
    # H = Z + s I with min_i lambda_min(Z - G_i) = 0, so H sits s from the
    # feasibility boundary; the verdict is eigvalsh's min >= -tol except
    # within delta of it, an infeasible H names eigvalsh's violations, and a
    # feasible one is certified without eigvalsh
    rng = np.random.default_rng(seed)
    etas = rng.dirichlet(np.ones(n))
    e = StateEnsemble(
        dims, tuple((eta, random_state(dims, rng, complex_entries)) for eta in etas)
    )
    g = _objective_operators(e, use_pt=True)
    y = random_hermitian(dims, rng, complex_entries).entries
    z = y - np.linalg.eigvalsh(y[None] - g)[:, 0].min() * np.eye(dims.total)
    s = {"-1e-3": -1e-3, "-2tol": -2 * tol, "-tol/2": -tol / 2, "0": 0.0, "1e-3": 1e-3}[shift]
    h = HermitianOperator(dims, z + s * np.eye(dims.total))
    x = h.entries[None] - g
    mins = np.linalg.eigvalsh(x)[:, 0]
    delta = 2 * dims.total * np.finfo(float).eps * (1 + np.linalg.norm(x, axis=(1, 2)).max())
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        eigvalsh = np.linalg.eigvalsh
        mp.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
        res = dual_bound(e, h, tol=tol)
    if abs(mins.min() + tol) > delta:
        assert res.feasible == (mins.min() >= -tol)
    if res.feasible:
        assert not calls
        assert res.bound == h.trace() and res.violations == ()
    else:
        assert res.bound is None
        assert res.violations == tuple((int(i), float(mins[i])) for i in np.flatnonzero(mins < -tol))
