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
from pthide.constructions import bell_state, example1, example2
from pthide.discrimination import _MAX_STEP_NORM, _dual_lift, _objective_operators
from pthide.discrimination import _projected_ascent
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
