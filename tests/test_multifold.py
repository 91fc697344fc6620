from fractions import Fraction

import numpy as np
import pytest

from pthide import (
    BipartiteDims,
    HermitianOperator,
    SolverOptions,
    StateEnsemble,
    decay_curve,
    decay_curve_from_value,
    hiding_condition,
    qg_level_two_state,
    qg_level_upper_bound,
    qg_two_state,
    solve_optimal_value,
    uniform_encoding_bound,
)
from pthide.constructions import bell_state, example1, example2

from conftest import random_ensemble, random_state, random_two_state_ensemble

# exact rationals for the (m, n, d) = (2, 3, 6) family: eta0 = 1764/4284 = 7/17
ETA0_236 = Fraction(7, 17)
BOUND_236_L5 = Fraction(1, 3) + Fraction(2, 3) * (3 * ETA0_236 - 1) ** 5
UNIFORM_236_L10 = Fraction(1, 3) + Fraction(8, 3) * (3 * ETA0_236 - 1) ** 10


def test_level_value_reduces_at_single_copy():
    rng = np.random.default_rng(31)
    e = random_two_state_ensemble(rng)
    assert abs(qg_level_two_state(e, 1) - qg_two_state(e)) < 1e-12


def test_level_value_bell_family():
    e = example1(bell_state())
    for ell in range(1, 8):
        assert abs(qg_level_two_state(e, ell) - (0.5 + 0.5 * 2.0**-ell)) < 1e-12


def test_upper_bound_reduces_at_single_copy():
    rng = np.random.default_rng(33)
    e = random_two_state_ensemble(rng)
    qg = qg_two_state(e)
    assert abs(qg_level_upper_bound(qg, 2, 1) - qg) < 1e-12


def test_upper_bound_frozen_point_236():
    value = qg_level_upper_bound(float(ETA0_236), 3, 5)
    assert abs(value - float(BOUND_236_L5)) < 1e-12
    assert abs(float(BOUND_236_L5) - 0.33381413292559275) < 1e-15


def test_upper_bound_at_chance_level():
    for ell in (1, 3, 10):
        assert abs(qg_level_upper_bound(1.0 / 3.0, 3, ell) - 1.0 / 3.0) < 1e-12


def test_upper_bound_rejects_value_below_chance():
    with pytest.raises(ValueError):
        qg_level_upper_bound(0.2, 3, 2)  # below 1/n
    # above 1 is unusual but legitimate (strongly NPT pairs); not rejected
    assert qg_level_upper_bound(1.1, 2, 1) == pytest.approx(1.1)


def test_upper_bound_dominates_closed_form_two_states():
    rng = np.random.default_rng(35)
    for _ in range(20):
        e = random_two_state_ensemble(rng)
        qg = qg_two_state(e)
        for ell in (1, 2, 3, 5):
            assert qg_level_two_state(e, ell) <= qg_level_upper_bound(qg, 2, ell) + 1e-12


def test_uniform_encoding_bound_values():
    # n = 2 coefficient (n-1)(n^2-n+2)/(2n) collapses to 1
    for qg, ell in ((0.6, 1), (0.75, 4)):
        assert abs(uniform_encoding_bound(qg, 2, ell) - (0.5 + (2 * qg - 1) ** ell)) < 1e-12
    assert abs(uniform_encoding_bound(float(ETA0_236), 3, 10) - float(UNIFORM_236_L10)) < 1e-15
    for ell in (1, 5):
        assert abs(uniform_encoding_bound(0.25, 4, ell) - 0.25) < 1e-12
        assert uniform_encoding_bound(0.3, 4, ell) >= 0.25


def test_hiding_condition_example1():
    res = hiding_condition(example1(bell_state()))
    assert res.orthogonal
    assert abs(res.qg - 0.75) < 1e-12
    assert res.passes is True  # qg = 3/4 < 2/2


def test_hiding_condition_example2_236():
    ens = example2(d=6, m=2, n=3).ensemble
    res = hiding_condition(ens)
    assert res.orthogonal
    assert abs(res.qg - 7.0 / 17.0) < 1e-9
    assert res.passes is True  # 0.41176... < 2/3


def test_hiding_condition_fails_for_identical_states():
    dims = BipartiteDims(2, 2)
    rho = random_state(dims, np.random.default_rng(37))
    e = StateEnsemble(dims, ((0.5, rho), (0.5, rho)))
    res = hiding_condition(e)
    assert not res.orthogonal
    assert res.passes is False


def test_decay_curve_matches_closed_form_for_two_states():
    e = example1(bell_state())
    curve = decay_curve(e, 6, which="coarse")
    for level, lower, upper in curve.points():
        assert abs(lower - 0.5) < 1e-15
        # n = 2: the generic bound coincides with the exact closed form
        assert abs(upper - qg_level_two_state(e, int(level))) < 1e-12


def test_decay_curve_anchors_at_certified_upper_end():
    e = random_ensemble(np.random.default_rng(39), 3)
    opts = SolverOptions(gap_tol=1e-7)
    rep = solve_optimal_value(e, use_pt=True, opts=opts)
    assert rep.converged and rep.gap > 0
    for which in ("coarse", "uniform"):
        curve = decay_curve(e, 5, which=which, opts=opts)
        expected = decay_curve_from_value(rep.value + rep.gap, 3, 5, which=which)
        assert np.array_equal(curve.upper, expected.upper)


def test_decay_curve_single_point():
    curve = decay_curve_from_value(0.6, 2, 1)
    assert len(curve.points()) == 1
    assert abs(curve.upper[0] - 0.6) < 1e-12


def test_decay_curve_requires_known_which():
    with pytest.raises(ValueError):
        decay_curve_from_value(0.6, 2, 3, which="typo")


def test_decay_curve_log_linear_slope():
    for m, n, d in ((2, 3, 6), (3, 6, 9), (4, 9, 12)):
        qg = example2(d=d, m=m, n=n, explicit=False).qg
        curve = decay_curve_from_value(qg, n, 12)
        gaps = curve.upper - 1.0 / n
        assert np.all(np.diff(curve.upper) <= 1e-15)
        coeffs, residuals, *_ = np.polyfit(curve.levels, np.log(gaps), 1, full=True)
        assert abs(coeffs[0] - np.log(n * qg - 1.0)) < 1e-9
        assert residuals[0] < 1e-18


def test_qg_level_two_state_bell_values():
    e = example1(bell_state())
    assert abs(qg_level_two_state(e, 3) - 0.5625) < 1e-12
    assert abs(qg_level_two_state(e, 1) - 0.75) < 1e-12
