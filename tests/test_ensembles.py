from itertools import product

import numpy as np
import pytest

from pthide import (
    BipartiteDims,
    HermitianOperator,
    StateEnsemble,
    coarse_grain,
    fold,
    is_mutually_orthogonal,
    partial_transpose,
    tensor_power,
    validate,
)
from pthide.constructions import bell_state, example1, example2

from conftest import random_ensemble, random_two_state_ensemble

D22 = BipartiteDims(2, 2)


def _pure(vec):
    v = np.asarray(vec, dtype=float)
    return HermitianOperator(D22, np.outer(v, v))


def orthogonal_pair_ensemble(eta0=0.5):
    return StateEnsemble(
        D22, ((eta0, _pure([1, 0, 0, 0])), (1 - eta0, _pure([0, 1, 0, 0])))
    )


def test_validate_accepts_orthogonal_pair():
    assert validate(orthogonal_pair_ensemble()).ok


def test_validate_flags_bad_probability_sum():
    e = StateEnsemble(D22, ((0.6, _pure([1, 0, 0, 0])), (0.6, _pure([0, 1, 0, 0]))))
    report = validate(e)
    assert not report.ok
    assert any(c.name == "probability_sum" for c in report.failures())


def test_validate_flags_bad_trace_and_non_psd():
    bad_trace = HermitianOperator(D22, 2.0 * np.eye(4) / 4.0)
    not_psd = HermitianOperator(D22, np.diag([1.5, -0.5, 0.0, 0.0]))
    e = StateEnsemble(D22, ((0.5, bad_trace), (0.5, not_psd)))
    names = {c.name for c in validate(e).failures()}
    assert "state_0_trace" in names
    assert "state_1_psd" in names


def test_validate_example1_ensemble():
    assert validate(example1(bell_state())).ok


def test_fold_single_copy_returns_ensemble():
    e = orthogonal_pair_ensemble(0.7)
    assert fold(e, 1) is e
    assert coarse_grain(e, 1) is e


def test_fold_two_copies_product_distribution():
    e = orthogonal_pair_ensemble(0.7)
    f = fold(e, 2)
    assert f.n == 4
    # lexicographic order in the index vector, first copy most significant
    assert np.allclose(f.probabilities, [0.49, 0.21, 0.21, 0.09])
    assert f.dims == BipartiteDims(4, 4)


def test_fold_preserves_orthogonality():
    e = orthogonal_pair_ensemble()
    f = fold(e, 2)
    assert f.items[0][1].entries.shape == (16, 16)
    assert is_mutually_orthogonal(f)


def test_coarse_grain_two_copies_parity_weights():
    e = orthogonal_pair_ensemble(0.7)
    c = coarse_grain(e, 2)
    assert c.n == 2
    assert abs(c.items[0][0] - (0.7**2 + 0.3**2)) < 1e-12
    assert abs(c.items[1][0] - 2 * 0.7 * 0.3) < 1e-12
    assert abs(sum(c.probabilities) - 1.0) < 1e-12
    assert validate(c).ok


def test_coarse_grain_weighted_pt_difference_factorizes():
    # eta0^(L) rho0^(L)PT - eta1^(L) rho1^(L)PT == (eta0 rho0^PT - eta1 rho1^PT)^(xL)
    rng = np.random.default_rng(23)
    e = random_two_state_ensemble(rng)
    (eta0, rho0), (eta1, rho1) = e.items
    single = eta0 * partial_transpose(rho0) - eta1 * partial_transpose(rho1)
    for ell in (2, 3):
        c = coarse_grain(e, ell)
        (ceta0, crho0), (ceta1, crho1) = c.items
        lhs = ceta0 * partial_transpose(crho0) - ceta1 * partial_transpose(crho1)
        rhs = tensor_power(single, ell)
        assert np.linalg.norm(lhs.entries - rhs.entries) <= 1e-9


def test_coarse_grain_mixing_identity():
    # eta_i^(L) rho_i^(L) == ((sum)^(xL) + (-1)^i (difference)^(xL)) / 2
    rng = np.random.default_rng(29)
    e = random_two_state_ensemble(rng)
    (eta0, rho0), (eta1, rho1) = e.items
    total = eta0 * rho0 + eta1 * rho1
    diff = eta0 * rho0 - eta1 * rho1
    for ell in (2, 3):
        c = coarse_grain(e, ell)
        for i, (ceta, crho) in enumerate(c.items):
            expected = 0.5 * (
                tensor_power(total, ell).entries
                + (-1) ** i * tensor_power(diff, ell).entries
            )
            assert np.linalg.norm(ceta * crho.entries - expected) <= 1e-9


def test_coarse_grain_mixed_real_complex_states():
    # bins must promote when real and complex products land in the same bin
    rng = np.random.default_rng(47)
    real_state = HermitianOperator(D22, np.diag([0.4, 0.3, 0.2, 0.1]))
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = z @ z.conj().T
    complex_state = HermitianOperator(D22, rho / np.trace(rho).real)
    e = StateEnsemble(D22, ((0.5, real_state), (0.5, complex_state)))
    c = coarse_grain(e, 2)
    assert validate(c).ok


def test_coarse_grain_refuses_empty_bin():
    e = StateEnsemble(D22, ((1.0, _pure([1, 0, 0, 0])), (0.0, _pure([0, 1, 0, 0]))))
    with pytest.raises(ValueError, match="zero probability"):
        coarse_grain(e, 2)


def test_fold_dimension_cap():
    e = orthogonal_pair_ensemble()
    with pytest.raises(ValueError, match="cap"):
        fold(e, 7)  # 4^7 = 16384 > 4096
    with pytest.raises(ValueError, match="cap"):
        coarse_grain(e, 7)


def test_orthogonality_cases():
    assert is_mutually_orthogonal(orthogonal_pair_ensemble())
    same = StateEnsemble(D22, ((0.5, _pure([1, 0, 0, 0])), (0.5, _pure([1, 0, 0, 0]))))
    assert not is_mutually_orthogonal(same)
    # flip-symmetric extremes live on orthogonal supports
    werner = example2(d=3, m=1, n=2).ensemble
    assert is_mutually_orthogonal(werner)


def test_coarse_grain_preserves_orthogonality():
    e = example1(bell_state())
    for ell in (2, 3):
        assert is_mutually_orthogonal(coarse_grain(e, ell))


def _kron_regrouped(a, b):
    """Oracle for tensor: np.kron, regrouped from (a_A, a_B, b_A, b_B) order
    to (a_A, b_A, a_B, b_B)."""
    dims = BipartiteDims(a.dims.dA * b.dims.dA, a.dims.dB * b.dims.dB)
    sh = (a.dims.dA, a.dims.dB, b.dims.dA, b.dims.dB)
    k = np.kron(a.entries, b.entries).reshape(sh + sh).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    return HermitianOperator(dims, k.reshape(dims.total, dims.total))


def _index_vector_products(ensemble, copies):
    """Oracle: (index vector, eta, rho) with every product built from scratch."""
    out = []
    for c in product(range(ensemble.n), repeat=copies):
        eta, rho = ensemble.items[c[0]]
        for cl in c[1:]:
            eta_l, rho_l = ensemble.items[cl]
            eta *= eta_l
            rho = _kron_regrouped(rho, rho_l)
        out.append((c, eta, rho))
    return out


def _coarse_grain_oracle(ensemble, copies):
    """Oracle: accumulate every index vector's weighted product into its bin."""
    n = ensemble.n
    bin_eta = [0.0] * n
    bin_sum = [0.0] * n
    for c, eta, rho in _index_vector_products(ensemble, copies):
        i = sum(c) % n
        bin_eta[i] += eta
        bin_sum[i] = bin_sum[i] + eta * rho.entries
    return [(bin_eta[i], bin_sum[i] / bin_eta[i]) for i in range(n)]


def _random_real_ensemble(rng, n):
    items = []
    for eta in rng.dirichlet(np.ones(n)):
        z = rng.standard_normal((4, 4))
        rho = z @ z.T
        items.append((eta, HermitianOperator(D22, (rho + rho.T) / (2 * np.trace(rho)))))
    return StateEnsemble(D22, tuple(items))


def test_fold_equals_index_vector_loop_exactly():
    rng = np.random.default_rng(61)
    for e, ell in ((random_ensemble(rng, 3), 3), (_random_real_ensemble(rng, 2), 4)):
        got = fold(e, ell)
        expected = _index_vector_products(e, ell)
        assert got.n == len(expected)
        for (eta, rho), (_, eta_ref, rho_ref) in zip(got.items, expected):
            assert eta == eta_ref
            assert rho.entries.dtype == rho_ref.entries.dtype
            assert np.array_equal(rho.entries, rho_ref.entries)


def test_coarse_grain_matches_index_vector_loop():
    rng = np.random.default_rng(67)
    cases = (
        (random_ensemble(rng, 3), 3, np.complex128),
        (_random_real_ensemble(rng, 4), 2, np.float64),
    )
    for e, ell, dtype in cases:
        got = coarse_grain(e, ell)
        for (eta, rho), (eta_ref, rho_ref) in zip(got.items, _coarse_grain_oracle(e, ell)):
            assert abs(eta - eta_ref) <= 1e-12
            assert rho.entries.dtype == dtype
            assert np.abs(rho.entries - rho_ref).max() <= 1e-12
