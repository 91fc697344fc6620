from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from pthide import (
    BipartiteDims,
    HermitianOperator,
    Povm,
    abs_op,
    certify_optimal,
    identity,
    is_mutually_orthogonal,
    partial_transpose,
    qg_two_state,
    trace_norm,
    validate,
)
from pthide.constructions import (
    WernerParams,
    bell_state,
    binary_digits,
    example1,
    example2,
    flip_operator,
    random_npt_state,
    werner_d_threshold,
    werner_state,
)


def test_flip_operator_swaps_basis_vectors():
    f = flip_operator(2)
    ket01 = np.zeros(4)
    ket01[0 * 2 + 1] = 1.0
    ket10 = np.zeros(4)
    ket10[1 * 2 + 0] = 1.0
    assert np.allclose(f.entries @ ket01, ket10)
    assert np.allclose(f.entries @ f.entries, np.eye(4))


def test_flip_operator_trace_and_pt_spectrum():
    for d in (2, 3, 6):
        f = flip_operator(d)
        assert abs(f.trace() - d) < 1e-12
        # F^PT = d * (rank-1 projector): spectrum {d, 0, ..., 0}
        eigs = np.sort(np.linalg.eigvalsh(partial_transpose(f).entries))[::-1]
        assert abs(eigs[0] - d) < 1e-10
        assert np.abs(eigs[1:]).max() < 1e-10


@pytest.mark.parametrize("d", [2, 3, 6])
def test_flip_pt_reconstruction(d):
    # (identity + F)^PT == (1+d) P0 + P1 ; (identity - F)^PT == (1-d) P0 + P1
    f = flip_operator(d)
    ident = identity(f.dims)
    # P0 = |Phi+><Phi+| with Phi+ = sum_i |ii> / sqrt(d), P1 its complement
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    p0 = HermitianOperator(f.dims, np.outer(phi, phi))
    p1 = identity(f.dims) - p0
    plus_pt = partial_transpose(ident + f)
    minus_pt = partial_transpose(ident - f)
    assert np.abs(plus_pt.entries - ((1 + d) * p0.entries + p1.entries)).max() < 1e-12
    assert np.abs(minus_pt.entries - ((1 - d) * p0.entries + p1.entries)).max() < 1e-12


def test_werner_states_are_states_and_orthogonal():
    for d in (2, 3):
        plus = werner_state(d, +1)
        minus = werner_state(d, -1)
        assert abs(plus.trace() - 1.0) < 1e-12
        assert abs(minus.trace() - 1.0) < 1e-12
        assert np.abs(plus.entries @ minus.entries).max() < 1e-12
        # plus is PPT, minus is NPT
        assert np.linalg.eigvalsh(partial_transpose(plus).entries)[0] > -1e-12
        assert np.linalg.eigvalsh(partial_transpose(minus).entries)[0] < -1e-6


def test_example1_bell_values():
    e = example1(bell_state())
    assert abs(e.items[0][0] - 0.75) < 1e-12
    assert abs(e.items[1][0] - 0.25) < 1e-12
    assert validate(e).ok
    assert is_mutually_orthogonal(e)
    assert abs(qg_two_state(e) - 0.75) < 1e-12


def test_example1_algebraic_inversions():
    # eta0 rho0 - eta1 rho1 == sigma^PT / T  and  eta0 rho0 + eta1 rho1 == |sigma^PT| / T
    sigma = random_npt_state(BipartiteDims(2, 2), seed=41)
    e = example1(sigma)
    pt = partial_transpose(sigma)
    t = trace_norm(pt)
    (eta0, rho0), (eta1, rho1) = e.items
    diff = eta0 * rho0 - eta1 * rho1
    tot = eta0 * rho0 + eta1 * rho1
    assert np.linalg.norm(diff.entries - pt.entries / t) <= 1e-10
    assert np.linalg.norm(tot.entries - abs_op(pt).entries / t) <= 1e-10
    overlap = float(np.einsum("ij,ji->", rho0.entries, rho1.entries).real)
    assert overlap <= 1e-10


def test_example1_isotropic_like_input():
    # 3x3 mix of the maximally correlated projector with white noise; NPT at p = 1/2
    d = 3
    dims = BipartiteDims(d, d)
    vec = np.zeros(d * d)
    for i in range(d):
        vec[i * d + i] = 1.0 / np.sqrt(d)
    sigma = HermitianOperator(
        dims, 0.5 * np.outer(vec, vec) + 0.5 * np.eye(d * d) / (d * d)
    )
    e = example1(sigma)
    assert validate(e).ok
    assert is_mutually_orthogonal(e)


def test_example1_rejects_ppt_input():
    dims = BipartiteDims(2, 2)
    maximally_mixed = HermitianOperator(dims, np.eye(4) / 4)
    with pytest.raises(ValueError, match="NPT"):
        example1(maximally_mixed)
    with pytest.raises(ValueError, match="unit trace"):
        example1(identity(dims))


def test_werner_params_invariant():
    WernerParams(d=3, m=2, n=3)
    with pytest.raises(ValueError):
        WernerParams(d=1, m=1, n=2)
    with pytest.raises(ValueError):
        WernerParams(d=3, m=2, n=2)  # n must exceed 2^(m-1)
    with pytest.raises(ValueError):
        WernerParams(d=3, m=1, n=3)  # n must be <= 2^m


def test_binary_digits_round_trip():
    for m in (1, 2, 4):
        for i in range(2**m):
            digits = binary_digits(i, m)
            assert sum(b * 2**k for k, b in enumerate(digits)) == i


def test_example2_small_params():
    res = example2(d=3, m=1, n=2)
    assert res.normalization == 18
    assert res.eta0 == Fraction(12, 18)
    assert res.explicit
    # states are the two flip-symmetric extremes
    plus = werner_state(3, +1)
    minus = werner_state(3, -1)
    assert np.abs(res.ensemble.items[0][1].entries - plus.entries).max() < 1e-12
    assert np.abs(res.ensemble.items[1][1].entries - minus.entries).max() < 1e-12
    assert validate(res.ensemble).ok


def test_example2_reference_values_236():
    res = example2(d=6, m=2, n=3, explicit=False)
    assert res.normalization == 4284
    assert res.eta0 == Fraction(1764, 4284)
    assert res.ensemble is None and not res.explicit
    assert res.rho0_separable


def test_example2_formulas_only_for_large_params():
    for m, n, d in ((3, 6, 9), (4, 9, 12)):
        res = example2(d=d, m=m, n=n)
        assert res.ensemble is None and not res.explicit
    with pytest.raises(ValueError, match="cap"):
        example2(d=9, m=3, n=6, explicit=True)


def test_example2_certificates_and_residual_spectra():
    # identity-on-outcome-0 is optimal; residual eigenvalues must match the
    # analytic per-projector differences (s^(0) - s^(i)) / N with multiplicities
    for d, m, n in ((3, 1, 2), (3, 2, 3)):
        res = example2(d=d, m=m, n=n)
        ens = res.ensemble
        dims = ens.dims
        zero_block = HermitianOperator(dims, np.zeros((dims.total, dims.total)))
        povm = Povm(dims, (identity(dims),) + (zero_block,) * (n - 1))
        cert = certify_optimal(ens, povm, use_pt=True, tol=1e-9)
        assert cert.certified

        s_val = {0: {0: 1 + d, 1: 1}, 1: {0: 1 - d, 1: 1}}
        rank = {0: 1, 1: d * d - 1}
        g = [eta * partial_transpose(rho).entries for eta, rho in ens.items]
        z = sum(gi for gi in g[:1])  # identity measurement on outcome 0: Z = G_0
        for i in range(n):
            analytic = []
            for labels in product(range(2), repeat=m):
                mult = 1
                val0 = vali = Fraction(1)
                for a_k, b0, bi in zip(labels, binary_digits(0, m), binary_digits(i, m)):
                    mult *= rank[a_k]
                    val0 *= s_val[b0][a_k]
                    vali *= s_val[bi][a_k]
                analytic.extend([float((val0 - vali) / res.normalization)] * mult)
            got = np.sort(np.linalg.eigvalsh(z - g[i]))
            assert np.abs(got - np.sort(analytic)).max() < 1e-10


def test_example2_bound_chain():
    for d, m, n in ((3, 1, 2), (3, 2, 3), (6, 2, 3), (9, 3, 6)):
        res = example2(d=d, m=m, n=n, explicit=False)
        assert res.qg < res.qg_strict_upper


def test_werner_d_threshold():
    assert abs(werner_d_threshold(1) - 3.0) < 1e-12
    assert abs(werner_d_threshold(2) - (3.0 + 2.0 * np.sqrt(2.0))) < 1e-12
    res = example2(d=6, m=2, n=3, explicit=False)
    assert res.meets_threshold
    # threshold certifies the hiding condition: value strictly below 2/n
    assert res.qg < 2.0 / 3.0


def test_random_npt_state_is_npt():
    rho = random_npt_state(BipartiteDims(2, 2), seed=7)
    lmin = np.linalg.eigvalsh(partial_transpose(rho).entries)[0]
    assert lmin < -1e-9
    assert abs(rho.trace() - 1.0) < 1e-10
