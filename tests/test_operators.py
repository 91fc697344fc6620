import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pthide import (
    BipartiteDims,
    HermitianOperator,
    abs_op,
    identity,
    is_psd,
    negative_part,
    partial_transpose,
    positive_part,
    tensor,
    tensor_power,
    trace_norm,
)
from pthide.constructions import bell_state
from pthide.operators import HERMITICITY_ATOL, _components, _hermiticity, _pt

from conftest import permuted_block_stack, random_hermitian

D22 = BipartiteDims(2, 2)

# hand-computed partial transpose of the singlet projector in the
# |00>,|01>,|10>,|11> basis: the off-diagonal -|01><10| terms move to the
# anti-diagonal corners, leaving eigenvalues {1/2, 1/2, 1/2, -1/2}.
BELL_PT_MATRIX = 0.5 * np.array(
    [
        [0, 0, 0, -1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [-1, 0, 0, 0],
    ],
    dtype=float,
)


def test_dims_validation():
    with pytest.raises(ValueError):
        BipartiteDims(0, 2)
    assert BipartiteDims(3, 4).total == 12


def test_operator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianOperator(D22, np.arange(16.0).reshape(4, 4))


@pytest.mark.parametrize("side", [4, 300])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)])
@pytest.mark.parametrize("where", [(0, 0), (1, 2), (-1, -2), (-1, 0), (0, -1)])
def test_operator_refuses_non_finite_entries(side, bad, where):
    # one bad entry, on the diagonal or off it, in a diagonal tile or in the
    # lower or upper corner tile
    x = np.eye(side, dtype=complex if np.iscomplexobj(bad) else float)
    x[where] = bad
    with pytest.raises(ValueError, match="non-finite"):
        HermitianOperator(BipartiteDims(1, side), x)


def _hermiticity_oracle(x):
    """The whole-matrix check, in one pass: (max |x|, max |x - x^dagger|)."""
    return np.abs(x).max(), np.abs(x - x.conj().T).max()


@settings(max_examples=60, deadline=None)
@given(
    side=st.sampled_from([1, 127, 128, 129, 257, 300]),
    complex_entries=st.booleans(),
    factor=st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0, 1e13]),
    spot=st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
    seed=st.integers(0, 2**32 - 1),
)
@example(side=300, complex_entries=True, factor=1e13, spot=(0.99, 0.01), seed=0)
@example(side=300, complex_entries=False, factor=1e13, spot=(0.01, 0.99), seed=0)
def test_tiled_hermiticity_check_equals_the_one_shot_oracle(
    side, complex_entries, factor, spot, seed
):
    # a deviation just below or above HERMITICITY_ATOL * scale, anywhere
    # across the tile grid, or one that makes the spot the largest entry:
    # the tiled maxima equal the oracle's bit for bit, and the constructor
    # refuses exactly what the oracle's verdict refuses
    rng = np.random.default_rng(seed)
    x = random_hermitian(BipartiteDims(1, side), rng, complex_entries).entries
    k, l = (int(f * side) for f in spot)
    step = factor * HERMITICITY_ATOL * (1.0 + np.abs(x).max())
    if k != l:
        x[k, l] += step
    elif complex_entries:
        x[k, k] += 0.5j * step
    scale, dev = _hermiticity_oracle(x)
    assert _hermiticity(x) == (scale, dev)
    if dev > HERMITICITY_ATOL * (1.0 + scale):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(BipartiteDims(1, side), x)
    else:
        assert HermitianOperator(BipartiteDims(1, side), x).entries is x


def test_hermiticity_check_makes_no_operator_sized_temporary():
    # a side-1024 complex operator is 16 MiB; checking it walks 128 x 128
    # tiles, where a whole-matrix x - x^dagger needs several 16 MiB arrays
    import tracemalloc

    rng = np.random.default_rng(3)
    x = random_hermitian(BipartiteDims(32, 32), rng).entries
    tracemalloc.start()
    try:
        HermitianOperator(BipartiteDims(32, 32), x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_operator_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="match"):
        HermitianOperator(BipartiteDims(2, 3), np.eye(4))


def test_pt_single_product_term():
    # |0><1| x |1><0|  +  h.c.   ->   |0><1| x |0><1|  +  h.c.
    e01 = np.zeros((2, 2))
    e01[0, 1] = 1.0
    a = np.kron(e01, e01.T)
    expected = np.kron(e01, e01)
    op = HermitianOperator(D22, a + a.T)
    out = partial_transpose(op).entries
    assert np.array_equal(out, expected + expected.T)


def test_pt_product_operator_transposes_second_factor():
    rng = np.random.default_rng(3)
    p = random_hermitian(BipartiteDims(2, 1), rng).entries
    q = random_hermitian(BipartiteDims(1, 2), rng).entries
    a = HermitianOperator(D22, np.kron(p, q))
    assert np.allclose(partial_transpose(a).entries, np.kron(p, q.T))


def test_pt_bell_state_matches_hand_matrix():
    pt = partial_transpose(bell_state())
    assert np.allclose(pt.entries, BELL_PT_MATRIX, atol=1e-14)
    eigs = np.sort(np.linalg.eigvalsh(BELL_PT_MATRIX))
    assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-14)
    assert np.allclose(np.sort(np.linalg.eigvalsh(pt.entries)), eigs, atol=1e-12)


def test_pt_is_involution_and_trace_preserving():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_hermitian(D22, rng)
        assert np.array_equal(partial_transpose(partial_transpose(a)).entries, a.entries)
        assert abs(partial_transpose(a).trace() - a.trace()) <= 1e-12 * (1 + abs(a.trace()))


def test_abs_op_examples():
    rng = np.random.default_rng(7)
    psd = random_hermitian(D22, rng)
    psd = HermitianOperator(D22, psd.entries @ psd.entries.conj().T)
    assert np.allclose(abs_op(psd).entries, psd.entries, atol=1e-10)

    diag = HermitianOperator(BipartiteDims(2, 1), np.diag([3.0, -4.0]))
    out = abs_op(diag)
    assert np.allclose(out.entries, np.diag([3.0, 4.0]))
    assert abs(out.trace() - 7.0) < 1e-12

    assert abs(trace_norm(partial_transpose(bell_state())) - 2.0) < 1e-12


def test_positive_negative_parts():
    diag = HermitianOperator(BipartiteDims(2, 1), np.diag([3.0, -4.0]))
    assert np.allclose(positive_part(diag).entries, np.diag([3.0, 0.0]))
    assert np.allclose(negative_part(diag).entries, np.diag([0.0, 4.0]))

    rng = np.random.default_rng(13)
    for _ in range(25):
        e = random_hermitian(D22, rng)
        pos, neg = positive_part(e), negative_part(e)
        assert np.linalg.norm(pos.entries - neg.entries - e.entries) <= 1e-10
        assert np.linalg.norm(pos.entries + neg.entries - abs_op(e).entries) <= 1e-10
        assert np.linalg.eigvalsh(pos.entries)[0] >= -1e-9 * e.frobenius_norm()
        assert np.linalg.eigvalsh(neg.entries)[0] >= -1e-9 * e.frobenius_norm()
        # the parts commute with e (shared eigenbasis)
        assert np.linalg.norm(pos.entries @ e.entries - e.entries @ pos.entries) <= 1e-9


def test_is_psd_examples():
    ok, lmin = is_psd(identity(D22))
    assert ok and abs(lmin - 1.0) < 1e-12
    ok, lmin = is_psd(partial_transpose(bell_state()))
    assert not ok and abs(lmin + 0.5) < 1e-12
    ok, lmin = is_psd(HermitianOperator(D22, np.zeros((4, 4))))
    assert ok and abs(lmin) < 1e-15
    with pytest.raises(ValueError):
        is_psd(identity(D22), tol=-1.0)


def test_tensor_block_diagonal_with_trivial_factor():
    a = HermitianOperator(BipartiteDims(2, 1), np.diag([1.0, 2.0]))
    b = identity(BipartiteDims(1, 2))
    out = tensor(a, b)
    assert out.dims == BipartiteDims(2, 2)
    assert np.allclose(out.entries, np.diag([1.0, 1.0, 2.0, 2.0]))


def test_tensor_trace_norm_multiplicative():
    rng = np.random.default_rng(17)
    for ell in (2, 3):
        e = random_hermitian(D22, rng)
        lhs = trace_norm(tensor_power(e, ell))
        rhs = trace_norm(e) ** ell
        assert abs(lhs - rhs) <= 1e-8 * rhs


def test_pt_acts_factorwise_on_tensor():
    rng = np.random.default_rng(19)
    a = random_hermitian(D22, rng)
    b = random_hermitian(BipartiteDims(2, 3), rng)
    lhs = partial_transpose(tensor(a, b)).entries
    rhs = tensor(partial_transpose(a), partial_transpose(b)).entries
    assert np.abs(lhs - rhs).max() < 1e-14


@settings(max_examples=60, deadline=None)
@given(
    local=st.tuples(*[st.integers(1, 3)] * 4),
    complex_entries=st.tuples(st.booleans(), st.booleans()),
    seed=st.integers(0, 2**32 - 1),
)
def test_pt_acts_factorwise_bit_exactly(local, complex_entries, seed):
    # partial transposition only moves entries and the tensor product only
    # multiplies them, so the two orders give the same floats
    rng = np.random.default_rng(seed)
    a = random_hermitian(BipartiteDims(*local[:2]), rng, complex_entries[0])
    b = random_hermitian(BipartiteDims(*local[2:]), rng, complex_entries[1])
    lhs = partial_transpose(tensor(a, b)).entries
    rhs = tensor(partial_transpose(a), partial_transpose(b)).entries
    assert lhs.dtype == rhs.dtype
    assert np.array_equal(lhs, rhs)


@settings(max_examples=60, deadline=None)
@given(
    local=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    n=st.integers(1, 4),
    complex_entries=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_pt_equals_partial_transpose_slice_by_slice(local, n, complex_entries, seed):
    # the stack is transposed in one call, with the floats of transposing
    # each slice; each slice also matches the entry formula
    # out[(a, b), (c, d)] = x[(a, d), (c, b)]
    dims = BipartiteDims(*local)
    rng = np.random.default_rng(seed)
    ops = [random_hermitian(dims, rng, complex_entries) for _ in range(n)]
    stack = np.stack([op.entries for op in ops])
    got = _pt(stack, dims)
    assert got.shape == stack.shape and got.dtype == stack.dtype
    assert not np.shares_memory(got, stack)
    idx = np.indices((dims.dA, dims.dB)).reshape(2, -1)
    a, b = idx[0][:, None], idx[1][:, None]
    c, d = idx[0][None, :], idx[1][None, :]
    for op, out in zip(ops, got):
        assert np.array_equal(out, partial_transpose(op).entries)
        assert np.array_equal(out, op.entries[a * dims.dB + d, c * dims.dB + b])


def test_tensor_dimension_cap():
    a = random_hermitian(BipartiteDims(16, 8), np.random.default_rng(1))
    with pytest.raises(ValueError, match="cap"):
        tensor(a, a)  # 128^2 = 16384 > 4096
    small = random_hermitian(D22, np.random.default_rng(2))
    out = tensor(small, small, cap=16)  # exactly at the cap is allowed
    assert out.dims.total == 16


def test_real_inputs_stay_real():
    a = HermitianOperator(D22, np.eye(4))
    assert tensor(a, a, cap=16).entries.dtype == np.float64
    assert partial_transpose(a).entries.dtype == np.float64


def _connected(mask: np.ndarray) -> bool:
    """Whether the undirected graph on mask's nonzero pattern is connected, by search."""
    seen, todo = {0}, [0]
    while todo:
        k = todo.pop()
        for j in np.flatnonzero(mask[k] | mask[:, k]):
            if j not in seen:
                seen.add(int(j))
                todo.append(int(j))
    return len(seen) == len(mask)


@settings(max_examples=80, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=7),
    n=st.integers(1, 3),
    zeros=st.sampled_from([0.0, 0.3, 0.6, 0.9]),
    stack=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_components_partition_the_nonzero_pattern(sizes, n, zeros, stack, seed):
    # blocks planted on a random permutation, with random zeros inside them
    rng = np.random.default_rng(seed)
    d = sum(sizes)
    x = np.zeros((n, d, d))
    starts = np.cumsum([0, *sizes])
    for a, b in zip(starts[:-1], starts[1:]):
        block = rng.standard_normal((n, b - a, b - a)) * (rng.random((n, b - a, b - a)) >= zeros)
        x[:, a:b, a:b] = block + block.swapaxes(1, 2)
    perm = rng.permutation(d)
    x = x[:, perm][:, :, perm]
    if not stack:
        x = x[0]
    groups = _components(x)
    assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(d))
    assert all(np.array_equal(c, np.sort(c)) for c in groups)
    label = np.empty(d, dtype=int)
    for j, c in enumerate(groups):
        label[c] = j
    _, rows, cols = np.nonzero(x.reshape(-1, d, d))
    assert np.array_equal(label[rows], label[cols])
    where = np.argsort(perm)  # where[k]: the position of planted index k
    pattern = (x.reshape(-1, d, d) != 0).any(axis=0)
    for a, b in zip(starts[:-1], starts[1:]):
        planted = where[a:b]
        if _connected(pattern[np.ix_(planted, planted)]):
            assert len(set(label[planted])) == 1
    dense = rng.uniform(1.0, 2.0, x.shape)
    assert len(_components(dense)) == 1


def test_components_of_a_dense_pattern_with_zeros_in_row_0():
    # row 0 is not enough to settle it: the general search links the rest
    x = np.ones((2, 5, 5))
    x[:, 0, 1:4] = x[:, 1:4, 0] = 0.0
    assert [c.tolist() for c in _components(x)] == [[0, 1, 2, 3, 4]]
    x[:, 0, 4] = x[:, 4, 0] = 0.0
    assert [c.tolist() for c in _components(x)] == [[0], [1, 2, 3, 4]]


@pytest.mark.parametrize("complex_entries", [False, True])
def test_is_psd_block_by_block_equals_the_dense_spectrum(complex_entries):
    rng = np.random.default_rng([43, complex_entries])
    for sizes in ([1, 1, 1, 1], [3, 1, 2, 1, 1], [2, 2, 2, 2, 4], [6, 6]):
        d = sum(sizes)
        dims = BipartiteDims(1, d)
        # a PSD stack shifted by a random multiple of the identity
        x = permuted_block_stack(rng, 1, sizes, complex_entries=complex_entries)[0]
        x = x - rng.uniform(0.0, 0.3) * np.eye(d)
        dense = float(np.linalg.eigvalsh(x)[0])
        ok, lmin = is_psd(HermitianOperator(dims, x), 1e-9)
        assert abs(lmin - dense) <= 1e-12
        assert ok == (dense >= -1e-9)
