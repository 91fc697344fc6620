import numpy as np
import pytest

from pthide import BipartiteDims, HermitianOperator, Povm, StateEnsemble, tensor
from pthide.discrimination import _objective_operators
from pthide.ensembles import _tensor_bins


def random_hermitian(dims: BipartiteDims, rng, complex_entries=True) -> HermitianOperator:
    d = dims.total
    if complex_entries:
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    else:
        z = rng.standard_normal((d, d))
    return HermitianOperator(dims, (z + z.conj().T) / 2)


def random_state(dims: BipartiteDims, rng, complex_entries=True, rank=None) -> HermitianOperator:
    d = dims.total
    shape = (d, d if rank is None else rank)
    z = rng.standard_normal(shape)
    if complex_entries:
        z = z + 1j * rng.standard_normal(shape)
    rho = z @ z.conj().T
    rho /= np.trace(rho).real
    return HermitianOperator(dims, (rho + rho.conj().T) / 2)


def random_two_state_ensemble(
    rng, dims=BipartiteDims(2, 2), complex_entries=True
) -> StateEnsemble:
    eta0 = rng.uniform(0.1, 0.9)
    states = [random_state(dims, rng, complex_entries) for _ in range(2)]
    return StateEnsemble(dims, ((eta0, states[0]), (1.0 - eta0, states[1])))


def random_ensemble(rng, n, dims=BipartiteDims(2, 2)) -> StateEnsemble:
    etas = rng.dirichlet(np.ones(n))
    return StateEnsemble(dims, tuple((etas[i], random_state(dims, rng)) for i in range(n)))


def permuted_block_stack(rng, n, sizes, commuting=(), complex_entries=True) -> np.ndarray:
    """n PSD matrices, block-diagonal on consecutive blocks of the given
    sizes, under one random permutation of the basis.  The blocks numbered
    in ``commuting`` share one eigenbasis across the n matrices; the others
    are random and dense."""
    d = sum(sizes)
    x = np.zeros((n, d, d), dtype=complex if complex_entries else float)
    start = 0
    for b, s in enumerate(sizes):
        if b in commuting:
            q = random_state(BipartiteDims(1, s), rng, complex_entries).entries
            v = np.linalg.eigh(q)[1]
            blocks = (v * rng.uniform(0.0, 1.0, (n, 1, s))) @ v.conj().T
        else:
            dims = BipartiteDims(1, s)
            blocks = [random_state(dims, rng, complex_entries).entries for _ in range(n)]
        x[:, start : start + s, start : start + s] = blocks
        start += s
    perm = rng.permutation(d)
    return x[:, perm][:, :, perm]


def permuted_block_ensemble(
    rng, dims, sizes, n, commuting=(), complex_entries=True
) -> StateEnsemble:
    """An ensemble whose PT objective stack is the permuted block-diagonal
    :func:`permuted_block_stack` (scaled to unit traces), exactly: each state
    is the partial transpose of its block matrix, and PT is an involution.
    The states need not be positive."""
    from pthide.operators import _pt

    etas = rng.dirichlet(np.ones(n))
    stack = permuted_block_stack(rng, n, sizes, commuting, complex_entries)
    stack /= np.trace(stack, axis1=1, axis2=2).real[:, None, None]
    items = tuple((eta, HermitianOperator(dims, _pt(b, dims))) for eta, b in zip(etas, stack))
    return StateEnsemble(dims, items)


def random_povm(rng, dims: BipartiteDims, n: int):
    d = dims.total
    blocks = []
    for _ in range(n):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        blocks.append(z @ z.conj().T)
    total = sum(blocks)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    elements = []
    for b in blocks:
        m = inv_sqrt @ b @ inv_sqrt
        elements.append(HermitianOperator(dims, (m + m.conj().T) / 2))
    return Povm(dims, tuple(elements))


def fold(ensemble: StateEnsemble, copies: int) -> StateEnsemble:
    """The ensemble of L independent preparations, the index-vector reference.

    Items are ordered lexicographically in the index vector, with the first
    copy's index most significant; probabilities multiply and states tensor.
    """
    dims = BipartiteDims(ensemble.dims.dA**copies, ensemble.dims.dB**copies)
    items = ensemble.items
    for _ in range(copies - 1):
        items = [(a * b, tensor(x, y)) for a, x in items for b, y in ensemble.items]
    return StateEnsemble(dims, tuple(items))


def success_probability(ensemble: StateEnsemble, povm: Povm, use_pt: bool = False) -> float:
    """Average probability sum_i eta_i Tr(rho_i M_i), optionally with rho_i^PT:
    the reference that solver values and level POVMs are checked against."""
    g = _objective_operators(ensemble, use_pt)
    total = sum(complex(np.einsum("ij,ji->", gi, m.entries)) for gi, m in zip(g, povm.elements))
    if abs(total.imag) > 1e-10 * (1.0 + abs(total.real)):
        raise ValueError(f"objective has non-negligible imaginary part {total.imag:.3e}")
    return float(total.real)


def level_povm(measurement: Povm, copies: int) -> Povm:
    """Explicit measurement equivalent to measuring every copy with a
    two-outcome ``measurement`` and reporting the parity of the outcomes.

    Element i sums the tensor products of base elements over all outcome
    patterns with parity i; identical to
    ((M0+M1)^{xL} + (-1)^i (M0-M1)^{xL}) / 2.
    """
    base = measurement.dims
    dims = BipartiteDims(base.dA**copies, base.dB**copies)
    blocks = _tensor_bins([m.entries for m in measurement.elements], base, copies)
    return Povm(dims, tuple(HermitianOperator(dims, b) for b in blocks))


@pytest.fixture
def qubit_pair_dims():
    return BipartiteDims(2, 2)
