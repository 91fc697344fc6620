import numpy as np
import pytest

from pthide import BipartiteDims, HermitianOperator, StateEnsemble


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


def random_povm(rng, dims: BipartiteDims, n: int):
    from pthide import Povm

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


@pytest.fixture
def qubit_pair_dims():
    return BipartiteDims(2, 2)
