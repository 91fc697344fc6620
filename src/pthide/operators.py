"""Dense Hermitian operator arithmetic on a bipartite Hilbert space.

Everything in this package is built on top of two conventions fixed here:

* product basis: ``|i>_A |j>_B`` maps to the flat index ``i * dB + j``
  (row-major, Alice's index most significant);
* partial transposition acts on Bob's factor.

Operators are stored densely.  Real symmetric matrices are kept in
``float64`` (they are Hermitian as-is); anything else is ``complex128``.
Keeping real inputs real halves the memory and roughly quadruples
eigensolver throughput, which matters for the larger multifold checks.
Inside the package, work is done on (D, D) arrays and (n, D, D) stacks
(:func:`_pt`, :func:`_spectral`, :func:`_hermitize`); a checked
:class:`HermitianOperator` is built only where a public function returns one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Refuse to build operators larger than this unless the caller raises the cap.
DEFAULT_DIM_CAP = 4096

HERMITICITY_ATOL = 1e-12

#: Side of the square tiles :func:`_hermiticity` walks.  A whole-matrix
#: ``x - x.conj().T`` reads the transpose down columns, and at a power-of-two
#: side every column step lands on the same cache sets.  Checking a real
#: matrix (numpy 2.4.6, medians of 5) took, with tiles of 64 / 128 / 256 and
#: in one pass: 5.0 / 3.2 / 4.2 / 15.0 ms at side 1024, and
#: 0.21 / 0.13 / 0.16 / 0.69 s at side 6561.
_HERMITICITY_TILE = 128


@dataclass(frozen=True)
class BipartiteDims:
    """Local dimensions (dA, dB) of a bipartite system; total dimension dA*dB."""

    dA: int
    dB: int

    def __post_init__(self):
        if self.dA < 1 or self.dB < 1:
            raise ValueError(f"local dimensions must be >= 1, got ({self.dA}, {self.dB})")

    @property
    def total(self) -> int:
        return self.dA * self.dB


def _coerce_entries(entries) -> np.ndarray:
    arr = np.asarray(entries)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"operator entries must be a square matrix, got shape {arr.shape}")
    if np.iscomplexobj(arr):
        return arr.astype(np.complex128, copy=False)
    return arr.astype(np.float64, copy=False)


def _hermiticity(arr: np.ndarray) -> tuple[float, float]:
    """``(max |x_ij|, max |x_ij - conj(x_ji)|)`` of a square array, taken
    over pairs of mirrored ``_HERMITICITY_TILE`` tiles (I, J) and (J, I)
    with I <= J, so no temporary of the array's side is made.  Both maxima
    equal the whole-matrix ones bit for bit: |x_ji - conj(x_ij)| is the
    modulus of the exact negated conjugate of x_ij - conj(x_ji).  A NaN or
    infinite entry raises ``ValueError``; each tile's max |x| is tested
    before the subtraction, which would warn on it."""
    t = _HERMITICITY_TILE
    d = arr.shape[0]
    if d <= t:
        scale = np.abs(arr).max()
        if not scale < np.inf:
            raise ValueError("matrix has a non-finite entry")
        return scale, np.abs(arr - arr.conj().T).max()
    scale = dev = 0.0
    for i in range(0, d, t):
        for j in range(i, d, t):
            a = arr[i : i + t, j : j + t]
            b = arr[j : j + t, i : i + t]
            ma = np.abs(a).max()
            mb = np.abs(b).max() if j > i else ma
            # each maximum on its own: Python's max drops a NaN second argument
            if not (ma < np.inf and mb < np.inf):
                raise ValueError("matrix has a non-finite entry")
            scale = max(scale, ma, mb)
            dev = max(dev, np.abs(a - b.conj().T).max())
    return scale, dev


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix tagged with the bipartite dimensions it acts on.

    Instances are treated as immutable: all operations return new objects
    and never modify ``entries`` in place.
    """

    dims: BipartiteDims
    entries: np.ndarray

    def __post_init__(self):
        arr = _coerce_entries(self.entries)
        if arr.shape[0] != self.dims.total:
            raise ValueError(
                f"matrix side {arr.shape[0]} does not match dA*dB = {self.dims.total}"
            )
        scale, dev = _hermiticity(arr)
        if dev > HERMITICITY_ATOL * (1.0 + scale):
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        object.__setattr__(self, "entries", arr)

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def frobenius_norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    # Small amount of arithmetic sugar; results stay Hermitian for real scalars.
    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_same_dims(other)
        return HermitianOperator(self.dims, self.entries + other.entries)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        self._check_same_dims(other)
        return HermitianOperator(self.dims, self.entries - other.entries)

    def __mul__(self, scalar) -> "HermitianOperator":
        return HermitianOperator(self.dims, self.entries * float(scalar))

    __rmul__ = __mul__

    def _check_same_dims(self, other: "HermitianOperator"):
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")


def identity(dims: BipartiteDims) -> HermitianOperator:
    return HermitianOperator(dims, np.eye(dims.total))


def partial_transpose(a: HermitianOperator) -> HermitianOperator:
    """Transpose Bob's tensor factor in the fixed product basis.

    The map is a linear involution, preserves the trace and Hermiticity,
    and acts factorwise on tensor products.
    """
    return HermitianOperator(a.dims, _pt(a.entries, a.dims))


def _pt(x: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """:func:`partial_transpose` of a (D, D) array or an (n, D, D) stack, as a
    new array of the same shape and dtype."""
    t = x.reshape(*x.shape[:-2], dims.dA, dims.dB, dims.dA, dims.dB)
    return t.swapaxes(-3, -1).copy().reshape(x.shape)


def abs_op(e: HermitianOperator) -> HermitianOperator:
    """Operator absolute value |E|: same eigenvectors, eigenvalues |lambda|."""
    return HermitianOperator(e.dims, _eig_apply(e.entries, np.abs))


def positive_part(e: HermitianOperator) -> HermitianOperator:
    """The PSD component in the split E = E(+) - E(-) with |E| = E(+) + E(-)."""
    return HermitianOperator(e.dims, _eig_apply(e.entries, lambda w: np.maximum(w, 0.0)))


def negative_part(e: HermitianOperator) -> HermitianOperator:
    """The PSD operator E(-) = (|E| - E) / 2.  Only ``test_operators.py``
    and ``test_acceptance.py`` call it, to check E = E(+) - E(-)."""
    return HermitianOperator(e.dims, _eig_apply(e.entries, lambda w: np.maximum(-w, 0.0)))


def _eig_apply(x: np.ndarray, f) -> np.ndarray:
    """``v f(w) v^dagger`` for a Hermitian matrix (or a stack of them) ``x = v w v^dagger``."""
    w, v = np.linalg.eigh(x)
    return _spectral(v, f(w))


def _spectral(v: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """The Hermitized ``v diag(fw) v^dagger``, for one matrix or a stack."""
    return _hermitize((v * fw[..., None, :]) @ v.swapaxes(-1, -2).conj())


def _hermitize(x: np.ndarray) -> np.ndarray:
    """``(x + x^dagger) / 2`` for one matrix or a stack: removes the
    anti-Hermitian rounding noise of a product or an eigenbasis
    reconstruction.  ``ndarray.conj()`` returns a real array itself, where
    ``np.conjugate`` would copy it."""
    return (x + x.swapaxes(-1, -2).conj()) / 2


def _components(x: np.ndarray) -> list[np.ndarray]:
    """The connected components of the nonzero pattern of a (D, D) array, or
    of the union pattern of an (n, D, D) stack: ascending index arrays,
    ordered by their first index, that partition ``range(D)``.

    k and l are linked when some slice has ``x[k, l] != 0`` or
    ``x[l, k] != 0``, with no tolerance, so every slice is exactly
    block-diagonal on the components: its spectrum is the union of the
    blocks' spectra, and it is positive definite iff every block is.  If row
    0 of the first slice has no zero, every index is linked to 0, which
    settles a dense stack after one O(D) check.  Otherwise each link hooks
    the larger of its two root labels under the smaller, and pointer jumping
    takes every label to its root, until no link joins two labels.
    """
    d = x.shape[-1]
    if np.count_nonzero(x.reshape(-1, d)[0]) == d:
        return [np.arange(d)]
    slices = x.reshape(-1, d, d)
    mask = slices[0] != 0
    for s in slices[1:]:
        mask |= s != 0
    mask.flat[:: d + 1] = False
    linked = np.flatnonzero(mask.any(axis=1))
    rows, cols = np.nonzero(mask[linked])
    rows = linked[rows]
    label = np.arange(d)
    while True:
        lr, lc = label[rows], label[cols]
        apart = lr != lc
        if not apart.any():
            break
        np.minimum.at(label, np.maximum(lr, lc)[apart], np.minimum(lr, lc)[apart])
        while not np.array_equal(up := label[label], label):
            label = up
    order = np.argsort(label, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), d]
    return [order[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def _by_size(groups: list[np.ndarray]) -> dict[int, np.ndarray]:
    """The components of each size s, stacked as one (k, s) index array."""
    if len(groups) == 1:
        return {len(groups[0]): groups[0][None]}
    sizes = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    starts = np.cumsum(sizes) - sizes
    flat = np.concatenate(groups)
    # a set of the sizes, not np.unique: its first call costs a 14 ms lazy import
    distinct = sorted(set(sizes.tolist()))
    return {s: flat[starts[sizes == s][:, None] + np.arange(s)] for s in distinct}


def _block(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The (..., k, s, s) diagonal blocks of ``x`` on the (k, s) index array ``idx``."""
    return x[..., idx[:, :, None], idx[:, None, :]]


def _min_eig(x: np.ndarray) -> np.ndarray:
    """lambda_min of a Hermitian (D, D) array, or of every slice of an
    (n, D, D) stack: the least of the blocks' lambda_min over
    :func:`_components`, a 1x1 block's being its real entry, with blocks of
    one size in one batched ``eigvalsh``.  A dense stack takes one
    ``eigvalsh`` at side D."""
    groups = _components(x)
    if len(groups) == 1:
        return np.linalg.eigvalsh(x)[..., 0]
    out = np.full(x.shape[:-2], np.inf)
    for s, idx in _by_size(groups).items():
        blocks = _block(x, idx)
        mins = blocks[..., 0, 0].real if s == 1 else np.linalg.eigvalsh(blocks)[..., 0]
        out = np.minimum(out, mins.min(axis=-1))
    return out


def is_psd(e: HermitianOperator, tol: float | None = None) -> tuple[bool, float]:
    """PSD test: True iff the minimum eigenvalue is >= -tol.

    Returns ``(verdict, min_eigenvalue)`` so callers can report margins.
    The default tolerance scales with the Frobenius norm.  The spectrum is
    taken block by block over the nonzero pattern (:func:`_min_eig`).
    """
    if tol is None:
        tol = 1e-9 * (1.0 + e.frobenius_norm())
    elif tol < 0:
        raise ValueError("tolerance must be non-negative")
    lmin = float(_min_eig(e.entries))
    return lmin >= -tol, lmin


def trace_norm(e: HermitianOperator) -> float:
    """Sum of absolute eigenvalues (trace norm of a Hermitian matrix)."""
    return float(np.abs(np.linalg.eigvalsh(e.entries)).sum())


def tensor(
    a: HermitianOperator, b: HermitianOperator, cap: int | None = None
) -> HermitianOperator:
    """Tensor product with all Alice factors grouped before all Bob factors.

    The composite acts on (dA_a * dA_b) x (dB_a * dB_b); the index layout is
    rearranged from the raw Kronecker product so that partial transposition
    of the result transposes every Bob factor, i.e.
    ``partial_transpose(tensor(a, b)) == tensor(partial_transpose(a), partial_transpose(b))``.
    """
    cap = DEFAULT_DIM_CAP if cap is None else cap
    dims = BipartiteDims(a.dims.dA * b.dims.dA, a.dims.dB * b.dims.dB)
    if dims.total > cap:
        raise ValueError(
            f"tensor product dimension {dims.total} exceeds cap {cap}; "
            "pass a larger cap explicitly to allow it"
        )
    k = _kron(_blocks(a.entries, a.dims), _blocks(b.entries, b.dims))
    return HermitianOperator(dims, k.reshape(dims.total, dims.total))


def _blocks(x: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """View a (D, D) matrix on ``dims`` as the (dA, dB, dA, dB) array :func:`_kron` takes."""
    return x.reshape(dims.dA, dims.dB, dims.dA, dims.dB)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of operators stored as (dA, dB, dA, dB) arrays, stored the same way.

    Each Alice index is (a_A, b_A) and each Bob index (a_B, b_B), so Alice's
    factors stay grouped before Bob's.  Every entry is the single product
    ``a[...] * b[...]``, exactly as in ``np.kron``.
    """
    (a_a, a_b), (b_a, b_b) = a.shape[:2], b.shape[:2]
    k = a[:, None, :, None, :, None, :, None] * b[None, :, None, :, None, :, None, :]
    return k.reshape(a_a * b_a, a_b * b_b, a_a * b_a, a_b * b_b)


def tensor_power(a: HermitianOperator, exponent: int, cap: int | None = None) -> HermitianOperator:
    """``a`` to the tensor power ``exponent``.  Only tests (criterion 3 of
    ``test_acceptance.py`` among them) and the ``multifold-dense`` bench call it."""
    if exponent < 1:
        raise ValueError("tensor power exponent must be >= 1")
    out = a
    for _ in range(exponent - 1):
        out = tensor(out, a, cap=cap)
    return out
