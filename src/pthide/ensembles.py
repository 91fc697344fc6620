"""State ensembles, their multifold products, and modulo-sum coarse graining."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .operators import (
    DEFAULT_DIM_CAP,
    BipartiteDims,
    HermitianOperator,
    _blocks,
    _kron,
    is_psd,
    tensor,
)

PROB_SUM_TOL = 1e-12
STATE_TRACE_TOL = 1e-10
STATE_PSD_TOL = 1e-9
ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class StateEnsemble:
    """An ordered list of (probability, density operator) pairs on fixed dims."""

    dims: BipartiteDims
    items: tuple[tuple[float, HermitianOperator], ...]

    def __post_init__(self):
        items = tuple((float(eta), rho) for eta, rho in self.items)
        for _, rho in items:
            if rho.dims != self.dims:
                raise ValueError(f"state dims {rho.dims} do not match ensemble dims {self.dims}")
        object.__setattr__(self, "items", items)

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([eta for eta, _ in self.items])

    @property
    def states(self) -> list[HermitianOperator]:
        return [rho for _, rho in self.items]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]


def validate(ensemble: StateEnsemble) -> ValidationReport:
    """Measure every ensemble invariant and report the residuals.

    Checks: probabilities in [0, 1] summing to one, each state unit-trace and
    positive semidefinite.
    """
    checks = []
    etas = ensemble.probabilities
    if ensemble.n == 0:
        checks.append(CheckResult("nonempty", 1.0, False))
    else:
        range_dev = float(max(np.maximum(-etas, 0.0).max(), np.maximum(etas - 1.0, 0.0).max()))
        checks.append(CheckResult("probabilities_in_unit_interval", range_dev, range_dev == 0.0))
        sum_dev = abs(float(etas.sum()) - 1.0)
        checks.append(CheckResult("probability_sum", sum_dev, sum_dev <= PROB_SUM_TOL))
        for i, (_, rho) in enumerate(ensemble.items):
            tr_dev = abs(rho.trace() - 1.0)
            checks.append(CheckResult(f"state_{i}_trace", tr_dev, tr_dev <= STATE_TRACE_TOL))
            ok, lmin = is_psd(rho, STATE_PSD_TOL)
            checks.append(CheckResult(f"state_{i}_psd", lmin, ok))
    return ValidationReport(tuple(checks))


def fold(ensemble: StateEnsemble, copies: int, cap: int | None = None) -> StateEnsemble:
    """The ensemble of L independent preparations.

    Items are ordered lexicographically in the index vector, with the first
    copy's index most significant; probabilities multiply and states tensor.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if copies == 1:
        return ensemble
    dims = _folded_dims(ensemble.dims, copies, cap)
    items = ensemble.items
    for _ in range(copies - 1):
        items = [(a * b, tensor(x, y, cap=cap)) for a, x in items for b, y in ensemble.items]
    return StateEnsemble(dims, tuple(items))


def coarse_grain(ensemble: StateEnsemble, copies: int, cap: int | None = None) -> StateEnsemble:
    """Group the L-fold ensemble by the modulo-n sum of the preparation indices.

    Bin i collects every index vector with modulo sum i; its probability is the
    total weight and its state the normalized weighted mixture.  An empty bin
    (zero total weight) is refused because the mixture is then undefined.

    The bins are built one copy at a time as a cyclic convolution (see
    :func:`_mod_sum_bins`), with n^2 tensor products per added copy instead of
    one per index vector.  Memory: the n bins of side D^L, plus one product
    of that side while it is added in, or two of that side for the
    Hermiticity check as each bin is wrapped; the previous level's n bins
    are D^2 times smaller.  On the n=3 Werner instance of side 6561 (float64,
    0.99 GB of bins) the measured peak RSS is 1.67 GB.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if copies == 1:
        return ensemble
    dims = _folded_dims(ensemble.dims, copies, cap)
    bin_eta = _mod_sum_bins([eta for eta, _ in ensemble.items], copies)
    for i, eta in enumerate(bin_eta):
        if eta <= 0.0:
            raise ValueError(
                f"coarse bin {i} has zero probability; the normalized bin state is undefined"
            )
    weighted = [eta * rho.entries for eta, rho in ensemble.items]
    items = []
    for eta, acc in zip(bin_eta, _tensor_bins(weighted, ensemble.dims, copies)):
        acc /= eta
        items.append((eta, HermitianOperator(dims, acc)))
    return StateEnsemble(dims, tuple(items))


def _mod_sum_bins(factors, copies: int, product=operator.mul) -> list:
    """Sum of ``x_{c_1} * ... * x_{c_L}`` over the index vectors of each modulo-n sum.

    Entry i collects the vectors with c_1 + ... + c_L = i (mod n).  Adding a
    copy is the cyclic convolution bin'_i = sum_c product(bin_{(i-c) mod n}, x_c),
    so no index vector is enumerated.  Terms are added in place: with array
    factors, ``product`` must return a new array of the factors' common dtype.
    """
    n = len(factors)
    bins = list(factors)
    for _ in range(copies - 1):
        level = []
        for i in range(n):
            acc = product(bins[i], factors[0])
            for c in range(1, n):
                acc += product(bins[(i - c) % n], factors[c])
            level.append(acc)
        bins = level
    return bins


def _tensor_bins(mats, dims: BipartiteDims, copies: int) -> list[np.ndarray]:
    """:func:`_mod_sum_bins` of (D, D) matrices on ``dims`` under the tensor
    product, as (D^L, D^L) arrays of the matrices' common dtype."""
    dtype = np.result_type(*mats)
    bins = _mod_sum_bins([_blocks(m.astype(dtype, copy=False), dims) for m in mats], copies, _kron)
    side = dims.total**copies
    return [b.reshape(side, side) for b in bins]


def is_mutually_orthogonal(ensemble: StateEnsemble) -> bool:
    """True iff Tr(rho_i rho_j) <= ``ORTHOGONALITY_TOL`` for every pair i != j."""
    states = [rho.entries for rho in ensemble.states]
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            overlap = float(np.einsum("ij,ji->", states[i], states[j]).real)
            if overlap > ORTHOGONALITY_TOL:
                return False
    return True


def _folded_dims(dims: BipartiteDims, copies: int, cap: int | None) -> BipartiteDims:
    """Dims of L copies of ``dims``, refused above the dimension cap."""
    cap = DEFAULT_DIM_CAP if cap is None else cap
    folded = BipartiteDims(dims.dA**copies, dims.dB**copies)
    if folded.total > cap:
        raise ValueError(
            f"{copies}-fold dimension {folded.total} exceeds cap {cap}; "
            "pass a larger cap explicitly to allow it"
        )
    return folded
