"""Builders for the reference ensemble families and their analytic values.

Two families are provided:

* :func:`example1` turns any state with a negative partial transpose into an
  orthogonal two-state ensemble whose local and partial-transpose optima
  coincide, making it a one-bit hiding ensemble with fully closed-form decay.
* :func:`example2` builds n-state ensembles from m-fold tensor products of
  the two extremal flip-symmetric two-qudit states; the identity measurement
  certifies its partial-transpose value, so every reference number is exact
  integer arithmetic even when the matrices are too large to build.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ensembles import StateEnsemble
from .operators import (
    DEFAULT_DIM_CAP,
    BipartiteDims,
    HermitianOperator,
    abs_op,
    is_psd,
    partial_transpose,
    tensor,
    trace_norm,
)

#: Eigenvalue tolerance of example1's checks that sigma is PSD and sigma^PT is not.
_PSD_TOL = 1e-9
#: Draws random_npt_state makes before it gives up.
_NPT_MAX_TRIES = 10_000


def bell_state() -> HermitianOperator:
    """Density operator of the two-qubit singlet (|01> - |10>) / sqrt(2)."""
    psi = np.zeros(4)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    return HermitianOperator(BipartiteDims(2, 2), np.outer(psi, psi))


def flip_operator(d: int) -> HermitianOperator:
    """Swap of the two qudit factors: F |i>|j> = |j>|i|; F*F = identity, Tr F = d."""
    if d < 2:
        raise ValueError("flip operator needs local dimension >= 2")
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            f[i * d + j, j * d + i] = 1.0
    return HermitianOperator(BipartiteDims(d, d), f)


def werner_state(d: int, sign: int) -> HermitianOperator:
    """Normalized (identity + sign * F) / (d^2 + sign * d) for sign in {+1, -1}.

    The + state has a positive partial transpose (and is separable); the -
    state has a negative partial transpose.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    f = flip_operator(d)
    ident = np.eye(d * d)
    return HermitianOperator(f.dims, (ident + sign * f.entries) / (d * d + sign * d))


def example1(sigma: HermitianOperator) -> StateEnsemble:
    """Orthogonal two-state ensemble distilled from the partial transpose of
    an NPT state.

    With T the trace norm of sigma^PT (necessarily > 1 here), the pair is

        eta0 = (T+1)/(2T),  rho0 = (|sigma^PT| + sigma^PT) / (T+1),
        eta1 = (T-1)/(2T),  rho1 = (|sigma^PT| - sigma^PT) / (T-1).

    rho0 and rho1 live on orthogonal supports, and both the plain local
    optimum and the partial-transpose value of the ensemble equal eta0.
    States whose partial transpose is positive are refused: T = 1 makes
    rho1 undefined.
    """
    tr = sigma.trace()
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"sigma must have unit trace, got {tr}")
    psd, lmin = is_psd(sigma, _PSD_TOL)
    if not psd:
        raise ValueError(f"sigma must be positive semidefinite (min eigenvalue {lmin:.3e})")
    pt = partial_transpose(sigma)
    ppt, pt_lmin = is_psd(pt, _PSD_TOL)
    if ppt:
        raise ValueError(
            "sigma has a positive partial transpose "
            f"(min eigenvalue {pt_lmin:.3e}); the construction needs an NPT state"
        )
    t = trace_norm(pt)
    apt = abs_op(pt)
    eta0 = (t + 1.0) / (2.0 * t)
    eta1 = (t - 1.0) / (2.0 * t)
    rho0 = (apt + pt) * (1.0 / (t + 1.0))
    rho1 = (apt - pt) * (1.0 / (t - 1.0))
    return StateEnsemble(sigma.dims, ((eta0, rho0), (eta1, rho1)))


@dataclass(frozen=True)
class WernerParams:
    """Parameters (d, m, n) with d >= 2, m >= 1 and 2^(m-1) < n <= 2^m."""

    d: int
    m: int
    n: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (2 ** (self.m - 1) < self.n <= 2**self.m):
            raise ValueError(
                f"n must satisfy 2^(m-1) < n <= 2^m, got n={self.n} with m={self.m}"
            )


def binary_digits(i: int, m: int) -> tuple[int, ...]:
    """m binary digits of i, least significant first; sum(b_k 2^(k-1)) == i."""
    if not 0 <= i < 2**m:
        raise ValueError(f"index {i} not representable in {m} binary digits")
    return tuple((i >> k) & 1 for k in range(m))


def werner_d_threshold(m: int) -> float:
    """Smallest local dimension guaranteeing the n-ary hiding condition.

    Equals (r + 1)/(r - 1) with r = 2**(1/m); for d at or above it the
    family's value is certified below 2/n.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    r = 2.0 ** (1.0 / m)
    return (r + 1.0) / (r - 1.0)


@dataclass(frozen=True)
class Example2Result:
    """Werner-family ensemble plus its exact reference values.

    ``normalization`` and ``probabilities_exact`` are exact integers /
    rationals; ``qg`` (= eta0 = probabilities_exact[0]) is the certified
    partial-transpose value.  ``ensemble`` is None in formulas-only mode,
    i.e. when the explicit matrices would exceed the dimension cap.
    ``rho0_separable`` records a known structural fact about the all-plus
    state; it is metadata, not something re-verified numerically.
    """

    params: WernerParams
    normalization: int
    probabilities_exact: tuple[Fraction, ...]
    qg: float
    qg_strict_upper: float
    d_threshold: float
    meets_threshold: bool
    ensemble: StateEnsemble | None
    explicit: bool
    rho0_separable: bool = True

    @property
    def eta0(self) -> Fraction:
        return self.probabilities_exact[0]


def example2(
    d: int, m: int, n: int, explicit: bool | None = None, cap: int | None = None
) -> Example2Result:
    """Build the n-state Werner-family ensemble for parameters (d, m, n).

    State i is the m-fold tensor product over the binary digits b_k(i) of the
    two-qudit states (identity +/- F)/(d^2 +/- d) (plus for digit 0); its
    weight is proportional to prod_k (d^2 + (-1)^(b_k) d).  The identity
    measurement on outcome 0 certifies the partial-transpose value eta0.

    ``explicit=None`` builds matrices exactly when (d^2)^m fits the cap;
    ``explicit=True`` insists (raising if over the cap); ``explicit=False``
    forces formulas-only mode.
    """
    params = WernerParams(d=d, m=m, n=n)
    cap = DEFAULT_DIM_CAP if cap is None else cap

    weights = []
    for i in range(n):
        w = 1
        for b in binary_digits(i, m):
            w *= d * d + (1 if b == 0 else -1) * d
        weights.append(w)
    normalization = sum(weights)
    probs = tuple(Fraction(w, normalization) for w in weights)
    qg = float(probs[0])
    qg_strict_upper = (1.0 / n) * (1.0 + 2.0 / (d - 1.0)) ** m
    threshold = werner_d_threshold(m)

    total_dim = (d * d) ** m
    if explicit is None:
        explicit = total_dim <= cap
    elif explicit and total_dim > cap:
        raise ValueError(
            f"explicit matrices need dimension {total_dim}, above cap {cap}; "
            "raise the cap or use formulas-only mode"
        )

    ensemble = None
    if explicit:
        plus = werner_state(d, +1)
        minus = werner_state(d, -1)
        items = []
        for i in range(n):
            factors = [minus if b else plus for b in binary_digits(i, m)]
            rho = factors[0]
            for fac in factors[1:]:
                rho = tensor(rho, fac, cap=cap)
            items.append((float(probs[i]), rho))
        ensemble = StateEnsemble(items[0][1].dims, tuple(items))

    return Example2Result(
        params=params,
        normalization=normalization,
        probabilities_exact=probs,
        qg=qg,
        qg_strict_upper=qg_strict_upper,
        d_threshold=threshold,
        meets_threshold=d >= threshold,
        ensemble=ensemble,
        explicit=explicit,
    )


def random_density_state(dims: BipartiteDims, rng: np.random.Generator) -> HermitianOperator:
    """Full-rank random density operator (Ginibre construction)."""
    d = dims.total
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    rho /= np.trace(rho).real
    return HermitianOperator(dims, (rho + rho.conj().T) / 2)


def random_npt_state(dims: BipartiteDims, seed: int, npt_tol: float = 1e-9) -> HermitianOperator:
    """Random density operator rejected until its partial transpose has a
    negative eigenvalue below -npt_tol."""
    rng = np.random.default_rng(seed)
    for _ in range(_NPT_MAX_TRIES):
        rho = random_density_state(dims, rng)
        if not is_psd(partial_transpose(rho), npt_tol)[0]:
            return rho
    raise ValueError(
        f"no NPT sample found on {dims.dA}x{dims.dB} after {_NPT_MAX_TRIES} tries; "
        "such states may be rare or absent at these dimensions"
    )
