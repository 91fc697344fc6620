"""Guessing probabilities, optimality certificates, and the POVM optimizer.

Two objectives share all of the machinery here.  Writing ``G_i`` for either
``eta_i * rho_i`` (plain minimum-error discrimination) or
``eta_i * rho_i^PT`` (the partial-transpose variant, which upper-bounds
every LOCC strategy), the optimal value is

    max over POVMs {M_i}  of  sum_i Tr(G_i M_i).

A measurement attains the maximum iff ``sum_j G_j M_j - G_i`` is PSD for
every i, and any Hermitian H with ``H - G_i`` PSD for all i certifies
``Tr H`` as an upper bound on the value.  Those two facts drive both the
duality-gap stopping rule and :func:`certify_optimal` / :func:`dual_bound`.
The solver, the closed forms and the certificates all work on the (n, D, D)
stack of the G_i (:func:`_objective_operators`, :func:`_solve_stack`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ensembles import StateEnsemble
from .operators import BipartiteDims, HermitianOperator, is_psd
from .operators import _eig_apply, _hermitize, _pt, _spectral

POVM_PSD_TOL = 1e-9
POVM_COMPLETENESS_TOL = 1e-9
CERTIFY_TOL = 1e-8
#: The log-det barrier (:func:`_barrier`): the factor on t per centring, the
#: CG tolerance, and the line search's Armijo fraction, full-step threshold
#: and step floor (:func:`_line_search`).
_T_FACTOR = 20.0
_CG_TOL = 1e-2
_ARMIJO = 0.25
_FULL_STEP = 1.0 / 16
_MIN_STEP = 2.0**-20
#: Past this value of step * ||G||, M is lost to rounding in M + step * G.
_MAX_STEP_NORM = 1.0 / np.finfo(float).eps


@dataclass(frozen=True)
class Povm:
    """A measurement: positive operators on shared dims summing to identity."""

    dims: BipartiteDims
    elements: tuple[HermitianOperator, ...]

    def __post_init__(self):
        elements = tuple(self.elements)
        for m in elements:
            if m.dims != self.dims:
                raise ValueError(f"element dims {m.dims} do not match POVM dims {self.dims}")
        object.__setattr__(self, "elements", elements)

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)


def validate_povm(povm: Povm):
    """Check positivity of each element and completeness of the sum.

    Returns a list of (name, residual, ok) triples.
    """
    checks = []
    total = np.zeros((povm.dims.total, povm.dims.total))
    for i, m in enumerate(povm.elements):
        ok, lmin = is_psd(m, POVM_PSD_TOL)
        checks.append((f"element_{i}_psd", lmin, ok))
        total = total + m.entries
    completeness = float(np.linalg.norm(total - np.eye(povm.dims.total)))
    checks.append(
        ("completeness", completeness, completeness <= POVM_COMPLETENESS_TOL * povm.dims.total)
    )
    return checks


def _objective_operators(ensemble: StateEnsemble, use_pt: bool) -> np.ndarray:
    """Stack eta_i * rho_i as (n, D, D), partially transposed as one stack if ``use_pt``."""
    g = np.stack([eta * rho.entries for eta, rho in ensemble.items])
    return _pt(g, ensemble.dims) if use_pt else g


def success_probability(ensemble: StateEnsemble, povm: Povm, use_pt: bool = False) -> float:
    """Average probability sum_i eta_i Tr(rho_i M_i), optionally with rho_i^PT."""
    if povm.n_outcomes != ensemble.n:
        raise ValueError(
            f"POVM has {povm.n_outcomes} outcomes but the ensemble has {ensemble.n} states"
        )
    if povm.dims != ensemble.dims:
        raise ValueError("POVM and ensemble dimensions differ")
    g = _objective_operators(ensemble, use_pt)
    total = sum(complex(np.einsum("ij,ji->", gi, m.entries)) for gi, m in zip(g, povm.elements))
    if abs(total.imag) > 1e-10 * (1.0 + abs(total.real)):
        raise ValueError(f"objective has non-negligible imaginary part {total.imag:.3e}")
    return float(total.real)


def _weighted_difference(ensemble: StateEnsemble, use_pt: bool) -> np.ndarray:
    """G0 - G1 of :func:`_objective_operators` for a two-state ensemble."""
    g = _objective_operators(ensemble, use_pt)
    return g[0] - g[1]


def _difference_norm(ensemble: StateEnsemble, use_pt: bool) -> float:
    """Trace norm of :func:`_weighted_difference`, the quantity every
    two-state closed form is built from."""
    if ensemble.n != 2:
        raise ValueError("closed form requires exactly two states")
    return float(np.abs(np.linalg.eigvalsh(_weighted_difference(ensemble, use_pt))).sum())


def qg_two_state(ensemble: StateEnsemble) -> float:
    """Closed-form two-state value of the partial-transpose objective.

    Equals ``1/2 + 1/2 * ||eta0 rho0^PT - eta1 rho1^PT||_1``.  Always at
    least 1/2; partial transposition is not trace-norm contractive, so for
    strongly NPT pairs the value may exceed 1 (it bounds a probability
    without being one itself).
    """
    return 0.5 + 0.5 * _difference_norm(ensemble, use_pt=True)


def helstrom_two_state(ensemble: StateEnsemble) -> float:
    """Optimal two-state minimum-error success probability (Helstrom value)."""
    return 0.5 + 0.5 * _difference_norm(ensemble, use_pt=False)


def helstrom_measurement(ensemble: StateEnsemble, use_pt: bool = False) -> Povm:
    """Two-outcome projective measurement onto the nonnegative / negative
    eigenspaces of the weighted state difference.

    This measurement attains the two-state optimum for the corresponding
    objective (plain or partially transposed).
    """
    if ensemble.n != 2:
        raise ValueError("projective construction requires exactly two states")
    w, v = np.linalg.eigh(_weighted_difference(ensemble, use_pt))
    nonneg = v[:, w >= 0.0]
    m0 = _hermitize(nonneg @ nonneg.conj().T)
    dims = ensemble.dims
    return Povm(dims, (HermitianOperator(dims, m0), HermitianOperator(dims, np.eye(dims.total) - m0)))


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`solve_optimal_value`: the iteration budget, the
    certified gap at which a run stops, and the seed of the commuting fast
    path's random probes.

    ``max_iters`` counts ascent steps for two states and Newton steps for
    more.  Neither path has other knobs: the two-state step starts at
    ``2 / ||G||`` and doubles every iteration, and the barrier's constants
    (``_T_FACTOR``, ``_CG_TOL`` and the line search's) are fixed in the
    module (see :func:`solve_optimal_value`).
    """

    max_iters: int = 100_000
    gap_tol: float = 1e-6
    fast_path_seed: int = 20250801

    def __post_init__(self):
        if not (np.isfinite(self.gap_tol) and self.gap_tol >= 0):
            raise ValueError(f"gap_tol must be finite and >= 0, got {self.gap_tol}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")


@dataclass(frozen=True)
class OptimalityReport:
    """Result of a POVM optimization run.

    ``gap = Tr(dual_H) - value`` is a certified bound on the distance to the
    optimum: ``dual_H`` is feasible by construction, so the true optimum lies
    in ``[value, value + gap]`` whether or not the run converged.

    ``value_history`` has one row per checked iterate: its iteration, its
    value and certified gap, and a fourth column that depends on
    ``method``.  For two states (``"projected-ascent"``) it is the step the
    next iteration takes; for more (``"log-det-barrier"``) it is the barrier
    parameter t of the centring that produced the iterate, with the
    iteration counted in Newton steps.  The commuting fast path
    (``"commuting-eigenbasis"``) reports one row with 0 there.
    """

    value: float
    povm: Povm
    dual_h: HermitianOperator
    gap: float
    residual_min_eigs: np.ndarray
    converged: bool
    iterations: int
    method: str
    value_history: np.ndarray = field(repr=False, default=None)


def _repair_povm(m: np.ndarray) -> np.ndarray:
    """Make a nearly feasible block tuple a POVM to rounding.

    The barrier's M_i = (H - G_i)^{-1} / t sum to the identity only at a
    centre.  Clipping negative eigenvalues and renormalizing by
    ``S^{-1/2} M_i S^{-1/2}`` with ``S = sum_i M_i`` restores both
    positivity and completeness, so the reported value is a true lower bound.
    Raises ``LinAlgError`` when S is singular to rounding (or not finite),
    where ``S^{-1/2}`` would be inf or NaN.
    """
    m = _eig_apply(m, lambda w: np.maximum(w, 0.0))
    w, v = np.linalg.eigh(m.sum(axis=0))
    if not w[0] > np.finfo(float).eps * w[-1]:
        raise np.linalg.LinAlgError("sum of the POVM elements is singular")
    r = _spectral(v, 1.0 / np.sqrt(w))
    return _hermitize(r @ m @ r)


def _dual_lift(g: np.ndarray, m: np.ndarray):
    """Value, dual candidate, residual minima, and the feasibility shift.

    Z is the Hermitized weighted operator sum; shifting by the worst
    violation ``lam`` makes ``Z + lam * I`` dominate every G_i.
    """
    z_raw = (g @ m).sum(axis=0)
    value = float(np.trace(z_raw).real)
    z = _hermitize(z_raw)
    resid_min = np.linalg.eigvalsh(z[None, :, :] - g)[:, 0].copy()
    lam = max(0.0, float(-resid_min.min()))
    return value, z, resid_min, lam


def _try_commuting_solve(g: np.ndarray, opts: SolverOptions):
    """Exact solve when the objective operators pairwise commute.

    In a joint eigenbasis the objective decouples: each eigenvector is
    assigned to the state with the largest diagonal value, the optimum is the
    sum of those maxima, and the unshifted dual candidate already certifies a
    zero gap.  Probabilistic matvec probes guard both the commutation test
    and the joint-diagonalization, returning None (the iterative path) on
    any doubt.  Returns :func:`_solve_stack`'s tuple, whose lifted part is
    :func:`_dual_lift`'s with a zero shift.
    """
    n, d = g.shape[0], g.shape[-1]
    rng = np.random.default_rng(opts.fast_path_seed)
    scales = np.maximum([np.linalg.norm(gi) for gi in g], 1e-300)
    probes = rng.standard_normal((d, 3)).astype(g.dtype, copy=False)
    probes /= np.linalg.norm(probes, axis=0)
    for i in range(n):
        for j in range(i + 1, n):
            comm = g[i] @ (g[j] @ probes) - g[j] @ (g[i] @ probes)
            if np.abs(comm).max() > 1e-8 * scales[i] * scales[j]:
                return None
    diag = basis = None
    for _ in range(2):
        weights = rng.uniform(0.5, 1.5, size=n)
        v = np.linalg.eigh(np.einsum("n,nij->ij", weights, g))[1]
        cand = np.empty((n, d))
        for i in range(n):
            cand[i] = np.einsum("ji,ji->i", v.conj(), g[i] @ v).real
            recon = v @ (cand[i][:, None] * (v.conj().T @ probes))
            if np.abs(g[i] @ probes - recon).max() > 1e-8 * scales[i]:
                break
        else:
            diag, basis = cand, v
            break
    if diag is None:
        return None
    assign = diag.argmax(axis=0)
    top = diag.max(axis=0)
    value = float(top.sum())
    blocks = np.zeros((n, d, d), dtype=basis.dtype)
    for i in range(n):
        cols = basis[:, assign == i]
        if cols.shape[1]:
            # cols @ cols^dagger is one rank-k update (half a general product)
            blocks[i] = _hermitize(cols @ cols.conj().T)
    resid_min = np.array([float((top - diag[i]).min()) for i in range(n)])
    z = _spectral(basis, top)
    history = [(0, value, float(np.trace(z).real) - value, 0.0)]
    return blocks, (value, z, resid_min, 0.0), 0, history, "commuting-eigenbasis"


def _solve_stack(g: np.ndarray, opts: SolverOptions):
    """Solve on the (n, D, D) stack ``g`` of objective operators: the
    commuting fast path if it applies, else the two-state ascent or, for
    more states, the log-det barrier.  Returns
    ``(M, lifted, iterations, history, method)``: the POVM blocks, their
    :func:`_dual_lift` (value, dual base Z, residual minima, shift; the
    reported dual is ``Z + shift * I``), and the rows of
    :attr:`OptimalityReport.value_history`.
    """
    fast = _try_commuting_solve(g, opts)
    if fast is not None:
        return fast
    return _two_state_ascent(g, opts) if g.shape[0] == 2 else _barrier(g, opts)


def solve_optimal_value(
    ensemble: StateEnsemble, use_pt: bool = True, opts: SolverOptions | None = None
) -> OptimalityReport:
    """Maximize the (optionally partially transposed) guessing objective.

    With G = (eta_i * A_i), the run stops once the certified gap of its
    current POVM and dual is at most ``gap_tol``.  A non-converged run is
    reported as such, never silently truncated: the returned value/gap pair
    still brackets the optimum.  ``method`` names the path taken.

    Two states (``"projected-ascent"``): projected gradient ascent with a
    step that starts at ``2 / ||G||`` and doubles every iteration.  This is
    sound because the objective is linear: a projected step never lowers
    it, whatever its length.  Every iterate is a function of D = G0 - G1,
    namely M0 = clip(1/2 + S D / 2, 0, 1) with S the sum of the steps so
    far, so the certified gap is at most dim / (8 S) and doubling reaches
    ``gap_tol`` in a few dozen steps.  The ascent runs in D's eigenbasis,
    with one ``eigh`` per solve (see :func:`_two_state_ascent`).

    More states (``"log-det-barrier"``): the dual barrier method (Boyd &
    Vandenberghe, *Convex Optimization*, ch. 11) on min Tr H s.t. H >= G_i
    (Eldar, Megretski & Verghese, IEEE TIT 49, 1007 (2003)), by damped
    Newton with CG directions; ``max_iters`` counts Newton steps and the
    history's fourth column holds t (see :func:`_barrier`).  Seeded random
    n = 3 and 4 ensembles on 2x3 reach ``gap_tol=1e-7`` in 27 Newton steps
    at the median, 38 at most (120 instances), and 7-10 ms.  The reported POVM
    is repaired to an exact one, so the bracket rests on a feasible
    measurement and a checked dual.

    Ensembles whose objective operators pairwise commute (e.g. mixtures of
    operators sharing an eigenbasis) are solved exactly in one shot, and
    count as converged when ``|gap| <= gap_tol``.  The solve runs on arrays
    (:func:`_solve_stack`); only the report's operators are built.
    """
    opts = opts or SolverOptions()
    # the stack is freed before the report's operators are built and checked
    m, lifted, iterations, history, method = _solve_stack(
        _objective_operators(ensemble, use_pt), opts
    )
    value, z, resid_min, lam = lifted
    h = z + lam * np.eye(z.shape[-1], dtype=z.dtype)
    gap = float(np.trace(h).real) - value
    dims = ensemble.dims
    return OptimalityReport(
        value=value,
        povm=Povm(dims, tuple(HermitianOperator(dims, b) for b in m)),
        dual_h=HermitianOperator(dims, h),
        gap=gap,
        residual_min_eigs=resid_min,
        converged=(abs(gap) if method == "commuting-eigenbasis" else gap) <= opts.gap_tol,
        iterations=iterations,
        method=method,
        value_history=np.array(history),
    )


def _barrier(g: np.ndarray, opts: SolverOptions):
    """The n > 2 path of :func:`_solve_stack`, with its return tuple.

    Damped Newton steps (:func:`_newton_direction`, :func:`_line_search`) on
    ``t Tr H - sum_i log det(H - G_i)`` centre H, then t grows by
    ``_T_FACTOR``.  At a centre the M_i = (H - G_i)^{-1} / t sum to I; a
    centring ends once ``||sum_i M_i - I||_F^2 <= n D / t``, or when the
    Newton decrement stops falling in the full-step phase (rounding).  Then
    :func:`_repair_povm` makes the M_i a POVM and the dual is its
    :func:`_dual_lift` or H itself (factored by Cholesky), whichever has the
    smaller trace: near the optimum H's gap stays at about n D / t while the
    lift's is held up by the centring residual (1.4e-10 against 1.5e-7 on
    one n = 4 instance at t = 1.8e11).  ``iterations`` counts Newton steps.
    The run stops at ``gap_tol`` or ``max_iters``, or unconverged at the
    line search's step floor, a singular POVM sum or a gap no lower than
    the last, returning the last bracket that improved.  History rows are
    ``(iteration, value, gap, t)``.
    """
    n, d = g.shape[0], g.shape[-1]
    eye = np.eye(d, dtype=g.dtype)
    h = (np.linalg.eigvalsh(g)[:, -1].max() + np.linalg.norm(g)) * eye
    chol = np.linalg.cholesky(h - g)
    y, logdet = _cholesky_inverse(chol), _log_det(chol)
    t = float(np.trace(y.sum(axis=0)).real) / d  # the most central t for H
    history, best, iterations, stalled = [], None, 0, False
    while True:
        try:
            m = _repair_povm(y / t)
        except np.linalg.LinAlgError:
            break
        value, z, resid_min, lam = _dual_lift(g, m)
        if float(np.trace(h).real) - value < lam * d:
            z, lam = h, 0.0
        gap = float(np.trace(z + lam * eye).real) - value
        if history and gap >= history[-1][2]:
            break
        history.append((iterations, value, gap, t))
        best = m, (value, z, resid_min, lam)
        if gap <= opts.gap_tol or iterations >= opts.max_iters or stalled:
            break
        t *= _T_FACTOR
        decrement = np.inf  # the squared Newton decrement of the last step
        while iterations < opts.max_iters:
            total = y.sum(axis=0)
            if np.linalg.norm(total / t - eye) ** 2 <= n * d / t:
                break
            grad = t * eye - total
            delta = _newton_direction(y, grad)
            slope = float(np.vdot(grad, delta).real)  # minus its decrement
            if -slope < _FULL_STEP and -slope >= decrement:
                break
            decrement = -slope
            iterations += 1
            found = _line_search(g, h, delta, t, logdet, slope)
            if found is None:
                stalled = True
                break
            h, chol, logdet = found
            y = _cholesky_inverse(chol)
    m, lifted = best
    return m, lifted, history[-1][0], history, "log-det-barrier"


def _line_search(g, h, delta, t, logdet, slope):
    """Armijo backtracking on the barrier from the full Newton step: the new
    H, the Cholesky factors of H - G_i and their log det, or None below
    ``_MIN_STEP``.  Once the squared decrement ``-slope`` is below
    ``_FULL_STEP`` (where rounding hides the barrier's change at large t) the
    first feasible step is taken."""
    step = 1.0
    while step >= _MIN_STEP:
        trial = h + step * delta
        try:
            chol = np.linalg.cholesky(trial - g)
        except np.linalg.LinAlgError:
            step /= 2
            continue
        trial_logdet = _log_det(chol)
        # the barrier's change, its t Tr H term taken as a difference
        change = t * step * float(np.trace(delta).real) - (trial_logdet - logdet)
        if -slope < _FULL_STEP or change <= _ARMIJO * step * slope:
            return trial, chol, trial_logdet
        step /= 2
    return None


def _log_det(chol: np.ndarray) -> float:
    """sum_i log det(L_i L_i^dagger) for a stack of Cholesky factors."""
    return 2.0 * float(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real).sum())


def _cholesky_inverse(chol: np.ndarray) -> np.ndarray:
    """(L L^dagger)^{-1} = W^dagger W with W = L^{-1}, for a stack: positive
    semidefinite by construction, however ill-conditioned L is."""
    w = np.linalg.inv(chol)
    return _hermitize(w.swapaxes(-1, -2).conj() @ w)


def _newton_direction(y: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve ``sum_i Y_i delta Y_i = -grad`` by preconditioned CG, with the
    Hessian applied as one batched product (the D^2 x D^2 matrix is never
    formed) and the inner product ``Re Tr(A^dagger B)``.  CG runs in the
    eigenbasis of ``sum_i (i + 1) Y_i``, where the preconditioner divides
    entry (a, b) by ``sum_i a_ia a_ib``, a_i the diagonal of Y_i there (exact
    when the Y_i commute), until the preconditioned residual norm has fallen
    by ``_CG_TOL``."""
    n, d = y.shape[0], y.shape[-1]
    _, v = np.linalg.eigh(np.einsum("i,ijk->jk", np.arange(1.0, n + 1), y))
    vh = v.conj().T
    yv = vh @ y @ v
    a = np.diagonal(yv, axis1=-2, axis2=-1).real
    precond = a.T @ a
    r = -(vh @ grad @ v)
    x = np.zeros_like(r)
    z = r / precond
    p = z
    rz = float(np.vdot(r, z).real)
    stop = _CG_TOL**2 * rz
    for _ in range(d * d):  # CG's bound in exact arithmetic
        if rz <= stop:
            break
        hp = (yv @ p @ yv).sum(axis=0)
        curvature = float(np.vdot(p, hp).real)
        if curvature <= 0.0:
            break
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * hp
        z = r / precond
        rz, rz_old = float(np.vdot(r, z).real), rz
        p = z + (rz / rz_old) * p
    return _hermitize(v @ x @ vh)


def _two_state_ascent(g: np.ndarray, opts: SolverOptions):
    """Projected ascent for two states, in the eigenbasis of D.

    With D = G0 - G1 = v diag(w) v^dagger, the iterate after steps summing to
    S is M0 = v diag(f) v^dagger, f = clip(1/2 + S w / 2, 0, 1), and
    M1 = I - M0.  In that basis Z = G1 + D M0, so the value is Tr G1 + w . f,
    and the residuals Z - G0 = -D (I - M0) and Z - G1 = D M0 are diagonal
    with entries -w (1 - f) and w f.  The step doubles every iteration, and
    the run stops once ``lam * D <= gap_tol`` (lam the worst residual
    violation) or at ``max_iters``, all on these eigenvalues.  The iterate at
    which they stop is built as matrices, and its value, residuals, dual and
    gap come from :func:`_dual_lift`.  If rounding leaves that gap above
    ``gap_tol``, the loop goes on and checks every further iterate the same
    way, so the reported bracket never rests on the eigenvalue model.  An
    iterate with the same f as the last one checked is the same matrix, so
    the run stops there, unconverged: with ``gap_tol`` below the rounding
    floor it would otherwise lift one matrix until ``max_iters``.
    """
    d = g.shape[-1]
    g_norm = max(float(np.linalg.norm(g)), 1e-300)
    step = 2.0 / g_norm
    w, v = np.linalg.eigh(g[0] - g[1])
    tr_g1 = float(np.trace(g[1]).real)
    total = 0.0
    exact = False
    stalled = False
    checked = None
    history = []
    iterations = 0
    while True:
        f = (0.5 + total / 2 * w).clip(0.0, 1.0)
        if exact:
            # once every eigenvalue has clipped, f and so the iterate stay
            # fixed: its gap cannot fall any further, so the run stops
            stalled = np.array_equal(f, checked)
            if not stalled:
                m0 = _spectral(v, f)
                m = np.stack([m0, np.eye(d, dtype=m0.dtype) - m0])
                lifted = _dual_lift(g, m)
                value, _, _, lam = lifted
                checked = f
        else:
            wf = w * f
            value = tr_g1 + float(wf.sum())
            lam = max(0.0, float((w - wf).max()), float(-wf.min()))
        done = stalled or lam * d <= opts.gap_tol or iterations >= opts.max_iters
        if done and not exact:
            exact = True  # check this iterate against its matrices
            continue
        history.append((iterations, value, lam * d, step))
        if done:
            break
        total += step
        iterations += 1
        if step * g_norm < _MAX_STEP_NORM:
            step *= 2
    return m, lifted, iterations, history, "projected-ascent"


@dataclass(frozen=True)
class CertificationResult:
    residual_min_eigs: np.ndarray
    certified: bool
    tol: float


def certify_optimal(
    ensemble: StateEnsemble, povm: Povm, use_pt: bool = True, tol: float = CERTIFY_TOL
) -> CertificationResult:
    """Optimality certificate for a candidate measurement.

    The measurement is optimal iff every residual
    ``sum_j eta_j A_j M_j - eta_i A_i`` is PSD; this reports the minimum
    eigenvalue of each (Hermitized) residual and certifies when all of them
    are >= -tol.
    """
    if povm.n_outcomes != ensemble.n:
        raise ValueError(
            f"POVM has {povm.n_outcomes} outcomes but the ensemble has {ensemble.n} states"
        )
    g = _objective_operators(ensemble, use_pt)
    m = np.stack([el.entries for el in povm.elements])
    _, z, resid_min, _ = _dual_lift(g, m)
    return CertificationResult(resid_min, bool(resid_min.min() >= -tol), tol)


@dataclass(frozen=True)
class DualBoundResult:
    feasible: bool
    bound: float | None
    violations: tuple[tuple[int, float], ...]

    def __bool__(self) -> bool:
        return self.feasible


def dual_bound(
    ensemble: StateEnsemble, h: HermitianOperator, tol: float = CERTIFY_TOL
) -> DualBoundResult:
    """Check H against the dual feasibility condition and return Tr H.

    If ``H - eta_i rho_i^PT`` is PSD (within tol) for every i, ``Tr H`` upper
    bounds the partial-transpose objective (to within tol times the
    dimension).  An infeasible H yields a rejection naming each violating
    state index with its minimum eigenvalue, not an exception.

    Feasibility is certified by Cholesky, with no spectrum.  Each
    X_i = H - eta_i rho_i^PT has its diagonal shifted in place by
    ``tol - delta``, with delta = 2 D eps (1 + max_i ||X_i||_F), which covers
    the backward error of the factorisation; if every shifted slice
    factorises, lambda_min(X_i) >= -tol holds for every i and ``Tr H`` is
    returned.  If one does not, the unshifted X is rebuilt and ``eigvalsh``
    names the violations, so a verdict can differ from the spectral test
    only within delta of the boundary.  The slices are factored one at a
    time: a batched factorisation of ``X + shift * I`` needs a second copy
    of the stack.  Two slices at D=1024, medians of 5 (numpy 2.4.6, one
    BLAS thread, 2-core x86-64): 0.30 s with ``eigvalsh``, 0.10 s with
    Cholesky; the whole check, partial transposes included, 0.19 s (0.36 s
    with ``eigvalsh``).
    """
    if h.dims != ensemble.dims:
        raise ValueError("operator and ensemble dimensions differ")
    g = _objective_operators(ensemble, use_pt=True)
    x = h.entries - g
    d = x.shape[-1]
    delta = 2 * d * np.finfo(float).eps * (1.0 + max(float(np.linalg.norm(xi)) for xi in x))
    for xi in x:
        xi.flat[:: d + 1] += tol - delta
        try:
            np.linalg.cholesky(xi)
        except np.linalg.LinAlgError:
            break
    else:
        return DualBoundResult(True, h.trace(), ())
    del x
    mins = np.linalg.eigvalsh(h.entries - g)[:, 0]
    violations = tuple((int(i), float(mins[i])) for i in np.nonzero(mins < -tol)[0])
    if violations:
        return DualBoundResult(False, None, violations)
    return DualBoundResult(True, h.trace(), ())
