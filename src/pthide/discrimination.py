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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ensembles import StateEnsemble
from .operators import BipartiteDims, HermitianOperator, is_psd
from .operators import _block, _by_size, _components, _eig_apply, _hermitize, _min_eig
from .operators import _pt, _spectral

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
    d = povm.dims.total
    # one sum, accumulated in place in the elements' common dtype
    total = np.zeros((d, d), dtype=np.result_type(float, *(m.entries for m in povm.elements)))
    for i, m in enumerate(povm.elements):
        ok, lmin = is_psd(m, POVM_PSD_TOL)
        checks.append((f"element_{i}_psd", lmin, ok))
        total += m.entries
    total.flat[:: d + 1] -= 1.0
    completeness = float(np.linalg.norm(total))
    checks.append(("completeness", completeness, completeness <= POVM_COMPLETENESS_TOL * d))
    return checks


def _objective_operators(ensemble: StateEnsemble, use_pt: bool) -> np.ndarray:
    """Stack eta_i * rho_i as (n, D, D), partially transposed as one stack if ``use_pt``."""
    g = np.stack([eta * rho.entries for eta, rho in ensemble.items])
    return _pt(g, ensemble.dims) if use_pt else g


def _difference_norm(ensemble: StateEnsemble, use_pt: bool) -> float:
    """Trace norm of G0 - G1 (:func:`_objective_operators`), the quantity
    every two-state closed form is built from."""
    if ensemble.n != 2:
        raise ValueError("closed form requires exactly two states")
    g = _objective_operators(ensemble, use_pt)
    return float(np.abs(np.linalg.eigvalsh(g[0] - g[1])).sum())


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
    """Two-outcome projective measurement that attains the two-state optimum
    of the (plain or partially transposed) objective: the POVM that
    :func:`solve_optimal_value` reports, from the same block split
    (:func:`_solve_stack`).  On each block of D = G0 - G1 it projects onto
    D's nonnegative eigenspace (:func:`_helstrom`); a 1x1 block goes to the
    first state with the larger diagonal entry, so outcome 0 on a tie.
    """
    if ensemble.n != 2:
        raise ValueError("projective construction requires exactly two states")
    m = _solve_stack(_objective_operators(ensemble, use_pt), SolverOptions())[0]
    dims = ensemble.dims
    return Povm(dims, tuple(HermitianOperator(dims, b) for b in m))


def _helstrom(g: np.ndarray):
    """The two-state solve in closed form, with :func:`_solve_stack`'s return
    tuple; it needs no options.

    With D = G0 - G1 = v diag(w) v^dagger + E, the projector M0 = v diag(f)
    v^dagger with f = [w >= 0], and M1 = I - M0, attains the optimum
    Tr G1 + sum_{w >= 0} w (Helstrom, *Quantum Detection and Estimation
    Theory*, 1976); its value is Tr G1 + sum_k f_k (v^dagger D v)_kk.  The
    dual is Z = G1 + v diag(w f) v^dagger: by Weyl's inequality the measured
    err = ||D v - v diag(w)||_F >= ||E||_2 covers E in
    Z - G0 = v diag(w f - w) v^dagger - E, so lambda_min(Z - G_i) is at least
    min(w f - w) - err and min(w f) >= 0, the shift is
    lam = max(0, max(w - w f) + err), and the gap, about err * D, is
    certified.  A value that rounding puts above Tr H is clamped to it, so
    the gap is never negative.  The history is one row ``(0, value, gap, 0)``.
    """
    d = g.shape[-1]
    diff = g[0] - g[1]
    w, v = np.linalg.eigh(diff)
    resid = diff @ v
    dvv = np.einsum("ji,ji->i", v.conj(), resid).real  # the diagonal of v^dagger D v
    resid -= v * w
    err = float(np.linalg.norm(resid))
    del diff, resid
    f = w >= 0.0
    cols = v[:, f]
    m0 = _hermitize(cols @ cols.conj().T)
    m = np.stack([m0, np.eye(d, dtype=m0.dtype) - m0])
    wf = w * f
    h = g[1] + _spectral(v, wf)
    resid_min = np.array([float((wf - w).min()) - err, float(wf.min())])
    _shift_feasible(h, resid_min)
    trace = float(np.trace(h).real)
    value = min(float(np.trace(g[1]).real) + float(f @ dvv), trace)
    return m, h, resid_min, [(0, value, trace - value, 0.0)], "helstrom"


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for :func:`solve_optimal_value`: the iteration budget, the
    certified gap at which a run stops and counts as converged, and the
    seed of the commuting fast path's random probes and weights.

    ``max_iters`` counts the barrier's Newton steps; a two-state solve is a
    closed form and takes none.  ``fast_path_seed`` matters only for
    n != 2, where the commuting fast path runs.  The barrier's constants
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
    in ``[value, value + gap]`` whether or not the run converged, which is
    ``gap <= gap_tol`` on every path.  ``residual_min_eigs`` bound
    lambda_min(dual_H - G_i) from below and are >= 0 on every path:
    ``dual_H`` carries its feasibility shift, and its minima are Weyl bounds
    (the two-state and commuting paths), spectra (the barrier) or exact
    entries (1x1 blocks), each shifted with it.

    ``value_history`` has one row per checked iterate: its iteration, its
    value and certified gap, and a fourth column.  For the barrier
    (``"log-det-barrier"``) that column is the parameter t of the centring
    that produced the iterate, with the iteration counted in Newton steps.
    The last row holds the report's ``iterations``, ``value`` and ``gap``.
    The two-state closed form (``"helstrom"``) and the commuting fast path
    (``"commuting-eigenbasis"``) report one row ``(0, value, gap, 0)``.

    A stack whose nonzero pattern splits into several components is solved
    block by block (:func:`_solve_split`).  Then ``method`` is the one method
    of its non-singleton blocks, or their distinct methods joined by ``+``
    in alphabetical order (say ``"commuting-eigenbasis+log-det-barrier"``),
    and ``"commuting-eigenbasis"`` when every block is 1x1.  ``iterations``
    sums over the block solves, each with the full ``max_iters``;
    ``residual_min_eigs`` are per state the least over the blocks, of the
    shifted block duals; and ``value_history`` is one row
    ``(iterations, value, gap, 0)``.
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
    """``(value, Z, minima)``: the value of the blocks m, the Hermitized
    weighted operator sum Z = sum_i G_i M_i, and lambda_min(Z - G_i) per
    state, block by block (:func:`_min_eig`).  Z is unshifted; the minima
    are the optimality residuals of m (:func:`certify_optimal`)."""
    z_raw = (g @ m).sum(axis=0)
    value = float(np.trace(z_raw).real)
    z = _hermitize(z_raw)
    return value, z, _min_eig(z[None, :, :] - g)


def _shift_feasible(z: np.ndarray, resid_min: np.ndarray) -> None:
    """Add lam = max(0, -min(resid_min)) to z's diagonal and to resid_min, in
    place: if resid_min bound lambda_min(z - G_i), z then dominates every G_i."""
    lam = max(0.0, float(-resid_min.min()))
    z.flat[:: z.shape[-1] + 1] += lam
    resid_min += lam


def _try_commuting_solve(g: np.ndarray, opts: SolverOptions):
    """One-shot solve when the objective operators pairwise commute.

    In a joint eigenbasis V each eigenvector goes to the state with the
    largest diagonal d_ik of V^dagger G_i V; the value is the sum of those
    maxima top_k, and the dual is Z = V diag(top) V^dagger.  By Weyl's
    inequality lambda_min(Z - G_i) >= min_k(top_k - d_ik) - off_i with the
    measured off_i = ||G_i V - V diag(d_i)||_F, the norm of V^dagger G_i V's
    off-diagonal part, so a shift lam certifies Z + lam I at a gap of lam D.
    Returns None (the iterative path) when that gap exceeds ``gap_tol`` or
    random commutator probes reject the stack; the probes only save time.
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
    weights = rng.uniform(0.5, 1.5, size=n)
    v = np.linalg.eigh(np.einsum("n,nij->ij", weights, g))[1]
    diag, off = np.empty((n, d)), np.empty(n)
    for i in range(n):
        gv = g[i] @ v
        diag[i] = np.einsum("ji,ji->i", v.conj(), gv).real
        gv -= v * diag[i]
        off[i] = np.linalg.norm(gv)
    del gv  # a D x D residual, freed before the blocks
    top = diag.max(axis=0)
    resid_min = (top - diag).min(axis=1) - off
    if -resid_min.min() * d > opts.gap_tol:
        return None
    assign = diag.argmax(axis=0)
    value = float(top.sum())
    blocks = np.zeros((n, d, d), dtype=v.dtype)
    for i in range(n):
        cols = v[:, assign == i]
        if cols.shape[1]:
            # cols @ cols^dagger is one rank-k update (half a general product)
            blocks[i] = _hermitize(cols @ cols.conj().T)
    z = _spectral(v, top)
    _shift_feasible(z, resid_min)
    history = [(0, value, float(np.trace(z).real) - value, 0.0)]
    return blocks, z, resid_min, history, "commuting-eigenbasis"


def _solve_stack(g: np.ndarray, opts: SolverOptions):
    """Solve on the (n, D, D) stack ``g`` of objective operators.  Returns
    ``(M, H, residual_minima, history, method)``: the POVM blocks, the dual
    H with its feasibility shift on the diagonal, lower bounds on
    lambda_min(H - G_i), and :attr:`OptimalityReport.value_history`'s rows.

    A stack whose nonzero pattern has more than one component
    (:func:`_components`) is solved block by block (:func:`_solve_split`);
    a dense one by :func:`_solve_block`.
    """
    groups = _components(g)
    if len(groups) == 1:
        return _solve_block(g, opts)
    return _solve_split(g, groups, opts)


def _solve_block(g: np.ndarray, opts: SolverOptions):
    """Two states in closed form (:func:`_helstrom`); otherwise the commuting
    fast path if it applies, else the log-det barrier, with
    :func:`_solve_stack`'s return tuple."""
    if g.shape[0] == 2:
        return _helstrom(g)
    fast = _try_commuting_solve(g, opts)
    if fast is not None:
        return fast
    return _barrier(g, opts)


def _solve_split(g: np.ndarray, groups: list[np.ndarray], opts: SolverOptions):
    """Solve a stack that is block-diagonal on ``groups``, block by block.

    Each 1x1 block k is solved exactly, all at once: M_i[k, k] = 1 for the
    first i maximizing G_i[k, k], and H[k, k] is that maximum, at a gap of
    0.  Every larger block takes :func:`_solve_block` on its sub-stack with a
    share of ``gap_tol`` proportional to its side, so the block gaps, which
    add up, stay within ``gap_tol``; sub-stacks that are equal entry for
    entry are solved once, and ``iterations`` sums over the solves run.  M
    and H are zero off the blocks, H holds the block duals as returned,
    shift included, and the residual minima, per state the least over the
    blocks, bound those of H - G_i.  The value is the sum of
    the block values, or Tr H where rounding in the two sums' orders puts
    that below it.  ``method`` is the non-singleton blocks' method, or their
    distinct methods joined by ``+`` (``"commuting-eigenbasis"`` when every
    block is 1x1).
    """
    n, d = g.shape[0], g.shape[-1]
    m = np.zeros_like(g)
    h = np.zeros((d, d), dtype=g.dtype)
    sized = _by_size(groups)
    resid_min = np.full(n, np.inf)
    values, iterations, methods, solved = [], 0, set(), {}
    if 1 in sized:
        k = sized.pop(1)[:, 0]
        diag = g[:, k, k].real
        assign = diag.argmax(axis=0)
        top = diag[assign, np.arange(k.size)]
        m[assign, k, k] = 1.0
        h[k, k] = top
        resid_min = (top - diag).min(axis=1)
        values.append(float(top.sum()))
    span = sum(idx.size for idx in sized.values())
    for s, idx in sized.items():
        budget = replace(opts, gap_tol=opts.gap_tol * s / span)
        for c, sub in zip(idx, np.ascontiguousarray(_block(g, idx).swapaxes(0, 1))):
            key = sub.tobytes()
            if key not in solved:
                solved[key] = _solve_block(sub, budget)
                iterations += solved[key][3][-1][0]
            mb, hb, resid, history, method = solved[key]
            m[:, c[:, None], c] = mb
            h[c[:, None], c] = hb
            resid_min = np.minimum(resid_min, resid)
            values.append(history[-1][1])
            methods.add(method)
    trace = float(np.trace(h).real)
    value = min(math.fsum(values), trace)
    method = "+".join(sorted(methods)) or "commuting-eigenbasis"
    return m, h, resid_min, [(iterations, value, trace - value, 0.0)], method


def solve_optimal_value(
    ensemble: StateEnsemble, use_pt: bool = True, opts: SolverOptions | None = None
) -> OptimalityReport:
    """Maximize the (optionally partially transposed) guessing objective.

    With G = (eta_i * A_i), the run stops once the certified gap of its
    current POVM and dual is at most ``gap_tol``.  A non-converged run is
    reported as such, never silently truncated: the returned value/gap pair
    still brackets the optimum.  ``method`` names the path taken.

    Two states (``"helstrom"``): the closed form, from one ``eigh`` of
    D = G0 - G1 and no iterations.  The POVM is the Helstrom projector onto
    D's nonnegative eigenspace, block by block; :func:`helstrom_measurement`
    returns the same POVM.  The gap is the Weyl shift of the measured
    eigenbasis residual, about err * D (see :func:`_helstrom`): rounding
    above 0 unless that residual is exactly 0, so a generic pair does not
    converge at ``gap_tol=0``.

    More states (``"log-det-barrier"``): the dual barrier method (Boyd &
    Vandenberghe, *Convex Optimization*, ch. 11) on min Tr H s.t. H >= G_i
    (Eldar, Megretski & Verghese, IEEE TIT 49, 1007 (2003)), by damped
    Newton with CG directions; ``max_iters`` counts Newton steps and the
    history's fourth column holds t (see :func:`_barrier`).  Seeded random
    n = 3 and 4 ensembles on 2x3 reach ``gap_tol=1e-7`` in 27 Newton steps
    at the median, 38 at most (120 instances), and 7-10 ms.  The reported POVM
    is repaired to an exact one, so the bracket rests on a feasible
    measurement and a checked dual.

    Other ensembles whose objective operators pairwise commute are solved
    in one shot when the gap that :func:`_try_commuting_solve` certifies is
    at most ``gap_tol`` (it is rounding above 0, so not at ``gap_tol=0``).
    Every path counts as converged when ``gap <= gap_tol``.  The solve runs on
    arrays (:func:`_solve_stack`); only the report's operators are built.
    """
    opts = opts or SolverOptions()
    # the stack is freed before the report's operators are built and checked
    m, h, resid_min, history, method = _solve_stack(_objective_operators(ensemble, use_pt), opts)
    iterations, value, gap, _ = history[-1]
    dims = ensemble.dims
    return OptimalityReport(
        value=value,
        povm=Povm(dims, tuple(HermitianOperator(dims, b) for b in m)),
        dual_h=HermitianOperator(dims, h),
        gap=gap,
        residual_min_eigs=resid_min,
        converged=gap <= opts.gap_tol,
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
    :func:`_dual_lift`, shifted by :func:`_shift_feasible`, or H itself
    (factored by Cholesky), whichever has the smaller trace, H on a tie:
    near the optimum H's gap stays at about n D / t while the lift's is held
    up by the centring residual (1.4e-10 against 1.5e-7 on one n = 4
    instance at t = 1.8e11).  When H is the dual, its residual minima are
    those of H - G_i (:func:`_min_eig`), taken once the run ends.
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
        value, z, resid_min = _dual_lift(g, m)
        _shift_feasible(z, resid_min)
        if np.trace(h).real <= np.trace(z).real:
            z, resid_min = h, None  # H's own minima, taken once at the end
        gap = float(np.trace(z).real) - value
        if history and gap >= history[-1][2]:
            break
        history.append((iterations, value, gap, t))
        best = m, z, resid_min
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
    m, z, resid_min = best
    if resid_min is None:
        resid_min = _min_eig(z - g)
    return m, z, resid_min, history, "log-det-barrier"


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
    if povm.dims != ensemble.dims:
        raise ValueError("POVM and ensemble dimensions differ")
    g = _objective_operators(ensemble, use_pt)
    m = np.stack([el.entries for el in povm.elements])
    resid_min = _dual_lift(g, m)[2]
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
    returned.  If one does not, the unshifted X is rebuilt and
    :func:`~pthide.operators._min_eig` names the violations, so a verdict can
    differ from the spectral test only within delta of the boundary.

    Both steps run block by block over the components of X's nonzero pattern
    (:func:`~pthide.operators._components`): X is exactly block-diagonal on
    them, so it factorises iff every block does, and a 1x1 block does iff its
    entry is positive.  delta keeps the full side D, so splitting changes no
    verdict.  The slices are factored one at a time: a batched factorisation
    of ``X + shift * I`` needs a second copy of the stack.  Medians of 5
    (numpy 2.4.6, one BLAS thread, 2-core x86-64): two dense real slices at
    D=1024 take 0.10 s; the (2,1,2) Werner stack at L=5 (side 1024, one
    block of side 32 and 992 of side 1) 0.03 s, against 0.11 s whole.
    """
    if h.dims != ensemble.dims:
        raise ValueError("operator and ensemble dimensions differ")
    g = _objective_operators(ensemble, use_pt=True)
    x = h.entries - g
    d = x.shape[-1]
    delta = 2 * d * np.finfo(float).eps * (1.0 + max(float(np.linalg.norm(xi)) for xi in x))
    sized = _by_size(_components(x))
    for xi in x:
        xi.flat[:: d + 1] += tol - delta
        if not _factorises(xi, sized):
            break
    else:
        return DualBoundResult(True, h.trace(), ())
    del x
    mins = _min_eig(h.entries - g)
    violations = tuple((int(i), float(mins[i])) for i in np.nonzero(mins < -tol)[0])
    if violations:
        return DualBoundResult(False, None, violations)
    return DualBoundResult(True, h.trace(), ())


def _factorises(x: np.ndarray, sized: dict[int, np.ndarray]) -> bool:
    """Whether Cholesky factors every diagonal block of the (D, D) array x on
    the components ``sized`` (:func:`~pthide.operators._by_size`): a 1x1
    block iff its real entry is positive, a single component in place."""
    try:
        for s, idx in sized.items():
            if s == x.shape[-1]:
                np.linalg.cholesky(x)
            elif s == 1:
                if not (_block(x, idx).real > 0).all():
                    return False
            else:
                np.linalg.cholesky(_block(x, idx))
    except np.linalg.LinAlgError:
        return False
    return True
