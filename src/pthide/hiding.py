"""Monte Carlo simulation of the hiding protocols and exact strategy oracles.

Broadcast scheme: a hider draws L states independently from an ensemble,
hands all copies to the receivers, and publishes ``z = x + y (mod n)`` where
``y`` is the modulo-n sum of the drawn indices.  Guessing the hidden symbol
``x`` is then exactly as hard as guessing ``y`` from the quantum copies.

Direct encoding: the hider instead sends the coarse-grained state indexed by
``x`` itself, drawn with uniform priors.

Receiver strategies are simulated by Born-rule sampling with exact outcome
probabilities.  Success depends on a preparation only through the modulo-n
bin of its index sum, so :func:`exact_strategy_success` reads it off the n
bins of a cyclic convolution over the copies (``ensembles._mod_sum_bins``),
and direct encoding samples a bin exactly from the same convolution.  The
global support measurement (:func:`orthogonal_support_strategy`) is that
convolution of the single-copy support projectors, so it needs no spectrum
above the single-copy side.

Both simulators draw copy by copy: one uniform per copy and trial gives the
copy's index, jointly with its outcome under a per-copy parity strategy, and
a trial keeps only its running index sum and its outcome parity.  A global
POVM's outcome is drawn once, after the copies, from the law of the trial's
bin, the same table :func:`exact_strategy_success` reads; no n^L table of
L-copy states is built.  Each run builds that table once, draws from it,
and reads its own exact reference from it (see :class:`SimResult`): a
run's ``analytic_reference`` equals :func:`exact_strategy_success` bit for
bit, and is 1/n when the broadcast is withheld.  Memory is O(trials)
whatever L.  Measured at 250,000 trials with parity on the Bell example
(numpy 2.4.6, one thread, 2-core x86-64): 11-16 ns per copy and trial for
broadcast, about 22 ns for direct encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrimination import Povm
from .ensembles import (
    StateEnsemble,
    _folded_dims,
    _mod_sum_bins,
    _nonempty_bins,
    _tensor_bins,
    is_mutually_orthogonal,
)
from .operators import HermitianOperator

RNG_NAME = "numpy-philox"
#: Eigenvalues above this span the support of a single-copy state.
_SUPPORT_TOL = 1e-10


class PerCopyParityStrategy:
    """Measure every copy with the same two-outcome measurement and report
    the modulo-2 sum of the outcomes.

    Classically post-processing per-copy outcomes keeps the strategy in the
    same locality class as the base measurement.  Only meaningful for
    two-symbol ensembles.
    """

    name = "parity-product"

    def __init__(self, measurement: Povm):
        if measurement.n_outcomes != 2:
            raise ValueError("parity strategy needs a two-outcome measurement")
        self.measurement = measurement

    def outcome_table(self, ensemble: StateEnsemble) -> np.ndarray:
        """Per-copy Born probabilities, shape (n_states, 2)."""
        if ensemble.dims != self.measurement.dims:
            raise ValueError("measurement dims do not match the ensemble")
        return _born_table(
            [rho.entries for rho in ensemble.states],
            [m.entries for m in self.measurement.elements],
        )

    def level_povm(self, copies: int, cap: int | None = None) -> Povm:
        """Explicit measurement equivalent to per-copy measuring plus parity.

        Element i sums the tensor products of base elements over all outcome
        patterns with parity i; identical to
        ((M0+M1)^{xL} + (-1)^i (M0-M1)^{xL}) / 2.
        """
        if copies < 1:
            raise ValueError("copies must be >= 1")
        base = self.measurement.dims
        dims = _folded_dims(base, copies, cap)
        blocks = _tensor_bins([m.entries for m in self.measurement.elements], base, copies)
        return Povm(dims, tuple(HermitianOperator(dims, b) for b in blocks))


class GlobalPovmStrategy:
    """Measure the full L-copy state with one measurement; outcome o is the
    guess ``guesses[o]``."""

    name = "global-povm"

    def __init__(self, povm: Povm, guesses, name: str | None = None):
        self.povm = povm
        self.guesses = np.asarray(guesses, dtype=int)
        if self.guesses.shape != (povm.n_outcomes,):
            raise ValueError("need one guess per POVM outcome")
        if name:
            self.name = name


def orthogonal_support_strategy(
    ensemble: StateEnsemble, copies: int, cap: int | None = None
) -> GlobalPovmStrategy:
    """Projective global measurement onto the supports of the coarse-grained
    states; succeeds with certainty on mutually orthogonal ensembles.

    The measurement is built copy by copy, with no spectral call above the
    single-copy side D.  Distinct index vectors of a mutually orthogonal
    ensemble have orthogonal supports, so the support of bin i is the sum,
    over the index vectors with c_1 + ... + c_L = i (mod n) and every
    eta_{c_k} > 0, of the tensor products of the single-copy support
    projectors P_{c_k}.  That is the modulo-n convolution
    :func:`pthide.ensembles._tensor_bins` of the P_c, with P_c = 0 for a
    zero-weight state.  Each P_c keeps the eigenvectors of rho_c with
    eigenvalue above ``_SUPPORT_TOL``: the threshold applies to each copy's
    spectrum, not to the L-fold one.  An empty bin is refused, as in
    :func:`pthide.ensembles.coarse_grain`.  The part of the space outside
    every support goes to outcome 0.  Bell example at L=5 (side 1024),
    median of 5 (numpy 2.4.6, one BLAS thread, 2-core x86-64): 0.82 s with
    an ``eigh`` of every coarse-grained bin state, 0.12 s copy by copy.
    """
    if not is_mutually_orthogonal(ensemble):
        raise ValueError("support projectors require a mutually orthogonal ensemble")
    if copies < 1:
        raise ValueError("copies must be >= 1")
    dims = _folded_dims(ensemble.dims, copies, cap)
    _nonempty_bins(ensemble, copies)
    projs = []
    for eta, rho in ensemble.items:
        w, v = np.linalg.eigh(rho.entries)
        keep = v[:, w > _SUPPORT_TOL] if eta > 0.0 else v[:, :0]
        p = keep @ keep.conj().T
        projs.append((p + p.conj().T) / 2)
    blocks = _tensor_bins(projs, ensemble.dims, copies)
    # route the orthogonal remainder (if any) to outcome 0
    remainder = np.eye(dims.total, dtype=blocks[0].dtype) - sum(blocks)
    blocks[0] = blocks[0] + remainder
    povm = Povm(dims, tuple(HermitianOperator(dims, b) for b in blocks))
    return GlobalPovmStrategy(povm, np.arange(ensemble.n), name="global-orthogonal")


@dataclass(frozen=True)
class ProtocolConfig:
    """One simulation run: ensemble, number of copies, trials, seed, strategy."""

    ensemble: StateEnsemble
    copies: int
    trials: int
    seed: int
    strategy: object

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError("copies must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class SimResult:
    """One simulation run: the estimate, its Wald standard error, and the
    exact success the run's own sampling law gives, with the estimate's
    z-score against it.

    ``analytic_reference`` is read off the bin table the run draws from:
    the exact broadcast or uniform direct-encoding success (as
    :func:`exact_strategy_success`), P(guess = x | bin x) for a fixed
    symbol x, and 1/n with the broadcast withheld.
    """

    empirical_success: float
    stderr: float
    trials: int
    seed: int
    copies: int
    scheme: str
    strategy: str
    analytic_reference: float
    z_score: float
    rng: str = RNG_NAME


def _born_table(states, elements) -> np.ndarray:
    """Born probabilities, one row per state of the iterable ``states``."""
    rows = []
    for i, rho in enumerate(states):
        row = []
        for o, m in enumerate(elements):
            p = complex(np.einsum("ij,ji->", m, rho))
            if abs(p.imag) > 1e-9 or p.real < -1e-9:
                raise ValueError(f"invalid Born probability {p} for state {i}, outcome {o}")
            row.append(max(p.real, 0.0))
        rows.append(row)
    table = np.array(rows)
    row_sums = table.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-8:
        raise ValueError("outcome probabilities do not sum to one; POVM incomplete?")
    return table / row_sums[:, None]


def _sample_rows(rng, table, rows: np.ndarray) -> np.ndarray:
    """Categorical draws, one uniform each: from ``table[rows]`` when
    ``table`` is 2-D, from the single law ``table`` for every entry of
    ``rows`` when it is 1-D.

    A draw counts the cumulative weights of its row at or below its uniform,
    capped at the last category.  With non-negative weights the cap is the
    same as never comparing the last column, so each other column takes one
    pass over the draws.  The counts are kept in the smallest unsigned type
    that holds the last category, where adding a comparison costs about a
    third of adding it to an intp.
    """
    cum = np.cumsum(table, axis=-1)
    u = rng.random(rows.shape)
    out = np.zeros(rows.shape, dtype=np.min_scalar_type(table.shape[-1] - 1))
    for k in range(table.shape[-1] - 1):
        out += u >= (cum[..., k] if table.ndim == 1 else cum[:, k][rows])
    return out


def _finish(success_mask, cfg, scheme, reference) -> SimResult:
    """Estimate, its Wald standard error, and its z-score against the reference.

    z uses the reference's own binomial spread p(1 - p)/T, which stays
    finite when every trial succeeds (or fails).  A reference of exactly 0
    or 1 has no spread: z is 0 if the estimate equals it and +-inf otherwise,
    which can only mean a sampler bug.
    """
    p_hat = float(success_mask.mean())
    stderr = float(np.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / cfg.trials))
    if reference in (0.0, 1.0):
        z = 0.0 if p_hat == reference else float(np.copysign(np.inf, p_hat - reference))
    else:
        z = float((p_hat - reference) / np.sqrt(reference * (1.0 - reference) / cfg.trials))
    return SimResult(
        empirical_success=p_hat,
        stderr=stderr,
        trials=cfg.trials,
        seed=cfg.seed,
        copies=cfg.copies,
        scheme=scheme,
        strategy=getattr(cfg.strategy, "name", type(cfg.strategy).__name__),
        analytic_reference=reference,
        z_score=z,
    )


def _draw_guesses(cfg: ProtocolConfig, rng, coarse, laws, state: np.ndarray) -> np.ndarray:
    """Draw the copies one at a time and return the receiver's guesses.

    ``coarse`` is the run's :func:`_coarse_table`.  ``laws`` gives, copy by
    copy, the law of the copy's index c: 1-D for the same law in every
    trial, or 2-D with one row per value of ``state``, a (trials,) integer
    vector to which each drawn c is added in place.  Under
    parity, c and the copy's outcome o are drawn together, with one uniform,
    from the 2n categories 2c + o of law(c) * P(o | c), and only the outcome
    parity is kept; under a global POVM, whose outcome depends on the copies
    only through the bin of their modulo-n sum, the outcome is drawn from
    that bin's row of ``coarse``.  No (trials, copies) array and no n^L
    table is built.
    """
    ensemble = cfg.ensemble
    strategy = cfg.strategy
    if isinstance(strategy, PerCopyParityStrategy):
        outcome = strategy.outcome_table(ensemble)
        parity = np.zeros_like(state)
        for law in laws:
            joint = (law[..., None] * outcome).reshape(*law.shape[:-1], -1)
            k = _sample_rows(rng, joint, state)
            state += k >> 1
            parity ^= k & 1
        return parity
    if isinstance(strategy, GlobalPovmStrategy):
        _, table, guesses = coarse
        start = state.copy()
        for law in laws:
            state += _sample_rows(rng, law, state)
        return guesses[_sample_rows(rng, table, (state - start) % ensemble.n)]
    raise TypeError(f"unsupported strategy type {type(strategy).__name__}")


def simulate_broadcast_scheme(
    cfg: ProtocolConfig,
    withhold_broadcast: bool = False,
    cap: int | None = None,
) -> SimResult:
    """Monte Carlo run of the broadcast scheme with a uniformly hidden symbol.

    Per trial: draw the L preparation indices, compute their modulo-n sum y,
    draw x uniformly, publish z = x + y; the receiver guesses y from the
    quantum copies and outputs z - y_guess.  With ``withhold_broadcast`` the
    receiver never sees z and can only output its y guess, so any strategy
    sits at chance level 1/n, which is then the run's reference (see
    :class:`SimResult`).

    Copies are drawn one at a time, each index (jointly with its outcome
    under parity) from one uniform, and only the running index sum and the
    outcome parity are kept: memory is O(trials) whatever L, and a copy
    costs 11-16 ns per trial under parity (see the module notes).
    """
    n = cfg.ensemble.n
    coarse = _coarse_table(cfg.ensemble, cfg.copies, cfg.strategy, cap)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    y = np.zeros(cfg.trials, dtype=np.intp)
    laws = [cfg.ensemble.probabilities] * cfg.copies
    y_guess = _draw_guesses(cfg, rng, coarse, laws, y)
    x = rng.integers(0, n, cfg.trials)
    x_guess = y_guess if withhold_broadcast else (x + y - y_guess) % n
    reference = 1.0 / n if withhold_broadcast else _exact_success(coarse, "broadcast")
    return _finish(x_guess == x, cfg, "broadcast", reference)


def _direct_laws(etas: np.ndarray, copies: int):
    """Bin weights and, first copy first, the index laws of direct encoding.

    With P_m(r) the chance that m indices sum to r (mod n), the copy drawn
    while m copies, itself included, remain to be drawn with sum r has index
    c with chance eta_c P_{m-1}(r - c) / P_m(r) (a zero row for an empty
    bin); P_m is the cyclic convolution of P_{m-1} with eta.  A trial's row
    is its unreduced state s = n - x + (sum drawn so far), which starts at
    n - x and only grows, to at most n + (n-1) L: row s is the law for
    r = -s (mod n), repeated periodically over n (L + 1) rows, so no draw
    reduces modulo n.
    """
    n = len(etas)
    shift = (np.arange(n)[:, None] - np.arange(n)) % n  # shift[r, c] = r - c (mod n)
    rows = -np.arange(n * (copies + 1)) % n
    bins = np.eye(n)[0]
    laws = []
    for _ in range(copies):
        joint = bins[shift] * etas
        bins = joint.sum(axis=1)
        laws.append((joint / np.where(bins > 0.0, bins, 1.0)[:, None])[rows])
    return bins, laws[::-1]


def simulate_direct_encoding(
    cfg: ProtocolConfig,
    x: int | None = None,
    cap: int | None = None,
) -> SimResult:
    """Monte Carlo run of direct encoding: the receiver gets the coarse state
    of symbol x (uniform unless fixed) and guesses x directly.

    The coarse state is prepared exactly, as an index vector conditioned on
    its modulo-n sum, one copy at a time: each index is drawn from its law
    given the sum still to be drawn (:func:`_direct_laws`), jointly with its
    outcome under parity, from one uniform; memory is O(trials) whatever L,
    and a copy costs about 22 ns per trial under parity (see the module
    notes).  A symbol whose bin is empty (with uniform x: any empty bin) is
    refused before any draw.
    """
    n = cfg.ensemble.n
    coarse = _coarse_table(cfg.ensemble, cfg.copies, cfg.strategy, cap)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    bin_eta, laws = _direct_laws(cfg.ensemble.probabilities, cfg.copies)
    if x is None:
        if np.any(bin_eta <= 0.0):
            raise ValueError("a coarse bin has zero probability; direct encoding undefined")
        xs = rng.integers(0, n, cfg.trials)
    else:
        if not 0 <= x < n:
            raise ValueError(f"symbol {x} out of range for n={n}")
        if bin_eta[x] <= 0.0:
            raise ValueError(f"coarse bin {x} has zero probability; direct encoding undefined")
        xs = np.full(cfg.trials, x, dtype=np.intp)
    x_guess = _draw_guesses(cfg, rng, coarse, laws, n - xs)
    reference = _exact_success(coarse, "direct", x)
    return _finish(x_guess == xs, cfg, "direct-encoding", reference)


def _coarse_table(ensemble: StateEnsemble, copies: int, strategy, cap: int | None):
    """Bin weights, P(outcome | bin) (zero rows for empty bins) and the guess
    of each outcome.  The bins convolve over the copies: for parity the
    vectors eta_c * P(outcome | c), outcomes adding modulo 2; for a global
    POVM the states eta_c * rho_c, as in :func:`pthide.ensembles.coarse_grain`.
    """
    etas = ensemble.probabilities
    bin_eta = np.array(_mod_sum_bins(etas, copies))
    full = bin_eta > 0.0
    if isinstance(strategy, PerCopyParityStrategy):
        per_copy = strategy.outcome_table(ensemble)
        joint = _mod_sum_bins(
            [eta * row for eta, row in zip(etas, per_copy)],
            copies,
            lambda a, b: a * b[0] + a[::-1] * b[1],
        )
        table = np.zeros((ensemble.n, 2))
        table[full] = np.array(joint)[full] / bin_eta[full, None]
        return bin_eta, table, np.arange(2)
    if isinstance(strategy, GlobalPovmStrategy):
        if ensemble.dims.total**copies != strategy.povm.dims.total:
            raise ValueError("POVM dims do not match the folded ensemble")
        _folded_dims(ensemble.dims, copies, cap)
        weighted = [eta * rho.entries for eta, rho in ensemble.items]
        bins = _tensor_bins(weighted, ensemble.dims, copies)
        states = (b / eta for b, eta in zip(bins, bin_eta) if eta > 0.0)
        table = np.zeros((ensemble.n, strategy.povm.n_outcomes))
        table[full] = _born_table(states, [m.entries for m in strategy.povm.elements])
        return bin_eta, table, strategy.guesses
    raise TypeError(f"unsupported strategy type {type(strategy).__name__}")


def exact_strategy_success(
    ensemble: StateEnsemble,
    copies: int,
    strategy,
    scheme: str = "broadcast",
    cap: int | None = None,
) -> float:
    """Deterministic success probability, exact up to rounding (no sampling).

    Success depends on a preparation only through the modulo-n bin of its
    index sum, so it is read off the n coarse bins (see :func:`_exact_success`).
    Both simulators report the same value as their ``analytic_reference``.
    """
    if scheme not in ("broadcast", "direct"):
        raise ValueError("scheme must be 'broadcast' or 'direct'")
    if copies < 1:
        raise ValueError("copies must be >= 1")
    return _exact_success(_coarse_table(ensemble, copies, strategy, cap), scheme)


def _exact_success(coarse, scheme: str, x: int | None = None) -> float:
    """Exact success read off a :func:`_coarse_table`.

    Broadcast succeeds with sum_i eta_i P(guess = i | bin i), direct encoding
    with (1/n) sum_i P(guess = i | bin i), or P(guess = x | bin x) for a
    fixed symbol x.  Empty bins add nothing to broadcast; uniform direct
    encoding refuses them.  The value is clipped into [0, 1], which a
    certain strategy can overshoot by rounding.
    """
    bin_eta, table, guesses = coarse
    hit = (table * (guesses == np.arange(len(bin_eta))[:, None])).sum(axis=1)
    if scheme == "broadcast":
        success = bin_eta @ hit
    elif x is not None:
        success = hit[x]
    elif np.any(bin_eta <= 0.0):
        raise ValueError("a coarse bin has zero probability; direct encoding undefined")
    else:
        success = hit.mean()
    return float(np.clip(success, 0.0, 1.0))
