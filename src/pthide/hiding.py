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
and direct encoding samples a bin exactly from the same convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrimination import Povm
from .ensembles import (
    StateEnsemble,
    _fold_items,
    _folded_dims,
    _mod_sum_bins,
    _tensor_bins,
    coarse_grain,
    is_mutually_orthogonal,
)
from .operators import HermitianOperator

RNG_NAME = "numpy-philox"


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

    def guesses_from_outcomes(self, outcomes: np.ndarray) -> np.ndarray:
        return outcomes.sum(axis=1) % 2

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

    def outcome_table(self, ensemble: StateEnsemble, copies: int, cap: int | None = None):
        """Born probabilities for every L-copy preparation, shape (n^L, outcomes).

        Rows follow the lexicographic order of :func:`pthide.ensembles.fold`;
        the L-copy states are streamed, so only one of them is held at a time.
        """
        if ensemble.dims.total**copies != self.povm.dims.total:
            raise ValueError("POVM dims do not match the folded ensemble")
        states = (rho.entries for _, rho in _fold_items(ensemble.items, copies, cap))
        return _born_table(states, [m.entries for m in self.povm.elements])


def orthogonal_support_strategy(
    ensemble: StateEnsemble, copies: int, cap: int | None = None, support_tol: float = 1e-10
) -> GlobalPovmStrategy:
    """Projective global measurement onto the supports of the coarse-grained
    states; succeeds with certainty on mutually orthogonal ensembles."""
    if not is_mutually_orthogonal(ensemble):
        raise ValueError("support projectors require a mutually orthogonal ensemble")
    coarse = coarse_grain(ensemble, copies, cap=cap)
    dims = coarse.dims
    blocks = []
    for _, rho in coarse.items:
        w, v = np.linalg.eigh(rho.entries)
        keep = v[:, w > support_tol]
        p = keep @ keep.conj().T
        blocks.append((p + p.conj().T) / 2)
    # route the orthogonal remainder (if any) to outcome 0
    remainder = np.eye(dims.total, dtype=blocks[0].dtype) - sum(blocks)
    blocks[0] = blocks[0] + remainder
    povm = Povm(dims, tuple(HermitianOperator(dims, b) for b in blocks))
    return GlobalPovmStrategy(povm, np.arange(coarse.n), name="global-orthogonal")


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
    empirical_success: float
    stderr: float
    trials: int
    seed: int
    copies: int
    scheme: str
    strategy: str
    rng: str = RNG_NAME
    analytic_reference: float | None = None
    z_score: float | None = None


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


def _sample_rows(rng, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Categorical samples, one per entry of ``rows``, from table[rows].

    A sample counts the cumulative weights of its row at or below one uniform
    draw, capped at the last outcome.  With non-negative weights the cap is
    the same as never comparing the last column, so each other column takes
    one pass.
    """
    cum = np.cumsum(table, axis=1)
    u = rng.random(rows.shape)
    out = np.zeros(rows.shape, dtype=int)
    for k in range(table.shape[1] - 1):
        out += u >= cum[:, k][rows]
    return out


def _finish(success_mask, cfg, scheme, reference) -> SimResult:
    p_hat = float(success_mask.mean())
    stderr = float(np.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / cfg.trials))
    z = None if reference is None else float((p_hat - reference) / stderr)
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


def _simulate_guesses(cfg: ProtocolConfig, rng, prep: np.ndarray, cap=None) -> np.ndarray:
    """Sample measurement outcomes for prepared index vectors and map to guesses."""
    ensemble = cfg.ensemble
    if isinstance(cfg.strategy, PerCopyParityStrategy):
        table = cfg.strategy.outcome_table(ensemble)
        outcomes = _sample_rows(rng, table, prep)
        return cfg.strategy.guesses_from_outcomes(outcomes)
    if isinstance(cfg.strategy, GlobalPovmStrategy):
        table = cfg.strategy.outcome_table(ensemble, cfg.copies, cap=cap)
        powers = ensemble.n ** np.arange(cfg.copies - 1, -1, -1)
        flat = prep @ powers
        outcome = _sample_rows(rng, table, flat)
        return cfg.strategy.guesses[outcome]
    raise TypeError(f"unsupported strategy type {type(cfg.strategy).__name__}")


def simulate_broadcast_scheme(
    cfg: ProtocolConfig,
    withhold_broadcast: bool = False,
    analytic_reference: float | None = None,
    cap: int | None = None,
) -> SimResult:
    """Monte Carlo run of the broadcast scheme with a uniformly hidden symbol.

    Per trial: draw the L preparation indices, compute their modulo-n sum y,
    draw x uniformly, publish z = x + y; the receiver guesses y from the
    quantum copies and outputs z - y_guess.  With ``withhold_broadcast`` the
    receiver never sees z and can only output its y guess, so any strategy
    sits at chance level 1/n.
    """
    ensemble = cfg.ensemble
    n = ensemble.n
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    prep = _sample_rows(
        rng, ensemble.probabilities[None, :], np.zeros((cfg.trials, cfg.copies), dtype=int)
    )
    y = prep.sum(axis=1) % n
    x = rng.integers(0, n, cfg.trials)
    y_guess = _simulate_guesses(cfg, rng, prep, cap=cap)
    if withhold_broadcast:
        x_guess = y_guess
    else:
        z = (x + y) % n
        x_guess = (z - y_guess) % n
    return _finish(x_guess == x, cfg, "broadcast", analytic_reference)


def simulate_direct_encoding(
    cfg: ProtocolConfig,
    x: int | None = None,
    analytic_reference: float | None = None,
    cap: int | None = None,
) -> SimResult:
    """Monte Carlo run of direct encoding: the receiver gets the coarse state
    of symbol x (uniform unless fixed) and guesses x directly.

    The coarse state is prepared exactly, with single-copy memory, as an
    index vector conditioned on its modulo-n sum: with P_k(r) the chance that
    the first k indices sum to r, copies L..1 are drawn backwards from
    P(c_k = c | sum r) = eta_c P_{k-1}(r - c) / P_k(r).  A symbol whose bin
    is empty (with uniform x: any empty bin) is refused before any draw.
    """
    ensemble = cfg.ensemble
    n = ensemble.n
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    etas = ensemble.probabilities
    prefix = [np.eye(n)[0]] + [np.array(_mod_sum_bins(etas, k)) for k in range(1, cfg.copies + 1)]
    if x is None:
        if np.any(prefix[-1] <= 0.0):
            raise ValueError("a coarse bin has zero probability; direct encoding undefined")
        xs = rng.integers(0, n, cfg.trials)
    else:
        if not 0 <= x < n:
            raise ValueError(f"symbol {x} out of range for n={n}")
        if prefix[-1][x] <= 0.0:
            raise ValueError(f"coarse bin {x} has zero probability; direct encoding undefined")
        xs = np.full(cfg.trials, x, dtype=int)
    shift = (np.arange(n)[:, None] - np.arange(n)) % n  # shift[r, c] = r - c (mod n)
    prep = np.empty((cfg.trials, cfg.copies), dtype=int)
    rest = xs
    for k in range(cfg.copies, 0, -1):
        table = prefix[k - 1][shift] * etas / np.where(prefix[k] > 0.0, prefix[k], 1.0)[:, None]
        prep[:, k - 1] = _sample_rows(rng, table, rest)
        rest = (rest - prep[:, k - 1]) % n
    x_guess = _simulate_guesses(cfg, rng, prep, cap=cap)
    return _finish(x_guess == xs, cfg, "direct-encoding", analytic_reference)


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
    index sum, so it is read off the n coarse bins: broadcast succeeds with
    sum_i eta_i P(guess = i | bin i), direct encoding with
    (1/n) sum_i P(guess = i | bin i).  Empty bins add nothing to broadcast;
    direct encoding refuses them.
    """
    if scheme not in ("broadcast", "direct"):
        raise ValueError("scheme must be 'broadcast' or 'direct'")
    if copies < 1:
        raise ValueError("copies must be >= 1")
    bin_eta, table, guesses = _coarse_table(ensemble, copies, strategy, cap)
    hit = (table * (guesses == np.arange(ensemble.n)[:, None])).sum(axis=1)
    if scheme == "broadcast":
        return float(bin_eta @ hit)
    if np.any(bin_eta <= 0.0):
        raise ValueError("a coarse bin has zero probability; direct encoding undefined")
    return float(hit.mean())
