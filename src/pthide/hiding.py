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
a trial keeps only its index sum, as a residue mod n, and its outcome
parity.  A global POVM's outcome is drawn once, after the copies, from the
law of the trial's bin, the same table :func:`exact_strategy_success`
reads; no n^L table of L-copy states is built.  Each run builds that table
once, from one convolution of the bin weights and, under parity, one
per-copy Born table; it draws from the table and reads its own exact
reference from it (see :class:`SimResult`): a run's ``analytic_reference``
equals :func:`exact_strategy_success` bit for bit, and is 1/n when the
broadcast is withheld.  The broadcast's one-time pad takes no arithmetic:
(x + y - g) mod n equals x exactly when g = y (mod n), so a trial succeeds
when its guess is y mod n (a guess outside [0, n) is refused), and x is
drawn only when the broadcast is withheld.

A copy draws its trials in blocks of ``_BLOCK``, one block after another,
each block's uniforms from one ``rng.random(out=...)`` call on numpy's
default PCG64 generator.  A double takes one whole 64-bit output, so the
blocks consume the stream exactly as one draw over all trials would, and
the same seed gives the same success mask whatever the block size.  Direct
encoding's symbols are drawn in blocks too: for n <= 2^32 numpy keeps the
unused half of a 64-bit output in the generator between calls.  The
withheld broadcast's uint8 symbols are not, since numpy buffers bytes only
within one call, so they are one draw over all trials.  Every comparison
of a draw is against a scalar: a law that depends on the trial, such as a
direct-encoding copy's law given its residue, is drawn class by class, with
no per-trial gather of thresholds.  A run therefore keeps a few narrow
unsigned vectors per trial plus a fixed ~1 MB of block buffers: traced
peak at 10^6 trials, L = 8, parity on the Bell example, 3.0-3.8 bytes per
trial for broadcast and 4.0 for direct encoding.  Measured at 250,000
trials with parity on the Bell example (numpy 2.4.6, one BLAS thread,
2-core x86-64, best of 7; the time at L = 16 less that at L = 1, per
copy): 3.8-7.7 ns per copy and trial for broadcast and 4.8-9.3 ns for
direct encoding, where one PCG64 uniform alone takes 4.2-4.8 ns; a
class-dependent law costs up to n (K - 1) comparisons for K categories, so
direct encoding slows as n grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

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
from .operators import HermitianOperator, _hermitize

RNG_NAME = "numpy-pcg64"
#: Eigenvalues above this span the support of a single-copy state.
_SUPPORT_TOL = 1e-10
#: Trials per block of a copy's draw: 2^16 float64 uniforms take 512 KiB,
#: so a block's uniforms and narrow vectors stay in a 2 MiB L2 cache.
_BLOCK = 1 << 16
#: The largest uniform ``Generator.random`` returns.
_U_MAX = float(np.nextafter(1.0, 0.0))


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


class GlobalPovmStrategy:
    """Measure the full L-copy state with one measurement; outcome o is the
    guess ``guesses[o]``, which a run or exact value refuses outside
    [0, n)."""

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
    an ``eigh`` of every coarse-grained bin state, 31 ms copy by copy.
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
        projs.append(_hermitize(keep @ keep.conj().T))
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
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2^64)")


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


def _cuts(table) -> list:
    """The comparisons of a categorical draw from each row of ``table`` (a
    1-D table is one row), as one entry per row, or a single entry when
    every row has the same comparisons.

    A draw's category is the number of its row's cumulative weights, the
    last one left out, at or below its uniform u.  An entry is (base,
    levels): ``base`` counts the weights <= 0, which every u reaches, the
    weights above ``_U_MAX`` are never reached, and each distinct weight in
    between is one comparison, a (level, times) pair counted as often as
    the weight occurs.
    """
    entries = []
    for cum in np.cumsum(np.atleast_2d(table), axis=1)[:, :-1].tolist():
        # cum is nondecreasing, so equal weights are adjacent
        live = (c for c in cum if 0.0 < c <= _U_MAX)
        levels = tuple((level, len(list(run))) for level, run in groupby(live))
        entries.append((sum(c <= 0.0 for c in cum), levels))
    return entries[:1] if all(e == entries[0] for e in entries) else entries


def _draw(rng, cuts, classes, out, scratch) -> np.ndarray:
    """Categorical draws into ``out``, one uniform each, from one
    ``rng.random(out=...)`` call (the stream of ``rng.random(out.shape)``):
    entry i from the law of row ``classes[i]`` of the :func:`_cuts` list
    ``cuts``, or from its one law.  ``scratch`` holds the uniforms (float64)
    and two vectors of ``out``'s unsigned type, at least as long as ``out``,
    so a draw allocates no array.

    Each law's comparisons run over the whole block, against its scalar
    levels, and a law other than the first is blended into ``out`` on its
    class only, by wrapping unsigned arithmetic: no threshold is gathered
    per draw, and no masked ufunc runs (``np.add(..., where=...)`` took
    0.9 ms per 2^16 draws, against 5 us unmasked).
    """
    u, hit, count = (b[: out.size] for b in scratch)
    rng.random(out=u)
    for r, (base, levels) in enumerate(cuts):
        dst = count if r else out
        dst.fill(base)
        for level, times in levels:
            np.greater_equal(u, level, out=hit)
            if times > 1:
                hit *= times
            dst += hit
        if r:  # out += [classes == r] (count - out), modulo the type's range
            count -= out
            count *= np.equal(classes, r, out=hit)
            out += count
    return out


def _add_mod(state, c, n: int, tmp) -> None:
    """state = (state + c) mod n in place, for residues and c in [0, n): the
    sum is below 2n, and the unsigned ``sum - n`` wraps above it exactly
    when the sum is below n, so the smaller of the two is the residue."""
    state += c
    np.minimum(state, np.subtract(state, n, out=tmp), out=state)


def _blocks(trials: int) -> list:
    """The trials' slices, ``_BLOCK`` at a time, in order."""
    return [slice(lo, lo + _BLOCK) for lo in range(0, trials, _BLOCK)]


def _finish(success_mask, cfg, scheme, reference) -> SimResult:
    """Estimate, its Wald standard error, and its z-score against the reference.

    z uses the reference's own binomial spread p(1 - p)/T, which stays
    finite when every trial succeeds (or fails).  A reference of exactly 0
    or 1 has no spread: z is 0 if the estimate equals it and +-inf otherwise,
    which can only mean a sampler bug.
    """
    p_hat = int(np.count_nonzero(success_mask)) / cfg.trials
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


def _draw_guesses(rng, coarse, laws, trials: int, x=None):
    """Draw the copies one at a time; return the receiver's guesses and each
    trial's index sum mod n.

    ``coarse`` is the run's :func:`_coarse_table`.  A trial's sum is kept as
    its residue mod n, starting at 0, or at -x with the symbols ``x`` of
    direct encoding, and each drawn index c is added modulo n.  ``laws``
    gives, copy by copy, the law of c: 1-D for the same law in every trial,
    or 2-D with one row per residue.  Under parity, c and the copy's
    outcome o are drawn together, with one uniform, from the 2n categories
    2c + o of law(c) * P(o | c), P(o | c) being the per-copy Born table in
    ``coarse``, and only the outcome parity is kept; under a global POVM,
    whose outcome depends on the copies only through the bin of their
    modulo-n sum (the residue, plus x), the outcome is drawn from that
    bin's row of ``coarse``, with the bin as the class of :func:`_draw`.

    Each copy draws its trials ``_BLOCK`` at a time, in order, so its
    uniforms are the stream of one draw over all trials.  The blocks share
    one set of scratch vectors, and per trial a run keeps only narrow
    unsigned vectors (the residue, the parity or guess, and x): no copy
    allocates an array, and no (trials, copies) array or n^L table is built.
    """
    bin_eta, table, guesses, outcome = coarse
    n = len(bin_eta)
    dtype = np.min_scalar_type(max(2 * n - 1, table.shape[1] - 1))
    blocks = _blocks(trials)
    size = min(trials, _BLOCK)
    drawn = np.empty(size, dtype=dtype)
    scratch = (np.empty(size), np.empty(size, dtype=dtype), np.empty(size, dtype=dtype))
    tmp = scratch[1]  # free between draws
    if x is None:
        state = np.zeros(trials, dtype=dtype)
    else:
        state = np.subtract(n, x, dtype=dtype)
        state %= n
    parity = None if outcome is None else np.zeros(trials, dtype=np.uint8)
    for law in laws:
        if parity is not None:
            law = (law[..., None] * outcome).reshape(*law.shape[:-1], -1)
        cuts = _cuts(law)
        for b in blocks:
            s = state[b]
            k = _draw(rng, cuts, s, drawn[: s.size], scratch)
            if parity is not None:
                parity[b] ^= k  # k = 2c + o: the low bit is o; the rest is cleared below
                k >>= 1
            _add_mod(s, k, n, tmp[: s.size])
    if parity is not None:
        parity &= 1
        return parity, state
    cuts = _cuts(table)
    narrow = guesses.astype(np.min_scalar_type(n - 1))
    guess = np.empty(trials, dtype=narrow.dtype)
    spare = np.empty(size, dtype=dtype)
    for b in blocks:
        bins = state[b]
        if x is not None:  # the sum started at -x
            bins = spare[: bins.size]
            bins[...] = state[b]
            _add_mod(bins, x[b], n, tmp[: bins.size])
        outcomes = _draw(rng, cuts, bins, drawn[: bins.size], scratch)
        np.take(narrow, outcomes, out=guess[b], mode="clip")
    return guess, state


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
    :class:`SimResult`).  Since (x + y - y_guess) mod n = x exactly when
    y_guess = y (mod n), a trial succeeds when y mod n equals its guess,
    and x is drawn, after the copies, only when the broadcast is withheld.

    Copies are drawn one at a time, in blocks of trials, each index
    (jointly with its outcome under parity) from one uniform of one law
    shared by every trial, and only y mod n and the outcome parity are
    kept, in narrow unsigned vectors: 3.0-3.8 bytes per trial whatever L,
    and a copy costs 3.8-7.7 ns per trial under parity, near the cost of
    its uniform (see the module notes).
    """
    n = cfg.ensemble.n
    coarse = _coarse_table(cfg.ensemble, cfg.copies, cfg.strategy, cap)
    rng = np.random.default_rng(cfg.seed)
    laws = [cfg.ensemble.probabilities] * cfg.copies
    guess, y = _draw_guesses(rng, coarse, laws, cfg.trials)
    if withhold_broadcast:
        x = rng.integers(0, n, cfg.trials, dtype=np.min_scalar_type(n - 1))
        return _finish(guess == x, cfg, "broadcast", 1.0 / n)
    return _finish(y == guess, cfg, "broadcast", _exact_success(coarse, "broadcast"))


def _direct_laws(etas: np.ndarray, copies: int):
    """Bin weights and, first copy first, the index laws of direct encoding.

    With P_m(r) the chance that m indices sum to r (mod n), the copy drawn
    while m copies, itself included, remain to be drawn with sum r has index
    c with chance eta_c P_{m-1}(r - c) / P_m(r) (a zero row for an empty
    bin); P_m is the cyclic convolution of P_{m-1} with eta, summed in the
    order of :func:`pthide.ensembles._mod_sum_bins`, so P_L is bit for bit
    the bin weights :func:`_coarse_table` would convolve.  A trial's row is
    its residue s = (sum drawn so far) - x (mod n), which starts at -x: row
    s is the law for r = -s (mod n), one row per residue.
    """
    n = len(etas)
    shift = (np.arange(n)[:, None] - np.arange(n)) % n  # shift[r, c] = r - c (mod n)
    rows = -np.arange(n) % n
    bins = np.eye(n)[0]
    laws = []
    for _ in range(copies):
        joint = bins[shift] * etas
        bins = joint.cumsum(axis=1)[:, -1]
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
    outcome under parity, from one uniform.  A copy's law depends on a
    trial only through its residue, so the trials are drawn class by class
    against each residue's scalar thresholds, with no per-trial gather.  A
    run keeps 4.0 bytes per trial whatever L (the symbol, the residue, the
    parity and the success mask), and a copy costs 4.8-9.3 ns per trial
    under parity on the Bell example (see the module notes).  A symbol
    whose bin is empty (with uniform x: any empty bin) is refused before
    any draw.
    """
    n = cfg.ensemble.n
    bin_eta, laws = _direct_laws(cfg.ensemble.probabilities, cfg.copies)
    coarse = _coarse_table(cfg.ensemble, cfg.copies, cfg.strategy, cap, bin_eta)
    rng = np.random.default_rng(cfg.seed)
    xs = np.empty(cfg.trials, dtype=np.min_scalar_type(n - 1))
    if x is None:
        if np.any(bin_eta <= 0.0):
            raise ValueError("a coarse bin has zero probability; direct encoding undefined")
        for b in _blocks(cfg.trials):
            xs[b] = rng.integers(0, n, xs[b].size)
    else:
        if not 0 <= x < n:
            raise ValueError(f"symbol {x} out of range for n={n}")
        if bin_eta[x] <= 0.0:
            raise ValueError(f"coarse bin {x} has zero probability; direct encoding undefined")
        xs.fill(x)
    guess, _ = _draw_guesses(rng, coarse, laws, cfg.trials, xs)
    return _finish(guess == xs, cfg, "direct-encoding", _exact_success(coarse, "direct", x))


def _coarse_table(ensemble: StateEnsemble, copies: int, strategy, cap: int | None, bin_eta=None):
    """Bin weights (``bin_eta`` if the caller has them), P(outcome | bin)
    (zero rows for empty bins), the guess of each outcome, and the per-copy
    P(outcome | c) under parity (None for a global POVM).  The bins convolve
    over the copies: for parity the vectors eta_c * P(outcome | c), outcomes
    adding modulo 2; for a global POVM the states eta_c * rho_c, as in
    :func:`pthide.ensembles.coarse_grain`.  A global guess outside [0, n)
    is refused: a simulator compares guesses with symbols as they are.
    """
    etas = ensemble.probabilities
    if bin_eta is None:
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
        return bin_eta, table, np.arange(2), per_copy
    if isinstance(strategy, GlobalPovmStrategy):
        if ensemble.dims.total**copies != strategy.povm.dims.total:
            raise ValueError("POVM dims do not match the folded ensemble")
        if np.any((strategy.guesses < 0) | (strategy.guesses >= ensemble.n)):
            raise ValueError(f"guesses must lie in [0, {ensemble.n})")
        _folded_dims(ensemble.dims, copies, cap)
        weighted = [eta * rho.entries for eta, rho in ensemble.items]
        bins = _tensor_bins(weighted, ensemble.dims, copies)
        states = (b / eta for b, eta in zip(bins, bin_eta) if eta > 0.0)
        table = np.zeros((ensemble.n, strategy.povm.n_outcomes))
        table[full] = _born_table(states, [m.entries for m in strategy.povm.elements])
        return bin_eta, table, strategy.guesses, None
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
    bin_eta, table, guesses, _ = coarse
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
