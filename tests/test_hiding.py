from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pthide import (
    BipartiteDims,
    HermitianOperator,
    Povm,
    ProtocolConfig,
    StateEnsemble,
    GlobalPovmStrategy,
    PerCopyParityStrategy,
    coarse_grain,
    exact_strategy_success,
    helstrom_measurement,
    identity,
    orthogonal_support_strategy,
    qg_level_upper_bound,
    qg_two_state,
    simulate_broadcast_scheme,
    simulate_direct_encoding,
    tensor,
    tensor_power,
)
from pthide.constructions import bell_state, example1, example2
from pthide.hiding import _finish

from conftest import level_povm, random_ensemble, random_povm, random_state, success_probability

D22 = BipartiteDims(2, 2)
TRIALS = 100_000


@pytest.fixture(scope="module")
def bell_ensemble():
    return example1(bell_state())


@pytest.fixture(scope="module")
def optimal_parity(bell_ensemble):
    return PerCopyParityStrategy(helstrom_measurement(bell_ensemble, use_pt=True))


@pytest.fixture(scope="module")
def correlation_parity():
    # both sides read the computational basis; outcome 0 = labels differ.
    same = np.zeros((4, 4))
    same[0, 0] = same[3, 3] = 1.0
    diff = np.eye(4) - same
    povm = Povm(D22, (HermitianOperator(D22, diff), HermitianOperator(D22, same)))
    return PerCopyParityStrategy(povm)


def test_parity_strategy_needs_two_outcomes():
    ident = identity(D22)
    zero = HermitianOperator(D22, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="two-outcome"):
        PerCopyParityStrategy(Povm(D22, (ident, zero, zero)))


def test_born_sampling_matches_probabilities():
    # frequency of each outcome within 5 sigma of its exact Born weight, for
    # one law shared by every draw and for rows that vary per trial
    rng_state = random_state(D22, np.random.default_rng(50))
    povm = helstrom_measurement(
        example1(bell_state()), use_pt=False
    )  # some fixed two-outcome measurement
    strat = PerCopyParityStrategy(povm)
    from pthide import StateEnsemble
    from pthide.hiding import _cuts, _draw

    def draw(table, rows):
        dtype = np.min_scalar_type(max(table.shape[-1] - 1, rows.max()))
        out = np.empty(rows.shape, dtype=dtype)
        scratch = (np.empty(rows.shape), np.empty(rows.shape, dtype=dtype), np.empty_like(out))
        return _draw(rng, _cuts(table), rows.astype(dtype), out, scratch)

    e = StateEnsemble(D22, ((1.0, rng_state),))
    table = strat.outcome_table(e)
    rng = np.random.default_rng(123)
    outcomes = draw(table[0], np.zeros(TRIALS, dtype=int))
    for o in range(2):
        p = table[0, o]
        freq = float((outcomes == o).mean())
        sigma = np.sqrt(p * (1 - p) / TRIALS)
        assert abs(freq - p) <= 5 * sigma
    # zero weights in the first, middle and last column are never drawn
    table = np.array([[0.0, 0.2, 0.5, 0.3], [0.1, 0.0, 0.6, 0.3], [0.25, 0.25, 0.5, 0.0]])
    rows = rng.integers(0, 3, TRIALS)
    outcomes = draw(table, rows)
    for r in range(3):
        drawn = outcomes[rows == r]
        for o in range(4):
            p = table[r, o]
            freq = float((drawn == o).mean())
            assert abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / drawn.size)


def test_broadcast_parity_matches_closed_form(bell_ensemble, optimal_parity):
    for ell in (1, 4):
        ref = 0.5 + 0.5 * 2.0**-ell
        cfg = ProtocolConfig(
            ensemble=bell_ensemble, copies=ell, trials=TRIALS, seed=101, strategy=optimal_parity
        )
        res = simulate_broadcast_scheme(cfg)
        assert abs(res.analytic_reference - ref) <= 1e-12
        assert abs(res.z_score) <= 4.0
        assert res.stderr == pytest.approx(
            np.sqrt(res.empirical_success * (1 - res.empirical_success) / TRIALS)
        )


def test_broadcast_global_orthogonal_is_certain(bell_ensemble):
    strat = orthogonal_support_strategy(bell_ensemble, 3)
    cfg = ProtocolConfig(
        ensemble=bell_ensemble, copies=3, trials=20_000, seed=5, strategy=strat
    )
    res = simulate_broadcast_scheme(cfg)
    assert res.empirical_success == 1.0


def test_orthogonal_support_strategy_requires_orthogonality():
    rho = random_state(D22, np.random.default_rng(51))
    from pthide import StateEnsemble

    e = StateEnsemble(D22, ((0.5, rho), (0.5, rho)))
    with pytest.raises(ValueError, match="orthogonal"):
        orthogonal_support_strategy(e, 2)


def test_masking_without_broadcast(bell_ensemble, optimal_parity):
    cfg = ProtocolConfig(
        ensemble=bell_ensemble, copies=3, trials=TRIALS, seed=7, strategy=optimal_parity
    )
    res = simulate_broadcast_scheme(cfg, withhold_broadcast=True)
    # x is uniform and independent of the guess: the reference is exactly 1/n
    assert res.analytic_reference == 0.5
    assert abs(res.z_score) <= 5.0


def test_exact_matches_simulation(bell_ensemble, correlation_parity):
    for scheme, runner in (
        ("broadcast", simulate_broadcast_scheme),
        ("direct", simulate_direct_encoding),
    ):
        exact = exact_strategy_success(bell_ensemble, 3, correlation_parity, scheme=scheme)
        cfg = ProtocolConfig(
            ensemble=bell_ensemble,
            copies=3,
            trials=TRIALS,
            seed=17,
            strategy=correlation_parity,
        )
        res = runner(cfg)
        assert res.analytic_reference == exact
        assert abs(res.empirical_success - exact) <= 4 * res.stderr


def test_exact_parity_bell_closed_form(bell_ensemble, optimal_parity):
    for ell in range(1, 6):
        exact = exact_strategy_success(bell_ensemble, ell, optimal_parity, scheme="broadcast")
        assert abs(exact - (0.5 + 0.5 * 2.0**-ell)) < 1e-10


def test_exact_direct_encoding_hand_value(bell_ensemble, correlation_parity):
    # independent closed form: 1/2 + B^L/8 * (1/eta0 + 1/eta1) with B = 1/2 here
    for ell, eta0 in ((1, 0.75), (3, 0.5625)):
        eta0_level = 0.5 * (1 + 0.5**ell)
        expected = 0.5 + (0.5**ell / 8.0) * (1 / eta0_level + 1 / (1 - eta0_level))
        got = exact_strategy_success(bell_ensemble, ell, correlation_parity, scheme="direct")
        assert abs(got - expected) < 1e-12
    assert abs(
        exact_strategy_success(bell_ensemble, 3, correlation_parity, scheme="direct")
        - (0.5 + 4.0 / 63.0)
    ) < 1e-12


def test_random_guessing_strategy_is_chance(bell_ensemble):
    # outcome-independent POVM: the guess carries no information
    half = HermitianOperator(D22, np.eye(4) / 2)
    strat = GlobalPovmStrategy(Povm(D22, (half, half)), guesses=[0, 1], name="coin-flip")
    exact = exact_strategy_success(bell_ensemble, 1, strat, scheme="broadcast")
    assert abs(exact - 0.5) < 1e-12
    exact = exact_strategy_success(bell_ensemble, 1, strat, scheme="direct")
    assert abs(exact - 0.5) < 1e-12
    # two-copy variant on the folded space
    dims2 = BipartiteDims(4, 4)
    half2 = HermitianOperator(dims2, np.eye(16) / 2)
    strat2 = GlobalPovmStrategy(Povm(dims2, (half2, half2)), guesses=[0, 1], name="coin-flip")
    exact = exact_strategy_success(bell_ensemble, 2, strat2, scheme="direct")
    assert abs(exact - 0.5) < 1e-12


def test_level_povm_identity(bell_ensemble, correlation_parity):
    # explicit parity measurement equals ((M0+M1)^xL +/- (M0-M1)^xL)/2
    m0, m1 = correlation_parity.measurement.elements
    for ell in (2, 3):
        level = level_povm(correlation_parity.measurement, ell)
        total = tensor_power(m0 + m1, ell)
        diff = tensor_power(m0 - m1, ell)
        for i in (0, 1):
            expected = 0.5 * (total.entries + (-1) ** i * diff.entries)
            assert np.linalg.norm(level.elements[i].entries - expected) <= 1e-9


def test_level_povm_permutation_symmetric(correlation_parity):
    # measuring copies in any order is the same measurement
    level = level_povm(correlation_parity.measurement, 2)
    d = 4
    perm = np.arange(d * d).reshape(d, d).T.reshape(-1)  # swap the two copies
    for el in level.elements:
        swapped = el.entries[np.ix_(perm, perm)]
        assert np.abs(swapped - el.entries).max() < 1e-12


def test_level_parity_success_equals_level_value(bell_ensemble, optimal_parity):
    # per-copy parity success on the coarse ensemble equals the exact level value
    from pthide import qg_level_two_state

    for ell in (2, 3):
        coarse = coarse_grain(bell_ensemble, ell)
        level = level_povm(optimal_parity.measurement, ell)
        got = success_probability(coarse, level)
        assert abs(got - qg_level_two_state(bell_ensemble, ell)) < 1e-10


def test_broadcast_parity_below_coarse_bound(bell_ensemble, correlation_parity):
    qg = qg_two_state(bell_ensemble)
    for ell in (1, 2, 3):
        cfg = ProtocolConfig(
            ensemble=bell_ensemble,
            copies=ell,
            trials=TRIALS,
            seed=23,
            strategy=correlation_parity,
        )
        res = simulate_broadcast_scheme(cfg)
        bound = qg_level_upper_bound(qg, 2, ell)
        assert res.empirical_success <= bound + 5 * res.stderr


def test_direct_encoding_fixed_symbol(bell_ensemble, correlation_parity):
    cfg = ProtocolConfig(
        ensemble=bell_ensemble, copies=2, trials=TRIALS, seed=31, strategy=correlation_parity
    )
    res0 = simulate_direct_encoding(cfg, x=0)
    res1 = simulate_direct_encoding(cfg, x=1)
    # conditioned runs bracket the uniform average
    avg = 0.5 * (res0.empirical_success + res1.empirical_success)
    exact = exact_strategy_success(bell_ensemble, 2, correlation_parity, scheme="direct")
    assert abs(avg - exact) <= 4 * (res0.stderr + res1.stderr)
    # each run's reference is P(guess = x | bin x); their mean is the uniform value
    assert res0.analytic_reference != res1.analytic_reference
    assert abs(0.5 * (res0.analytic_reference + res1.analytic_reference) - exact) <= 1e-15
    for res in (res0, res1):
        assert abs(res.z_score) <= 4.0
    with pytest.raises(ValueError, match="out of range"):
        simulate_direct_encoding(cfg, x=2)


def test_enumeration_cap():
    # 4^14 (preparation, outcome) pairs: no enumeration cap, the bins give the value
    e = example1(bell_state())
    strat = PerCopyParityStrategy(helstrom_measurement(e, use_pt=True))
    assert abs(exact_strategy_success(e, 14, strat) - (0.5 + 0.5 * 2.0**-14)) < 1e-12


def test_protocol_config_validation(bell_ensemble, optimal_parity):
    with pytest.raises(ValueError):
        ProtocolConfig(ensemble=bell_ensemble, copies=0, trials=10, seed=1, strategy=optimal_parity)
    with pytest.raises(ValueError):
        ProtocolConfig(ensemble=bell_ensemble, copies=1, trials=0, seed=1, strategy=optimal_parity)


def test_one_bin_convolution_and_one_born_table_per_run(
    monkeypatch, bell_ensemble, correlation_parity
):
    # the draws and the reference of a run read one convolution of the bin
    # weights and, under parity, one evaluation of the per-copy Born table
    from pthide import hiding

    calls = {"bins": 0, "born": 0}
    mod_sum_bins, direct_laws = hiding._mod_sum_bins, hiding._direct_laws
    outcome_table = PerCopyParityStrategy.outcome_table

    def bins(factors, copies, *args):
        calls["bins"] += np.ndim(factors[0]) == 0  # the weights, not the Born rows
        return mod_sum_bins(factors, copies, *args)

    def laws(*args):
        calls["bins"] += 1
        return direct_laws(*args)

    def born(self, ensemble):
        calls["born"] += 1
        return outcome_table(self, ensemble)

    monkeypatch.setattr(hiding, "_mod_sum_bins", bins)
    monkeypatch.setattr(hiding, "_direct_laws", laws)
    monkeypatch.setattr(PerCopyParityStrategy, "outcome_table", born)
    support = orthogonal_support_strategy(bell_ensemble, 3)
    for strategy, born_calls in ((correlation_parity, 1), (support, 0)):
        cfg = ProtocolConfig(
            ensemble=bell_ensemble, copies=3, trials=1000, seed=5, strategy=strategy
        )
        for simulate in (simulate_broadcast_scheme, simulate_direct_encoding):
            calls.update(bins=0, born=0)
            simulate(cfg)
            assert calls == {"bins": 1, "born": born_calls}


def test_simulation_reproducible(bell_ensemble, optimal_parity):
    cfg = ProtocolConfig(
        ensemble=bell_ensemble, copies=2, trials=10_000, seed=99, strategy=optimal_parity
    )
    a = simulate_broadcast_scheme(cfg)
    b = simulate_broadcast_scheme(cfg)
    assert a.empirical_success == b.empirical_success


def test_enumeration_cap_is_checked_before_enumerating(bell_ensemble, optimal_parity):
    # 2^40 preparation vectors: parity needs only the bins, and a single-copy
    # POVM is refused for 40 copies before any bin is built
    exact = exact_strategy_success(bell_ensemble, 40, optimal_parity)
    assert abs(exact - (0.5 + 0.5 * 2.0**-40)) < 1e-13  # 2^-41 away from 1/2
    half = HermitianOperator(D22, np.eye(4) / 2)
    coin = GlobalPovmStrategy(Povm(D22, (half, half)), guesses=[0, 1])
    with pytest.raises(ValueError, match="POVM dims"):
        exact_strategy_success(bell_ensemble, 40, coin)
    for strat in (optimal_parity, coin):
        with pytest.raises(ValueError, match="copies"):
            exact_strategy_success(bell_ensemble, 0, strat)


def _enumerated_success(ensemble, copies, strategy, scheme):
    """Oracle: the exact Born probability of every (index vector, outcome
    pattern) pair, weighted by the scheme's preparation distribution."""
    n = ensemble.n
    vectors = np.indices((n,) * copies).reshape(copies, -1).T
    weights = ensemble.probabilities[vectors].prod(axis=1)
    sums = vectors.sum(axis=1) % n
    if scheme == "direct":
        bin_eta = np.bincount(sums, weights=weights, minlength=n)
        weights = weights / (n * bin_eta[sums])
    if isinstance(strategy, PerCopyParityStrategy):
        table = strategy.outcome_table(ensemble)
        parities = np.indices((2,) * copies).reshape(copies, -1).sum(axis=0) % 2
        total = 0.0
        for vec, w, target in zip(vectors, weights, sums):
            probs = np.ones(1)
            for cl in vec:
                probs = np.multiply.outer(probs, table[cl]).reshape(-1)
            total += w * probs[parities == target].sum()
        return float(total)
    table = np.empty((len(vectors), strategy.povm.n_outcomes))
    for i, vec in enumerate(vectors):
        rho = ensemble.items[vec[0]][1]
        for cl in vec[1:]:
            rho = tensor(rho, ensemble.items[cl][1])
        for o, m in enumerate(strategy.povm.elements):
            table[i, o] = max(complex(np.einsum("ij,ji->", m.entries, rho.entries)).real, 0.0)
    table /= table.sum(axis=1)[:, None]
    correct = strategy.guesses[None, :] == sums[:, None]
    return float((weights[:, None] * table * correct).sum())


def test_exact_success_matches_enumeration():
    rng = np.random.default_rng(75)
    cases = []
    for n in (2, 3, 2, 3):
        e = random_ensemble(rng, n)
        cases += [(e, ell, PerCopyParityStrategy(random_povm(rng, D22, 2))) for ell in (1, 2, 3, 4)]
        for ell, dims in ((1, D22), (2, BipartiteDims(4, 4))):
            povm = random_povm(rng, dims, 3)
            cases.append((e, ell, GlobalPovmStrategy(povm, rng.integers(0, n, 3))))
    for e, ell, strat in cases:
        for scheme in ("broadcast", "direct"):
            got = exact_strategy_success(e, ell, strat, scheme=scheme)
            assert abs(got - _enumerated_success(e, ell, strat, scheme)) <= 1e-12
    # a zero-weight state leaves bin 1 empty at L = 1; broadcast still counts it
    e = random_ensemble(rng, 3)
    e = StateEnsemble(D22, ((0.6, e.states[0]), (0.0, e.states[1]), (0.4, e.states[2])))
    for ell in (1, 2, 3):
        strat = PerCopyParityStrategy(random_povm(rng, D22, 2))
        got = exact_strategy_success(e, ell, strat)
        assert abs(got - _enumerated_success(e, ell, strat, "broadcast")) <= 1e-12
    for ell, dims in ((1, D22), (2, BipartiteDims(4, 4))):
        strat = GlobalPovmStrategy(random_povm(rng, dims, 3), [0, 1, 2])
        got = exact_strategy_success(e, ell, strat)
        assert abs(got - _enumerated_success(e, ell, strat, "broadcast")) <= 1e-12


def test_direct_encoding_refuses_empty_bins_before_sampling(correlation_parity):
    # eta = (1, 0): every preparation sums to 0, so bin 1 is empty
    rho0, rho1 = example1(bell_state()).states
    e = StateEnsemble(D22, ((1.0, rho0), (0.0, rho1)))
    cfg = ProtocolConfig(ensemble=e, copies=2, trials=1000, seed=3, strategy=correlation_parity)
    for x in (None, 1):
        with pytest.raises(ValueError, match="zero probability"):
            simulate_direct_encoding(cfg, x=x)
    with pytest.raises(ValueError, match="zero probability"):
        exact_strategy_success(e, 2, correlation_parity, scheme="direct")
    # the one nonempty bin can still be encoded; it is the broadcast preparation
    res = simulate_direct_encoding(cfg, x=0)
    exact = exact_strategy_success(e, 2, correlation_parity)
    assert abs(res.empirical_success - exact) <= 4 * res.stderr


def test_level_povm_matches_pattern_loop():
    # oracle: sum the tensor product of every outcome pattern into its parity
    base = random_povm(np.random.default_rng(71), D22, 2)
    m0, m1 = base.elements
    for ell in (1, 2, 3, 4):
        blocks = [None, None]
        for pattern in product((0, 1), repeat=ell):
            term = m1 if pattern[0] else m0
            for bit in pattern[1:]:
                term = tensor(term, m1 if bit else m0)
            parity = sum(pattern) % 2
            blocks[parity] = term if blocks[parity] is None else blocks[parity] + term
        got = level_povm(base, ell)
        for el, ref in zip(got.elements, blocks):
            assert np.abs(el.entries - ref.entries).max() <= 1e-12


def test_z_score_for_a_certain_strategy(bell_ensemble):
    # every trial succeeds: the estimate has no spread and equals the
    # reference, so z is 0 and the reference stays a probability
    for ell in range(1, 6):
        strat = orthogonal_support_strategy(bell_ensemble, ell)
        cfg = ProtocolConfig(
            ensemble=bell_ensemble, copies=ell, trials=2000, seed=ell, strategy=strat
        )
        for scheme, runner in (
            ("broadcast", simulate_broadcast_scheme),
            ("direct", simulate_direct_encoding),
        ):
            exact = exact_strategy_success(bell_ensemble, ell, strat, scheme=scheme)
            assert 0.0 <= exact <= 1.0
            res = runner(cfg)
            assert res.empirical_success == 1.0
            assert res.analytic_reference == exact
            assert abs(res.z_score) <= 5.0


def test_z_score_when_every_trial_succeeds(bell_ensemble):
    # z comes from the reference's own spread: all 100,000 trials right
    # against 1 - 1e-9 (1e-4 expected failures) is entirely consistent
    strat = orthogonal_support_strategy(bell_ensemble, 2)
    cfg = ProtocolConfig(
        ensemble=bell_ensemble, copies=2, trials=TRIALS, seed=11, strategy=strat
    )
    assert simulate_broadcast_scheme(cfg).empirical_success == 1.0
    right = np.ones(TRIALS, dtype=bool)
    res = _finish(right, cfg, "broadcast", 1.0 - 1e-9)
    assert res.empirical_success == 1.0
    assert abs(res.z_score) <= 0.1
    assert res.stderr == np.sqrt(1e-300 / TRIALS)  # the Wald error, as reported before
    # a reference of exactly 0 or 1 has no spread: equal is 0, anything else
    # is an infinite z, the signal of a sampler bug
    assert _finish(right, cfg, "broadcast", 1.0).z_score == 0.0
    assert _finish(right, cfg, "broadcast", 0.0).z_score == np.inf
    chance = ProtocolConfig(
        ensemble=bell_ensemble, copies=2, trials=1000, seed=11, strategy=strat
    )
    masked = simulate_broadcast_scheme(chance, withhold_broadcast=True)
    hits = round(masked.empirical_success * chance.trials)
    assert 0 < hits < chance.trials
    res = _finish(np.arange(chance.trials) < hits, chance, "broadcast", 1.0)
    assert res.empirical_success == masked.empirical_success
    assert res.z_score == -np.inf


@settings(max_examples=40, deadline=None)
@given(
    etas=st.integers(2, 3).flatmap(
        lambda n: st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n, max_size=n
        ).filter(lambda w: sum(w) > 0.0)
    ),
    copies=st.integers(1, 2),
    outcomes=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_coarse_table_is_the_bin_average_of_born_rows(etas, copies, outcomes, seed):
    # the global-POVM law a simulation draws from: P(outcome | bin) is the
    # eta-weighted average of the Born rows of the L-copy states in the bin
    from pthide.hiding import _coarse_table

    rng = np.random.default_rng(seed)
    etas = np.array(etas) / sum(etas)
    n = etas.size
    e = StateEnsemble(D22, tuple((eta, random_state(D22, rng)) for eta in etas))
    dims = BipartiteDims(2**copies, 2**copies)
    strat = GlobalPovmStrategy(random_povm(rng, dims, outcomes), rng.integers(0, n, outcomes))
    bin_eta, table, guesses, _ = _coarse_table(e, copies, strat, None)
    assert table.shape == (n, outcomes)
    assert np.array_equal(guesses, strat.guesses)
    total = np.zeros((n, outcomes))
    weight = np.zeros(n)
    for vec in product(range(n), repeat=copies):
        rho = e.items[vec[0]][1]
        for c in vec[1:]:
            rho = tensor(rho, e.items[c][1])
        w = np.prod(etas[list(vec)])
        row = [np.einsum("ij,ji->", m.entries, rho.entries).real for m in strat.povm.elements]
        total[sum(vec) % n] += w * np.array(row)
        weight[sum(vec) % n] += w
    for b in range(n):
        if weight[b] > 0.0:
            assert np.abs(table[b] - total[b] / weight[b]).max() <= 1e-12
        else:
            assert bin_eta[b] == 0.0
            assert np.all(table[b] == 0.0)


def test_simulation_memory_does_not_grow_with_copies(bell_ensemble, correlation_parity):
    # copies are drawn one at a time: peak traced memory at L = 64 stays at
    # its L = 2 level (a (trials, L) index array alone is 51 MB at L = 64),
    # and a run holds at most 12 bytes per trial, at 10^6 trials and L = 8
    import tracemalloc

    def peak(runner, ell, trials=100_000):
        cfg = ProtocolConfig(
            ensemble=bell_ensemble, copies=ell, trials=trials, seed=5,
            strategy=correlation_parity,
        )
        tracemalloc.start()
        try:
            runner(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for runner in (simulate_broadcast_scheme, simulate_direct_encoding):
        assert peak(runner, 64) <= 1.25 * peak(runner, 2)
        assert peak(runner, 8, 10**6) <= 12 * 10**6


def test_three_state_simulation_matches_exact():
    # n = 3: the 2n-category joint draws and the per-trial rows of the
    # direct-encoding laws, against the exact success, within 4 sigma
    rng = np.random.default_rng(77)
    e = random_ensemble(rng, 3)
    parity = PerCopyParityStrategy(random_povm(rng, D22, 2))
    for ell in (1, 2, 3):
        dims = BipartiteDims(2**ell, 2**ell)
        strategies = (parity, GlobalPovmStrategy(random_povm(rng, dims, 3), rng.permutation(3)))
        for strat in strategies:
            cfg = ProtocolConfig(
                ensemble=e, copies=ell, trials=TRIALS, seed=300 + ell, strategy=strat
            )
            for scheme, runner in (
                ("broadcast", simulate_broadcast_scheme),
                ("direct", simulate_direct_encoding),
            ):
                exact = exact_strategy_success(e, ell, strat, scheme=scheme)
                res = runner(cfg)
                assert res.analytic_reference == exact
                assert abs(res.z_score) <= 4.0


@settings(max_examples=60, deadline=None)
@given(
    etas=st.integers(2, 5).flatmap(
        lambda n: st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=n, max_size=n
        ).filter(lambda w: sum(w) > 0.0)
    ),
    copies=st.integers(1, 12),
)
def test_direct_encoding_laws(etas, copies):
    # each copy's law given the sum still to draw: one row per residue s of
    # the running sum, a law on every nonempty bin, equal to
    # eta_c P_{m-1}(r - c) / P_m(r) for r = -s (mod n); every index they can
    # draw leads to a nonempty bin of the next copy, and after the last copy
    # the sum drawn is the encoded symbol
    from pthide.ensembles import _mod_sum_bins
    from pthide.hiding import _direct_laws

    etas = np.array(etas) / sum(etas)
    n = etas.size
    bin_eta, laws = _direct_laws(etas, copies)
    assert np.allclose(bin_eta, _mod_sum_bins(etas, copies), rtol=0, atol=1e-14)
    prefix = [np.eye(n)[0]] + [np.array(_mod_sum_bins(etas, m)) for m in range(1, copies + 1)]
    assert len(laws) == copies
    for law, m in zip(laws, range(copies, 0, -1)):
        assert law.shape == (n, n)
        assert np.all(law >= 0.0)
        for s, row in enumerate(law):
            r = -s % n
            if prefix[m][r] <= 0.0:
                continue
            assert abs(row.sum() - 1.0) <= 1e-12
            expected = etas * prefix[m - 1][(r - np.arange(n)) % n] / prefix[m][r]
            assert np.allclose(row, expected, rtol=1e-12, atol=0)
            for c in np.flatnonzero(row):
                assert prefix[m - 1][(r - c) % n] > 0.0


def _support_oracle(ensemble, copies):
    """Oracle: the support measurement built at side D^L, as an ``eigh`` of
    every coarse-grained bin state with the remainder routed to outcome 0."""
    coarse = coarse_grain(ensemble, copies)
    blocks = []
    for _, rho in coarse.items:
        w, v = np.linalg.eigh(rho.entries)
        keep = v[:, w > 1e-10]
        p = keep @ keep.conj().T
        blocks.append((p + p.conj().T) / 2)
    blocks[0] = blocks[0] + np.eye(coarse.dims.total, dtype=blocks[0].dtype) - sum(blocks)
    return blocks


def _orthogonal_2x3_ensemble(rng, etas):
    """Mixed states of ranks 2, 1 and 3 on orthogonal subspaces of a random
    complex basis of C^6 (dims 2 x 3).  Their nonzero eigenvalues lie within
    a factor 3 of each other, so the oracle's spectral projectors at side
    D^L are accurate to rounding."""
    dims = BipartiteDims(2, 3)
    basis, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    items = []
    for eta, cols in zip(etas, (basis[:, :2], basis[:, 2:3], basis[:, 3:])):
        p = rng.uniform(0.5, 1.5, cols.shape[1])
        rho = (cols * (p / p.sum())) @ cols.conj().T
        rho = (rho + rho.conj().T) / 2
        items.append((eta, HermitianOperator(dims, rho)))
    return StateEnsemble(dims, tuple(items))


def test_support_measurement_matches_coarse_grain_oracle(bell_ensemble):
    cases = [(bell_ensemble, ell) for ell in range(1, 6)]
    for (d, m, n), max_l in (((2, 1, 2), 5), ((3, 1, 2), 3), ((2, 2, 3), 2)):
        cases += [(example2(d=d, m=m, n=n).ensemble, ell) for ell in range(1, max_l + 1)]
    rng = np.random.default_rng(79)
    full = _orthogonal_2x3_ensemble(rng, (0.2, 0.3, 0.5))
    cases += [(full, ell) for ell in (1, 2, 3)]
    # a zero-weight state: its bin is empty at L = 1, and from L = 2 on it
    # must be left out of every bin's support
    e = _orthogonal_2x3_ensemble(rng, (0.5, 0.0, 0.5))
    with pytest.raises(ValueError, match="zero probability"):
        orthogonal_support_strategy(e, 1)
    cases += [(e, ell) for ell in (2, 3)]
    for ens, ell in cases:
        got = orthogonal_support_strategy(ens, ell)
        assert got.name == "global-orthogonal"
        assert np.array_equal(got.guesses, np.arange(ens.n))
        for el, ref in zip(got.povm.elements, _support_oracle(ens, ell)):
            assert el.entries.dtype == ref.dtype
            assert np.abs(el.entries - ref).max() <= 1e-12
        assert abs(exact_strategy_success(ens, ell, got) - 1.0) <= 1e-12
    # the zero-weight state's copies go to the remainder, outcome 0
    left_out = tensor(e.states[1], identity(e.dims)).entries
    for el in orthogonal_support_strategy(e, 2).povm.elements[1:]:
        assert np.abs(el.entries @ left_out).max() <= 1e-12


def test_support_measurement_has_no_spectral_call_above_one_copy(monkeypatch, bell_ensemble):
    sides = []
    for name in ("eigh", "eigvalsh"):

        def recorded(a, *args, _fn=getattr(np.linalg, name), **kwargs):
            sides.append(np.shape(a)[-1])
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    e = _orthogonal_2x3_ensemble(np.random.default_rng(83), (0.2, 0.3, 0.5))
    for ens, ell in ((bell_ensemble, 5), (e, 3)):
        sides.clear()
        orthogonal_support_strategy(ens, ell)
        assert sides and max(sides) <= ens.dims.total


def test_guess_outside_the_symbols_is_refused(bell_ensemble):
    # a guess is compared with the symbol as it is: one outside [0, n) can
    # never be right, so it is refused before any draw or exact value
    povm = orthogonal_support_strategy(bell_ensemble, 2).povm
    for guesses in ([2, 3], [-1, 1], [0, 2]):
        strat = GlobalPovmStrategy(povm, guesses)
        cfg = ProtocolConfig(ensemble=bell_ensemble, copies=2, trials=1000, seed=3, strategy=strat)
        for run in (
            lambda: simulate_broadcast_scheme(cfg),
            lambda: simulate_broadcast_scheme(cfg, withhold_broadcast=True),
            lambda: simulate_direct_encoding(cfg),
            lambda: exact_strategy_success(bell_ensemble, 2, strat),
        ):
            with pytest.raises(ValueError, match="guesses"):
                run()


def _oracle_sample_rows(rng, table, rows):
    """The categorical draw of the allocating sampler: fresh arrays, one
    uniform per row, and a 2-D table's thresholds gathered per row."""
    cum = np.cumsum(table, axis=-1)
    u = rng.random(rows.shape)
    out = np.zeros(rows.shape, dtype=np.min_scalar_type(table.shape[-1] - 1))
    for k in range(table.shape[-1] - 1):
        out += u >= (cum[..., k] if table.ndim == 1 else cum[:, k][rows])
    return out


def _oracle_success_mask(cfg, scheme, x=None):
    """Oracle: the copy loop of the allocating sampler, over all trials at
    once, with an unreduced intp running sum (a direct-encoding law's row
    is its residue) and the one-time pad computed, (x + y - guess) mod n ==
    x.  x is drawn after the copies, as there, but in the simulator's
    narrowest type rather than intp, which draws other values: only the
    withheld mask reads it."""
    from pthide.hiding import _coarse_table, _direct_laws

    n = cfg.ensemble.n
    rng = np.random.default_rng(cfg.seed)
    if scheme in ("direct", "fixed"):
        bin_eta, laws = _direct_laws(cfg.ensemble.probabilities, cfg.copies)
        coarse = _coarse_table(cfg.ensemble, cfg.copies, cfg.strategy, None, bin_eta)
        xs = rng.integers(0, n, cfg.trials) if x is None else np.full(cfg.trials, x, dtype=np.intp)
        state = n - xs
    else:
        laws = [cfg.ensemble.probabilities] * cfg.copies
        coarse = _coarse_table(cfg.ensemble, cfg.copies, cfg.strategy, None)
        state = np.zeros(cfg.trials, dtype=np.intp)
    _, table, guesses, outcome = coarse
    start = state.copy()
    if outcome is not None:
        guess = np.zeros_like(state)
        for law in laws:
            joint = (law[..., None] * outcome).reshape(*law.shape[:-1], -1)
            k = _oracle_sample_rows(rng, joint, state % n)
            state += k >> 1
            guess ^= k & 1
    else:
        for law in laws:
            state += _oracle_sample_rows(rng, law, state % n)
        guess = guesses[_oracle_sample_rows(rng, table, (state - start) % n)]
    if scheme in ("direct", "fixed"):
        return guess == xs
    y = state
    x = rng.integers(0, n, cfg.trials, dtype=np.min_scalar_type(n - 1))
    return (guess if scheme == "withhold" else (x + y - guess) % n) == x


def test_sampler_masks_equal_the_allocating_oracle(monkeypatch):
    # the blocked draws, the narrow residues and the one-time-pad identity
    # draw the same trials as the allocating loop: success masks equal bit
    # for bit, for parity and global strategies, n = 2, 3, 5 and L up to 70
    # (n = 5 at L = 70 sums to 280, past uint8), with the trials in one
    # block and, at a block of 1234, in three blocks of unequal size
    from pthide import hiding

    masks = []
    finish = hiding._finish

    def recorded(success_mask, *args):
        masks.append(np.array(success_mask))
        return finish(success_mask, *args)

    monkeypatch.setattr(hiding, "_finish", recorded)
    one = BipartiteDims(1, 1)

    def skewed(dims):
        # weight on the last symbol, so the sums at L = 70 pass 255 for n = 5
        etas = np.r_[np.ones(n - 1), 10.0 * n] / (11 * n - 1)
        return StateEnsemble(dims, tuple((eta, random_state(dims, rng)) for eta in etas))

    for block in (hiding._BLOCK, 1234):
        monkeypatch.setattr(hiding, "_BLOCK", block)
        rng = np.random.default_rng(85)
        for n in (2, 3, 5):
            e, flat = skewed(D22), skewed(one)  # side 1 at every L
            assert n < 5 or 70 * (np.arange(n) @ e.probabilities) > 260
            parity = PerCopyParityStrategy(random_povm(rng, D22, 2))
            for ell in (1, 2, 7, 70):
                flat_povm = GlobalPovmStrategy(random_povm(rng, one, 3), [0, 1, 1])
                cases = [(e, parity), (flat, flat_povm)]
                if ell < 7:
                    dims = BipartiteDims(2**ell, 2**ell)
                    povm = random_povm(rng, dims, 3)
                    cases.append((e, GlobalPovmStrategy(povm, rng.permutation(3) % n)))
                elif ell == 7:
                    side = BipartiteDims(1, 2)
                    ens = skewed(side)
                    povm = random_povm(rng, BipartiteDims(1, 2**ell), 4)
                    cases.append((ens, GlobalPovmStrategy(povm, rng.integers(0, n, 4))))
                for ens, strat in cases:
                    cfg = ProtocolConfig(
                        ensemble=ens, copies=ell, trials=3000, seed=int(rng.integers(2**63)),
                        strategy=strat,
                    )
                    runs = (
                        ("broadcast", None, lambda: simulate_broadcast_scheme(cfg)),
                        ("withhold", None, lambda: simulate_broadcast_scheme(cfg, True)),
                        ("direct", None, lambda: simulate_direct_encoding(cfg)),
                        ("fixed", n - 1, lambda: simulate_direct_encoding(cfg, x=n - 1)),
                    )
                    for scheme, x, run in runs:
                        masks.clear()
                        run()
                        expected = _oracle_success_mask(cfg, scheme, x)
                        assert masks[0].dtype == bool
                        case = (block, n, ell, strat.name, scheme)
                        assert np.array_equal(masks[0], expected), case
