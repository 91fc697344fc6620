"""One-bit data hiding from a Bell state, end to end.

The singlet has a negative partial transpose, so it induces an orthogonal
two-state ensemble whose LOCC success probability is pinned at 3/4 per copy.
Folding L copies and masking the bit with the modulo sum drives every
per-copy-local strategy to chance while a global measurement stays perfect.

Run:  python demos/bell_data_hiding.py
"""

from pthide import (
    ProtocolConfig,
    PerCopyParityStrategy,
    exact_strategy_success,
    helstrom_measurement,
    hiding_condition,
    orthogonal_support_strategy,
    qg_level_two_state,
    simulate_broadcast_scheme,
)
from pthide.constructions import bell_state, example1

ensemble = example1(bell_state())
print("ensemble priors:", tuple(round(eta, 4) for eta, _ in ensemble.items))

check = hiding_condition(ensemble)
print(
    f"hiding condition: orthogonal={check.orthogonal}, value={check.qg:.4f} "
    f"(< 2/n = 1), passes={check.passes}"
)

# exact per-copy-local success for L copies: 1/2 + 2^-(L+1).  Here the
# single-copy local optimum equals the partial-transpose value, so the
# level closed form of the partial-transpose objective is attained.
print("\nexact local ceiling by number of copies:")
for copies in (1, 2, 4, 8, 16):
    value = qg_level_two_state(ensemble, copies)
    print(f"  L = {copies:2d}:  {value:.8f}")

# simulate the broadcast protocol with the optimal per-copy strategy
parity = PerCopyParityStrategy(helstrom_measurement(ensemble, use_pt=True))
print("\nbroadcast-scheme Monte Carlo (100k trials, parity strategy):")
for copies in (1, 2, 3, 4, 5):
    cfg = ProtocolConfig(
        ensemble=ensemble, copies=copies, trials=100_000, seed=7, strategy=parity
    )
    exact = exact_strategy_success(ensemble, copies, parity)
    res = simulate_broadcast_scheme(cfg, analytic_reference=exact)
    print(
        f"  L = {copies}: empirical {res.empirical_success:.5f}  "
        f"exact {exact:.5f}  (z = {res.z_score:+.2f})"
    )

# without z the bit is information-theoretically masked
cfg = ProtocolConfig(ensemble=ensemble, copies=3, trials=100_000, seed=8, strategy=parity)
masked = simulate_broadcast_scheme(cfg, withhold_broadcast=True)
print(f"\nwith the broadcast withheld: {masked.empirical_success:.5f} (chance = 0.5)")

# a global measurement reads the bit perfectly at any L
grand = orthogonal_support_strategy(ensemble, 3)
cfg = ProtocolConfig(ensemble=ensemble, copies=3, trials=20_000, seed=9, strategy=grand)
res = simulate_broadcast_scheme(cfg)
print(f"global support measurement at L = 3: {res.empirical_success:.5f}")
