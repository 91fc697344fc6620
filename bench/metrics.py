"""Per-layer metrics derived from the traced run's spans.

A time is the busy time of the outermost calls of a function: the calls made
during set-up once, plus the mean over traced passes of the calls made by the
tasks.  A count is taken over set-up plus the first traced pass; every pass
runs the same inputs, so counts repeat exactly.
"""

from __future__ import annotations

import os

import numpy as np

from spans import outermost, self_times

LAYERS = (
    "operators", "ensembles", "discrimination", "multifold",
    "constructions", "hiding", "serialize", "cli",
)
SOLVE = "discrimination.solve_optimal_value"
BROADCAST = "hiding.simulate_broadcast_scheme"
DIRECT = "hiding.simulate_direct_encoding"
WRITE = ("serialize.write", "serialize.ensemble_to_dict", "serialize.povm_to_dict",
         "serialize.operator_to_dict")
LOAD = ("serialize.load_ensemble", "serialize.load_povm", "serialize.load_operator",
        "serialize.ensemble_from_dict", "serialize.povm_from_dict",
        "serialize.operator_from_dict")
CLI_SUBCOMMANDS = ("qg", "certify", "validate", "bounds", "fig3", "example2", "hide-sim")


def _observe_solve(args, kwargs, report, attrs):
    attrs.update(iterations=report.iterations, method=report.method,
                 converged=report.converged, n=report.povm.n_outcomes)


def _observe_validate_povm(args, kwargs, checks, attrs):
    attrs["min_eig"] = min(res for name, res, _ in checks if name.startswith("element_"))


def _observe_load(args, kwargs, result, attrs):
    attrs["bytes"] = os.path.getsize(args[0])


def _observe_sim(args, kwargs, result, attrs):
    attrs["trials"] = result.trials


def _observe_main(args, kwargs, code, attrs):
    attrs.update(subcommand=args[0][0], code=code)


OBSERVERS = {
    SOLVE: _observe_solve,
    "discrimination.validate_povm": _observe_validate_povm,
    "ensembles.coarse_grain": lambda a, k, result, attrs: attrs.update(dim=result.dims.total),
    "serialize.load_ensemble": _observe_load,
    "serialize.load_povm": _observe_load,
    "serialize.load_operator": _observe_load,
    BROADCAST: _observe_sim,
    DIRECT: _observe_sim,
    "cli.main": _observe_main,
}


def _dur(s):
    return s["end"] - s["start"]


class SpanView:
    """The spans of one traced run, split into set-up and traced passes."""

    def __init__(self, spans, traced_passes: list[int]):
        self.passes = len(traced_passes)
        first = f"{traced_passes[0]}:"
        self.setup = [s for s in spans if s["task"] == "setup"]
        self.tasks = [s for s in spans if s["task"] != "setup"]
        self.once = self.setup + [s for s in self.tasks if s["task"].startswith(first)]

    def calls(self, names):
        """Outermost calls: (set-up calls, calls from all traced passes)."""
        return outermost(self.setup, names), outermost(self.tasks, names)

    def busy(self, names, keep=lambda s: True) -> float:
        """Set-up busy time plus the mean busy time of one traced pass."""
        setup, tasks = self.calls(names)
        return (sum(_dur(s) for s in setup if keep(s))
                + sum(_dur(s) for s in tasks if keep(s)) / self.passes)

    def counted(self, names, key=None):
        """Outermost calls in set-up and the first traced pass; with ``key``,
        only those whose observer ran (the call returned)."""
        return [s for s in outermost(self.once, names) if key is None or key in s["attrs"]]

    def rate(self, name, key) -> float:
        setup, tasks = self.calls(name)
        spans = setup + tasks
        busy = sum(_dur(s) for s in spans)
        return sum(s["attrs"].get(key, 0) for s in spans) / busy if busy else 0.0


def _percentile(values, q):
    return float(np.percentile(values, q, method="inverted_cdf")) if values else 0.0


def layer_metrics(spans, traced_passes):
    """Every per-layer metric as {name: (value, unit)}."""
    v = SpanView(spans, traced_passes)
    m = {}

    def t(name, value, unit="s"):
        m[name] = (value, unit)

    ops = v.counted("operators.HermitianOperator")
    t("operators.partial_transpose_s", v.busy("operators.partial_transpose"))
    t("operators.tensor_power_s", v.busy("operators.tensor_power"))
    t("operators.hermitian_operator_us",
      1e6 * sum(map(_dur, ops)) / len(ops) if ops else 0.0, "us")

    coarse = v.counted("ensembles.coarse_grain", "dim")
    t("ensembles.coarse_grain_s", v.busy("ensembles.coarse_grain"))
    t("ensembles.coarse_grain_calls", len(coarse), "count")
    t("ensembles.coarse_grain_max_dim", max((s["attrs"]["dim"] for s in coarse), default=0),
      "count")
    t("ensembles.validate_s", v.busy("ensembles.validate"))
    t("ensembles.is_mutually_orthogonal_s", v.busy("ensembles.is_mutually_orthogonal"))

    solves = v.counted(SOLVE, "method")
    ascent = [s["attrs"] for s in solves if s["attrs"]["method"] == "projected-ascent"]
    iters = [a["iterations"] for a in ascent]
    t("discrimination.iters_p50", _percentile(iters, 50), "count")
    t("discrimination.iters_p90", _percentile(iters, 90), "count")
    t("discrimination.iters_max", max(iters, default=0), "count")
    t("discrimination.iters_total", sum(iters), "count")
    all_solves = [s for s in v.calls(SOLVE)[1] if "method" in s["attrs"]]
    for label, keep in (("n2", lambda a: a["n"] == 2), ("dykstra", lambda a: a["n"] > 2)):
        runs = [s for s in all_solves
                if s["attrs"]["method"] == "projected-ascent" and keep(s["attrs"])]
        n_iter = sum(s["attrs"]["iterations"] for s in runs)
        t(f"discrimination.s_per_iter_{label}",
          sum(map(_dur, runs)) / n_iter if n_iter else 0.0, "s/iter")
    t("discrimination.nonconverged", sum(not s["attrs"]["converged"] for s in solves), "count")
    fast = [s for s in solves if s["attrs"]["method"] == "commuting-eigenbasis"]
    t("discrimination.fast_path_accept_ratio", len(fast) / len(solves) if solves else 0.0,
      "ratio")
    t("discrimination.fast_path_s",
      v.busy(SOLVE, keep=lambda s: s["attrs"].get("method") == "commuting-eigenbasis"))
    t("discrimination.certify_s", v.busy("discrimination.certify_optimal"))
    t("discrimination.dual_bound_s", v.busy("discrimination.dual_bound"))
    t("discrimination.validate_povm_s", v.busy("discrimination.validate_povm"))
    povms = v.counted("discrimination.validate_povm", "min_eig")
    t("discrimination.povm_min_eig", min((s["attrs"]["min_eig"] for s in povms), default=0.0),
      "eigval")

    for fn in ("qg_level_two_state", "hiding_condition", "decay_curve"):
        t(f"multifold.{fn}_s", v.busy(f"multifold.{fn}"))
    for fn in ("example1", "example2", "random_npt_state"):
        t(f"constructions.{fn}_s", v.busy(f"constructions.{fn}"))

    for label, name in (("broadcast", BROADCAST), ("direct", DIRECT)):
        t(f"hiding.{label}_s", v.busy(name))
        t(f"hiding.{label}_trials_per_s", v.rate(name, "trials"), "1/s")
    t("hiding.exact_strategy_success_s", v.busy("hiding.exact_strategy_success"))
    t("hiding.orthogonal_support_strategy_s", v.busy("hiding.orthogonal_support_strategy"))

    t("serialize.write_s", v.busy(WRITE))
    t("serialize.load_s", v.busy(LOAD))
    setup_loads, task_loads = v.calls(LOAD[:3])
    t("serialize.bytes", sum(s["attrs"].get("bytes", 0) for s in setup_loads)
      + sum(s["attrs"].get("bytes", 0) for s in task_loads) / v.passes, "B")

    for sub in CLI_SUBCOMMANDS:
        t(f"cli.{sub.replace('-', '_')}_s",
          v.busy("cli.main", keep=lambda s, sub=sub: s["attrs"].get("subcommand") == sub))
    t("cli.nonzero_exits", sum(s["attrs"]["code"] != 0 for s in v.counted("cli.main", "code")),
      "count")

    selfs = self_times(v.setup)
    for name, value in self_times(v.tasks).items():
        selfs[name] = selfs.get(name, 0.0) + value / v.passes
    for name in LAYERS + ("bench",):
        t(f"{name}.self_s", selfs.get(name, 0.0))
    return m
