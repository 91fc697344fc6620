"""Command-line front end: every analysis as a subcommand with JSON/CSV output.

Exit codes: 0 success, 2 invalid input (bad flags, unreadable or malformed
files, schema violations), 3 optimizer non-convergence or an indeterminate
verdict.  ``certify`` exits 0 whatever its verdict: scripts read its
``certified`` field.  Outputs embed a run manifest; set
``SOURCE_DATE_EPOCH`` to pin the manifest timestamp when byte-identical
reruns are required.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .constructions import bell_state, example1, example2, random_npt_state
from .discrimination import (
    SolverOptions,
    certify_optimal,
    helstrom_measurement,
    qg_two_state,
    solve_optimal_value,
)
from .ensembles import validate
from .hiding import (
    GlobalPovmStrategy,
    PerCopyParityStrategy,
    ProtocolConfig,
    orthogonal_support_strategy,
    simulate_broadcast_scheme,
    simulate_direct_encoding,
)
from .multifold import _pt_upper_value, decay_curve_from_value
from .operators import DEFAULT_DIM_CAP, BipartiteDims
from .serialize import (
    ensemble_to_dict,
    load_ensemble,
    load_operator,
    load_povm,
    operator_to_dict,
    povm_to_dict,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NOT_CONVERGED = 3


def _timestamp() -> str:
    pinned = os.environ.get("SOURCE_DATE_EPOCH")
    if pinned is not None:
        return datetime.fromtimestamp(int(pinned), tz=timezone.utc).isoformat()
    return datetime.now(tz=timezone.utc).isoformat()


def _manifest(args, **extra) -> dict:
    return {
        "tool": "pthide",
        "version": __version__,
        "subcommand": args.subcommand,
        "config": {k: v for k, v in {**vars(args), **extra}.items() if k != "func"},
        "seed": getattr(args, "seed", None),
        "timestamp": _timestamp(),
    }


def _emit_json(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(manifest: dict, header: list[str], rows: list[list], out: str | None):
    if any(isinstance(v, float) and not math.isfinite(v) for row in rows for v in row):
        raise ValueError("refusing to emit a non-finite CSV value")
    lines = ["# manifest: " + json.dumps(manifest, sort_keys=True)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_ensemble(source: str, cap: int):
    """Ensemble from a JSON file path or a named builtin.

    Builtins: ``bell-example1`` and ``example2:m,n,d``.
    """
    if source == "bell-example1":
        return example1(bell_state())
    if source.startswith("example2:"):
        try:
            m, n, d = (int(tok) for tok in source.split(":", 1)[1].split(","))
        except Exception as exc:
            raise ValueError(f"expected example2:m,n,d, got {source!r}") from exc
        return example2(d=d, m=m, n=n, explicit=True, cap=cap).ensemble
    if os.path.exists(source):
        return load_ensemble(source)
    raise ValueError(f"ensemble {source!r} is neither a readable file nor a known builtin")


def _resolve_sigma(source: str, cap: int):
    """State from a JSON file, ``bell``, or ``random-npt:dAxdB:seed``."""
    if source == "bell":
        return bell_state()
    if source.startswith("random-npt:"):
        try:
            _, dims_part, seed_part = source.split(":")
            da, db = (int(tok) for tok in dims_part.split("x"))
            seed = int(seed_part)
        except Exception as exc:
            raise ValueError(f"expected random-npt:dAxdB:seed, got {source!r}") from exc
        if da * db > cap:
            raise ValueError(f"dimension {da * db} exceeds cap {cap}")
        return random_npt_state(BipartiteDims(da, db), seed)
    if os.path.exists(source):
        return load_operator(source)
    raise ValueError(f"state {source!r} is neither a readable file nor a known builtin")


def _solver_opts(args) -> SolverOptions:
    return SolverOptions(gap_tol=args.gap_tol, max_iters=args.max_iters)


def cmd_qg(args) -> int:
    ensemble = _resolve_ensemble(args.ensemble, args.cap)
    report = solve_optimal_value(ensemble, use_pt=not args.no_pt, opts=_solver_opts(args))
    payload = {
        "manifest": _manifest(args),
        "value": report.value,
        "gap": report.gap,
        "converged": report.converged,
        "iterations": report.iterations,
        "method": report.method,
        "residual_min_eigs": report.residual_min_eigs.tolist(),
        "povm": povm_to_dict(report.povm),
        "dual_h": operator_to_dict(report.dual_h),
    }
    _emit_json(payload, args.out)
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def cmd_certify(args) -> int:
    ensemble = _resolve_ensemble(args.ensemble, args.cap)
    povm = load_povm(args.povm)
    result = certify_optimal(ensemble, povm, use_pt=not args.no_pt, tol=args.tol)
    payload = {
        "manifest": _manifest(args),
        "residual_min_eigs": result.residual_min_eigs.tolist(),
        "certified": result.certified,
        "tol": result.tol,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    ensemble = _resolve_ensemble(args.ensemble, args.cap)
    report = validate(ensemble)
    payload = {
        "manifest": _manifest(args),
        "ok": report.ok,
        "checks": [
            {"name": c.name, "residual": c.residual, "ok": c.ok} for c in report.checks
        ],
    }
    _emit_json(payload, args.out)
    return EXIT_OK if report.ok else EXIT_BAD_INPUT


def cmd_bounds(args) -> int:
    ensemble = _resolve_ensemble(args.ensemble, args.cap)
    qg, converged = _pt_upper_value(ensemble, _solver_opts(args))
    if not converged:
        print("optimizer did not converge; bounds would be unanchored", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    curve = decay_curve_from_value(qg, ensemble.n, args.lmax, which=args.which)
    rows = [[int(level), lo, up] for level, lo, up in curve.points()]
    _emit_csv(_manifest(args, qg=qg), ["L", "lower", "upper"], rows, args.out)
    return EXIT_OK


def cmd_fig3(args) -> int:
    try:
        m, n, d = (int(tok) for tok in args.params.split(","))
    except Exception as exc:
        raise ValueError(f"expected --params m,n,d, got {args.params!r}") from exc
    result = example2(d=d, m=m, n=n, explicit=False)
    curve = decay_curve_from_value(result.qg, n, args.lmax, which=args.which)
    rows = [[int(level), lo, up] for level, lo, up in curve.points()]
    _emit_csv(_manifest(args, qg=result.qg), ["L", "lower", "upper"], rows, args.out)
    return EXIT_OK


def cmd_example1(args) -> int:
    sigma = _resolve_sigma(args.sigma, args.cap)
    ensemble = example1(sigma)
    t = 2.0 * ensemble.items[0][0] - 1.0
    t = 1.0 / t if t else float("inf")  # eta0 = (T+1)/(2T)  =>  T = 1/(2 eta0 - 1)
    payload = {
        "manifest": _manifest(args),
        "ensemble": ensemble_to_dict(ensemble),
        "reference": {
            "pt_trace_norm": t,
            "eta0": ensemble.items[0][0],
            "qg": qg_two_state(ensemble),
        },
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_example2(args) -> int:
    explicit = True if args.explicit else (False if args.formulas_only else None)
    result = example2(d=args.d, m=args.m, n=args.n, explicit=explicit, cap=args.cap)
    payload = {
        "manifest": _manifest(args),
        "normalization": result.normalization,
        "probabilities": [
            {"numerator": p.numerator, "denominator": p.denominator}
            for p in result.probabilities_exact
        ],
        "eta0": float(result.eta0),
        "qg": result.qg,
        "qg_strict_upper": result.qg_strict_upper,
        "d_threshold": result.d_threshold,
        "meets_threshold": result.meets_threshold,
        "explicit": result.explicit,
        "rho0_separable": result.rho0_separable,
        "ensemble": ensemble_to_dict(result.ensemble) if result.ensemble else None,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _build_strategy(args, ensemble, copies):
    if args.strategy == "parity-product":
        base = load_povm(args.povm) if args.povm else helstrom_measurement(ensemble, use_pt=True)
        return PerCopyParityStrategy(base)
    if args.strategy == "global-orthogonal":
        return orthogonal_support_strategy(ensemble, copies, cap=args.cap)
    if args.strategy == "povm-file":
        if not args.povm:
            raise ValueError("strategy povm-file needs --povm")
        povm = load_povm(args.povm)
        return GlobalPovmStrategy(povm, np.arange(povm.n_outcomes) % ensemble.n, name="povm-file")
    raise ValueError(f"unknown strategy {args.strategy!r}")


def _run_sim(args, ensemble, copies, strategy):
    cfg = ProtocolConfig(
        ensemble=ensemble, copies=copies, trials=args.trials, seed=args.seed, strategy=strategy
    )
    if args.direct_encoding:
        return simulate_direct_encoding(cfg, cap=args.cap)
    return simulate_broadcast_scheme(cfg, withhold_broadcast=args.withhold_broadcast, cap=args.cap)


def cmd_hide_sim(args) -> int:
    if args.csv and args.lmax < 1:
        raise ValueError("max_copies must be >= 1")  # as bounds and fig3 refuse it
    ensemble = _resolve_ensemble(args.ensemble, args.cap)
    levels = range(1, args.lmax + 1) if args.csv else [args.L]
    strategy, results = None, []
    for copies in levels:
        # only global-orthogonal depends on L; the others are built once per sweep
        if strategy is None or args.strategy == "global-orthogonal":
            strategy = _build_strategy(args, ensemble, copies)
        results.append(_run_sim(args, ensemble, copies, strategy))
    if args.csv:
        rows = [[c, r.empirical_success, r.stderr, r.analytic_reference]
                for c, r in zip(levels, results)]
        _emit_csv(_manifest(args), ["L", "empirical", "stderr", "reference"], rows, args.out)
        return EXIT_OK
    _emit_json({"manifest": _manifest(args), **dataclasses.asdict(results[0])}, args.out)
    return EXIT_OK


#: the subcommands, in the order ``pthide -h`` lists them
_SUBCOMMANDS = ("qg", "certify", "validate", "bounds", "fig3", "example1", "example2", "hide-sim")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The ``pthide`` parser; for an ``argv`` that starts with a subcommand, only
    that subcommand's parser is built (the usage line still lists them all)."""
    parser = argparse.ArgumentParser(
        prog="pthide",
        description="Distinguishability bounds and data-hiding analysis "
        "for bipartite state ensembles",
    )
    parser.add_argument("--version", action="version", version=f"pthide {__version__}")
    only = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar=only and "{" + ",".join(_SUBCOMMANDS) + "}")

    def add(name, text):
        return sub.add_parser(name, help=text) if only in (None, name) else None

    def common(p):
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.add_argument("--cap", type=int, default=DEFAULT_DIM_CAP, help="dimension cap")

    if p := add("qg", "optimize the (PT) guessing objective of an ensemble"):
        p.add_argument("--ensemble", required=True, help="JSON file or builtin name")
        p.add_argument("--no-pt", action="store_true", help="optimize the plain objective")
        p.add_argument("--gap-tol", type=float, default=1e-6)
        p.add_argument("--max-iters", type=int, default=100_000)
        common(p)
        p.set_defaults(func=cmd_qg)

    if p := add("certify", "check a measurement's optimality certificate"):
        p.add_argument("--ensemble", required=True)
        p.add_argument("--povm", required=True, help="POVM JSON file")
        p.add_argument("--no-pt", action="store_true")
        p.add_argument("--tol", type=float, default=1e-8)
        common(p)
        p.set_defaults(func=cmd_certify)

    if p := add("validate", "validate an ensemble's invariants"):
        p.add_argument("--ensemble", required=True)
        common(p)
        p.set_defaults(func=cmd_validate)

    if p := add("bounds", "per-copy decay bounds for an ensemble"):
        p.add_argument("--ensemble", required=True)
        p.add_argument("--lmax", type=int, required=True)
        p.add_argument("--which", choices=("coarse", "uniform"), default="coarse")
        p.add_argument("--gap-tol", type=float, default=1e-6)
        p.add_argument("--max-iters", type=int, default=100_000)
        common(p)
        p.set_defaults(func=cmd_bounds)

    if p := add("fig3", "decay curve for a Werner-family parameter triple"):
        p.add_argument("--params", required=True, help="m,n,d")
        p.add_argument("--lmax", type=int, required=True)
        p.add_argument("--which", choices=("coarse", "uniform"), default="coarse")
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.set_defaults(func=cmd_fig3)

    if p := add("example1", "two-state hiding ensemble from an NPT state"):
        p.add_argument("--sigma", required=True,
                       help="JSON file, 'bell', or random-npt:dAxdB:seed")
        common(p)
        p.set_defaults(func=cmd_example1)

    if p := add("example2", "Werner-family ensemble and reference values"):
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--explicit", action="store_true", help="insist on explicit matrices")
        mode.add_argument("--formulas-only", action="store_true", help="never build matrices")
        common(p)
        p.set_defaults(func=cmd_example2)

    if p := add("hide-sim", "Monte Carlo simulation of the hiding protocol"):
        p.add_argument("--ensemble", required=True)
        p.add_argument("--L", type=int, default=1, help="number of copies")
        p.add_argument("--trials", type=int, default=100_000)
        p.add_argument("--strategy", default="parity-product",
                       choices=("parity-product", "global-orthogonal", "povm-file"))
        p.add_argument("--povm", default=None, help="POVM JSON for povm-file / parity base")
        scheme = p.add_mutually_exclusive_group()
        scheme.add_argument("--direct-encoding", action="store_true")
        scheme.add_argument("--withhold-broadcast", action="store_true")
        p.add_argument("--csv", action="store_true", help="sweep L = 1..lmax, emit CSV")
        p.add_argument("--lmax", type=int, default=5)
        p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        common(p)
        p.set_defaults(func=cmd_hide_sim)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
