#!/usr/bin/env python3
"""pthide benchmark: one closed-loop client running a workload's tasks.

Usage, from the repository root:

    python3 bench/run.py --workload pt-solve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads: pt-solve, multifold-dense, hide-sim, cli (``all`` runs the four in
turn in this process).  Inputs are built from ``--seed`` only.  Each workload
has a fixed task set that one pass runs in order, each task starting when the
previous one ends; the number of passes is fixed by ``--seconds`` and the
workload's nominal pass time, so counts repeat exactly from run to run.  Every
task's output is checked; a wrong value makes the run exit 1.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics instead, taken from spans recorded around every call into a
pthide module's public functions, and passes alternate untraced and traced so
that the tracing overhead is measured in the same run.  Human-readable lines,
a result file and the span log go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Set before anything imports numpy; the set-up children inherit them.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = {
    "pt-solve": "pt_solve",
    "multifold-dense": "multifold_dense",
    "hide-sim": "hide_sim",
    "cli": "cli_calls",
}
LAYER_MODULES = ("operators", "ensembles", "discrimination", "multifold",
                 "constructions", "hiding", "serialize", "cli")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120


def load_pthide():
    """Import pthide from this checkout's source tree, never from elsewhere."""
    init = SRC / "pthide" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: package source {init} not found")
    sys.path.insert(0, str(SRC))
    pthide = importlib.import_module("pthide")
    if Path(pthide.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported pthide from {pthide.__file__}, not {init}")
    for name in LAYER_MODULES:
        importlib.import_module(f"pthide.{name}")
    return pthide


def setup_child(workload: str, seed: int) -> int:
    """Time package import plus input construction in a fresh interpreter."""
    t0 = time.perf_counter()
    pthide = load_pthide()
    from spans import Recorder

    importlib.import_module(WORKLOADS[workload]).build(pthide, seed, Recorder(enabled=False))
    print(repr(time.perf_counter() - t0))
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_workload(pthide, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from common import CATEGORIES, EXCEPTION, HARD_FAILURES, Outcome
    from metrics import OBSERVERS, layer_metrics
    from spans import Recorder, tail_percentile

    module = importlib.import_module(WORKLOADS[workload])
    setup_times = [] if trace else measure_setup(workload, seed)
    rec = Recorder(enabled=trace)
    modules = [pthide] + [getattr(pthide, name) for name in LAYER_MODULES]

    def instrument():
        rec.instrument(modules, lambda mod: mod.__name__.rsplit(".", 1)[-1], OBSERVERS)

    if trace:
        instrument()
    tasks = module.build(pthide, seed, rec)
    # PASS_S is the workload's pass time at the parent commit.
    passes = max(1, round(seconds / module.PASS_S))
    if trace:
        passes = max(2, passes)
    task_times, task_labels, walls, traced_walls, traced_passes = [], [], [], [], []
    attempted = 0
    counts = dict.fromkeys(CATEGORIES, 0)
    wrong, errors, failing, failed, trials = [], [], 0, 0, 0
    for p in range(passes):
        traced = trace and p % 2 == 1
        if trace:
            rec.restore()
            if traced:
                instrument()
                traced_passes.append(p)
        rec.enabled = traced
        start = time.perf_counter()
        for task in tasks:
            rec.task = f"{p}:{task.label}"
            t0 = time.perf_counter()
            with rec.span("bench.task", label=task.label):
                try:
                    out = task.run()
                except Exception:  # a task that raises is a failed operation
                    out = Outcome(failures=[EXCEPTION])
                    errors.append(f"{task.label}: {traceback.format_exc(limit=3)}")
            attempted += 1
            if not traced:
                task_times.append(time.perf_counter() - t0)
                task_labels.append(task.label)
                trials += out.trials
            for category in set(out.failures):
                counts[category] += 1
            failing += bool(out.failures)
            failed += any(c in HARD_FAILURES for c in out.failures)
            wrong.extend(f"{task.label}: {w}" for w in out.wrong)
        (traced_walls if traced else walls).append(time.perf_counter() - start)
    rec.restore()

    pct, tail, n = tail_percentile(task_times)
    end_to_end = {
        "setup_s": (statistics.median(setup_times) if setup_times else 0.0, "s"),
        # The mean, not the median: on a shared host short passes fall into a
        # fast and a slow group, and the median jumps between the two.
        "wall_s": (statistics.fmean(walls), "s"),
        "task_p50_s": (statistics.median(task_times), "s"),
        "task_tail_s": (tail, "s"),
        "trials_per_s": (trials / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_ratio": (failing / attempted, "ratio"),
    }
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong,
        "wrong": wrong[:20],
        "errors": errors[:20],
        "failure_categories": counts,
        "task_tail_percentile": pct,
        "task_samples": n,
        "setup_samples_s": setup_times,
        "pass_walls_s": walls,
        "task_times_s": list(zip(task_labels, task_times)),
        "end_to_end": end_to_end,
    }
    if trace:
        result["traced_pass_walls_s"] = traced_walls
        result["trace_overhead_s"] = statistics.fmean(traced_walls) - statistics.fmean(walls)
        result["per_layer"] = layer_metrics(rec.spans, traced_passes)
        result["span_file"] = str(write_spans(rec, workload, seed))
    return result


def write_spans(rec, workload: str, seed: int) -> Path:
    from common import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    rec.write(path)
    return path


def report(result: dict, env: dict):
    """Print every metric by name and unit; save the full result."""
    from common import OUT_DIR

    wl = result["workload"]
    print(f"== {wl}  seed {result['seed']}  passes {result['passes']}  "
          f"tasks {result['attempted']}  trace {int(result['trace'])}")
    end_to_end = result["end_to_end"]
    if result["trace"]:
        end_to_end = {"wall_s": end_to_end["wall_s"]}
    for name, (value, unit) in end_to_end.items():
        extra = ""
        if name == "task_tail_s":
            extra = (f"  (p{result['task_tail_percentile']:.2f} of "
                     f"{result['task_samples']} tasks)")
        if name == "fail_ratio":
            extra = "  " + " ".join(f"{k}={v}" for k, v in result["failure_categories"].items())
        print(f"{wl}  {name} = {value:.6g} {unit}{extra}")
    if result["trace"]:
        print(f"{wl}  trace_overhead_s = {result['trace_overhead_s']:.6g} s"
              "  (traced wall_s minus untraced wall_s)")
        for name, (value, unit) in result["per_layer"].items():
            print(f"{wl}  {name} = {value:.6g} {unit}")
    for line in result["wrong"]:
        print(f"{wl}  WRONG {line}")
    for line in result["errors"]:
        print(f"{wl}  ERROR {line}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{wl}-seed{result['seed']}-trace{int(result['trace'])}.json"
    path.write_text(json.dumps(dict(result, environment=env), indent=1, default=str) + "\n")


def selected(result: dict, spec: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, with the units it declares."""
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    out = {}
    for m in spec:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_child(args.workload, args.seed)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    pthide = load_pthide()
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for workload in names:
        result = run_workload(pthide, workload, args.seed, args.seconds, bool(args.trace))
        report(result, env)
        results.append(result)
    if len(results) == 1:
        metrics = selected(results[0], spec)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in selected(r, spec).items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
