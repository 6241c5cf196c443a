"""Repository benchmark: the 14-design suite through flow, explain and Table II.

A round is what a user runs end to end on the real 387-feature suite:

1. ``flow`` — ``build_suite_dataset``: generate, place, global route, DRC
   simulation and feature extraction for all 14 designs;
2. ``explain`` — ``train_explanation_forest`` + ``explain_hotspots`` for
   one design (its flow re-run as set-up), then global batched Tree SHAP
   passes over every row of that design's held-out group fed to
   ``summarize_shap``;
3. ``table2`` — ``run_experiment`` over the five fast-preset models with
   ``tune=True`` (leave-one-group-out).

An untraced round runs in two slots, each a fresh interpreter
(``slot.py``) that times its cold start, a suite build, an explanation, SHAP
passes and two or three Table II models.  A run repeats rounds and reports each
time as the fastest repeat, per flow or (model, group) unit: on a shared host
the fastest repeat moves far less from run to run than the median (see
``perfbench/README.md``).  The ``small`` workload runs on a scale-0.3 suite,
``tiny`` on a scale-0.25 one.  A traced run (``--trace 1``) runs each stage
once in-process and adds one ``-j 2`` Table II (``ParallelRunner(jobs=2)``)
for the parallel layer.  BLAS threads are left at the library default on
purpose; the environment record says what that default was.

Usage, from the repository root::

    python3 perfbench/run.py --workload small --seed 0 --seconds 35 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    """A run is a fixed number of rounds: ``--seconds`` over ``round_s``.

    Fixing the count, not the time, gives every run the same number of
    repeats however fast the host is at the moment.
    """

    scale: float  # suite scale
    round_s: float  # a round's wall time on the box in perfbench/README.md
    shap_passes: int  # global SHAP passes per slot

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))


WORKLOADS = {
    # 1,393 rows x 387 features, 5 positives
    "small": Workload(scale=0.3, round_s=17.0, shap_passes=3),
    # 953 rows x 387 features, 7 positives
    "tiny": Workload(scale=0.25, round_s=17.0, shap_passes=3),
}
#: Positions, in the seed's model order, of the Table II models each slot of a
#: round runs.
SLOTS = ((0, 1, 2), (3, 4))
#: Cold starts alone before each slot: cheap extra samples for ``setup_s``.
EXTRA_COLD_STARTS = 2
#: A slot takes under 15 s; one that takes this long is killed and fails the run.
SLOT_TIMEOUT_S = 120
#: Untraced and traced flows of the explained design timed for the overhead.
OVERHEAD_REPEATS = 3
#: Output digests of earlier runs in this checkout (see ``checks.Ledger``).
LEDGER = ROOT / ".perfbench" / "ledger.json"


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit of the run kind, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def median_time(fn, repeats: int) -> float:
    """Median wall time of ``repeats`` calls of ``fn()``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if it says."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(scale: float, seed: int) -> dict:
    import numpy as np
    import scipy

    import stages

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "scale": scale,
        "seed": seed,
        "jobs": 1,
        "trace_jobs": stages.TRACE_JOBS,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest finished child (MB)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def run_slot(wl: Workload, seed: int, models: list[str]) -> dict:
    """One untraced slot in a fresh interpreter (see ``slot.py``)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "slot.py"), str(wl.scale), str(seed), repr(spawned),
         str(wl.shap_passes), *models],
        cwd=ROOT, capture_output=True, text=True, timeout=SLOT_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"slot {models} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def unit_sum(samples: dict[str, list[float]], stage: str, stat=min) -> float:
    """Sum over the stage's units of ``stat`` of each unit's repeats."""
    return sum(stat(v) for k, v in samples.items() if k.startswith(stage + "/"))


def end_to_end(samples: dict[str, list[float]], shap_rows: int, stat=min) -> dict:
    """The end-to-end times: each the fastest repeat, per flow or (model,
    group) unit; with ``stat=statistics.median``, the medians for the report."""
    return {
        "setup_s": stat(samples["setup"]),
        "flow_s": unit_sum(samples, "flow", stat),
        "table2_s": unit_sum(samples, "experiment", stat),
        "explain_s": stat(samples["explain"]),
        "shap_rows_per_s": shap_rows / stat(samples["shap"]),
    }


class Run:
    """What the slots of an untraced run report, merged."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.outputs: dict[str, set[str]] = {"suite build": set(), "explanation": set(),
                                             "global SHAP pass": set(), "Table II": set()}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def add(self, slot: dict) -> None:
        for k, v in slot["samples"].items():
            self.samples.setdefault(k, []).extend(v)
        for k, v in slot["outputs"].items():
            self.outputs[k].update(v)
        self.problems += slot["problems"]
        self.attempted += slot["attempted"]
        self.failed += slot["failed"]


def layer_metrics(r) -> dict:
    """The per-layer metrics of a traced ``stages.Stages`` round."""
    import stages

    flow_m, t2_m, j2_m, ex_m = r.flow_m, r.t2_m, r.j2_m, r.ex_m
    result, result_j2, suite, out = r.result, r.result_j2, r.suite, r.out
    m = {
        "bench.generate_s": flow_m.span_s("generate"),
        "place.place_s": flow_m.span_s("place"),
        "route.route_s": flow_m.span_s("global_route"),
        "route.pattern_s": flow_m.span_s("pattern_pass"),
        "route.maze_s": flow_m.count("bench.route.maze_s"),
        "route.maze_calls": flow_m.count("router.maze.routes"),
        "route.maze_expansions": flow_m.count("router.maze.expansions"),
        "route.negotiation_iters": flow_m.count("router.negotiation.iterations"),
        "route.overflow_final": flow_m.count("bench.route.overflow_final"),
        "route.wirelength": flow_m.count("bench.route.wirelength"),
        "drc.sim_s": flow_m.span_s("drc_sim"),
        "drc.hotspots": float(sum(d.num_hotspots for d in suite.designs)),
        "features.extract_s": flow_m.span_s("features"),
    }
    for name in stages.MODELS:
        m[f"ml.{name}.fit_s"] = t2_m.unit_span_s("train", name)
        m[f"ml.{name}.predict_s"] = t2_m.unit_span_s("score", name)
        m[f"ml.{name}.aprc"] = result.averages(name)[2]
    m["ml.binning_s"] = t2_m.count("bench.ml.binning_s")
    m["ml.grid_search_s"] = t2_m.count("bench.ml.grid_search_s")
    for key in ("ml.hist.builds", "ml.hist.subtractions", "ml.tree.nodes",
                "ml.binning.fits"):
        m[key] = t2_m.count(key)

    m["explain.fit_s"] = out["explain.fit_s"]
    m["explain.predict_s"] = ex_m.count("bench.rf.predict_s")
    m["explain.render_s"] = out["explain.render_s"]
    m["shap.init_s"] = ex_m.count("bench.shap.init_s")
    m["shap.hotspot_s_per_row"] = ex_m.count("bench.shap.single_s") / max(len(r.reports), 1)
    m["shap.batch_s_per_row"] = out["shap.batch_s_per_row"]
    m["shap.rows"] = ex_m.count("shap.rows")

    # CPU seconds the -j 2 (model, group) units report, against the pool's capacity
    unit_cpu_s = 60.0 * sum(
        s.train_minutes * len(s.best_params_per_group)
        + s.predict_minutes_per_design * sum(1 for r in result_j2.scores
                                             if r.model == s.model)
        for s in result_j2.run_stats
    )
    m["runtime.table2_j2_s"] = out["table2_j2_s"]
    m["runtime.j2_speedup"] = out["table2_s"] / out["table2_j2_s"]
    m["runtime.worker_busy_frac"] = unit_cpu_s / (stages.TRACE_JOBS * out["table2_j2_s"])
    m["runtime.units"] = float(len(stages.MODELS) * len({d.group for d in suite.designs}))
    m["runtime.retries"] = j2_m.count("runner.retries")
    m["runtime.worker_crashes"] = j2_m.count("runner.worker_crashes")
    return m


def measure(args) -> dict:
    """Run the workload's rounds for ``--seconds``, or one traced round."""
    import numpy as np

    import checks
    import probes
    import stages

    wl = WORKLOADS[args.workload]
    scale = wl.scale
    units = declared_units(args.trace)
    ledger = checks.Ledger(LEDGER)
    key = f"scale={scale:g}/src={checks.source_fingerprint(SRC)[:16]}"
    print("environment:", json.dumps(environment(scale, args.seed), sort_keys=True),
          flush=True)

    if args.trace:
        # tracing overhead of the densest layer: the explained design's flow,
        # untraced and then traced
        from repro.bench.suite import suite_recipes
        from repro.core.pipeline import run_flow

        recipe = next(r for r in suite_recipes(scale) if r.name == stages.EXPLAIN_DESIGN)
        untraced_s = median_time(lambda: run_flow(recipe), OVERHEAD_REPEATS)
        with probes.instrumented() as tracer:
            traced_s = median_time(lambda: run_flow(recipe), OVERHEAD_REPEATS)
            run = stages.Stages(scale, args.seed, tracer)
            run.traced_round()
        values = {**layer_metrics(run), "trace.flow_overhead_s": traced_s - untraced_s}
    else:
        order = stages.model_order(np.random.default_rng(args.seed))
        run = Run()
        rounds = wl.rounds(args.seconds)
        for _ in range(rounds):
            rows = []
            for slot in SLOTS:
                for _ in range(EXTRA_COLD_STARTS):
                    run.add(run_slot(wl, args.seed, []))
                res = run_slot(wl, args.seed, [order[i] for i in slot])
                run.add(res)
                rows += res["score_rows"]
                if res["rf_aprc"] is not None:
                    rf_aprc = res["rf_aprc"]
            run.outputs["Table II"].add(checks.digest_score_rows(rows))
        values = {**end_to_end(run.samples, res["shap_rows"]), "rf_aprc": rf_aprc,
                  "peak_rss_mb": peak_rss_mb()}
        medians = end_to_end(run.samples, res["shap_rows"], statistics.median)
        print(f"{rounds} rounds; fastest repeats: " + " ".join(
            f"{k}={v:.4g}" for k, v in values.items()), flush=True)
        print("medians of the repeats: " + " ".join(
            f"{k}={v:.4g}" for k, v in medians.items()), flush=True)

    # fingerprints: repeats in this run, and every earlier run in the checkout;
    # none depends on the seed, since model order and row order must not matter
    for what, seen in run.outputs.items():
        if len(seen) != 1:
            run.problems.append(f"{what} not repeatable: {len(seen)} distinct outputs")
    digests = {"suite_xy": min(run.outputs["suite build"]),
               "table2_scores": min(run.outputs["Table II"]),
               "global_phi": min(run.outputs["global SHAP pass"])}
    run.problems += ledger.check_and_record(key, digests)
    print("digests:", json.dumps(digests, sort_keys=True), flush=True)
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", flush=True)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="orders the Table II models and the global SHAP rows")
    p.add_argument("--seconds", type=float, required=True,
                   help="sets the number of rounds (at least one)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: one instrumented round reporting the per-layer metrics")
    return p.parse_args(argv)


def main(argv=None) -> int:
    # SIGTERM unwinds like Ctrl-C, so a running slot is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    result = measure(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
