"""Workload process of the ajscc benchmark.

run.py starts this file in a fresh interpreter with ``src/`` on PYTHONPATH.
Roles:

- ``setup``: imports, config construction and one warm-up call, then prints
  ``ready`` and exits.  run.py times this from process start.
- ``measure``: the same set-up, then repeated solutions of one workload for
  ``--seconds``; with ``--trace 1`` also traced solutions (workers=1).  The
  last stdout line is one JSON object with the timings and every solution's
  operations (sweep rows or check results) for run.py to check.
- ``record``: writes ``reference/<workload>.json``, the operations of every
  seed in the pool, computed at the commit that defines the benchmark.

Only the public entry points of ``ajscc.experiments`` are called.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ajscc import experiments
from ajscc.experiments import ExperimentConfig, ExperimentKind, SourceSpec
from ajscc.mapping import Quantizer

BENCH_DIR = Path(__file__).resolve().parent
SEED_POOL = 16  # workload seeds wrap onto this many recorded master seeds
# times are reported at the host speed at which calibrate() takes this long
CALIBRATION_REF_S = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    default_master_seed: int
    workers: int
    trials: int
    chains: int  # (trial, point, antenna) chains per solution
    operations: int  # sweep rows or check results per solution
    build: Callable[[int, int, int], list[ExperimentConfig]]  # (trials, master seed, workers)

    def configs(self, master_seed: int, workers: int) -> list[ExperimentConfig]:
        return self.build(self.trials, master_seed, workers)


def _level_sweep(trials: int, seed: int, workers: int) -> list[ExperimentConfig]:
    return [
        ExperimentConfig(
            kind=ExperimentKind.MSE_VS_L,
            source=SourceSpec("uniform"),
            trials=trials,
            snr_db=snr,
            quantizer=Quantizer.NEAREST,
            master_seed=seed,
            workers=workers,
        )
        for snr in (-20.0, -10.0, 0.0)
    ]


FDMA_SNRS = (-35.0, -30.0, -25.0, -20.0, -10.0, 0.0)


def _fdma_sdr(trials: int, seed: int, workers: int) -> list[ExperimentConfig]:
    return [
        ExperimentConfig(
            kind=ExperimentKind.SDR_VS_CSNR,
            source=SourceSpec("uniform"),
            trials=trials,
            snr_values=FDMA_SNRS,
            num_levels=11,
            quantizer=Quantizer.NEAREST,
            sensor_count=3,
            antennas=2,
            master_seed=seed,
            workers=workers,
        )
    ]


def _selftest(trials: int, seed: int, workers: int) -> list[ExperimentConfig]:
    return [
        ExperimentConfig(
            kind=ExperimentKind.ROUND_TRIP,
            trials=trials,
            num_levels=73,
            quantizer=q,
            master_seed=seed,
            workers=workers,
        )
        for q in (Quantizer.FLOOR, Quantizer.NEAREST)
    ]


L_POINTS = len(experiments.DEFAULT_L_GRID)

WORKLOADS = {
    w.name: w
    for w in (
        # 61 L values x 3 SNRs, 4 trials each
        Workload("level-sweep", 20260809, 1, 4, chains=3 * L_POINTS * 4,
                 operations=3 * L_POINTS, build=_level_sweep),
        # 6 SNRs x 50 captures x 2 antennas
        Workload("fdma-sdr", 0, 2, 50, chains=len(FDMA_SNRS) * 50 * 2,
                 operations=len(FDMA_SNRS), build=_fdma_sdr),
        # 2 quantizers x 200 noiseless chains; 5 checks per quantizer
        Workload("selftest", 0, 1, 200, chains=2 * 200, operations=10, build=_selftest),
    )
}


def master_seed(workload: Workload, seed: int) -> int:
    return workload.default_master_seed + seed % SEED_POOL


def warm_up() -> None:
    """One tiny sweep point: fills pocketfft's plan cache for the 65536-point FFT."""
    experiments.run_mse_vs_L(
        ExperimentConfig(kind=ExperimentKind.MSE_VS_L, trials=1, l_values=(73,), snr_db=0.0)
    )


def solve(configs: list[ExperimentConfig]) -> list[dict]:
    """Run each config through its public entry point; return its operations."""
    ops: list[dict] = []
    for cfg in configs:
        if cfg.kind is ExperimentKind.ROUND_TRIP:
            report = experiments.run_roundtrip_suite(cfg)
            ops.extend(
                {"suite": cfg.quantizer.value, "name": c.name, "passed": bool(c.passed),
                 "worst": float(c.worst), "bound": float(c.bound)}
                for c in report.checks
            )
            continue
        if cfg.kind is ExperimentKind.MSE_VS_L:
            result, sweep = experiments.run_mse_vs_L(cfg), f"snr_db={cfg.snr_db}"
        else:
            result, sweep = experiments.run_sdr_vs_csnr(cfg), "snr_db"
        ops.extend(
            {"sweep": sweep, "param": float(r.param), "mean_mse": float(r.mean_mse),
             "mse_x1": float(r.mse_x1), "mse_x2": float(r.mse_x2), "trials": int(r.trials)}
            for r in result.rows
        )
    return ops


def run_once(configs: list[ExperimentConfig]) -> dict:
    """One timed solution; one that raises is returned with ``error`` set."""
    t0 = time.perf_counter()
    try:
        ops = solve(configs)
    except Exception:  # reported as a failed solution, never hidden
        return {"wall_s": time.perf_counter() - t0, "ops": None, "error": traceback.format_exc()}
    return {"wall_s": time.perf_counter() - t0, "ops": ops}


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _scalar_step(p: _Pair, x: float) -> float:
    return p.a * x + p.b if x > 0.5 else p.b - x


def calibrate() -> float:
    """Seconds for a fixed kernel that runs no ajscc code.

    Half of it is numpy work shaped like one chain (65536-point tone, noise,
    rfft, argmax), half scalar Python calls on a frozen dataclass, the two
    kinds of work the workloads do.  The host's speed drifts by up to a
    third over minutes; the kernel slows down with it, so a time divided by
    the kernel's time bracketing it is steady across runs.
    """
    n = np.arange(65536)
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for k in range(30):
        tone = np.cos(2.0 * np.pi * (1000 + k) / n.size * n)
        int(np.argmax(np.abs(np.fft.rfft(tone + rng.normal(0.0, 10.0, n.size)))))
    total = 0.0
    for i in range(120_000):
        total += _scalar_step(_Pair(1.0, 2.0), i * 1e-5)
    return time.perf_counter() - t0


def timed_solutions(configs: list[ExperimentConfig], seconds: float) -> list[dict]:
    """Repeat one solution while the next one is expected to end within ``seconds``.

    At least one solution runs.  The calibration kernel runs before the first
    solution and after each one; ``calibration_s`` of a solution is the mean
    of the two runs bracketing it.
    """
    reps: list[dict] = []
    last_cal = calibrate()
    began = time.perf_counter()
    while not reps or time.perf_counter() - began + reps[-1]["wall_s"] + last_cal <= seconds:
        rep = run_once(configs)
        cal = calibrate()
        rep["calibration_s"] = (last_cal + cal) / 2
        last_cal = cal
        reps.append(rep)
        if "error" in rep:
            break
    return reps


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest worker child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def traced_rounds(workload: Workload, seed: int, seconds: float, out: Path, min_rounds: int = 3) -> dict:
    """Per-layer metrics from rounds of untraced and traced solutions.

    A round is an untraced solution at the workload's worker count, an
    untraced 1-worker solution (when that count is above 1) and a traced
    1-worker solution, so that every span lands in this process.  Neighbouring
    solutions see the same machine load, so the trace overhead and the
    parallel efficiency are taken within each round.  Times and the parallel
    efficiency are medians over rounds; counts must agree between all rounds.
    """
    from tracing import EXACT_METRICS, Tracer, per_layer_metrics

    configs = workload.configs(seed, workload.workers)
    serial = workload.configs(seed, 1)
    reps: list[dict] = []
    rounds: list[dict] = []
    began = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - began < seconds:
        parallel = run_once(configs)
        untraced = run_once(serial) if workload.workers > 1 else parallel
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_once(serial)
        finally:
            tracer.uninstall()
        reps.extend([parallel, traced] if untraced is parallel else [parallel, untraced, traced])
        if any("error" in r for r in reps):
            return {"reps": reps}
        spans = tracer.arrays()
        layers = per_layer_metrics(spans, workload.chains, untraced["wall_s"])
        layers["experiments.parallel_efficiency"] = (
            untraced["wall_s"] / (workload.workers * parallel["wall_s"]), "ratio"
        )
        rounds.append(layers)
    np.savez(out, **spans)
    mismatched = sorted(m for m in EXACT_METRICS if len({r[m][0] for r in rounds}) > 1)
    # exact metrics are equal in every round (or reported as mismatched); times are medians
    metrics = {
        m: (value if m in EXACT_METRICS else statistics.median(r[m][0] for r in rounds), unit)
        for m, (value, unit) in rounds[0].items()
    }
    return {
        "reps": reps,
        "metrics": metrics,
        "mismatched": mismatched,
        "rounds": len(rounds),
        "spans": int(spans["name"].size),
        "file": str(out),
    }


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    seed = master_seed(workload, args.seed)
    configs = workload.configs(seed, workload.workers)
    warm_up()
    result = {
        "numpy": np.__version__,
        "master_seed": seed,
        "workers": workload.workers,
        "trials": workload.trials,
        "chains": workload.chains,
        "operations": workload.operations,
    }
    if args.trace:
        out = Path(args.out_dir) / f"spans-{workload.name}-seed{args.seed}.npz"
        result.update(traced_rounds(workload, seed, args.seconds, out))
    else:
        result["reps"] = timed_solutions(configs, args.seconds)
        result["peak_rss_mb"] = peak_rss_mb()
        result["calibration_ref_s"] = CALIBRATION_REF_S
    return result


def record(args) -> None:
    workload = WORKLOADS[args.workload]
    seeds = {}
    for k in range(SEED_POOL):
        seed = master_seed(workload, k)
        seeds[str(seed)] = solve(workload.configs(seed, workload.workers))
        print(f"recorded {workload.name} master_seed={seed}", file=sys.stderr, flush=True)
    # one operation per line keeps the file readable and its diffs small
    blocks = [
        f"  {json.dumps(seed)}: [\n" + ",\n".join(f"   {json.dumps(op)}" for op in ops) + "\n  ]"
        for seed, ops in seeds.items()
    ]
    header = {"workload": workload.name, "trials": workload.trials,
              "operations": workload.operations, "numpy": np.__version__}
    head = json.dumps(header, indent=1)[:-2]
    path = BENCH_DIR / "reference" / f"{workload.name}.json"
    path.write_text(head + ',\n "seeds": {\n' + ",\n".join(blocks) + "\n }\n}\n", encoding="ascii")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("role", choices=("setup", "measure", "record"))
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", default=str(BENCH_DIR / "out"))
    args = p.parse_args()
    if args.role == "setup":
        WORKLOADS[args.workload].configs(0, 1)
        warm_up()
        print("ready", flush=True)
        return 0
    if args.role == "record":
        record(args)
        return 0
    print(json.dumps(measure(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
