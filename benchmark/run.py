"""ajscc benchmark: times one workload, checks its outputs, prints one JSON line.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload level-sweep --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
``--trace 1`` reports the per-layer metrics from a traced run.  Every solution
is checked against ``benchmark/reference/<workload>.json``; the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``.  A manifest line
and a JSON record under ``benchmark/out/`` go with every run.  See README.md.

This file uses only the standard library; the work runs in harness.py
processes with the checkout's ``src/`` on PYTHONPATH.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("level-sweep", "fdma-sdr", "selftest")
SETUP_SAMPLES = 9
MEASURE_PROCESSES = 4
REL_TOL = 1e-12  # allows a reordered sum, catches any changed peak decision
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr, flush=True)
    return 2


def spawn(cmd: list[str], env: dict) -> subprocess.Popen:
    """Start one harness process in its own session, so a kill reaches its workers too."""
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True)


def wait(proc: subprocess.Popen, timeout: float) -> str:
    """Rest of the process's stdout; kills its whole session on timeout."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{' '.join(proc.args[1:3])} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(proc.args[1:3])} exited with code {proc.returncode}")
    return out


def setup_time(cmd: list[str], env: dict, timeout: float) -> float:
    """Seconds from process start until the harness reports it is ready."""
    t0 = time.perf_counter()
    proc = spawn(cmd, env)
    if select.select([proc.stdout], [], [], max(timeout, 1.0))[0]:
        line = proc.stdout.readline()
    else:
        line = ""
    elapsed = time.perf_counter() - t0
    wait(proc, timeout - elapsed)
    if line.strip() != "ready":
        raise RuntimeError("set-up process did not report ready")
    return elapsed


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def op_ok(got: dict, ref: dict) -> bool:
    """A sweep row must match its reference row; a check must pass under its reference name."""
    if got.keys() != ref.keys():
        return False
    if "suite" in ref:
        return got["suite"] == ref["suite"] and got["name"] == ref["name"] and got["passed"] is True
    return (
        got["sweep"] == ref["sweep"]
        and got["param"] == ref["param"]
        and got["trials"] == ref["trials"]
        and all(_close(got[k], ref[k]) for k in ("mean_mse", "mse_x1", "mse_x2"))
    )


def check_reps(reps: list[dict], ref_ops: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations over all solutions; a raised solution fails all."""
    attempted = failed = 0
    for rep in reps:
        attempted += len(ref_ops)
        ops = rep.get("ops")
        if ops is None or len(ops) != len(ref_ops):
            failed += len(ref_ops)
            continue
        failed += sum(not op_ok(g, r) for g, r in zip(ops, ref_ops))
    return attempted, failed


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    began = time.perf_counter()
    p = argparse.ArgumentParser(description="ajscc benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    root = Path.cwd()
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not (root / "src" / "ajscc" / "__init__.py").is_file():
        return fail(f"no ajscc sources under {root / 'src'}; run from the root of a checkout")
    ref_path = BENCH_DIR / "reference" / f"{args.workload}.json"
    if not ref_path.is_file():
        return fail(f"missing reference file {ref_path}")
    reference = json.loads(ref_path.read_text())

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    harness = [sys.executable, str(BENCH_DIR / "harness.py")]
    common = ["--workload", args.workload]

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - began)

    try:
        setups = []
        if not args.trace:
            setups = [
                setup_time(harness + ["setup"] + common, env, remaining())
                for _ in range(SETUP_SAMPLES)
            ]
        # a traced run needs one process; timed solutions are spread over
        # several, because the same solution runs up to a fifth slower in
        # some processes than in others
        processes = 1 if args.trace else MEASURE_PROCESSES
        results = []
        for _ in range(processes):
            measure_cmd = harness + ["measure"] + common + [
                "--seed", str(args.seed), "--seconds", str(args.seconds / processes),
                "--trace", str(args.trace), "--out-dir", str(out_dir),
            ]
            out = wait(spawn(measure_cmd, env), remaining())
            results.append(json.loads(out.strip().splitlines()[-1]))
    except (RuntimeError, OSError) as exc:
        return fail(str(exc))
    res = results[0]
    res["reps"] = [rep for r in results for rep in r["reps"]]

    ref_ops = reference["seeds"].get(str(res["master_seed"]))
    if ref_ops is None or reference["trials"] != res["trials"]:
        return fail(f"{ref_path.name} has no reference for this workload size and seed")
    reps = res["reps"]
    attempted, failed = check_reps(reps, ref_ops)
    errors = [rep["error"] for rep in reps if "error" in rep]
    for err in errors:
        print(err, file=sys.stderr)

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "master_seed": res["master_seed"],
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "git_commit": git_commit(root),
        "workers": res["workers"],
        "trials": res["trials"],
        "operations_per_solution": res["operations"],
        "chains_per_solution": res["chains"],
        "solutions": len(reps),
        "wall_s_samples": [rep["wall_s"] for rep in reps],
    }
    metrics: dict[str, dict] = {}
    if not args.trace:
        # host times rescaled to the reference host speed (see harness.calibrate)
        ref = res["calibration_ref_s"]
        cals = [rep["calibration_s"] for rep in reps]
        wall = statistics.median(rep["wall_s"] * ref / rep["calibration_s"] for rep in reps)
        setup = statistics.median(setups) * ref / statistics.median(cals)
        metrics["wall_s"] = {"value": wall, "unit": "s"}
        metrics["setup_s"] = {"value": setup, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": max(r["peak_rss_mb"] for r in results), "unit": "MiB"}
        manifest["setup_s_samples"] = setups
        manifest["calibration_s_samples"] = cals
        manifest["host_wall_s"] = statistics.median(manifest["wall_s_samples"])
        manifest["host_setup_s"] = statistics.median(setups)
    elif not errors:
        if res["mismatched"]:
            return fail(
                "traced runs of the same code gave different exact counts: "
                + ", ".join(res["mismatched"])
            )
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["metrics"].items()}
        manifest["rounds"] = res["rounds"]
        manifest["spans_per_traced_solution"] = res["spans"]
        manifest["span_file"] = os.path.relpath(res["file"], root)
    manifest["attempted"] = attempted
    manifest["failed"] = failed
    manifest["failed_share"] = failed / attempted if attempted else 1.0
    record = {"manifest": manifest, "metrics": metrics}
    record_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(f"failed_share {manifest['failed_share']:.6g} ({failed} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0 and not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
