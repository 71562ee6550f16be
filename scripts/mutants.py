"""Mutation gate: each mutant of the table below must make the tests fail.

A mutant names a file of the repository, the exact text to replace, the text
put in its place and why the tests must notice.  For each mutant the script
copies ``src/``, ``tests/`` and the README (whose tables the CLI tests
check against the code) into a temporary directory of its own, applies the
mutant there and runs

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 TESTS...

over the tests in ``TESTS``, ``JOBS`` mutants at a time.  A mutant is killed
when pytest reports a failed test (exit status 1).  The unmutated copy runs
first and must pass, so a broken tree cannot count as a kill.  Each run has
a fresh copy without hypothesis's example database, so no run replays an
input that another mutant's run found.  The old text of every mutant,
equivalent ones included, must occur exactly once in its file: a refactor
that moves or duplicates it fails the script instead of silently skipping
the mutant.  Usage:

    python scripts/mutants.py

The exit status is 0 when every mutant is killed, and 1 when one survives,
when an old text does not occur exactly once, or when pytest ends for another
reason (a collection error, say); the unmutated run and a run that ends for
another reason print the tail of pytest's output.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# mutants run this many at a time, each on its own copy of the tree
JOBS = 2
# the golden digests first: they kill most mutants within seconds, where a
# failing hypothesis property of the signal chain shrinks for up to minutes.
# Their NEAREST tie kills nearest-ties-down in ~3 s, so test_mapping.py,
# whose ~5 s would precede every mutant the digests miss, stays late; the
# whole gate of 39 mutants took ~131 s on a 2-vCPU host
TESTS = (
    "tests/test_golden.py",
    "tests/test_cli.py",
    "tests/test_multisensor.py",
    "tests/test_experiments.py",
    "tests/test_signal_chain.py",
    "tests/test_mapping.py",
    "tests/test_circuit.py",
)


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    why: str


MUTANTS = (
    Mutant(
        "wins-on-a-tie",
        "src/ajscc/signal_chain.py",
        "best > (1.0 + PEAK_MARGIN) * np.maximum(outside, runner_up)",
        "best >= (1.0 + PEAK_MARGIN) * np.maximum(outside, runner_up)",
        "a best bin that only equals the margin's bound must not prove the peak",
    ),
    Mutant(
        "zero-leak-bound",
        "src/ajscc/signal_chain.py",
        "leak = freqs.shape[1] / math.sin(math.pi * (PEAK_WINDOW + 0.5) / m)",
        "leak = 0.0",
        "the bins outside a tone's window carry its leak; without it the proof claims near-ties",
    ),
    Mutant(
        "first-row-sigma",
        "src/ajscc/signal_chain.py",
        "sigma = np.repeat(sigmas, bands)",
        "sigma = np.repeat(sigmas[:1], bands * len(sigmas))",
        "the points of one block differ in the sigma that scales their noise",
    ),
    Mutant(
        "zero-peak-margin",
        "src/ajscc/signal_chain.py",
        "PEAK_MARGIN = 1e-7",
        "PEAK_MARGIN = 0.0",
        "a bin that wins a near-tie by rounding alone must leave the point to its capture",
    ),
    Mutant(
        "another-seeds-draw",
        "src/ajscc/signal_chain.py",
        "_noise_rng(seeds[start], a).standard_normal(out=record)",
        "_noise_rng(seeds[start] + 1, a).standard_normal(out=record)",
        "the proof must add the noise of the point's own seed, the one its capture draws",
    ),
    Mutant(
        "first-snr-for-all-points",
        "src/ajscc/experiments.py",
        "ChannelSpec(snr_db, seed) for seed in seeds for snr_db in snrs",
        "ChannelSpec(snrs[0], seed) for seed in seeds for snr_db in snrs",
        "each SNR point of the SDR sweep scales the trial's noise by its own sigma",
    ),
    Mutant(
        "caller-chunk-last",
        "src/ajscc/experiments.py",
        "np.concatenate([own, *forked])",
        "np.concatenate([*forked, own])",
        "the caller runs chunk 0, whose trials come first",
    ),
    Mutant(
        "range-mask-off-by-one",
        "src/ajscc/signal_chain.py",
        "mags = np.where(columns <= span[:, np.newaxis], mags, -math.inf)",
        "mags = np.where(columns < span[:, np.newaxis], mags, -math.inf)",
        "a row's evaluated range includes its last bin, where its peak may lie",
    ),
    Mutant(
        "dedup-on-tones-only",
        "src/ajscc/signal_chain.py",
        "first[at_key].astype(int), span[at_key]",
        "first[at_key - at_key % bands].astype(int), span[at_key - at_key % bands]",
        "rows of the same tones in different bands evaluate different ranges",
    ),
    Mutant(
        "band-zero-tone-bins",
        "src/ajscc/signal_chain.py",
        "= evaluated[at_key], first",
        "= evaluated[at_key - at_key % bands], first",
        "each band of a point reads its own evaluation of the tone bins, not band 0's",
    ),
    Mutant(
        "rival-threshold-unmargined",
        "src/ajscc/signal_chain.py",
        "(best[r] / (1.0 + PEAK_MARGIN) - leak) / sigma[r]",
        "(best[r] - leak) / sigma[r]",
        "a bin within PEAK_MARGIN of the best is a rival, or the second stage proves a near-tie",
    ),
    Mutant(
        "window-not-reevaluated",
        "src/ajscc/signal_chain.py",
        "        rival[first[r] - lo : first[r] - lo + int(span[r]) + 1] = True\n",
        "",
        "the second stage decides over the row's window too, not over its rivals alone",
    ),
    Mutant(
        "rival-band-end-dropped",
        "src/ajscc/signal_chain.py",
        "noise.magnitude[lo : hi + 1]",
        "noise.magnitude[lo : hi]",
        "the band's last bin may hold the noise's winner",
    ),
    Mutant(
        "no-alias-limit",
        "src/ajscc/signal_chain.py",
        "ratio[limit] = np.where(np.abs(d[limit]) < m / 2, m, -m)",
        "ratio[limit] = m",
        "a tone's image on bin M/2 sums to -M, not M",
    ),
    Mutant(
        "stale-magnitude",
        "src/ajscc/signal_chain.py",
        "noise = _noise(bins, magnitude, record[:n])",
        "noise = (_noise(bins, magnitude, record[:n]) if start == 0"
        " else _Noise(tuple(bins), magnitude, float(np.max(magnitude))))",
        "each seed's noise magnitude bounds that seed's bins, not the first seed's",
    ),
    Mutant(
        "fallback-wrong-point",
        "src/ajscc/signal_chain.py",
        "found[p, b] = k = lo + int(np.argmax(combined[lo : hi + 1]))",
        "found[p - 1, b] = k = lo + int(np.argmax(combined[lo : hi + 1]))",
        "a point's capture decides that point's bands, not another point's",
    ),
    Mutant(
        "buffered-combine-undivided",
        "src/ajscc/signal_chain.py",
        "out /= len(spectra)",
        "out /= len(spectra) if scratch is None else 1",
        "the noise's combine is a mean over the antennas, as the capture's is",
    ),
    Mutant(
        "decode-parity-flipped",
        "src/ajscc/mapping.py",
        "x1_hat = np.where((k & 1) == 0, r, cfg.v1 - r)",
        "x1_hat = np.where((k & 1) == 1, r, cfg.v1 - r)",
        "decode walks even lines up and odd lines down, as encode does",
    ),
    Mutant(
        "nearest-ties-down",
        "src/ajscc/mapping.py",
        "k = np.floor(x2 / cfg.delta + 0.5)",
        "k = np.ceil(x2 / cfg.delta - 0.5)",
        "the nearest quantizer takes the upper line of a tie",
    ),
    Mutant(
        "decode-unclamped",
        "src/ajscc/mapping.py",
        "v = np.clip(v, 0.0, cfg.d_max)",
        "v = v + 0.0",
        "a voltage that noise pushes outside [0, d_max] decodes to the nearest curve end",
    ),
    Mutant(
        "comparator-left-side",
        "src/ajscc/circuit.py",
        'side="right")',
        'side="left")',
        "a vh exactly on a threshold trips that threshold's comparator",
    ),
    Mutant(
        "seed-before-sources",
        "src/ajscc/experiments.py",
        "            draws.append(rng.uniform(size=(sources, 2)))\n"
        "        seeds.append(int(rng.integers(0, 2**62)))\n",
        "            seed = int(rng.integers(0, 2**62))\n"
        "            draws.append(rng.uniform(size=(sources, 2)))\n"
        "            seeds.append(seed)\n"
        "            continue\n"
        "        seeds.append(int(rng.integers(0, 2**62)))\n",
        "a trial draws its sources, then its capture seed, from its stream",
    ),
    Mutant(
        "fixed-source-draws",
        "src/ajscc/experiments.py",
        "            draws.append(np.full((sources, 2), (cfg.source.x1, cfg.source.x2)))\n",
        "            rng.uniform(size=(sources, 2))\n"
        "            draws.append(np.full((sources, 2), (cfg.source.x1, cfg.source.x2)))\n",
        "a fixed source draws nothing, so its capture seed is its stream's first draw",
    ),
    Mutant(
        "level-sums-reversed",
        "src/ajscc/experiments.py",
        "np.sum(_map_trials(cfg, _level_errors), axis=0)",
        "np.sum(_map_trials(cfg, _level_errors)[::-1], axis=0)",
        "the level sweep sums its trials in trial order, so its floats are reproducible",
    ),
    Mutant(
        "level-sums-pairwise",
        "src/ajscc/experiments.py",
        "np.sum(_map_trials(cfg, _level_errors), axis=0)",
        "np.moveaxis(_map_trials(cfg, _level_errors), 0, -1).copy().sum(axis=-1)",
        "a contiguous trial axis is summed pairwise from 8 trials on, not in trial order",
    ),
    Mutant(
        "roundtrip-bounds-swapped",
        "src/ajscc/experiments.py",
        '_check(f"{name}-x1", float(np.max(np.abs(dec.x1_hat - x1))), bound1),\n'
        '        _check(f"{name}-x2", float(np.max(np.abs(dec.x2_hat - x2))), bound2),',
        '_check(f"{name}-x1", float(np.max(np.abs(dec.x1_hat - x1))), bound2),\n'
        '        _check(f"{name}-x2", float(np.max(np.abs(dec.x2_hat - x2))), bound1),',
        "each round trip's x1 error is held to the x1 bound and its x2 error to the x2 bound",
    ),
    Mutant(
        "bool-count-accepted",
        "src/ajscc/experiments.py",
        "if isinstance(value, bool) or not isinstance(value, (int, np.integer)):",
        "if not isinstance(value, (int, np.integer)):",
        "a bool is not a count: trials=True would run and write True in the CSV",
    ),
    Mutant(
        "offset-added",
        "src/ajscc/multisensor.py",
        "return vds, peaks, (peaks - offsets) / fm.scale",
        "return vds, peaks, (peaks + offsets) / fm.scale",
        "a band's peak reads back as its voltage once the band's offset is taken off",
    ),
    Mutant(
        "truths-shape-unchecked",
        "src/ajscc/multisensor.py",
        "if truths.ndim != 3 or truths.shape[2] != 2:",
        "if False:",
        "a truths array that is not (points, sensors, 2) is rejected, naming its shape",
    ),
    Mutant(
        "capacity-at-nyquist",
        "src/ajscc/multisensor.py",
        "if num_sensors * (width + guard_hz) >= fm.sample_rate / 2:",
        "if num_sensors * (width + guard_hz) > fm.sample_rate / 2:",
        "a top band that ends exactly at Nyquist cannot be searched, so the layout is rejected",
    ),
    Mutant(
        "guard-unchecked",
        "src/ajscc/multisensor.py",
        "if not 0 <= guard_hz < math.inf:",
        "if False:",
        "a NaN guard passes the capacity check; the guard is rejected by name on its own",
    ),
    Mutant(
        "layout-checked-after-fork",
        "src/ajscc/experiments.py",
        "    assign_channels(cfg.sensor_count, cfg.fm, cfg.d_max, cfg.guard_hz)\n",
        "",
        "the SDR sweep rejects a layout no trial could receive before any worker starts",
    ),
    Mutant(
        "repeated-snr-accepted",
        "src/ajscc/experiments.py",
        "if len(set(self.snr_values)) != len(self.snr_values):",
        "if False:",
        "the SDR details are keyed by SNR, so a repeated SNR is rejected when the config is built",
    ),
    Mutant(
        "demo-runs-trial-1",
        "src/ajscc/experiments.py",
        "_cluster_trials(cfg, range(1), (cfg.snr_db,))",
        "_cluster_trials(cfg, range(1, 2), (cfg.snr_db,))",
        "the cluster demo is the SDR sweep's trial 0",
    ),
    Mutant(
        "swept-levels-unchecked",
        "src/ajscc/experiments.py",
        "MappingConfig(self.d_max, np.array(self.l_values), self.v2, self.quantizer)",
        "pass",
        "a swept level count the codec rejects is rejected when the config is built",
    ),
    Mutant(
        "range-end-excluded",
        "src/ajscc/experiments.py",
        "span = range(parts[0], parts[1] + 1, *parts[2:])",
        "span = range(parts[0], parts[1], *parts[2:])",
        "a:b:s includes b when a step lands on it",
    ),
    Mutant(
        "json-infinity",
        "src/ajscc/experiments.py",
        "return repr(float(x)) if isinstance(x, float) and not math.isfinite(x) else x",
        "return x",
        "JSON has no number for the noiseless SNR: it is written as the CSV's text",
    ),
    Mutant(
        "circuit-levels-not-integer",
        "src/ajscc/circuit.py",
        "if isinstance(self.num_levels, bool) or not isinstance(self.num_levels, (int, np.integer)):",
        "if False:",
        "the circuit's level count is an integer: 11.0 and 2.5 are rejected by name",
    ),
    Mutant(
        "every-flag-on-every-experiment",
        "src/ajscc/cli.py",
        "_add_config_flags(p, KIND_KEYS[kind])",
        "_add_config_flags(p, CONFIG_KEYS)",
        "an experiment command has the flags of the keys its kind honours, and no other",
    ),
)

# mutants that change no result the tests can see, kept so that their old
# text stays checked; they are not run
EQUIVALENT = (
    Mutant(
        "alias-limit-by-d",
        "src/ajscc/signal_chain.py",
        "limit = np.abs(sine) < math.pi * 1e-9 / m",
        "limit = np.abs(d) < 1e-9",
        "at d = +-M (M a power of two) fl(pi*d) and fl(pi*d/M) round in proportion, so the "
        "quotient of the rounded sines is -M to ~4e-15 without the limit: the limit guards "
        "the flag, not the accuracy",
    ),
    Mutant(
        "json-allows-nan",
        "src/ajscc/experiments.py",
        "json.dumps(payload, indent=2, allow_nan=False)",
        "json.dumps(payload, indent=2)",
        "render_json writes every non-finite float as its text first, so allow_nan=False "
        "has nothing left to reject: it guards a future field, not today's output",
    ),
)


def check_old_text(mutant: Mutant) -> str | None:
    """None when the mutant's old text occurs exactly once in its file, else the problem."""
    count = (ROOT / mutant.path).read_text().count(mutant.old)
    if count != 1:
        return f"{mutant.name}: old text occurs {count} times in {mutant.path}, not once"
    return None


def copy_tree(tree: Path) -> Path:
    """tree, after copying into it the files the tests read."""
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "README.md", tree)
    return tree


def run_tests(tree: Path, show_output: bool = False) -> int:
    """The exit status of the test subset on the copy at tree.

    pytest's output is printed when show_output is set or when pytest ends
    for another reason than passing or failing tests.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *TESTS,
    ]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if show_output or done.returncode not in (0, 1):
        print("\n".join((done.stdout + done.stderr).splitlines()[-30:]), flush=True)
    return done.returncode


def run_mutant(mutant: Mutant) -> tuple[int, str]:
    """The exit status of the tests on a fresh copy with the mutant applied, and its report line."""
    with tempfile.TemporaryDirectory() as scratch:
        target = copy_tree(Path(scratch)) / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        start = time.perf_counter()
        status = run_tests(Path(scratch))
    verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
    return status, f"{mutant.name}: {verdict} in {time.perf_counter() - start:.1f} s ({mutant.why})"


def main() -> int:
    problems = [p for p in map(check_old_text, MUTANTS + EQUIVALENT) if p]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as scratch:
        start = time.perf_counter()
        status = run_tests(copy_tree(Path(scratch)), show_output=True)
        print(f"unmutated: exit {status} in {time.perf_counter() - start:.1f} s", flush=True)
    if status != 0:
        print("the unmutated tests must pass", file=sys.stderr)
        return 1
    failed = False
    with ThreadPoolExecutor(JOBS) as pool:
        for status, line in pool.map(run_mutant, MUTANTS):
            failed |= status != 1
            print(line, flush=True)
    for mutant in EQUIVALENT:
        print(f"{mutant.name}: equivalent, not run ({mutant.why})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
