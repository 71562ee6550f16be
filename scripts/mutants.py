"""Mutation gate: each mutant of the table below must make the tests fail.

A mutant names a file of the repository, the exact text to replace, the text
put in its place and why the tests must notice.  For each mutant the script
copies ``src/`` and ``tests/`` into a temporary directory, applies the mutant
there and runs

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 TESTS...

over the tests in ``TESTS``.  A mutant is killed when pytest reports a failed
test (exit status 1).  The unmutated copy runs first and must pass, so a
broken tree cannot count as a kill.  Each run starts without hypothesis's
example database, so no run replays an input that an earlier mutant's run
found.  The old text of every mutant, equivalent ones included, must occur
exactly once in its file: a refactor that moves or duplicates it fails the
script instead of silently skipping the mutant.  Usage:

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
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_signal_chain.py", "tests/test_experiments.py", "tests/test_multisensor.py")


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
        "sigma = np.array([row[3] for row in rows])",
        "sigma = np.full(len(rows), rows[0][3])",
        "the rows of one block differ in the sigma that scales their noise",
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
        "_noise_rng(seed, a).standard_normal(out=record)",
        "_noise_rng(seed + 1, a).standard_normal(out=record)",
        "the proof must add the noise of the point's own seed, the one its capture draws",
    ),
    Mutant(
        "first-snr-for-all-points",
        "src/ajscc/experiments.py",
        "ChannelSpec(snr_db, capture_seed), freqs, bands) for snr_db in cfg.snr_values",
        "ChannelSpec(cfg.snr_values[0], capture_seed), freqs, bands) for snr_db in cfg.snr_values",
        "each SNR point of the SDR sweep scales the trial's noise by its own sigma",
    ),
    Mutant(
        "caller-chunk-last",
        "src/ajscc/experiments.py",
        "for chunk in (own, *forked)",
        "for chunk in (*forked, own)",
        "the caller runs chunk 0, whose trials come first",
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
)


def check_old_text(mutant: Mutant) -> str | None:
    """None when the mutant's old text occurs exactly once in its file, else the problem."""
    count = (ROOT / mutant.path).read_text().count(mutant.old)
    if count != 1:
        return f"{mutant.name}: old text occurs {count} times in {mutant.path}, not once"
    return None


def run_tests(tree: Path, show_output: bool = False) -> int:
    """The exit status of the test subset on the copy at tree.

    pytest's output is printed when show_output is set or when pytest ends
    for another reason than passing or failing tests.
    """
    # every run starts from an empty example database
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    # no bytecode cache: a mutant of the same size written within the same
    # second as the original would otherwise run from the original's .pyc
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "--hypothesis-seed=0", *TESTS,
    ]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    if show_output or done.returncode not in (0, 1):
        print("\n".join((done.stdout + done.stderr).splitlines()[-30:]), flush=True)
    return done.returncode


def main() -> int:
    problems = [p for p in map(check_old_text, MUTANTS + EQUIVALENT) if p]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        start = time.perf_counter()
        status = run_tests(tree, show_output=True)
        print(f"unmutated: exit {status} in {time.perf_counter() - start:.1f} s", flush=True)
        if status != 0:
            print("the unmutated tests must pass", file=sys.stderr)
            return 1
        failed = False
        for mutant in MUTANTS:
            target = tree / mutant.path
            original = target.read_text()
            target.write_text(original.replace(mutant.old, mutant.new))
            start = time.perf_counter()
            status = run_tests(tree)
            target.write_text(original)
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
            failed |= status != 1
            print(f"{mutant.name}: {verdict} in {time.perf_counter() - start:.1f} s"
                  f" ({mutant.why})", flush=True)
        for mutant in EQUIVALENT:
            print(f"{mutant.name}: equivalent, not run ({mutant.why})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
