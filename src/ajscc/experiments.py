"""Deterministic Monte-Carlo experiment runner.

Reproduces the level-count optimization (mean MSE vs number of lines at a
fixed channel SNR), runs SDR-vs-SNR sweeps for one or more FDMA sensors,
executes the round-trip self-check suite, and renders results as CSV or JSON.

Reproducibility: every trial draws its sources and then its capture seed
from a generator seeded by SeedSequence([master_seed, trial])
(``_trial_draws``), and the capture seed seeds the channel noise, so
results depend only on the configuration and never on scheduling or the
worker count.  Trial streams are common to all sweep points (common random
numbers), which stabilizes the location of the sweep minimum.  Both sweeps
hand workers contiguous chunks of trials (``_map_trials``): N workers are
the calling process, which runs chunk 0, plus N - 1 forked processes.  A
worker draws its chunk's sources in one ``_trial_draws`` call, runs every
sweep point of its trials and returns one array with a row per trial; the
chunks are joined in trial order and the caller reduces over that array's
leading axis, so the output bytes do not depend on the worker count.

Each trial's sweep points, one per level count or per SNR, are all on the
trial's capture seed, so they share its one noise draw (the receiver,
``signal_chain``, draws it once and scales it by each point's sigma).  Two
pipelines drive the receiver:

- the level sweep and the chain self check run the public chain
  ``decode(m, transmit_receive(fm, ch, encode(m, x1, x2)))`` on arrays: a
  level-sweep trial on a ``MappingConfig`` of every swept level count, the
  self check on all its trials' sources at once;
- the cluster link (``_cluster_trials``) makes one channel per (trial, SNR)
  point and one ``multisensor.receive_clusters`` call over them all, then
  decodes every read-back in one array call.  The SDR sweep runs it on a
  worker chunk at every SNR, and the cluster demo on trial 0 at one SNR, so
  the demo is the sweep's trial 0 by construction.
"""
from __future__ import annotations

import dataclasses
import enum
import json
import math
import traceback
import typing
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .circuit import CircuitConfig, circuit_encode, equivalent_mapping
from .mapping import MappingConfig, Quantizer, decode, encode
from .metrics import sdr
from .multisensor import assign_channels, receive_clusters
from .signal_chain import ChannelSpec, FmConfig, transmit_receive

__all__ = [
    "DEFAULT_L_GRID",
    "ExperimentKind",
    "SourceSpec",
    "ExperimentConfig",
    "SweepRow",
    "SweepResult",
    "CheckResult",
    "RoundTripReport",
    "run_mse_vs_L",
    "run_sdr_vs_csnr",
    "run_roundtrip_suite",
    "run_cluster_demo",
    "render_csv",
    "render_json",
    "CONFIG_KEYS",
    "KIND_KEYS",
    "config_from_mapping",
    "parse_config_values",
    "read_config_file",
]

# dense near the documented optimum, coarse elsewhere
DEFAULT_L_GRID: tuple[int, ...] = (
    tuple(range(10, 56, 5)) + tuple(range(56, 96)) + tuple(range(100, 151, 5))
)

CSV_HEADER = "param,mean_mse,mean_sdr_db,mse_x1,mse_x2,trials"


class ExperimentKind(enum.Enum):
    MSE_VS_L = "mse-vs-l"
    SDR_VS_CSNR = "sdr-vs-csnr"
    ROUND_TRIP = "round-trip"
    CLUSTER_DEMO = "cluster-demo"


@dataclass(frozen=True)
class SourceSpec:
    """Source distribution in normalized [0, 1] coordinates.

    A fixed source is the point (x1, x2), a coordinate not given being 0.5; a
    uniform source takes no coordinates.
    """

    kind: str = "uniform"  # "uniform" | "fixed"
    x1: float | None = None
    x2: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "uniform":
            if self.x1 is not None or self.x2 is not None:
                raise ValueError("a uniform source takes no x1/x2 coordinates")
            return
        if self.kind != "fixed":
            raise ValueError(f"unknown source kind {self.kind!r}")
        for name in ("x1", "x2"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, 0.5)
        if not (0 <= self.x1 <= 1 and 0 <= self.x2 <= 1):
            raise ValueError("fixed source point must lie in [0, 1]^2")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, including the master seed.

    A field whose key its kind does not honour (``KIND_KEYS``) must keep its
    default: a value that no runner of the kind reads is rejected, naming
    the key.  The counts ``trials``, ``workers``, ``sensor_count``,
    ``antennas`` and ``master_seed`` must be integers (a bool is not one); a
    numpy integer is kept as an int.
    """

    kind: ExperimentKind
    source: SourceSpec = SourceSpec()
    trials: int = 200
    l_values: tuple[int, ...] = DEFAULT_L_GRID
    snr_values: tuple[float, ...] = (-20.0,)
    snr_db: float = -20.0
    d_max: float = 5.0
    v2: float = 1.0
    num_levels: int = 73
    quantizer: Quantizer = Quantizer.FLOOR
    sensor_count: int = 1
    antennas: int = 1
    guard_hz: float = 1000.0
    gain_error: float = 0.0
    offset_error: float = 0.0
    master_seed: int = 0
    workers: int = 1
    fm: FmConfig = FmConfig()

    def __post_init__(self) -> None:
        for name in ("trials", "workers", "sensor_count", "antennas", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for key in sorted(set(CONFIG_KEYS) - KIND_KEYS[self.kind]):
            name, sub, _ = CONFIG_KEYS[key]
            value, default = getattr(self, name), self.__dataclass_fields__[name].default
            if sub is not None:
                value, default = getattr(value, sub), getattr(default, sub)
            if value != default:
                raise ValueError(f"config kind {self.kind.value!r} ignores key {key!r}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.l_values:
            raise ValueError("l_values must be non-empty")
        if not self.snr_values:
            raise ValueError("snr_values must be non-empty")
        # details are keyed by SNR: a repeated one (0.0 and -0.0 too) would lose a point's
        if len(set(self.snr_values)) != len(self.snr_values):
            raise ValueError(f"snr_values must not repeat a value, got {self.snr_values}")
        # a channel of each SNR rejects what no sweep could run, before any worker starts
        for snr_db in (self.snr_db, *self.snr_values):
            ChannelSpec(snr_db)
        if self.sensor_count < 1 or self.antennas < 1:
            raise ValueError("sensor_count and antennas must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # construction validates the codec parameters, each swept level count
        # as the level sweep's codec takes it, and the circuit's fault knobs
        MappingConfig(self.d_max, self.num_levels, self.v2, self.quantizer)
        try:
            MappingConfig(self.d_max, np.array(self.l_values), self.v2, self.quantizer)
        except ValueError as exc:
            raise ValueError(f"l_values: {exc}") from exc
        CircuitConfig(gain_error=self.gain_error, offset_error=self.offset_error)
        top = self.fm.scale * self.d_max
        if top >= self.fm.sample_rate / 2:
            raise ValueError(
                f"the codec range reaches {top} Hz (fm.scale * d_max), at or above the "
                f"{self.fm.sample_rate / 2} Hz Nyquist frequency"
            )


@dataclass(frozen=True)
class SweepRow:
    """One sweep point; ``mean_sdr_db`` is the SDR of ``mean_mse``, not a mean of per-trial SDRs."""

    param: float
    mean_mse: float
    mean_sdr_db: float
    mse_x1: float
    mse_x2: float
    trials: int


@dataclass
class SweepResult:
    kind: ExperimentKind
    rows: list[SweepRow]
    best_param: float
    best_mse: float
    details: dict = field(default_factory=dict)


def _trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, trial]))


def _trial_draws(
    cfg: ExperimentConfig, trials: range, sources: int
) -> tuple[np.ndarray, list[int]]:
    """Each trial's normalized sources, then its capture seed, in stream order.

    Trial t draws from ``SeedSequence([cfg.master_seed, t])``.  A uniform
    source draws a (sources, 2) block, the same stream as one uniform
    (x1, x2) pair per source; a fixed source draws nothing, so its capture
    seed is the stream's first draw.  Returns the (trial, source, 2) array
    of sources in [0, 1] and the list of capture seeds, both in trial order.
    """
    draws, seeds = [], []
    for trial in trials:
        rng = _trial_rng(cfg.master_seed, trial)
        if cfg.source.kind == "fixed":
            draws.append(np.full((sources, 2), (cfg.source.x1, cfg.source.x2)))
        else:
            draws.append(rng.uniform(size=(sources, 2)))
        seeds.append(int(rng.integers(0, 2**62)))
    return np.array(draws), seeds


def _row(param: float, mean_mse: float, mse_x1: float, mse_x2: float, trials: int) -> SweepRow:
    return SweepRow(float(param), mean_mse, sdr(mean_mse), mse_x1, mse_x2, trials)


def _finish(kind: ExperimentKind, rows: list[SweepRow], details: dict) -> SweepResult:
    best = min(rows, key=lambda r: r.mean_mse)
    return SweepResult(
        kind=kind, rows=rows, best_param=best.param, best_mse=best.mean_mse, details=details
    )


def _map_trials(cfg: ExperimentConfig, trial_fn) -> np.ndarray:
    """trial_fn(cfg, trials) over contiguous chunks of the trials, one chunk per worker.

    The calling process is a worker: it forks one process per further chunk
    (the ``fork`` start method, so a worker inherits its chunk and sends back
    only its results, over a pipe) and runs chunk 0 itself while they work, so
    N workers are the caller plus N - 1 forked processes.  A single chunk
    forks none.  No pool: a pool's manager and feeder threads need the GIL
    that the caller's own chunk holds, which starts the workers late.  Not
    ``spawn``: a spawned worker starts a new interpreter and imports numpy
    (~0.25 s on a 2-vCPU host), longer than a whole 50-trial two-antenna SDR
    sweep takes; the library starts no thread that a fork could copy in a
    locked state.
    trial_fn returns one array with a row per trial of its range; the chunks'
    arrays are joined in trial order into one, whatever the worker count.
    An exception raised by any chunk propagates, with a forked one's
    traceback as its cause; every forked process has ended (stopped, if
    still running) when the call returns or raises.
    """
    step = -(-cfg.trials // cfg.workers)
    chunks = [range(a, min(a + step, cfg.trials)) for a in range(0, cfg.trials, step)]
    if len(chunks) == 1:
        return trial_fn(cfg, chunks[0])
    # imported here: serial runs never load multiprocessing
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    workers = []
    try:
        for chunk in chunks[1:]:
            receiver, sender = fork.Pipe(duplex=False)
            process = fork.Process(target=_forked_chunk, args=(sender, trial_fn, cfg, chunk))
            process.start()
            sender.close()
            workers.append((process, receiver))
        own = trial_fn(cfg, chunks[0])
        forked = [_received(receiver) for _, receiver in workers]
        return np.concatenate([own, *forked])
    finally:
        # a worker whose results are in, or whose caller failed, has nothing left to do
        for process, receiver in workers:
            process.terminate()
            process.join()
            receiver.close()


def _forked_chunk(sender, trial_fn, cfg: ExperimentConfig, trials: range) -> None:
    """A forked worker: send (trial_fn(cfg, trials), None), or (its exception, traceback)."""
    try:
        sender.send((trial_fn(cfg, trials), None))
    except Exception as exc:
        sender.send((exc, traceback.format_exc()))


def _received(receiver) -> np.ndarray:
    """A forked worker's results; its exception is raised here."""
    try:
        value, failure = receiver.recv()
    except EOFError:
        raise RuntimeError("a forked worker ended without sending its results") from None
    if failure is not None:
        raise value from RuntimeError(f"raised in a forked worker:\n{failure}")
    return value


# ---------------------------------------------------------------------------
# mean MSE vs number of levels


def _level_errors(cfg: ExperimentConfig, trials: range) -> np.ndarray:
    """A (trial, level count, 2) array of the normalized squared x1 and x2 errors.

    A trial runs one chain over a codec of every swept level count: one
    array ``encode``, one ``transmit_receive`` of all the voltages, so all of
    them see the trial's one noise draw, and one array ``decode``.  Each
    error is squared as a Python float: ``**`` on a float is libm ``pow``,
    which can differ in the last bit from the ``x*x`` of a numpy square.
    """
    mapping = MappingConfig(cfg.d_max, np.array(cfg.l_values), cfg.v2, cfg.quantizer)
    errors = []
    sources, seeds = _trial_draws(cfg, trials, 1)
    for (u1, u2), capture_seed in zip(sources[:, 0].tolist(), seeds):
        channel = ChannelSpec(snr_db=cfg.snr_db, rng_seed=capture_seed)
        x1, x2 = u1 * mapping.v1, u2 * mapping.v2
        dec = decode(mapping, transmit_receive(cfg.fm, channel, encode(mapping, x1, x2)))
        errors1 = ((dec.x1_hat - x1) / mapping.v1).tolist()
        errors2 = ((dec.x2_hat - x2) / mapping.v2).tolist()
        errors.append([(e1**2, e2**2) for e1, e2 in zip(errors1, errors2)])
    return np.array(errors)


def run_mse_vs_L(cfg: ExperimentConfig) -> SweepResult:
    """Sweep the level count: the full chain's peak decisions, normalized mean MSE.

    Each trial draws its source from ``cfg.source``: uniform by default, or
    the one fixed point of ``source_kind=fixed``.  The per-L sums run in
    trial order (a numpy reduction over the leading axis adds one trial at a
    time), so the rows do not depend on the worker count.
    """
    if cfg.kind is not ExperimentKind.MSE_VS_L:
        raise ValueError(f"config kind is {cfg.kind}, expected MSE_VS_L")
    means = np.sum(_map_trials(cfg, _level_errors), axis=0) / cfg.trials
    rows = [
        _row(num_levels, m1 + m2, m1, m2, cfg.trials)
        for num_levels, (m1, m2) in zip(cfg.l_values, means.tolist())
    ]
    return _finish(cfg.kind, rows, details={})


# ---------------------------------------------------------------------------
# SDR vs channel SNR for one or more FDMA sensors


def _cluster_trials(cfg: ExperimentConfig, trials: range, snrs: tuple[float, ...]) -> tuple:
    """The cluster link at every (trial, SNR) point: the one pipeline of the SDR sweep and the demo.

    Draws the trials' sources (``_trial_draws``), makes one channel per
    (trial, SNR) point on the trial's capture seed and passes every point,
    its sources scaled to volts, to one ``receive_clusters`` call; the
    read-backs are decoded in one array call.  Returns the codec, the
    (trial, sensor, 2) normalized sources, the encoded voltages, band peaks
    and read-backs as (trial, SNR, sensor) arrays, and their decoded pair.
    """
    mapping = MappingConfig(cfg.d_max, cfg.num_levels, cfg.v2, cfg.quantizer)
    sources, seeds = _trial_draws(cfg, trials, cfg.sensor_count)
    channels = [ChannelSpec(snr_db, seed) for seed in seeds for snr_db in snrs]
    truths = np.repeat(sources * (mapping.v1, mapping.v2), len(snrs), axis=0)
    shape = (len(trials), len(snrs), cfg.sensor_count)
    received = receive_clusters(mapping, cfg.fm, channels, truths, cfg.antennas, cfg.guard_hz)
    vds, peaks, vd_hats = (np.reshape(a, shape) for a in received)
    return mapping, sources, vds, peaks, vd_hats, decode(mapping, vd_hats)


def _sdr_trials(cfg: ExperimentConfig, trials: range) -> np.ndarray:
    """A (trial, SNR point, sensor, quantity) array: ``_cluster_trials`` at ``cfg.snr_values``.

    The quantities are the x1 error, the x2 error, x2_hat and |vd error|,
    the errors normalized to the codec ranges and squared.  Every SNR point
    of a trial is on its capture seed, so every SNR sees the trial's one
    noise draw.  Each error is squared as a Python float, as
    ``_level_errors`` squares its errors.
    """
    mapping, u, vds, _, vd_hats, dec = _cluster_trials(cfg, trials, cfg.snr_values)
    # (trial, SNR point, sensor, coordinate); u has no SNR axis
    errors = np.stack([dec.x1_hat / mapping.v1, dec.x2_hat / mapping.v2], axis=-1) - u[:, np.newaxis]
    squared = np.reshape([e**2 for e in errors.ravel().tolist()], errors.shape)
    others = np.stack([dec.x2_hat, np.abs(vd_hats - vds)], axis=-1)
    return np.concatenate([squared, others], axis=-1)


def run_sdr_vs_csnr(cfg: ExperimentConfig) -> SweepResult:
    """Sweep channel SNR for sensor_count FDMA sensors; details hold per-trial data.

    details maps each SNR to (trials, sensors) arrays ``per_trial_mse``,
    ``per_trial_x2_hat`` and ``per_trial_vd_err``.
    """
    if cfg.kind is not ExperimentKind.SDR_VS_CSNR:
        raise ValueError(f"config kind is {cfg.kind}, expected SDR_VS_CSNR")
    # a layout no trial could receive is rejected before any worker starts
    assign_channels(cfg.sensor_count, cfg.fm, cfg.d_max, cfg.guard_hz)
    # (SNR point, quantity, trial, sensor): every mean below runs over a
    # contiguous (trials, sensors) array, which fixes its summation order
    per_point = _map_trials(cfg, _sdr_trials).transpose(1, 3, 0, 2).copy()
    rows = []
    details = {}
    for snr_db, (mse_x1, mse_x2, x2_hat, vd_err) in zip(cfg.snr_values, per_point):
        per_trial_mse = mse_x1 + mse_x2
        means = (float(a.mean()) for a in (per_trial_mse, mse_x1, mse_x2))
        row = _row(snr_db, *means, cfg.trials)
        rows.append(row)
        details[row.param] = {
            "per_trial_mse": per_trial_mse,
            "per_trial_x2_hat": x2_hat,
            "per_trial_vd_err": vd_err,
        }
    return _finish(cfg.kind, rows, details)


# ---------------------------------------------------------------------------
# round-trip self checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    bound: float


@dataclass
class RoundTripReport:
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, worst: float, bound: float) -> CheckResult:
    return CheckResult(name, worst <= bound, worst, bound)


def _roundtrip_checks(name: str, dec, x1, x2, bound1: float, bound2: float) -> list[CheckResult]:
    """The worst |x1| and |x2| errors of the decoded pair ``dec``, checked against their bounds."""
    return [
        _check(f"{name}-x1", float(np.max(np.abs(dec.x1_hat - x1))), bound1),
        _check(f"{name}-x2", float(np.max(np.abs(dec.x2_hat - x2))), bound2),
    ]


def _x2_base_bound(mapping: MappingConfig) -> float:
    return mapping.delta if mapping.quantizer is Quantizer.FLOOR else mapping.delta / 2


def _check_mapping_roundtrip(cfg: ExperimentConfig) -> list[CheckResult]:
    mapping = MappingConfig(cfg.d_max, cfg.num_levels, cfg.v2, cfg.quantizer)
    rng = _trial_rng(cfg.master_seed, 101)
    n = 100_000
    x1 = rng.uniform(0.0, mapping.v1, n)
    x2 = rng.uniform(0.0, mapping.v2, n)
    dec = decode(mapping, encode(mapping, x1, x2))
    bound1 = 1e-9 * max(1.0, mapping.d_max)
    return _roundtrip_checks("mapping-roundtrip", dec, x1, x2, bound1, _x2_base_bound(mapping))


def _check_circuit_equivalence(cfg: ExperimentConfig) -> CheckResult:
    circuit = CircuitConfig(
        quantizer=cfg.quantizer,
        gain_error=cfg.gain_error,
        offset_error=cfg.offset_error,
    )
    mapping = equivalent_mapping(circuit)
    vt, vh = np.meshgrid(
        np.linspace(0.0, circuit.vt_max, 100),
        np.linspace(0.0, circuit.vh_max, 100),
        indexing="ij",
    )
    x1 = vt * circuit.v_r / circuit.vt_max
    worst = float(np.max(np.abs(circuit_encode(circuit, vt, vh) - encode(mapping, x1, vh))))
    return _check("circuit-codec-equivalence", worst, 1e-9 * mapping.d_max)


def _check_chain_roundtrip(cfg: ExperimentConfig) -> list[CheckResult]:
    mapping = MappingConfig(cfg.d_max, cfg.num_levels, cfg.v2, cfg.quantizer)
    rng = _trial_rng(cfg.master_seed, 202)
    channel = ChannelSpec(snr_db=math.inf)
    bin_width = cfg.fm.sample_rate / cfg.fm.num_samples
    # one full bin: covers image-leakage tie breaks and the near-DC corner,
    # which push the usual half-bin error up to ~0.63 bins
    bound1 = bin_width / cfg.fm.scale + 1e-9
    # a voltage error can flip the detected line, costing one extra spacing
    bound2 = _x2_base_bound(mapping) + mapping.delta
    # row by row, the same stream as alternating scalar x1 and x2 draws
    x1, x2 = rng.uniform(0.0, [mapping.v1, mapping.v2], size=(cfg.trials, 2)).T
    dec = decode(mapping, transmit_receive(cfg.fm, channel, encode(mapping, x1, x2)))
    return _roundtrip_checks("chain-roundtrip", dec, x1, x2, bound1, bound2)


def run_roundtrip_suite(cfg: ExperimentConfig) -> RoundTripReport:
    """Codec, circuit and chain invariants over seeded inputs, with worst errors.

    The circuit check runs on the 11-level prototype board (``CircuitConfig``
    defaults) with the config's quantizer, ``gain_error`` and ``offset_error``,
    over a 100 x 100 (vt, vh) grid; ``num_levels``, ``d_max`` and ``v2`` apply
    only to the mapping and chain checks.
    """
    if cfg.kind is not ExperimentKind.ROUND_TRIP:
        raise ValueError(f"config kind is {cfg.kind}, expected ROUND_TRIP")
    checks = _check_mapping_roundtrip(cfg)
    checks.append(_check_circuit_equivalence(cfg))
    checks.extend(_check_chain_roundtrip(cfg))
    return RoundTripReport(checks)


# ---------------------------------------------------------------------------
# one-shot cluster demo


def run_cluster_demo(cfg: ExperimentConfig) -> list[dict]:
    """Single capture of sensor_count sensors with drawn or fixed truths.

    It is ``_cluster_trials`` at trial 0 and ``cfg.snr_db``, so it equals
    the SDR sweep's trial 0 at that SNR.  One dict per band, in band order:
    the true and detected voltage, the peak frequency and the decoded pair
    (vd_true, vd_hat, peak_hz, x1_hat, x2_hat, level_index), each a Python
    scalar.
    """
    if cfg.kind is not ExperimentKind.CLUSTER_DEMO:
        raise ValueError(f"config kind is {cfg.kind}, expected CLUSTER_DEMO")
    _, _, vds, peaks, vd_hats, dec = _cluster_trials(cfg, range(1), (cfg.snr_db,))
    keys = ("vd_true", "vd_hat", "peak_hz", "x1_hat", "x2_hat", "level_index")
    columns = (vds, vd_hats, peaks, dec.x1_hat, dec.x2_hat, dec.level_index)
    return [dict(zip(keys, row)) for row in zip(*(c[0, 0].tolist() for c in columns))]


# ---------------------------------------------------------------------------
# output


def _format_row(row: SweepRow) -> str:
    return ",".join(
        [
            repr(float(row.param)),
            repr(float(row.mean_mse)),
            repr(float(row.mean_sdr_db)),
            repr(float(row.mse_x1)),
            repr(float(row.mse_x2)),
            str(row.trials),
        ]
    )


def render_csv(result: SweepResult) -> str:
    """The sweep as CSV: fixed column order, repr-exact floats."""
    return "\n".join([CSV_HEADER] + [_format_row(r) for r in result.rows]) + "\n"


def render_json(result: SweepResult) -> str:
    """JSON equivalent of the CSV output (details excluded).

    JSON has no number for a non-finite float, such as the noiseless SNR, so
    one is written as the string the CSV has for it (``"inf"``).
    """

    def value(x):
        return repr(float(x)) if isinstance(x, float) and not math.isfinite(x) else x

    payload = {
        "kind": result.kind.value,
        "rows": [{k: value(v) for k, v in dataclasses.asdict(r).items()} for r in result.rows],
        "best_param": value(result.best_param),
        "best_mse": value(result.best_mse),
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# flat key=value config files

# key prefix of each nested dataclass field of ExperimentConfig
_NESTED_PREFIX = {"source": "source_", "fm": "fm_"}


def _parse_list(text: str, typ: type) -> tuple:
    """Comma-separated values; for integers an a:b or a:b:s token is an inclusive range.

    A range runs from a up to b in steps of s (default 1) and includes b only
    when a step lands on it: ``10:20:100`` is ``(10,)``.  A range that yields
    no value, such as ``80:60``, is rejected.
    """
    values: list = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if typ is int and ":" in token:
            parts = [int(p) for p in token.split(":")]
            if len(parts) not in (2, 3):
                raise ValueError(f"range {token!r} is not a:b or a:b:s")
            if parts[2:] and parts[2] < 1:
                raise ValueError(f"range {token!r} needs a step s >= 1")
            span = range(parts[0], parts[1] + 1, *parts[2:])
            if not span:
                raise ValueError(f"range {token!r} is empty: a must not exceed b")
            values.extend(span)
        else:
            values.append(typ(token))
    return tuple(values)


def _value_parser(typ) -> Callable[[str], object]:
    """The one string parser for a config field of type ``typ``."""
    args = typing.get_args(typ)
    if type(None) in args:  # an optional field parses as its other type
        return _value_parser(next(a for a in args if a is not type(None)))
    if typing.get_origin(typ) is tuple:
        return partial(_parse_list, typ=args[0])
    if isinstance(typ, enum.EnumMeta) or typ in (int, float, str):
        return typ
    raise TypeError(f"no config parser for field type {typ!r}")


def _config_keys() -> dict[str, tuple[str, str | None, Callable[[str], object]]]:
    """Flat key -> (ExperimentConfig field, field of the nested dataclass or None, parser)."""
    keys = {}
    for f in dataclasses.fields(ExperimentConfig):
        typ = _FIELD_TYPES[f.name]
        if dataclasses.is_dataclass(typ):
            nested_types = typing.get_type_hints(typ)
            for sub in dataclasses.fields(typ):
                parser = _value_parser(nested_types[sub.name])
                keys[_NESTED_PREFIX[f.name] + sub.name] = (f.name, sub.name, parser)
        else:
            keys[f.name] = (f.name, None, _value_parser(typ))
    return keys


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
CONFIG_KEYS = _config_keys()

# the keys each kind's runner never reads
_IGNORED_KEYS = {
    ExperimentKind.MSE_VS_L: {
        "num_levels", "snr_values", "sensor_count", "antennas", "guard_hz", "gain_error",
        "offset_error",
    },
    ExperimentKind.SDR_VS_CSNR: {"l_values", "snr_db", "gain_error", "offset_error"},
    ExperimentKind.ROUND_TRIP: {
        "source_kind", "source_x1", "source_x2", "l_values", "snr_values", "snr_db",
        "sensor_count", "antennas", "guard_hz", "workers",
    },
    ExperimentKind.CLUSTER_DEMO: {
        "trials", "l_values", "snr_values", "workers", "gain_error", "offset_error",
    },
}
# the config keys each experiment kind honours
KIND_KEYS = {kind: frozenset(CONFIG_KEYS) - ignored for kind, ignored in _IGNORED_KEYS.items()}


def config_from_mapping(
    values: dict[str, str], kind: ExperimentKind | None = None
) -> ExperimentConfig:
    """Build an ExperimentConfig from flat string key/value pairs (keys: ``CONFIG_KEYS``).

    With ``kind`` given the mapping may omit its ``kind`` key but not contradict
    it.  A key the kind does not honour (``KIND_KEYS``) is rejected.
    ``source_x1``/``source_x2`` imply ``source_kind=fixed``; an explicit
    uniform source with either coordinate is rejected (by ``SourceSpec``).
    """
    values = dict(values)
    if kind is not None:
        given = values.setdefault("kind", kind.value)
        if given != kind.value:
            raise ValueError(f"config kind {given!r} does not match {kind.value!r}")
    elif "kind" not in values:
        raise ValueError("config must set kind")
    if "source_x1" in values or "source_x2" in values:
        values.setdefault("source_kind", "fixed")
    kwargs: dict = {}
    nested: dict[str, dict] = {}
    for key, value in parse_config_values(values).items():
        name, sub, _ = CONFIG_KEYS[key]
        if sub is None:
            kwargs[name] = value
        else:
            nested.setdefault(name, {})[sub] = value
    ignored = sorted(set(values) - KIND_KEYS[kwargs["kind"]])
    if ignored:
        raise ValueError(f"config kind {kwargs['kind'].value!r} ignores key(s) {ignored}")
    for name, sub_values in nested.items():
        try:
            kwargs[name] = _FIELD_TYPES[name](**sub_values)
        except ValueError as exc:  # name the keys that built the rejected field
            keys = [_NESTED_PREFIX[name] + sub for sub in sub_values]
            given = ", ".join(f"{key}={values[key]!r}" for key in keys)
            raise ValueError(f"config key {given}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def parse_config_values(values: dict[str, str]) -> dict[str, object]:
    """Each flat key's string value parsed by its ``CONFIG_KEYS`` parser.

    An unknown key is rejected, and so is a value its parser rejects, naming
    the key: ``config key num_levels='5.5': ...``.
    """
    parsed: dict[str, object] = {}
    for key, raw in values.items():
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        _, _, parse = CONFIG_KEYS[key]
        try:
            parsed[key] = parse(raw)
        except ValueError as exc:
            raise ValueError(f"config key {key}={raw!r}: {exc}") from exc
    return parsed


def read_config_file(path: str | Path) -> dict[str, str]:
    """Flat key=value pairs of a config file (blank lines and # comments ignored).

    A key given on two lines is rejected, naming both line numbers.
    """
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in first_line:
            raise ValueError(
                f"{path}:{lineno}: key {key!r} repeats the one on line {first_line[key]}"
            )
        first_line[key] = lineno
        values[key] = value.strip()
    return values
