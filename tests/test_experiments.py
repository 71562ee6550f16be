"""Runner tests: determinism, CSV/JSON round trips, config files, self checks."""
import dataclasses
import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from ajscc import experiments, multisensor, signal_chain
from ajscc.circuit import CircuitConfig, circuit_encode, equivalent_mapping
from ajscc.experiments import (
    CONFIG_KEYS,
    CSV_HEADER,
    DEFAULT_L_GRID,
    KIND_KEYS,
    CheckResult,
    ExperimentConfig,
    ExperimentKind,
    SourceSpec,
    SweepRow,
    config_from_mapping,
    read_config_file,
    render_csv,
    render_json,
    run_cluster_demo,
    run_mse_vs_L,
    run_roundtrip_suite,
    run_sdr_vs_csnr,
)
from ajscc.mapping import MappingConfig, Quantizer, decode, encode
from ajscc.metrics import sdr
from ajscc.signal_chain import ChannelSpec, FmConfig
from oracle import chain_voltage, cluster_chain, tie_frequency

TINY_SWEEP = ExperimentConfig(
    kind=ExperimentKind.MSE_VS_L,
    trials=4,
    l_values=(5, 11, 21),
    snr_db=math.inf,
    master_seed=7,
)


def pid_trials(cfg, trials):
    """Each trial with the pid and parent pid of the process that ran it."""
    return [(trial, os.getpid(), os.getppid()) for trial in trials]


def failing_trials(cfg, trials):
    """Raise in the chunk that holds trial ``cfg.master_seed``."""
    if cfg.master_seed in trials:
        raise ValueError(f"trial {cfg.master_seed} failed")
    return list(trials)


def stalled_trials(cfg, trials):
    """Trial 0's chunk fails at once; every other chunk sleeps for a minute."""
    if 0 in trials:
        raise ValueError("trial 0 failed")
    time.sleep(60)
    return list(trials)


def dying_trials(cfg, trials):
    """The chunk that holds trial 6 ends its process without a result."""
    if 6 in trials:
        os._exit(3)
    return list(trials)


def no_fork(monkeypatch):
    """Make any attempt to fork a worker fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("worker process started")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)


class TestConfigValidation:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind=ExperimentKind.MSE_VS_L, trials=0)

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kind=ExperimentKind.MSE_VS_L, l_values=())
        with pytest.raises(ValueError):
            ExperimentConfig(kind=ExperimentKind.SDR_VS_CSNR, snr_values=())

    def test_rejects_bad_level_in_sweep(self):
        # every swept count takes the codec's own check at construction, not
        # in a worker's codec after the fork
        for bad in ((5, 1), (10.5,), (math.nan,), (2**64,), (11, 2**64)):
            with pytest.raises(ValueError, match="l_values: num_levels must be"):
                ExperimentConfig(kind=ExperimentKind.MSE_VS_L, l_values=bad)
        ExperimentConfig(kind=ExperimentKind.MSE_VS_L, l_values=(2, 2**64 - 1))

    def test_rejects_negative_seed(self):
        # numpy would reject it only when a trial seeds its generator, with
        # an error that names no field
        for kind in ExperimentKind:
            with pytest.raises(ValueError, match="master_seed"):
                ExperimentConfig(kind=kind, master_seed=-1)

    def test_rejects_non_finite_fault_knobs(self):
        for name in ("gain_error", "offset_error"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=name):
                    ExperimentConfig(kind=ExperimentKind.ROUND_TRIP, **{name: bad})

    def test_rejects_bad_source(self):
        with pytest.raises(ValueError):
            SourceSpec(kind="gaussian")
        with pytest.raises(ValueError):
            SourceSpec(kind="fixed", x1=1.5)

    def test_uniform_source_takes_no_coordinates(self):
        for coords in ({"x1": 0.3}, {"x2": 0.3}, {"x1": 0.5, "x2": 0.5}):
            with pytest.raises(ValueError, match="uniform"):
                SourceSpec("uniform", **coords)
        assert SourceSpec() == SourceSpec("uniform", None, None)
        # a fixed source fills a coordinate it is not given with 0.5
        assert (SourceSpec("fixed", x1=0.25).x1, SourceSpec("fixed", x1=0.25).x2) == (0.25, 0.5)
        assert SourceSpec("fixed").draw(np.random.default_rng(0)) == (0.5, 0.5)

    def test_bad_snr_rejected_before_any_worker_starts(self, monkeypatch):
        no_fork(monkeypatch)
        bad = [
            (run_mse_vs_L, ExperimentKind.MSE_VS_L, dict(snr_db=math.nan), "NaN"),
            (run_sdr_vs_csnr, ExperimentKind.SDR_VS_CSNR, dict(snr_values=(0.0, -4000.0)), "overflows"),
        ]
        for run, kind, fields, message in bad:
            with pytest.raises(ValueError, match=message):
                run(ExperimentConfig(kind=kind, trials=4, workers=2, **fields))
        # the lowest SNR a channel can hold stays a valid sweep point of each sweep
        ExperimentConfig(kind=ExperimentKind.SDR_VS_CSNR, snr_values=(-3050.0,))
        ExperimentConfig(kind=ExperimentKind.MSE_VS_L, snr_db=-3050.0)

    def test_field_a_kind_ignores_must_keep_its_default(self):
        # a directly built config that sets a field its kind does not honour
        # is rejected naming the key, as a config file is, and the field's
        # default passes: a level sweep given snr_values=(-10.0,) would
        # otherwise run at snr_db without a word
        defaults = ExperimentConfig(kind=ExperimentKind.MSE_VS_L)
        changed = dict(
            num_levels=11, snr_values=(-10.0,), sensor_count=2, antennas=2, guard_hz=500.0,
            gain_error=0.1, offset_error=0.1, l_values=(5,), snr_db=-10.0, workers=2, trials=3,
            source=SourceSpec("fixed", x1=0.2, x2=0.2),
        )
        for kind, honoured in KIND_KEYS.items():
            for name, value in changed.items():
                keys = sorted(k for k in set(CONFIG_KEYS) - honoured if CONFIG_KEYS[k][0] == name)
                if keys:
                    with pytest.raises(ValueError, match=f"ignores key '{keys[0]}'"):
                        ExperimentConfig(kind=kind, **{name: value})
                    ExperimentConfig(kind=kind, **{name: getattr(defaults, name)})
                else:
                    ExperimentConfig(kind=kind, **{name: value})

    def test_impossible_layout_rejected_before_any_worker_starts(self, monkeypatch):
        # six 6 kHz bands exceed the 32768 Hz Nyquist capacity; a NaN guard
        # would pass that check, so the guard is checked on its own
        no_fork(monkeypatch)
        for fields, message in [
            (dict(sensor_count=6), "Nyquist capacity"),
            (dict(guard_hz=math.nan), "guard_hz"),
            (dict(guard_hz=-1.0), "guard_hz"),
        ]:
            cfg = ExperimentConfig(kind=ExperimentKind.SDR_VS_CSNR, trials=4, workers=2, **fields)
            with pytest.raises(ValueError, match=message):
                run_sdr_vs_csnr(cfg)

    def test_codec_range_past_nyquist_rejected(self):
        # every encoded voltage up to d_max must map to a tone below Nyquist
        with pytest.raises(ValueError, match=r"33000\.0 Hz.*32768\.0 Hz Nyquist"):
            ExperimentConfig(kind=ExperimentKind.MSE_VS_L, d_max=33.0)
        with pytest.raises(ValueError, match="Nyquist"):
            ExperimentConfig(kind=ExperimentKind.ROUND_TRIP, d_max=32.0, fm=FmConfig(scale=1024.0))
        ExperimentConfig(kind=ExperimentKind.ROUND_TRIP, d_max=31.9, fm=FmConfig(scale=1024.0))
        small = FmConfig(sample_rate=8192.0)
        with pytest.raises(ValueError, match="Nyquist"):
            ExperimentConfig(kind=ExperimentKind.SDR_VS_CSNR, fm=small)
        ExperimentConfig(kind=ExperimentKind.SDR_VS_CSNR, d_max=4.0, fm=small)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_sdr_vs_csnr(TINY_SWEEP)
        with pytest.raises(ValueError):
            run_mse_vs_L(
                ExperimentConfig(kind=ExperimentKind.SDR_VS_CSNR, trials=1)
            )


class TestMapTrials:
    CFG = ExperimentConfig(kind=ExperimentKind.MSE_VS_L, trials=7, workers=3)

    def test_the_caller_runs_the_first_chunk(self):
        # 7 trials on 3 workers: chunks 0-2, 3-5 and 6; the caller runs the
        # first and two forked children of it run the others
        results = experiments._map_trials(self.CFG, pid_trials)
        assert [trial for trial, _, _ in results] == list(range(7))
        caller = os.getpid()
        assert {pid for _, pid, _ in results[:3]} == {caller}
        (first,) = {pid for _, pid, _ in results[3:6]}
        (second,) = {pid for _, pid, _ in results[6:]}
        assert len({caller, first, second}) == 3
        assert {parent for _, _, parent in results[3:]} == {caller}
        assert multiprocessing.active_children() == []

    def test_one_chunk_forks_nothing(self, monkeypatch):
        no_fork(monkeypatch)
        caller = os.getpid()
        for cfg in (
            dataclasses.replace(self.CFG, workers=1),
            dataclasses.replace(self.CFG, trials=1),
        ):
            results = experiments._map_trials(cfg, pid_trials)
            assert [trial for trial, _, _ in results] == list(range(cfg.trials))
            assert {pid for _, pid, _ in results} == {caller}

    @pytest.mark.parametrize("failing", [1, 6], ids=["caller", "forked"])
    def test_a_chunk_error_propagates(self, failing):
        cfg = dataclasses.replace(self.CFG, master_seed=failing)
        with pytest.raises(ValueError, match=f"trial {failing} failed") as raised:
            experiments._map_trials(cfg, failing_trials)
        # a forked worker's exception carries its traceback as its cause
        cause = raised.value.__cause__
        assert (cause is not None and "failing_trials" in str(cause)) == (failing == 6)
        assert multiprocessing.active_children() == []

    def test_a_failing_caller_stops_its_workers(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="trial 0 failed"):
            experiments._map_trials(self.CFG, stalled_trials)
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_is_an_error(self):
        with pytest.raises(RuntimeError, match="without sending its results"):
            experiments._map_trials(self.CFG, dying_trials)
        assert multiprocessing.active_children() == []


class TestMseVsL:
    def test_row_per_sweep_point_and_argmin(self):
        result = run_mse_vs_L(TINY_SWEEP)
        assert [r.param for r in result.rows] == [5.0, 11.0, 21.0]
        assert all(r.trials == 4 for r in result.rows)
        best = min(result.rows, key=lambda r: r.mean_mse)
        assert result.best_param == best.param
        assert result.best_mse == best.mean_mse

    def test_component_split_sums(self):
        result = run_mse_vs_L(TINY_SWEEP)
        for row in result.rows:
            assert row.mse_x1 + row.mse_x2 == pytest.approx(row.mean_mse, rel=1e-12)

    def test_noiseless_quantization_floor(self):
        # with no channel noise the x2 error dominates: about delta^2/3 for the
        # floor rule under uniform sources
        cfg = ExperimentConfig(
            kind=ExperimentKind.MSE_VS_L,
            trials=400,
            l_values=(11,),
            snr_db=math.inf,
            master_seed=3,
        )
        row = run_mse_vs_L(cfg).rows[0]
        delta = 1.0 / 10.0
        assert row.mse_x2 == pytest.approx(delta**2 / 3.0, rel=0.25)
        assert row.mse_x1 < 1e-4


def scalar_rows(cfg):
    """The level sweep as one explicit capture -> FFT -> peak chain per (L, trial): the oracle."""
    rows = []
    for num_levels in cfg.l_values:
        mapping = MappingConfig(cfg.d_max, num_levels, cfg.v2, cfg.quantizer)
        sum1 = sum2 = 0.0
        for trial in range(cfg.trials):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, trial]))
            u1, u2 = cfg.source.draw(rng)
            noise_seed = int(rng.integers(0, 2**62))
            x1 = u1 * mapping.v1
            x2 = u2 * mapping.v2
            vd = encode(mapping, x1, x2)
            channel = ChannelSpec(snr_db=cfg.snr_db, rng_seed=noise_seed)
            dec = decode(mapping, chain_voltage(cfg.fm, channel, vd))
            sum1 += ((dec.x1_hat - x1) / mapping.v1) ** 2
            sum2 += ((dec.x2_hat - x2) / mapping.v2) ** 2
        m1, m2 = sum1 / cfg.trials, sum2 / cfg.trials
        rows.append(SweepRow(float(num_levels), m1 + m2, sdr(m1 + m2), m1, m2, cfg.trials))
    return rows


def counting_fallbacks(monkeypatch):
    """Count the library's captures: one per receive call whose proof leaves a band open.

    The oracle holds its own reference to ``capture``, so its chains are not counted.
    """
    calls = []
    original = signal_chain.capture

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(signal_chain, "capture", counted)
    return calls


ENGINE_SWEEP = ExperimentConfig(
    kind=ExperimentKind.MSE_VS_L,
    trials=5,
    l_values=(5, 11, 41, 71, 101),
    snr_db=0.0,
    quantizer=Quantizer.NEAREST,
    master_seed=31,
)


class TestSharedNoiseEngine:
    """The shared-noise sweep must reproduce the scalar chain's CSV bytes."""

    def assert_matches_oracle(self, cfg):
        result = run_mse_vs_L(cfg)
        oracle = dataclasses.replace(result, rows=scalar_rows(cfg))
        assert render_csv(result) == render_csv(oracle)

    @pytest.mark.parametrize("snr_db", [0.0, -20.0, math.inf, -35.0])
    def test_rows_equal_scalar_chain(self, snr_db):
        self.assert_matches_oracle(dataclasses.replace(ENGINE_SWEEP, snr_db=snr_db))

    def test_half_bin_tones_equal_scalar_chain(self):
        # v1 = 1 V, so x1 = 0.0625 V puts a noiseless tone exactly at 62.5 Hz
        cfg = dataclasses.replace(
            ENGINE_SWEEP,
            snr_db=math.inf,
            l_values=(5, 10),
            source=SourceSpec("fixed", x1=0.0625, x2=0.0),
        )
        self.assert_matches_oracle(cfg)

    def test_non_unit_bin_geometry_equals_scalar_chain(self):
        cfg = dataclasses.replace(
            ENGINE_SWEEP,
            snr_db=-20.0,
            fm=FmConfig(sample_rate=48000.0, record_seconds=16384 / 48000),
        )
        self.assert_matches_oracle(cfg)

    def test_no_fallback_at_0_db(self, monkeypatch):
        calls = counting_fallbacks(monkeypatch)
        run_mse_vs_L(ENGINE_SWEEP)
        assert calls == []

    def test_no_fallback_at_minus_35_db(self, monkeypatch):
        # the noise spectrum's maximum beats the tone, so the leak-plus-peak
        # bound fails; the few noise bins that can rival the tone are
        # evaluated exactly instead, and every peak is proved
        cfg = dataclasses.replace(ENGINE_SWEEP, snr_db=-35.0)
        calls = counting_fallbacks(monkeypatch)
        self.assert_matches_oracle(cfg)
        assert calls == []

    def test_benchmark_shaped_sweep_never_falls_back(self, monkeypatch):
        # the whole L grid at -20, -10 and 0 dB, 4 trials each: every peak is
        # proved by the block, so no capture runs
        calls = counting_fallbacks(monkeypatch)
        for snr_db in (-20.0, -10.0, 0.0):
            cfg = ExperimentConfig(
                kind=ExperimentKind.MSE_VS_L,
                source=SourceSpec("uniform"),
                trials=4,
                snr_db=snr_db,
                quantizer=Quantizer.NEAREST,
                master_seed=20260809,
            )
            assert len(run_mse_vs_L(cfg).rows) == len(DEFAULT_L_GRID)
        assert calls == []

    def test_snr_past_underflow_is_noiseless(self, monkeypatch):
        # above ~3236 dB the noise sigma underflows to 0: the sweep must take
        # the noiseless path, with no noise record and no FFT
        rffts = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: rffts.append(1) or rfft(*a, **k))
        cfg = dataclasses.replace(ENGINE_SWEEP, snr_db=4000.0)
        assert run_mse_vs_L(cfg).rows == run_mse_vs_L(
            dataclasses.replace(cfg, snr_db=math.inf)
        ).rows
        assert rffts == []

    def test_near_tie_falls_back(self, monkeypatch):
        # fm.scale puts the one noiseless tone where bins 2500 and 2501 tie,
        # which no margin can separate: every trial runs the full chain
        cfg = dataclasses.replace(
            ENGINE_SWEEP,
            snr_db=math.inf,
            trials=3,
            l_values=(11,),
            source=SourceSpec("fixed", x1=0.3, x2=0.6),
        )
        mapping = MappingConfig(cfg.d_max, 11, cfg.v2, cfg.quantizer)
        vd = encode(mapping, 0.3 * mapping.v1, 0.6 * mapping.v2)
        cfg = dataclasses.replace(cfg, fm=FmConfig(scale=tie_frequency(FmConfig(), 2500) / vd))
        calls = counting_fallbacks(monkeypatch)
        self.assert_matches_oracle(cfg)
        assert len(calls) == cfg.trials


class TestSdrVsCsnr:
    CFG = ExperimentConfig(
        kind=ExperimentKind.SDR_VS_CSNR,
        trials=3,
        snr_values=(math.inf, -20.0),
        num_levels=11,
        sensor_count=2,
        master_seed=5,
    )

    def test_rows_and_details(self):
        result = run_sdr_vs_csnr(self.CFG)
        assert [r.param for r in result.rows] == [math.inf, -20.0]
        detail = result.details[-20.0]
        assert detail["per_trial_mse"].shape == (3, 2)
        assert detail["per_trial_x2_hat"].shape == (3, 2)
        assert sorted(detail) == ["per_trial_mse", "per_trial_vd_err", "per_trial_x2_hat"]

    def test_noiseless_point_is_quantization_limited(self):
        result = run_sdr_vs_csnr(self.CFG)
        noiseless = result.details[math.inf]["per_trial_vd_err"]
        assert noiseless.max() <= 0.5 / 1000.0 + 1e-9


def explicit_sdr_trials(decisions):
    """A ``_sdr_trials`` that runs one capture per (trial, SNR) point through ``decisions``.

    decisions(mapping, truths, fm, ch, antennas, guard_hz) returns one
    (vd_true, vd_hat, decoded pair) per band.  The trial's stream draws every
    source, then the capture seed, as the sweep documents.
    """

    def trials_fn(cfg, trials):
        mapping = MappingConfig(cfg.d_max, cfg.num_levels, cfg.v2, cfg.quantizer)
        per_trial = []
        for trial in trials:
            rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, trial]))
            draws = [cfg.source.draw(rng) for _ in range(cfg.sensor_count)]
            seed = int(rng.integers(0, 2**62))
            truths = [(u1 * mapping.v1, u2 * mapping.v2) for u1, u2 in draws]
            points = []
            for snr_db in cfg.snr_values:
                ch = ChannelSpec(snr_db=snr_db, rng_seed=seed)
                decided = decisions(mapping, truths, cfg.fm, ch, cfg.antennas, cfg.guard_hz)
                points.append(
                    [
                        (
                            (dec.x1_hat / mapping.v1 - u1) ** 2,
                            (dec.x2_hat / mapping.v2 - u2) ** 2,
                            dec.x2_hat,
                            abs(vd_hat - vd_true),
                        )
                        for (u1, u2), (vd_true, vd_hat, dec) in zip(draws, decided)
                    ]
                )
            per_trial.append(np.array(points))
        return per_trial

    return trials_fn


def oracle_decisions(mapping, truths, fm, ch, antennas, guard_hz):
    return [
        (vd, vd_hat, decode(mapping, vd_hat))
        for vd, _, vd_hat in cluster_chain(mapping, truths, fm, ch, antennas, guard_hz)
    ]


def sdr_bytes(result):
    """The sweep's CSV and every per-trial detail array, as bytes."""
    return render_csv(result).encode() + b"".join(
        detail[key].tobytes()
        for detail in result.details.values()
        for key in ("per_trial_mse", "per_trial_x2_hat", "per_trial_vd_err")
    )


ENGINE_SNRS = (math.inf, 0.0, -20.0, -35.0, -45.0)


class TestTrialMajorSdrEngine:
    """The trial-major SDR sweep must reproduce one explicit oracle capture per (trial, SNR) point."""

    def assert_matches_oracle(self, cfg, monkeypatch):
        result = run_sdr_vs_csnr(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_sdr_trials", explicit_sdr_trials(oracle_decisions))
            assert sdr_bytes(run_sdr_vs_csnr(cfg)) == sdr_bytes(result)
        return result

    @pytest.mark.parametrize(
        "antennas, sensors, guard_hz",
        [(1, 1, 1000.0), (2, 3, 1000.0), (3, 4, 1000.0), (1, 4, 0.0), (3, 2, 0.0), (2, 1, 0.0)],
    )
    def test_rows_equal_explicit_chains(self, antennas, sensors, guard_hz, monkeypatch):
        # guard_hz=0 puts neighbouring tones inside each other's windows and
        # the lowest band at DC
        cfg = ExperimentConfig(
            kind=ExperimentKind.SDR_VS_CSNR,
            trials=3,
            snr_values=ENGINE_SNRS,
            num_levels=11,
            quantizer=Quantizer.NEAREST,
            sensor_count=sensors,
            antennas=antennas,
            guard_hz=guard_hz,
            master_seed=antennas * 10 + sensors,
        )
        self.assert_matches_oracle(cfg, monkeypatch)

    def test_tied_tone_falls_back(self, monkeypatch):
        # fm.scale puts the one sensor's noiseless tone where bins 2500 and
        # 2501 tie (a second tone's leak would break the tie): no margin
        # separates them, so every noiseless point captures
        cfg = ExperimentConfig(
            kind=ExperimentKind.SDR_VS_CSNR,
            trials=3,
            snr_values=(math.inf, -20.0),
            num_levels=11,
            sensor_count=1,
            antennas=2,
            source=SourceSpec("fixed", x1=0.3, x2=0.6),
        )
        mapping = MappingConfig(cfg.d_max, 11, cfg.v2, cfg.quantizer)
        vd = encode(mapping, 0.3 * mapping.v1, 0.6 * mapping.v2)
        scale = (tie_frequency(FmConfig(), 2500) - cfg.guard_hz) / vd
        cfg = dataclasses.replace(cfg, fm=FmConfig(scale=scale))
        calls = counting_fallbacks(monkeypatch)
        self.assert_matches_oracle(cfg, monkeypatch)
        assert [ch.snr_db for _, ch, _, _ in calls] == [math.inf] * cfg.trials

    def test_benchmark_shaped_sweep_never_falls_back(self, monkeypatch):
        # 3 sensors, 2 antennas, -35..0 dB: every band peak is proved, so
        # neither a capture nor a per-point rfft runs.  A worker chunk makes
        # one receive_points call, through receive_clusters, of every
        # (trial, SNR) point, and each trial's noise takes one rfft per antenna
        def no_capture(*args):
            raise AssertionError("capture called")

        rffts = []
        calls = []
        rfft = np.fft.rfft
        receive_points = multisensor.receive_points
        monkeypatch.setattr(signal_chain, "capture", no_capture)
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: rffts.append(1) or rfft(*a, **k))
        monkeypatch.setattr(
            multisensor,
            "receive_points",
            lambda fm, channels, *args: calls.append(len(channels)) or receive_points(fm, channels, *args),
        )
        cfg = ExperimentConfig(
            kind=ExperimentKind.SDR_VS_CSNR,
            trials=50,
            snr_values=(-35.0, -30.0, -25.0, -20.0, -10.0, 0.0),
            num_levels=11,
            quantizer=Quantizer.NEAREST,
            sensor_count=3,
            antennas=2,
        )
        run_sdr_vs_csnr(cfg)
        assert calls == [cfg.trials * len(cfg.snr_values)]
        assert len(rffts) == cfg.trials * cfg.antennas
        # the second of two workers' chunks, run in this process
        calls.clear()
        rffts.clear()
        experiments._sdr_trials(cfg, range(25, 50))
        assert calls == [25 * len(cfg.snr_values)]
        assert len(rffts) == 25 * cfg.antennas

    def test_overflowing_combine_raises_the_receiver_error(self, monkeypatch):
        # at -3050 dB the 2-antenna mean square overflows: the proof leaves
        # the point to the capture, whose receiver rejects it
        calls = counting_fallbacks(monkeypatch)
        cfg = ExperimentConfig(
            kind=ExperimentKind.SDR_VS_CSNR,
            trials=1,
            snr_values=(-3050.0,),
            num_levels=11,
            sensor_count=2,
            antennas=2,
        )
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="the combined spectrum overflows"
        ):
            run_sdr_vs_csnr(cfg)
        assert len(calls) == 1


def scalar_circuit_check(cfg):
    """The circuit-codec check as one scalar encode pair per grid point."""
    circuit = CircuitConfig(
        quantizer=cfg.quantizer,
        gain_error=cfg.gain_error,
        offset_error=cfg.offset_error,
    )
    mapping = equivalent_mapping(circuit)
    worst = 0.0
    for vt in np.linspace(0.0, circuit.vt_max, 100):
        x1 = vt * circuit.v_r / circuit.vt_max
        for vh in np.linspace(0.0, circuit.vh_max, 100):
            diff = abs(circuit_encode(circuit, vt, vh) - encode(mapping, x1, vh))
            worst = max(worst, diff)
    bound = 1e-9 * mapping.d_max
    return CheckResult("circuit-codec-equivalence", worst <= bound, worst, bound)


def scalar_chain_check(cfg):
    """The chain round-trip check as one scalar draw pair and one explicit chain per trial."""
    mapping = MappingConfig(cfg.d_max, cfg.num_levels, cfg.v2, cfg.quantizer)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, 202]))
    worst1 = worst2 = 0.0
    for _ in range(cfg.trials):
        x1 = rng.uniform(0.0, mapping.v1)
        x2 = rng.uniform(0.0, mapping.v2)
        vd_hat = chain_voltage(cfg.fm, ChannelSpec(snr_db=math.inf), encode(mapping, x1, x2))
        dec = decode(mapping, vd_hat)
        worst1 = max(worst1, abs(dec.x1_hat - x1))
        worst2 = max(worst2, abs(dec.x2_hat - x2))
    return worst1, worst2


class TestRoundTripSuite:
    @pytest.mark.parametrize(
        "quantizer, num_levels, master_seed",
        [(Quantizer.FLOOR, 73, 0), (Quantizer.NEAREST, 11, 5), (Quantizer.NEAREST, 150, 9)],
    )
    def test_chain_check_equals_scalar_loop(self, quantizer, num_levels, master_seed):
        # one vector draw, one encode, one transmit_receive and one decode
        # give the worst errors of a per-trial loop through the explicit chain
        cfg = ExperimentConfig(
            kind=ExperimentKind.ROUND_TRIP,
            trials=25,
            num_levels=num_levels,
            quantizer=quantizer,
            master_seed=master_seed,
        )
        got = experiments._check_chain_roundtrip(cfg)
        assert [c.worst for c in got] == list(scalar_chain_check(cfg))
        assert all(type(c.worst) is float and type(c.passed) is bool for c in got)

    @pytest.mark.parametrize(
        "quantizer, errors",
        [
            (Quantizer.FLOOR, (0.0, 0.0)),
            (Quantizer.NEAREST, (0.0, 0.0)),
            (Quantizer.NEAREST, (0.05, -0.02)),
        ],
    )
    def test_circuit_check_equals_scalar_loop(self, quantizer, errors):
        cfg = ExperimentConfig(
            kind=ExperimentKind.ROUND_TRIP,
            quantizer=quantizer,
            gain_error=errors[0],
            offset_error=errors[1],
        )
        got = experiments._check_circuit_equivalence(cfg)
        assert got == scalar_circuit_check(cfg)
        assert type(got.worst) is float and type(got.passed) is bool
        assert (got.worst > 0) == (errors != (0.0, 0.0))

    def test_defaults_pass(self):
        report = run_roundtrip_suite(
            ExperimentConfig(kind=ExperimentKind.ROUND_TRIP, trials=40)
        )
        assert report.all_passed
        names = [c.name for c in report.checks]
        assert "circuit-codec-equivalence" in names
        for check in report.checks:
            assert check.worst <= check.bound

    def test_vcvs_gain_fault_is_detected(self):
        report = run_roundtrip_suite(
            ExperimentConfig(
                kind=ExperimentKind.ROUND_TRIP, trials=10, gain_error=0.05
            )
        )
        by_name = {c.name: c for c in report.checks}
        bad = by_name["circuit-codec-equivalence"]
        assert not bad.passed
        assert bad.worst > bad.bound
        assert not report.all_passed


class TestClusterDemo:
    def test_noiseless_demo_recovers_sources(self):
        cfg = ExperimentConfig(
            kind=ExperimentKind.CLUSTER_DEMO,
            sensor_count=3,
            num_levels=11,
            snr_db=math.inf,
            master_seed=1,
        )
        results = run_cluster_demo(cfg)
        assert len(results) == 3
        keys = ["vd_true", "vd_hat", "peak_hz", "x1_hat", "x2_hat", "level_index"]
        for res in results:
            assert list(res) == keys
            assert abs(res["vd_hat"] - res["vd_true"]) <= 0.5 / 1000.0 + 1e-9


class TestOutput:
    def test_csv_round_trip(self):
        result = run_mse_vs_L(TINY_SWEEP)
        text = render_csv(result)
        assert text.splitlines()[0] == CSV_HEADER
        assert len(text.splitlines()) == 1 + len(result.rows)
        for line, row in zip(text.splitlines()[1:], result.rows):
            fields = line.split(",")
            assert [float(f) for f in fields[:5]] == [
                row.param, row.mean_mse, row.mean_sdr_db, row.mse_x1, row.mse_x2
            ]
            assert int(fields[5]) == row.trials

    def test_json_structure(self):
        result = run_mse_vs_L(TINY_SWEEP)
        payload = json.loads(render_json(result))
        assert payload["kind"] == "mse-vs-l"
        assert len(payload["rows"]) == len(result.rows)
        assert payload["best_param"] == result.best_param

    def test_json_has_no_non_finite_number(self):
        # json.loads accepts Infinity by default, but it is not JSON: a
        # noiseless SNR is written as the CSV's text for it
        cfg = ExperimentConfig(
            kind=ExperimentKind.SDR_VS_CSNR,
            trials=2,
            num_levels=11,
            sensor_count=1,
            snr_values=(math.inf, -10.0),
        )
        result = run_sdr_vs_csnr(cfg)

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(render_json(result), parse_constant=reject)
        assert [row["param"] for row in payload["rows"]] == ["inf", -10.0]
        assert payload["best_param"] == "inf"


class RecordingConfig:
    """An ExperimentConfig that records the name of every field read from it."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self.cfg, name)


class TestConfigFile:
    def test_load_and_types(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "\n".join(
                [
                    "# sweep setup",
                    "kind=mse-vs-l",
                    "trials=9",
                    "l_values=5,11,21",
                    "snr_db=-10",
                    "quantizer=nearest",
                    "master_seed=42",
                    "source_kind=fixed",
                    "source_x1=0.25",
                    "source_x2=0.75",
                    "fm_scale=1000",
                    "",
                ]
            )
        )
        cfg = config_from_mapping(read_config_file(path))
        assert cfg.kind is ExperimentKind.MSE_VS_L
        assert cfg.trials == 9
        assert cfg.l_values == (5, 11, 21)
        assert cfg.snr_db == -10.0
        assert cfg.quantizer is Quantizer.NEAREST
        assert cfg.source == SourceSpec(kind="fixed", x1=0.25, x2=0.75)

    def test_keys_follow_the_config_fields(self):
        assert sorted(CONFIG_KEYS) == sorted(
            [
                "kind", "trials", "l_values", "snr_values", "snr_db", "d_max", "v2",
                "num_levels", "quantizer", "sensor_count", "antennas", "guard_hz",
                "gain_error", "offset_error", "master_seed", "workers",
                "source_kind", "source_x1", "source_x2",
                "fm_scale", "fm_sample_rate", "fm_record_seconds",
            ]
        )

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_mapping({"kind": "mse-vs-l", "bogus": "1"})
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_mapping({"kind": "mse-vs-l", "output_format": "json"})
        # the FFT spans the whole record; there is no separate FFT length
        with pytest.raises(ValueError, match="unknown config key 'fft_size'"):
            config_from_mapping({"kind": "mse-vs-l", "fft_size": "65536"})

    def test_keys_a_kind_ignores_rejected(self):
        # one parsable value per key that some kind ignores
        values = {
            "num_levels": "11", "snr_values": "-20", "sensor_count": "2", "antennas": "2",
            "guard_hz": "500", "gain_error": "0.1", "offset_error": "0.1", "l_values": "5",
            "snr_db": "-10", "source_kind": "fixed", "source_x1": "0.2", "source_x2": "0.2",
            "workers": "2", "trials": "3",
        }
        for kind, honoured in KIND_KEYS.items():
            ignored = sorted(set(CONFIG_KEYS) - honoured)
            assert ignored, kind
            for key in ignored:
                with pytest.raises(ValueError, match=f"ignores key.*{key}"):
                    config_from_mapping({key: values[key]}, kind)
            for key in sorted(honoured & set(values)):
                config_from_mapping({key: values[key]}, kind)

    @pytest.mark.parametrize(
        "kind, runner",
        [
            (ExperimentKind.MSE_VS_L, run_mse_vs_L),
            (ExperimentKind.SDR_VS_CSNR, run_sdr_vs_csnr),
            (ExperimentKind.ROUND_TRIP, run_roundtrip_suite),
            (ExperimentKind.CLUSTER_DEMO, run_cluster_demo),
        ],
    )
    def test_runners_read_exactly_the_keys_their_kind_honours(self, kind, runner):
        # a field behind a key the kind honours that its runner never reads
        # would be silently ignored, and a field it reads behind a key the
        # kind rejects could not be set from a config file
        # the fields set are those of the two the kind honours: it rejects the others
        fields = {k: v for k, v in dict(trials=2, l_values=(5, 11)).items() if k in KIND_KEYS[kind]}
        cfg = RecordingConfig(ExperimentConfig(kind=kind, **fields))
        runner(cfg)
        assert cfg.read == {CONFIG_KEYS[key][0] for key in KIND_KEYS[kind]}

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            config_from_mapping({"trials": "5"})

    def test_kind_argument(self):
        cfg = config_from_mapping({"trials": "5"}, ExperimentKind.SDR_VS_CSNR)
        assert cfg.kind is ExperimentKind.SDR_VS_CSNR
        same = {"kind": "sdr-vs-csnr", "trials": "5"}
        assert config_from_mapping(same, ExperimentKind.SDR_VS_CSNR) == cfg
        with pytest.raises(ValueError, match="does not match"):
            config_from_mapping(same, ExperimentKind.MSE_VS_L)

    def test_integer_lists_take_inclusive_ranges(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("kind=mse-vs-l\nl_values=10:20:5\n")
        assert config_from_mapping(read_config_file(path)).l_values == (10, 15, 20)
        cfg = config_from_mapping({"kind": "mse-vs-l", "l_values": "5, 60:62 ,90:100:10,"})
        assert cfg.l_values == (5, 60, 61, 62, 90, 100)
        # a step that overshoots b keeps only a; a range with no value is an error
        assert config_from_mapping({"kind": "mse-vs-l", "l_values": "10:20:100"}).l_values == (10,)
        for bad in ("10:20:5:1", "10:20:0", "80:60:-10", "10.5", "5,80:60"):
            with pytest.raises(ValueError, match="l_values"):
                config_from_mapping({"kind": "mse-vs-l", "l_values": bad})
        snrs = config_from_mapping({"kind": "sdr-vs-csnr", "snr_values": "-30,inf"}).snr_values
        assert snrs == (-30.0, math.inf)

    def test_source_coordinate_implies_fixed_source(self):
        cfg = config_from_mapping({"kind": "sdr-vs-csnr", "source_x1": "0.25"})
        assert cfg.source == SourceSpec(kind="fixed", x1=0.25, x2=0.5)
        cfg = config_from_mapping({"kind": "sdr-vs-csnr", "source_x2": "0.75"})
        assert cfg.source == SourceSpec(kind="fixed", x1=0.5, x2=0.75)
        with pytest.raises(ValueError, match="source_kind"):
            config_from_mapping(
                {"kind": "sdr-vs-csnr", "source_kind": "uniform", "source_x2": "0.75"}
            )

    def test_repeated_key_rejected(self, tmp_path):
        # a later line must not silently override an earlier one
        path = tmp_path / "run.cfg"
        path.write_text("kind=mse-vs-l\ntrials=400\n# fewer\n trials = 4\n")
        with pytest.raises(ValueError, match=r"run\.cfg:4: key 'trials' repeats .* line 2"):
            read_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("kind=mse-vs-l\nnot a pair\n")
        with pytest.raises(ValueError, match="key=value"):
            config_from_mapping(read_config_file(path))
