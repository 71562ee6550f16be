"""Golden digests: the sha256 of the README's outputs and of sweeps at several worker counts.

Each digest was recorded once, when its case was added.  A sweep runs at
each of its worker counts against its one digest, so these cases are also
the check that a sweep's bytes do not depend on the worker count.  A change
that claims byte-identical outputs leaves every digest as it is; a change
that means to change an output updates the digests it changes and says
which and why.  The digests depend on numpy's random streams (default_rng and
standard_normal) and on its pocketfft rounding, as the acceptance CSV sha
does.
"""
import hashlib

import numpy as np
import pytest

from ajscc import cli
from ajscc.experiments import (
    ExperimentKind,
    render_csv,
    run_mse_vs_L,
    run_roundtrip_suite,
    run_sdr_vs_csnr,
)
from ajscc.signal_chain import ChannelSpec, FmConfig, transmit_receive


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parsed_config(command: str, kind: ExperimentKind):
    """The config a CLI command line runs with, parsed as the CLI parses it."""
    return cli._config(cli._build_parser().parse_args(command.split()), kind)


# the README's commands, a chain whose noise moves the peak and a NEAREST
# tie: the exit code, then every byte on stdout
CLI_OUTPUTS = {
    "encode --dmax 5 --levels 5 --v2 1 0.3 0.26":
        "a8e541b57a23907515e1ed4a0bf53892433225ffeaaf5a834530ac048140690e",
    # x2 = 0.25 lies halfway between lines 0 and 1 (delta 0.5): the upper line
    # wins, and the voltage is 3.033333333333333, not the lower line's 0.3
    "encode --dmax 5 --levels 3 --v2 1 --quantizer nearest 0.3 0.25":
        "a04108ef6cfc661f973830d6ba6d9f78567c9c3db654b0bb1bf757c27a4fc455",
    "decode --dmax 5 --levels 5 --v2 1 1.7":
        "dc0b25f901dcfeb907fad076e7548e2fdbad31ba483b016c5d889dd9c104cb5b",
    "chain --levels 73 --snr-db -20 --seed 7 0.02 0.6":
        "c28569060f8456e4e2d4dba7f8c5912065da89ec752749fa627120605541bc45",
    "chain --levels 73 --snr-db inf --seed 7 0.02 0.6":
        "c28569060f8456e4e2d4dba7f8c5912065da89ec752749fa627120605541bc45",
    "chain --levels 73 --snr-db -35 --seed 7 0.02 0.6":
        "fab435170e258b880f6061f86676b5a40fba21fefa882d65219f1fd06efa1de0",
    "cluster --sensors 3 --snr-db -20 --levels 11":
        "220f357ad74eaee6f43fcfdf12ee5e717ede59b9f09e73268f8aed393501f86e",
    "selftest": "043ae11b9cc398ab85d702831061805eced25e335f103570599f8d52a03231df",
    "selftest --gain-error 0.05":
        "a9525be9b6f24f4f57b9f7be5e267f40d64d73102da921d914fa10e7fa933a1b",
}


@pytest.mark.parametrize("command", list(CLI_OUTPUTS))
def test_cli_output(capsys, command):
    code = cli.main(command.split())
    assert sha256(f"{code}\n{capsys.readouterr().out}".encode()) == CLI_OUTPUTS[command]


# sweeps whose bytes must not depend on the worker count: the CSV, then each
# SNR's per_trial_* arrays.  Each command runs at one worker and at every
# further worker count in its tuple, against the one digest; the trials split
# into contiguous chunks, the caller runs the first and forked processes the
# others
SWEEPS = {
    # the README's SDR sweep
    "sdr-sweep --snrs=-30,-20,-10,0 --sensors 3 --levels 11 --workers 1":
        ((2,), "f3e95211570700694c64fd705a16c0ea766ba3c7034cdac47c0d4d4200e8191f"),
    # down to -35 dB the noise peaks rival the tones, so the proof's second
    # stage settles bands of a combined spectrum
    "sdr-sweep --snrs=-35,-30,-20,0 --sensors 3 --levels 11 --antennas 2 --workers 1":
        ((2,), "f1119d5bb79b35fdf66692d54961d3d37d18a59ebf873c087a30c8cc5095c642"),
    # each chunk is one receiver call over several trial seeds, in uneven
    # chunks: 4 and 3 trials, then 3, 3 and 1
    "sdr-sweep --snrs=-35,-20,0 --sensors 3 --levels 11 --antennas 3 --trials 7 --workers 1":
        ((2, 3), "d7838c6dce3fd3e90e46d63daa3e13c4fc5a24fd50726014ab1ea37086ec033d"),
    # at -45..-35 dB the array first stage leaves most bands open for the
    # second stage
    "sdr-sweep --snrs=-45,-40,-35 --sensors 3 --levels 11 --antennas 2 --trials 6 --workers 1":
        ((2,), "c521b96b960c88214026380b313998528971f5256baac884c0a1e37087828d41"),
    # the top sensor's tone sits 8 bins below Nyquist, where no proof window
    # fits, so every point falls back to its capture
    "sdr-sweep --snrs=-45,-40,-35 --sensors 3 --levels 11 --antennas 2 --trials 6 --dmax 9.92"
    " --source fixed --x1 1 --x2 1 --workers 1":
        ((2,), "b174012402b0cec08946478478d11332d7abc66d322e75c847c5d7e275cb1820"),
    # at -35 dB the noise peak beats the tone
    "sweep-l --snr-db=-35 --trials 4 --l-grid 60:80 --workers 1":
        ((2,), "8b89b5d40ec910d9784816dc5d6a4cc583382c5dbea578106f183bdbd667909a"),
    # uneven chunks of 2, 2 and 1 trials
    "sweep-l --snr-db=-35 --trials 5 --l-grid 60:80 --workers 1":
        ((3,), "293762e921171f5707d1d13e034f827357253ff95c3150eca07cc2189156dcbc"),
}
SWEEP_CASES = {
    command.replace("--workers 1", f"--workers {workers}"): digest
    for command, (more, digest) in SWEEPS.items()
    for workers in (1, *more)
}
RUNS = {
    "sdr-sweep": (ExperimentKind.SDR_VS_CSNR, run_sdr_vs_csnr),
    "sweep-l": (ExperimentKind.MSE_VS_L, run_mse_vs_L),
}


@pytest.mark.parametrize("command", list(SWEEP_CASES))
def test_sweep(command):
    kind, run = RUNS[command.split()[0]]
    result = run(parsed_config(command, kind))
    data = [render_csv(result).encode()]
    for snr_db, arrays in result.details.items():
        for key, array in sorted(arrays.items()):
            data.append(f"{snr_db!r} {key} {array.dtype} {array.shape}\n".encode())
            data.append(array.tobytes())
    assert sha256(b"".join(data)) == SWEEP_CASES[command]


# both selftest reports, every float as hex
REPORTS = {
    "selftest": "698af7ef1bc690bc4d07c02319710dca58a316ac42dbfa389f51eee8238456b7",
    "selftest --gain-error 0.05":
        "387adbb46f363d164f83fd435dd00c0ccdd17498b17625e7f56cec19d31a4b20",
}


@pytest.mark.parametrize("command", list(REPORTS))
def test_selftest_report(command):
    report = run_roundtrip_suite(parsed_config(command, ExperimentKind.ROUND_TRIP))
    lines = [f"{c.name} {c.passed} {c.worst.hex()} {c.bound.hex()}\n" for c in report.checks]
    assert sha256("".join(lines).encode()) == REPORTS[command]


# one array transmit_receive of 1000 voltages over the whole tone range
# [0, Nyquist), noiseless and at -20 dB: one run of several proof blocks
ARRAYS = {
    float("inf"): "b67963ed9d5f44ec6235de1ef59b95892bb68882584eb8fdd68d280d9105182a",
    -20.0: "e95742751df3890d405e209387db36e11e045934962ba80fce6c57b821603036",
}


@pytest.mark.parametrize("snr_db", list(ARRAYS))
def test_array_transmit_receive(snr_db):
    fm = FmConfig()
    vd = np.random.default_rng(22).uniform(0.0, fm.sample_rate / 2 / fm.scale, 1000)
    vd_hat = transmit_receive(fm, ChannelSpec(snr_db=snr_db, rng_seed=22), vd)
    assert sha256(vd_hat.tobytes()) == ARRAYS[snr_db]
