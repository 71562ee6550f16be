"""Command-line interface.

Subcommands: encode, decode, chain, sweep-l, sdr-sweep, cluster, selftest.
Each flag other than --config, --out and --format sets one config key and
takes the same values as that key in a flat key=value --config file.  Each
experiment command (sweep-l, sdr-sweep, cluster, selftest) accepts --config
and has the flag of every key its kind honours (experiments.KIND_KEYS);
explicit flags override file values, which override the command's own
defaults.  --out and --format are the two sweeps' only.  Exit code 0
on success; on bad input (ValueError, OSError), a bad flag value included, a
single machine-readable JSON error line goes to stderr and the exit code is 1.
Any other error propagates with its traceback.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .experiments import (
    CONFIG_KEYS,
    KIND_KEYS,
    ExperimentConfig,
    ExperimentKind,
    config_from_mapping,
    parse_config_values,
    read_config_file,
    render_csv,
    render_json,
    run_cluster_demo,
    run_mse_vs_L,
    run_roundtrip_suite,
    run_sdr_vs_csnr,
)
from .mapping import MappingConfig, decode, encode
from .signal_chain import ChannelSpec, FmConfig, transmit_receive

# the config key each flag sets, and its help text
_CONFIG_FLAGS = {
    "--trials": ("trials", None),
    "--snr-db": ("snr_db", "channel SNR in dB (inf is noiseless)"),
    "--snrs": ("snr_values", "comma-separated SNR list in dB"),
    "--seed": ("master_seed", "master seed; chain seeds its channel noise with it"),
    "--dmax": ("d_max", "encoded amplitude limit (V)"),
    "--v2": ("v2", "range of the quantized source (V)"),
    "--levels": ("num_levels", "number of parallel lines"),
    "--quantizer": ("quantizer", "line assignment rule: floor or nearest"),
    "--l-grid": ("l_values", "e.g. 10:150:5 or 60,70,80"),
    "--sensors": ("sensor_count", None),
    "--antennas": ("antennas", None),
    "--source": ("source_kind", "source distribution: uniform or fixed"),
    "--x1": ("source_x1", "fixed source x1 in [0,1]"),
    "--x2": ("source_x2", "fixed source x2 in [0,1]"),
    "--workers": ("workers", "processes that run trials: this one plus workers - 1 forked ones"),
    "--gain-error": ("gain_error", None),
    "--offset-error": ("offset_error", None),
}
_CODEC_KEYS = frozenset({"d_max", "num_levels", "v2", "quantizer"})
# the experiment kind each experiment command runs, and its help text
_EXPERIMENTS = {
    "sweep-l": (ExperimentKind.MSE_VS_L, "mean MSE vs number of levels"),
    "sdr-sweep": (ExperimentKind.SDR_VS_CSNR, "SDR vs channel SNR for FDMA sensors"),
    "cluster": (ExperimentKind.CLUSTER_DEMO, "one joint capture of several sensors"),
    "selftest": (ExperimentKind.ROUND_TRIP, "run the round-trip self-check suite"),
}
# a command's own raw value for a key, taken when neither a flag nor --config sets it
_COMMAND_DEFAULTS = {
    "chain": {"snr_db": "inf"},
    "cluster": {"sensor_count": "3", "snr_db": "inf", "num_levels": "11"},
}


def _add_config_flags(p: argparse.ArgumentParser, keys: frozenset[str]) -> None:
    """A flag for each key of keys that has one; it stores its raw string under the key."""
    for flag, (key, help_text) in _CONFIG_FLAGS.items():
        if key in keys:
            metavar = flag[2:].upper().replace("-", "_")
            p.add_argument(flag, dest=key, metavar=metavar, help=help_text)


def _raw_values(args: argparse.Namespace, file_values: dict[str, str]) -> dict[str, str]:
    """The command's defaults, overlaid by file_values, then by the config flags that were set."""
    flags = {key: raw for key, raw in vars(args).items() if key in CONFIG_KEYS and raw is not None}
    return {**_COMMAND_DEFAULTS.get(args.command, {}), **file_values, **flags}


def _codec(args: argparse.Namespace) -> tuple[MappingConfig, dict[str, object]]:
    """The codec of encode, decode and chain, and the parsed value of each of their flags.

    An unset flag takes the command's default for its key, else ExperimentConfig's.
    """
    values = {key: getattr(ExperimentConfig, key) for key in vars(args) if key in CONFIG_KEYS}
    values.update(parse_config_values(_raw_values(args, {})))
    codec = MappingConfig(values["d_max"], values["num_levels"], values["v2"], values["quantizer"])
    return codec, values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ajscc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="map (x1, x2) to the encoded voltage")
    _add_config_flags(p, _CODEC_KEYS)
    p.add_argument("x1", type=float)
    p.add_argument("x2", type=float)

    p = sub.add_parser("decode", help="invert an encoded voltage")
    _add_config_flags(p, _CODEC_KEYS)
    p.add_argument("voltage", type=float)

    p = sub.add_parser("chain", help="encode, transmit through FM/AWGN/FFT, decode")
    _add_config_flags(p, _CODEC_KEYS | {"snr_db", "master_seed"})
    p.add_argument("x1", type=float)
    p.add_argument("x2", type=float)

    for command, (kind, help_text) in _EXPERIMENTS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        _add_config_flags(p, KIND_KEYS[kind])
        if command in ("sweep-l", "sdr-sweep"):
            p.add_argument("--out", help="output path (stdout when omitted)")
            p.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _config(args: argparse.Namespace, kind: ExperimentKind) -> ExperimentConfig:
    """The command's defaults overlaid by the --config file's values, then by the flags set."""
    file_values = read_config_file(args.config) if args.config else {}
    return config_from_mapping(_raw_values(args, file_values), kind)


def _emit_result(result, args: argparse.Namespace) -> None:
    text = (render_csv if args.format == "csv" else render_json)(result)
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"wrote {args.out} best_param={result.best_param!r} best_mse={result.best_mse!r}")
    else:
        sys.stdout.write(text)


def _run(args: argparse.Namespace) -> int:
    if args.command in _EXPERIMENTS:
        cfg = _config(args, _EXPERIMENTS[args.command][0])
    if args.command == "encode":
        codec, _ = _codec(args)
        print(repr(encode(codec, args.x1, args.x2)))
    elif args.command == "decode":
        codec, _ = _codec(args)
        print(json.dumps(asdict(decode(codec, args.voltage))))
    elif args.command == "chain":
        codec, values = _codec(args)
        vd = encode(codec, args.x1, args.x2)
        channel = ChannelSpec(snr_db=values["snr_db"], rng_seed=values["master_seed"])
        vd_hat = transmit_receive(FmConfig(), channel, vd)
        print(json.dumps({"vd": vd, "vd_hat": vd_hat, **asdict(decode(codec, vd_hat))}))
    elif args.command == "sweep-l":
        _emit_result(run_mse_vs_L(cfg), args)
    elif args.command == "sdr-sweep":
        _emit_result(run_sdr_vs_csnr(cfg), args)
    elif args.command == "cluster":
        for sensor_id, res in enumerate(run_cluster_demo(cfg)):
            print(json.dumps({"sensor_id": sensor_id, **res}))
    elif args.command == "selftest":
        report = run_roundtrip_suite(cfg)
        for check in report.checks:
            status = "PASS" if check.passed else "FAIL"
            print(f"{status} {check.name} worst={check.worst:.3e} bound={check.bound:.3e}")
        return 0 if report.all_passed else 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ValueError, OSError) as exc:  # bad input: one machine-readable error line
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
