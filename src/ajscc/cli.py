"""Command-line interface.

Subcommands: encode, decode, chain, sweep-l, sdr-sweep, cluster, selftest.
Each flag other than --config, --out and --format sets one config key and
takes the same values as that key in a flat key=value --config file, which
the sweep commands accept; explicit flags override file values.  Exit code 0
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
    "--workers": ("workers", None),
    "--gain-error": ("gain_error", None),
    "--offset-error": ("offset_error", None),
}
_CODEC_FLAGS = ("--dmax", "--levels", "--v2", "--quantizer")


def _add_config_flags(
    p: argparse.ArgumentParser, flags: tuple[str, ...], defaults: dict[str, str] | None = None
) -> None:
    """Each flag stores its raw string under its config key; parse_config_values parses it."""
    for flag in flags:
        key, help_text = _CONFIG_FLAGS[flag]
        p.add_argument(
            flag,
            dest=key,
            metavar=flag[2:].upper().replace("-", "_"),
            default=(defaults or {}).get(flag),
            help=help_text,
        )


def _flag_values(args: argparse.Namespace) -> dict[str, str]:
    """The raw string of each config flag that was set or has a command default, by key."""
    return {key: raw for key, raw in vars(args).items() if key in CONFIG_KEYS and raw is not None}


def _codec(args: argparse.Namespace) -> tuple[MappingConfig, dict[str, object]]:
    """The codec of encode, decode and chain, and the parsed value of each of their flags.

    An unset flag takes ExperimentConfig's default for its key.
    """
    values = {key: getattr(ExperimentConfig, key) for key in vars(args) if key in CONFIG_KEYS}
    values.update(parse_config_values(_flag_values(args)))
    codec = MappingConfig(values["d_max"], values["num_levels"], values["v2"], values["quantizer"])
    return codec, values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ajscc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="map (x1, x2) to the encoded voltage")
    _add_config_flags(p, _CODEC_FLAGS)
    p.add_argument("x1", type=float)
    p.add_argument("x2", type=float)

    p = sub.add_parser("decode", help="invert an encoded voltage")
    _add_config_flags(p, _CODEC_FLAGS)
    p.add_argument("voltage", type=float)

    p = sub.add_parser("chain", help="encode, transmit through FM/AWGN/FFT, decode")
    _add_config_flags(p, _CODEC_FLAGS + ("--snr-db", "--seed"), defaults={"--snr-db": "inf"})
    p.add_argument("x1", type=float)
    p.add_argument("x2", type=float)

    p = sub.add_parser("sweep-l", help="mean MSE vs number of levels")
    p.add_argument("--config", help="flat key=value config file")
    _add_config_flags(
        p,
        ("--trials", "--snr-db", "--seed", "--dmax", "--v2", "--quantizer", "--l-grid",
         "--workers"),
    )
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("sdr-sweep", help="SDR vs channel SNR for FDMA sensors")
    p.add_argument("--config")
    _add_config_flags(
        p,
        ("--trials", "--snrs", "--seed", "--dmax", "--v2", "--levels", "--quantizer", "--sensors",
         "--antennas", "--source", "--x1", "--x2", "--workers"),
    )
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("cluster", help="one joint capture of several sensors")
    _add_config_flags(
        p,
        ("--sensors", "--antennas", "--snr-db", "--seed", "--dmax", "--levels", "--quantizer"),
        defaults={"--sensors": "3", "--snr-db": "inf", "--levels": "11"},
    )

    p = sub.add_parser("selftest", help="run the round-trip self-check suite")
    _add_config_flags(
        p, ("--levels", "--trials", "--quantizer", "--gain-error", "--offset-error", "--seed")
    )

    return parser


def _config(args: argparse.Namespace, kind: ExperimentKind) -> ExperimentConfig:
    """The --config file's values overlaid by the flags that were set, parsed once."""
    values = read_config_file(args.config) if getattr(args, "config", None) else {}
    values.update(_flag_values(args))
    return config_from_mapping(values, kind)


def _emit_result(result, args: argparse.Namespace) -> None:
    text = (render_csv if args.format == "csv" else render_json)(result)
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
        print(f"wrote {args.out} best_param={result.best_param!r} best_mse={result.best_mse!r}")
    else:
        sys.stdout.write(text)


def _run(args: argparse.Namespace) -> int:
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
        _emit_result(run_mse_vs_L(_config(args, ExperimentKind.MSE_VS_L)), args)
    elif args.command == "sdr-sweep":
        _emit_result(run_sdr_vs_csnr(_config(args, ExperimentKind.SDR_VS_CSNR)), args)
    elif args.command == "cluster":
        results = run_cluster_demo(_config(args, ExperimentKind.CLUSTER_DEMO))
        for sensor_id, res in enumerate(results):
            fields = asdict(res)
            decoded = fields.pop("decoded")  # its fields follow the sensor's own
            print(json.dumps({"sensor_id": sensor_id, **fields, **decoded}))
    elif args.command == "selftest":
        report = run_roundtrip_suite(_config(args, ExperimentKind.ROUND_TRIP))
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
