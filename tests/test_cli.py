"""CLI tests: subcommand outputs, exit codes, error reporting."""
import argparse
import json
import math
import re
import warnings
from pathlib import Path

import pytest

from ajscc import cli
from ajscc.cli import main
from ajscc.experiments import (
    CONFIG_KEYS,
    KIND_KEYS,
    ExperimentConfig,
    ExperimentKind,
    SourceSpec,
    SweepResult,
    SweepRow,
    render_csv,
    render_json,
    run_mse_vs_L,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subcommand_parsers():
    """Each subcommand's argparse parser, by command name."""
    subparsers = next(
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return subparsers.choices


# the positionals each command needs besides its flags
POSITIONALS = {"encode": ("0.1", "0.1"), "decode": ("1",), "chain": ("0.1", "0.1")}
# the experiment kind each experiment command runs
KINDS = {
    "sweep-l": ExperimentKind.MSE_VS_L,
    "sdr-sweep": ExperimentKind.SDR_VS_CSNR,
    "cluster": ExperimentKind.CLUSTER_DEMO,
    "selftest": ExperimentKind.ROUND_TRIP,
}
# one unparsable value per flag
BAD_VALUES = {"--levels": "5.5", "--quantizer": "bogus", "--source": "bogus", "--snr-db": "x"}


class TestCodecCommands:
    def test_encode(self, capsys):
        code, out, err = run_cli(
            capsys, "encode", "--dmax", "5", "--levels", "5", "--v2", "1", "0.3", "0.26"
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.7)

    def test_decode(self, capsys):
        code, out, _ = run_cli(
            capsys, "decode", "--dmax", "5", "--levels", "5", "--v2", "1", "1.7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["x1_hat"] == pytest.approx(0.3)
        assert payload["x2_hat"] == pytest.approx(0.25)
        assert payload["level_index"] == 1

    def test_chain_noiseless(self, capsys):
        code, out, _ = run_cli(
            capsys, "chain", "--levels", "11", "0.2", "0.6"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["vd_hat"] == pytest.approx(payload["vd"], abs=6e-4)
        assert payload["x1_hat"] == pytest.approx(0.2, abs=6e-4)

    @pytest.mark.parametrize("snr_db", ["inf", "-20"])
    def test_chain_defaults_are_the_config_defaults(self, capsys, snr_db):
        given = () if snr_db == "inf" else ("--snr-db", snr_db)
        explicit = (
            "--dmax", "5", "--levels", "73", "--v2", "1", "--quantizer", "floor",
            "--snr-db", snr_db, "--seed", "0",
        )
        implicit_run = run_cli(capsys, "chain", *given, "0.02", "0.6")
        assert implicit_run[0] == 0
        assert run_cli(capsys, "chain", *explicit, "0.02", "0.6") == implicit_run

    def test_error_line_is_machine_readable(self, capsys):
        code, out, err = run_cli(capsys, "encode", "--levels", "1", "0.1", "0.1")
        assert code == 1
        assert out == ""
        payload = json.loads(err.strip())
        assert "num_levels" in payload["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("chain", "--snr-db=-4000", "0.01", "0.1"),
            ("sweep-l", "--snr-db=-4000", "--trials", "1"),
            ("sdr-sweep", "--snrs=-4000", "--trials", "1"),
            ("cluster", "--snr-db=-4000"),
        ],
    )
    def test_snr_whose_noise_variance_overflows_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        (line,) = err.splitlines()
        assert "overflows" in json.loads(line)["error"]

    def test_overflowing_combine_gives_one_error_line(self, capsys):
        # the mean square of two antennas' noise overflows: the finiteness
        # check reports it, and numpy warns nothing, even as errors
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "sdr-sweep", "--snrs=-3050", "--antennas", "2", "--trials", "1",
                "--sensors", "1", "--levels", "11",
            )
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert "overflows" in json.loads(line)["error"]


@pytest.fixture
def runs(monkeypatch):
    """Stub the CLI's experiment runners; the list collects the configs they receive."""
    configs = []

    def sweep(cfg):
        configs.append(cfg)
        return SweepResult(cfg.kind, [SweepRow(0.0, 1.0, 0.0, 0.5, 0.5, 1)], 0.0, 1.0)

    def cluster(cfg):
        configs.append(cfg)
        return []

    monkeypatch.setattr(cli, "run_mse_vs_L", sweep)
    monkeypatch.setattr(cli, "run_sdr_vs_csnr", sweep)
    monkeypatch.setattr(cli, "run_cluster_demo", cluster)
    return configs


class TestSweepCommands:
    def test_sweep_l_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep-l",
            "--trials", "3",
            "--snr-db", "inf",
            "--l-grid", "5,11",
            "--seed", "1",
            "--out", str(out_path),
        )
        assert code == 0
        assert "best_param=" in out
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("param,")
        assert len(lines) == 3

    def test_sweep_l_json_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep-l",
            "--trials", "2",
            "--snr-db", "inf",
            "--l-grid", "5:7:2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["param"] for r in payload["rows"]] == [5.0, 7.0]

    def test_sdr_sweep_fixed_source(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sdr-sweep",
            "--trials", "2",
            "--snrs", "inf",
            "--levels", "11",
            "--sensors", "2",
            "--source", "fixed",
            "--x1", "0.3",
            "--x2", "0.6",
        )
        assert code == 0
        assert out.startswith("param,")

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("kind=mse-vs-l\ntrials=2\nl_values=5\nsnr_db=inf\n")
        code, out, _ = run_cli(
            capsys, "sweep-l", "--config", str(cfg_path), "--l-grid", "5,9"
        )
        assert code == 0
        rows = [ln for ln in out.splitlines()[1:] if ln]
        assert len(rows) == 2  # flag overrides the file's single-point grid

    def test_out_overwrites_a_stale_file(self, capsys, tmp_path):
        cfg = ExperimentConfig(
            kind=ExperimentKind.MSE_VS_L, trials=2, snr_db=math.inf, l_values=(5, 11), master_seed=1
        )
        result = run_mse_vs_L(cfg)
        for fmt, render in (("csv", render_csv), ("json", render_json)):
            out_path = tmp_path / f"sweep.{fmt}"
            out_path.write_text("stale line\n" * 100)
            code, _, _ = run_cli(
                capsys, "sweep-l", "--trials", "2", "--snr-db", "inf", "--l-grid", "5,11",
                "--seed", "1", "--format", fmt, "--out", str(out_path),
            )
            assert code == 0
            assert out_path.read_bytes() == render(result).encode("ascii")

    def test_json_writes_a_noiseless_snr_as_text(self, capsys):
        # JSON has no number for inf: the row's param is the CSV's text for it
        code, out, _ = run_cli(
            capsys, "sdr-sweep", "--snrs", "inf", "--trials", "1", "--sensors", "1",
            "--format", "json",
        )
        assert code == 0

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        payload = json.loads(out, parse_constant=reject)
        assert [row["param"] for row in payload["rows"]] == ["inf"]

    def test_rejects_bad_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-l", "--format", "xml"])
        assert exc.value.code == 2
        assert "xml" in capsys.readouterr().err


class TestConfigContract:
    def test_x2_alone_sets_fixed_source(self, capsys, runs):
        code, _, _ = run_cli(capsys, "sdr-sweep", "--x2", "0.9")
        assert code == 0
        assert runs[0].source == SourceSpec(kind="fixed", x1=0.5, x2=0.9)

    def test_uniform_source_with_coordinate_rejected(self, capsys, runs):
        code, out, err = run_cli(capsys, "sdr-sweep", "--source", "uniform", "--x1", "0.3")
        assert code == 1
        assert "source_kind" in json.loads(err.strip())["error"]
        assert runs == []

    def test_file_coordinate_sets_fixed_source(self, capsys, runs, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("source_x1=0.25\n")
        code, _, _ = run_cli(capsys, "sdr-sweep", "--config", str(cfg_path))
        assert code == 0
        assert runs[0].source == SourceSpec(kind="fixed", x1=0.25, x2=0.5)
        code, _, _ = run_cli(capsys, "sdr-sweep", "--config", str(cfg_path), "--x2", "0.6")
        assert code == 0
        assert runs[1].source == SourceSpec(kind="fixed", x1=0.25, x2=0.6)

    def test_config_file_kind_must_match_subcommand(self, capsys, runs, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("kind=sdr-vs-csnr\ntrials=2\n")
        code, _, err = run_cli(capsys, "sweep-l", "--config", str(cfg_path))
        assert code == 1
        assert "kind" in json.loads(err.strip())["error"]
        code, _, _ = run_cli(capsys, "sdr-sweep", "--config", str(cfg_path))
        assert code == 0
        assert runs[0].kind is ExperimentKind.SDR_VS_CSNR and runs[0].trials == 2

    def test_range_grammar_same_in_file_and_flag(self, capsys, runs, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("l_values=10:20:5\n")
        run_cli(capsys, "sweep-l", "--config", str(cfg_path))
        run_cli(capsys, "sweep-l", "--l-grid", "10:20:5")
        assert runs[0].l_values == runs[1].l_values == (10, 15, 20)

    def test_non_finite_fm_field_rejected(self, capsys, runs, tmp_path):
        # bad FM fields give one JSON error line, never a traceback
        for field, value in (("sample_rate", "inf"), ("record_seconds", "1e400"), ("scale", "nan")):
            cfg_path = tmp_path / "run.cfg"
            cfg_path.write_text(f"trials=2\nfm_{field}={value}\n")
            code, out, err = run_cli(capsys, "sweep-l", "--config", str(cfg_path))
            assert (code, out) == (1, "")
            assert field in json.loads(err.strip())["error"]
        assert runs == []

    def test_codec_range_past_nyquist_rejected(self, capsys, runs):
        # 33 V at 1000 Hz/V is 33000 Hz, past the 32768 Hz Nyquist frequency:
        # rejected up front, not only when some seed draws a tone that high
        code, out, err = run_cli(
            capsys, "sweep-l", "--dmax", "33", "--quantizer", "nearest", "--trials", "200",
            "--l-grid", "71", "--snr-db", "0", "--seed", "3",
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert "Nyquist" in json.loads(err)["error"]
        assert runs == []

    def test_key_the_kind_ignores_rejected(self, capsys, runs, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("trials=2\nsensor_count=3\n")
        code, out, err = run_cli(capsys, "sweep-l", "--config", str(cfg_path))
        assert (code, out) == (1, "")
        assert "sensor_count" in json.loads(err.strip())["error"]
        assert runs == []

    def test_every_flag_sets_a_key_its_kind_honours(self):
        # an experiment command takes --config and the flag of every key its
        # kind honours, and no other config flag
        parsers = subcommand_parsers()
        for command, kind in KINDS.items():
            options = parsers[command]._option_string_actions
            flags = {flag for flag in options if flag in cli._CONFIG_FLAGS}
            honoured = {f for f, (key, _) in cli._CONFIG_FLAGS.items() if key in KIND_KEYS[kind]}
            assert flags == honoured, command
            assert "--config" in options, command

    def test_config_file_reaches_every_experiment_command(self, capsys, tmp_path):
        # selftest reads --config like the sweeps: a file's gain_error fails the
        # suite with the same bytes as the flag
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("gain_error=0.05\n")
        by_flag = run_cli(capsys, "selftest", "--gain-error", "0.05")
        assert by_flag[0] == 1
        assert run_cli(capsys, "selftest", "--config", str(cfg_path)) == by_flag

    def test_config_file_overrides_command_defaults(self, capsys, runs, tmp_path):
        # cluster's own defaults give way to the file, and the file to a flag
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("sensor_count=2\nnum_levels=21\nv2=0.5\nsource_x1=0.25\n")
        assert run_cli(capsys, "cluster", "--config", str(cfg_path))[0] == 0
        assert run_cli(capsys, "cluster", "--config", str(cfg_path), "--sensors", "4")[0] == 0
        assert [(c.sensor_count, c.num_levels, c.v2, c.snr_db) for c in runs] == [
            (2, 21, 0.5, math.inf), (4, 21, 0.5, math.inf)
        ]
        assert runs[0].source == SourceSpec(kind="fixed", x1=0.25, x2=0.5)

    def test_readme_kind_table_matches_the_code(self):
        # the README's | command | kind | rejected keys | table lists each
        # experiment command once, with the keys its kind does not honour
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| command | kind | rejected keys |") + 2
        rows = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            command_cell, kind_cell, keys_cell = line.strip("|").split("|")
            (command,) = re.findall(r"`([^`]+)`", command_cell)
            (kind,) = re.findall(r"`([^`]+)`", kind_cell)
            rows[command] = (kind, set(re.findall(r"`([^`]+)`", keys_cell)))
        assert rows == {
            command: (kind.value, set(CONFIG_KEYS) - KIND_KEYS[kind])
            for command, kind in KINDS.items()
        }

    def test_every_option_is_one_config_flag(self):
        # one table declares every config flag; its parser is the key's, not argparse's
        cli_only = {"-h", "--help", "--config", "--out", "--format"}
        for command, parser in subcommand_parsers().items():
            options = [a for a in parser._actions if set(a.option_strings) - cli_only]
            assert options, command
            for action in options:
                (flag,) = action.option_strings
                assert cli._CONFIG_FLAGS[flag][0] == action.dest, (command, flag)
                assert (action.type, action.choices) == (None, None), (command, flag)

    @pytest.mark.parametrize(
        "argv, key",
        [
            ((command, flag, bad, *POSITIONALS.get(command, ())), cli._CONFIG_FLAGS[flag][0])
            for command, parser in subcommand_parsers().items()
            for flag, bad in BAD_VALUES.items()
            if flag in parser._option_string_actions
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
    )
    def test_bad_flag_value_names_its_key(self, capsys, runs, argv, key):
        # parsed like the key in a file: one JSON error line and exit 1, not a usage error
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert json.loads(line)["error"].startswith(f"config key {key}=")
        assert runs == []

    @pytest.mark.parametrize(
        "argv, key",
        [
            (("sweep-l", "--seed", "-1", "--trials", "1", "--l-grid", "5"), "master_seed"),
            (("cluster", "--seed", "-1", "--snr-db", "0"), "master_seed"),
            (("chain", "--seed", "-1", "--snr-db", "0", "0.01", "0.1"), "rng_seed"),
            (("selftest", "--gain-error", "nan"), "gain_error"),
            (("selftest", "--offset-error", "inf"), "offset_error"),
            # numpy holds a count of 2**64 or more as an object, not a number
            (("encode", "--levels", str(2**64), "0", "0.1"), "num_levels"),
            (("sweep-l", "--l-grid", str(2**64), "--trials", "1"), "num_levels"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
    )
    def test_bad_config_value_names_its_key(self, capsys, runs, argv, key):
        # a negative seed or a non-finite fault knob is bad input, named by
        # its field: no numpy seeding error and no FAIL line
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert key in json.loads(line)["error"]
        assert runs == []

    def test_readme_config_table_matches_the_code(self):
        # the README's | key | flag | value | table lists every config key once,
        # with the flag that sets it
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        start = lines.index("| key | flag | value |") + 2
        readme_keys, readme_flags = [], {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            key_cell, flag_cell, _ = line.strip("|").split("|")
            keys = re.findall(r"`([^`]+)`", key_cell)
            flags = re.findall(r"`(--[^`]+)`", flag_cell)
            assert not flags or len(flags) == len(keys), line
            readme_keys += keys
            readme_flags.update(zip(keys, flags))
        assert sorted(readme_keys) == sorted(CONFIG_KEYS)
        assert readme_flags == {key: flag for flag, (key, _) in cli._CONFIG_FLAGS.items()}

    def test_cluster_keeps_its_defaults(self, capsys, runs):
        code, _, _ = run_cli(capsys, "cluster")
        assert code == 0
        cfg = runs[0]
        assert (cfg.sensor_count, cfg.snr_db, cfg.num_levels) == (3, float("inf"), 11)

    def test_internal_error_propagates(self, capsys, monkeypatch):
        def broken(cfg):
            raise RuntimeError("bug in a runner")

        monkeypatch.setattr(cli, "run_mse_vs_L", broken)
        with pytest.raises(RuntimeError, match="bug in a runner"):
            main(["sweep-l", "--trials", "1"])


class TestClusterCommand:
    def test_prints_one_line_per_sensor(self, capsys):
        code, out, _ = run_cli(
            capsys, "cluster", "--sensors", "3", "--snr-db", "inf", "--levels", "11"
        )
        assert code == 0
        lines = [json.loads(ln) for ln in out.strip().splitlines()]
        assert [ln["sensor_id"] for ln in lines] == [0, 1, 2]
        for ln in lines:
            assert abs(ln["vd_hat"] - ln["vd_true"]) <= 6e-4

    def test_line_keys_are_the_output_contract(self, capsys):
        code, out, err = run_cli(capsys, "cluster", "--snr-db", "inf")
        assert (code, err) == (0, "")
        lines = [json.loads(ln) for ln in out.strip().splitlines()]
        assert len(lines) == 3  # the cluster default
        keys = ["sensor_id", "vd_true", "vd_hat", "peak_hz", "x1_hat", "x2_hat", "level_index"]
        for ln in lines:
            assert list(ln) == keys


class TestSelftest:
    def test_passes_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--trials", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines and all(ln.startswith("PASS") for ln in lines)

    def test_gain_fault_fails_with_reported_deviation(self, capsys):
        code, out, _ = run_cli(
            capsys, "selftest", "--trials", "10", "--gain-error", "0.05"
        )
        assert code == 1
        failing = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert any("circuit-codec-equivalence" in ln and "worst=" in ln for ln in failing)
