"""CLI contract: subcommands, exit codes, report schemas, reproducibility."""

import csv
import io
import json

import numpy as np
import pytest

from qtc.cli import (
    CSV_COLUMNS,
    SWEEP_COLUMNS,
    config_from_report,
    load_report,
    main,
)
from qtc import cli, protocol
from qtc.protocol import run_exact


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestSimulate:
    def test_maximal_qubit_reaches_optimum(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--d", "2", "--m-copies", "2",
            "--channel", "maximal", "--strategy", "none", "--input", "1,0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["average_fidelity"] == pytest.approx(5 / 6, abs=1e-10)
        for b in doc["results"]["branches"]:
            assert b["clone_fidelities"][0] == pytest.approx(5 / 6, abs=1e-10)
        assert doc["results"]["discrepancies"] == 0
        assert doc["version"]
        assert doc["run_id"]

    def test_usd_success_probability_column(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--d", "3", "--channel", "c=[0.8,0.5,0.33]",
            "--strategy", "usd", "--format", "csv",
        )
        assert code == 0
        assert "renormaliz" in err
        rows = parse_csv(out)
        assert rows[0] == CSV_COLUMNS
        c = np.array([0.8, 0.5, 0.33])
        c = c / np.linalg.norm(c)
        by_name = {r[10]: r for r in rows[1:] if r[10]}
        row = by_name["usd_success_probability"]
        assert float(row[11]) == pytest.approx(3 * c.min() ** 2, abs=1e-10)
        assert row[7] == "MATCH"

    def test_min_error_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--d", "2", "--channel", "c=[0.8944,0.4472]",
            "--strategy", "minerror", "--input", "0.6,0.8",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["results"]["discrepancies"] >= 1
        names = {c["name"]: c["status"] for c in doc["results"]["comparisons"]}
        assert names["min_error_fidelity_avg[printed]"] == "DISCREPANCY"
        assert names["min_error_scaled_identity"] == "MATCH"

    def test_separation_maximal_flags_orthogonal_value(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--d", "2", "--channel", "c=[0.894427191,0.4472135955]",
            "--strategy", "sep:maximal", "--input", "0.6,0.8",
        )
        assert code == 2  # the printed orthogonal-case value is flagged by design
        doc = json.loads(out)
        names = {c["name"]: c for c in doc["results"]["comparisons"]}
        assert names["separation_success[constructed]"]["status"] == "MATCH"
        assert names["separation_success[printed]"]["status"] == "MATCH"
        assert names["separation_success[printed-orthogonal]"]["status"] == "DISCREPANCY"

    def test_near_maximal_target_is_not_maximal(self, capsys):
        # coefficients 2e-5 from 1/sqrt(2) once passed the relative tolerance
        # of np.allclose and drew the maximal-target rows
        code, out, err = run_cli(
            capsys, "simulate", "--d", "2", "--m-copies", "2",
            "--channel", "c=[0.7070894877186531,0.7071240742315119]",
            "--strategy", "sep:c=[0.7071046473382793,0.7071089150283765]", "--input", "0.6,0.8",
        )
        assert code == 0
        names = [c["name"] for c in json.loads(out)["results"]["comparisons"]]
        assert "separation_success[printed-orthogonal]" not in names
        assert "optimal_fidelity" not in names
        assert "maximal" not in out

    def test_csv_branch_rows(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--d", "2", "--channel", "maximal", "--format", "csv",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == CSV_COLUMNS
        branch_rows = [r for r in rows[1:] if r[5] != ""]
        assert len(branch_rows) == 4
        for r in branch_rows:
            assert float(r[9]) == pytest.approx(5 / 6, abs=1e-10)

    def test_default_input_is_basis_state(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--d", "3", "--channel", "maximal")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["input"] == "1,0,0"

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "simulate", "--d", "2", "--channel", "maximal", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["results"]["average_fidelity"] == pytest.approx(5 / 6, abs=1e-10)


class TestRoundTrip:
    def test_json_report_rebuilds_config(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        argv = [
            "simulate", "--d", "2", "--channel", "c=[0.894427191,0.4472135955]",
            "--strategy", "none", "--input", "0.6,0.8", "--out", str(path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        doc = load_report(str(path))
        config = config_from_report(doc)
        rerun = run_exact(config)
        assert rerun.average_fidelity == pytest.approx(
            doc["results"]["average_fidelity"], abs=1e-12
        )
        assert config.d == doc["config"]["d"]
        assert config.flow == doc["config"]["flow"]

    RERUN_ARGV = (
        "simulate", "--d", "2", "--channel", "c=[0.894427191,0.4472135955]",
        "--strategy", "usd", "--input", "0.6,0.8",
    )

    def test_reruns_are_byte_identical(self, capsys):
        # main reuses one parser across calls; a fresh one must give the same bytes
        cli._shared_parser.cache_clear()
        first = run_cli(capsys, *self.RERUN_ARGV)
        second = run_cli(capsys, *self.RERUN_ARGV)
        assert first == second
        assert first[1] and first[0] == 0
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize(
        "between",
        [("simulate", "--d", "x"), ("haar", "--help"), ("--version",), ("sweep", "--d", "abc")],
        ids=["after-usage-error", "after-help", "after-version", "after-command-error"],
    )
    def test_reruns_are_byte_identical_after(self, capsys, between):
        # a call that exits early must leave nothing behind in the shared parser
        cli._shared_parser.cache_clear()
        first = run_cli(capsys, *self.RERUN_ARGV)
        main(list(between))
        capsys.readouterr()
        second = run_cli(capsys, *self.RERUN_ARGV)
        assert first == second
        assert first[1] and first[0] == 0
        again = (main(list(between)), *capsys.readouterr())
        cli._shared_parser.cache_clear()
        assert (main(list(between)), *capsys.readouterr()) == again


class TestSweep:
    def test_threshold_crossing_at_quarter(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--d", "2", "--channel", "cmin2=[0.05..0.5:10]",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == SWEEP_COLUMNS
        assert len(rows) == 11
        for r in rows[1:]:
            q = float(r[5])
            f_av, f_est = float(r[7]), float(r[8])
            above = r[10] == "True"
            assert above == (q >= 0.25)
            if abs(q - 0.25) < 1e-12:
                assert f_av == pytest.approx(f_est, abs=1e-12)
            elif q > 0.25:
                assert f_av > f_est
            else:
                assert f_av < f_est

    def test_maximal_grid_reaches_optimum(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--d", "2..6", "--channel", "maximal")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 6
        for r in rows[1:]:
            assert float(r[6]) == pytest.approx(1.0, abs=1e-12)  # p_success
            assert float(r[7]) == pytest.approx(float(r[9]), abs=1e-12)  # f_av = f_opt

    def test_json_format(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--d", "2", "--channel", "cmin2=[0.1,0.25]",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [r["cmin2"] for r in doc["rows"]] == [0.1, 0.25]
        assert [r["above_threshold"] for r in doc["rows"]] == [False, True]

    def test_json_is_strict(self, capsys):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        code, out, err = run_cli(
            capsys, "sweep", "--d", "2..4", "--m-copies", "3", "--channel", "cmin2=[0.01..0.2:4]",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out, parse_constant=reject)
        assert len(doc["rows"]) == 12
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_empty_grid_errors(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--d", "2", "--channel", "cmin2=[]")
        assert code == 1
        assert "error" in err

    def test_rejects_other_strategies(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--d", "2", "--channel", "maximal", "--strategy", "maxconf",
        )
        assert code == 1
        assert "--strategy" in err

    def test_cmin2_out_of_range(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--d", "2", "--channel", "cmin2=[0.9]")
        assert code == 1
        assert "--channel" in err

    def test_three_copies_use_the_m_copy_forms(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--d", "2", "--m-copies", "3", "--channel", "cmin2=[0.27]",
            "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        # 0.54 * F_opt(2, 3) + 0.46 / 2, and the threshold is M/(d(M+d)) = 0.3
        assert row["f_av"] == pytest.approx(0.65, abs=1e-12)
        assert row["f_av"] < row["f_est"]
        assert row["above_threshold"] is False


class TestHaar:
    ARGS = [
        "haar", "--d", "2", "--channel", "c=[0.948683298,0.316227766]",
        "--strategy", "usd", "--input", "haar:42:500",
    ]

    def test_bands_and_exit(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS)
        assert code == 0
        doc = json.loads(out)
        bands = doc["results"]["bands"]
        classes = {b["class"]: b for b in bands}
        assert set(classes) == {"all", "success", "fail"}
        assert all(b["within_3sigma"] for b in bands)
        assert classes["fail"]["target"] == pytest.approx(0.5, abs=1e-12)
        assert abs(classes["fail"]["mean"] - 0.5) <= 3 * classes["fail"]["stderr"]

    def test_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_maximal_channel_zero_variance(self, capsys):
        code, out, err = run_cli(
            capsys, "haar", "--d", "2", "--channel", "maximal", "--input", "haar:1:50",
        )
        assert code == 0
        doc = json.loads(out)
        haar = doc["results"]["haar"]
        assert haar["overall_mean"] == pytest.approx(5 / 6, abs=1e-10)
        assert haar["overall_stderr"] < 1e-12
        band = doc["results"]["bands"][0]
        assert band["within_3sigma"]

    def test_csv_has_band_rows(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS[:-1], "haar:42:80", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == CSV_COLUMNS
        targets = [r for r in rows[1:] if r[10] == "haar_target"]
        assert {r[7] for r in targets} == {"all", "success", "fail"}

    def test_csv_band_cells_are_numbers(self, capsys):
        code, out, err = run_cli(
            capsys, "haar", "--d", "2", "--channel", "maximal", "--input", "haar:8:30", "--format", "csv",
        )
        assert code == 0
        bands = [r for r in parse_csv(out)[1:] if r[10] == "haar_target"]
        assert bands
        for row in bands:
            for cell in (row[9], row[11], row[12]):
                float(cell)

    @pytest.mark.parametrize(
        "channel,strategy",
        [
            ("c=[0.9,0.43588989435]", "none"),
            ("c=[0.9,0.43588989435]", "usd"),
            ("c=[0.9,0.43588989435]", "minerror"),
            ("c=[0.9,0.43588989435]", "sep:maximal"),
            ("c=[0.70710678118654757,0.70710678118654757,0]", "maxconf"),
        ],
    )
    def test_json_is_strict(self, capsys, channel, strategy):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        d = str(channel.count(",") + 1)
        code, out, err = run_cli(
            capsys, "haar", "--d", d, "--channel", channel, "--strategy", strategy, "--input", "haar:7:40",
        )
        assert code in (0, 2)
        doc = json.loads(out, parse_constant=reject)
        for flag, cond in doc["results"]["conditional_averages"].items():
            mass = sum(b["probability"] for b in doc["results"]["branches"] if b["flag"] == flag)
            assert cond["probability"] == pytest.approx(mass, abs=1e-15)

    def test_requires_haar_input(self, capsys):
        code, out, err = run_cli(
            capsys, "haar", "--d", "2", "--channel", "maximal", "--input", "1,0",
        )
        assert code == 1
        assert "haar:SEED:SAMPLES" in err


class TestErrors:
    def test_bad_dimension(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--d", "1", "--channel", "maximal")
        assert code == 1
        assert "--d" in err

    def test_wrong_amplitude_count(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--d", "2", "--channel", "maximal", "--input", "1,0,0",
        )
        assert code == 1
        assert "--input" in err

    def test_unknown_strategy(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--d", "2", "--channel", "maximal", "--strategy", "guess",
        )
        assert code == 1
        assert "--strategy" in err

    def test_unknown_channel(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--d", "2", "--channel", "bogus",
        )
        assert code == 1
        assert "--channel" in err

    def test_haar_input_on_simulate(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--d", "2", "--channel", "maximal", "--input", "haar:1:10",
        )
        assert code == 1
        assert "haar" in err

    def test_usd_needs_full_rank(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--d", "3", "--channel", "c=[0.8,0.6,0]",
            "--strategy", "usd",
        )
        assert code == 1
        assert "error" in err

    def test_separation_target_dimension(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--d", "3", "--channel", "maximal", "--strategy", "sep:0.6,0.8",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "separation target" in err

    def test_unknown_subcommand_exits_one(self, capsys):
        # a usage error exits 1, not argparse's 2: exit 2 means DISCREPANCY
        assert main(["teleport"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (("simulate", "--seed", "3"), "--seed"),
            (("simulate", "--d", "x"), "--d"),
            (("haar", "--frobnicate"), "--frobnicate"),
            (("haar", "--input", "haar:-3:10"), "--input: haar seed"),
            (("haar", "--input", "haar:1:0"), "--input: haar sample count"),
            (("sweep", "--d", "2", "--channel", "c=[0.6,0.8]", "--m-copies", "0"), "--m-copies"),
            (("sweep", "--d", "abc"), "--d"),
            (("sweep", "--d", "2..x"), "--d"),
            (("sweep", "--channel", "cmin2=[a]"), "--channel"),
            (("sweep", "--channel", "cmin2=[0.1..0.2:-3]"), "--channel"),
            (("sweep", "--d", "2", "--channel", "c=[0.6,nan]"), "--channel"),
            (("simulate", "--input", "1,nan"), "--input"),
            (("simulate", "--input", "inf,0"), "--input"),
            (("simulate", "--input", "1e308,1e308"), "--input"),
            (("simulate", "--channel", "c=[1,nan]"), "--channel"),
            (("simulate", "--channel", "c=[1e308,1e308]"), "--channel"),
            (("simulate", "--tol", "nan"), "--tol"),
            (("simulate", "--tol", "-1"), "--tol"),
        ],
        ids=[
            "removed-seed", "bad-int", "unknown-flag", "negative-haar-seed", "no-haar-samples",
            "sweep-no-clones", "sweep-bad-d", "sweep-bad-d-range", "sweep-bad-cmin2",
            "sweep-negative-cmin2-steps", "sweep-nan-channel", "nan-input", "inf-input",
            "overflowing-input", "nan-channel", "overflowing-channel", "nan-tol", "negative-tol",
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv, needle):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_unwritable_out(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--d", "2", "--channel", "maximal",
            "--out", str(tmp_path / "missing" / "report.json"),
        )
        assert code == 1
        assert "--out" in err

    @pytest.mark.parametrize("command,extra", [("simulate", ()), ("haar", ("--input", "haar:1:10"))])
    def test_memory_budget_exits_one(self, capsys, monkeypatch, command, extra):
        monkeypatch.setenv("QTC_MEM_BUDGET", "100")
        code, out, err = run_cli(capsys, command, "--d", "3", "--m-copies", "3", *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "QTC_MEM_BUDGET" in err

    def test_haar_sample_budget_draws_nothing(self, capsys, monkeypatch):
        # the compiled maps of d=2 usd fit in 1000 amplitudes; 8 branches x 200 samples do not
        def no_draws(spec, d):
            raise AssertionError("samples drawn")

        monkeypatch.setattr(protocol, "_haar_inputs", no_draws)
        monkeypatch.setenv("QTC_MEM_BUDGET", "1000")
        code, out, err = run_cli(
            capsys, "haar", "--d", "2", "--strategy", "usd", "--input", "haar:1:200",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "1600 amplitudes" in err and "QTC_MEM_BUDGET" in err

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("qtc ")

    def test_help_flag(self, capsys):
        assert main(["simulate", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: qtc simulate")
