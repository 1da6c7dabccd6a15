import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import berrydd
from berrydd import cli

GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "theta_sweep.csv"


def run_cli(args):
    return cli.main([str(a) for a in args])


def grab_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = {
        "scheme": "cpmg",
        "theta_a": 5 * math.pi / 12,
        "beta": 0.001,
        "eta": 0.4,
        "kappa": 12.0,
        "realizations": 32,
        "master_seed": 99,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSingle:
    def test_runs_and_writes_outputs(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        assert run_cli(["single", "--config", tiny_config, "--out-dir", out]) == 0
        header, rows = grab_rows(out / "single_result.csv")
        assert len(rows) == 1
        row = rows[0]
        assert row["scheme"] == "cpmg"
        assert int(row["realizations"]) == 32
        assert 0.0 <= float(row["W"]) <= 1.1
        man = json.loads((out / "single_manifest.json").read_text())
        assert man["config"]["master_seed"] == 99

    def test_canonical_columns_present(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        run_cli(["single", "--config", tiny_config, "--out-dir", out])
        header, _ = grab_rows(out / "single_result.csv")
        required = ["scheme", "theta_a", "theta_c", "beta", "eta", "kappa",
                    "realizations", "seed", "gamma_mean", "gamma_theory",
                    "gamma_stderr", "W", "W_theory", "W_stderr", "chi_theory",
                    "lambda_theory"]
        assert header[:16] == required

    def test_header_names_units_and_formulas(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        run_cli(["single", "--config", tiny_config, "--out-dir", out])
        text = (out / "single_result.csv").read_text()
        assert "# units: angles in rad" in text
        assert "exp(-chi_theory)" in text
        assert "eta/(2*beta)" in text  # formula provenance for the theory columns

    def test_missing_field_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scheme": "cpmg", "beta": 0.001, "eta": 0.4}))
        code = run_cli(["single", "--config", path, "--out-dir", tmp_path / "o"])
        assert code == 2
        assert "theta_a" in capsys.readouterr().err

    def test_unknown_field_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "scheme": "cpmg", "theta_a": 1.0, "beta": 0.001, "eta": 0.4,
            "bogus": 3}))
        assert run_cli(["single", "--config", path, "--out-dir", tmp_path / "o"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_low_kappa_warns(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scheme": "cpmg", "theta_a": 1.0, "beta": 0.001, "eta": 0.01,
            "kappa": 4.0, "realizations": 8, "dt_divisor": 10}))
        with pytest.warns(UserWarning):
            code = run_cli(["single", "--config", path, "--out-dir", tmp_path / "o"])
        assert code == 0
        assert "adiabatic" in capsys.readouterr().err

    def test_transverse_mirror_warns(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scheme": "mirror", "theta_a": 1.0, "beta": 0.001, "eta": 0.01,
            "noise_axis": "transverse", "realizations": 8}))
        assert run_cli(["single", "--config", path, "--out-dir", tmp_path / "o"]) == 0
        assert "does not suppress transverse" in capsys.readouterr().err

    def test_requires_config_or_manifest(self, capsys):
        assert run_cli(["single"]) == 2

    def test_zero_noise_phase_equals_reference(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scheme": "se", "theta_a": 1.0, "beta": 0.001, "eta": 0.0,
            "realizations": 8}))
        out = tmp_path / "o"
        run_cli(["single", "--config", path, "--out-dir", out])
        _, rows = grab_rows(out / "single_result.csv")
        assert float(rows[0]["gamma_mean"]) == pytest.approx(
            float(rows[0]["gamma_ref"]), abs=1e-12)
        assert float(rows[0]["W_stderr"]) < 1e-12


class TestManifestRoundTrip:
    def test_rerun_reproduces_csv_bytes(self, tmp_path, tiny_config):
        out1 = tmp_path / "a"
        run_cli(["single", "--config", tiny_config, "--out-dir", out1])
        out2 = tmp_path / "b"
        code = run_cli(["single", "--manifest", out1 / "single_manifest.json",
                        "--out-dir", out2])
        assert code == 0
        assert (out1 / "single_result.csv").read_bytes() == \
            (out2 / "single_result.csv").read_bytes()


class TestBadInput:
    # bad input ends in an "error:" line naming the flag, field or key, not a traceback
    MANIFEST = {"tool_version": berrydd.__version__, "created_utc": "", "command": "single",
                "config": {"scheme": "cpmg", "theta_a": 1.0, "beta": 0.001, "eta": 0.4,
                           "realizations": 8},
                "outputs": [], "notes": []}

    @staticmethod
    def error_text(args, capsys):
        try:
            code = run_cli(args)
        except SystemExit as exc:  # argparse rejects a flag's value
            code = exc.code
        assert code != 0
        err = capsys.readouterr().err
        assert "error:" in err
        return err

    @pytest.mark.parametrize("command, flag", [
        ("theta-sweep", "--theta-points"), ("beta-sweep", "--beta-points"),
        ("beta-sweep", "--beta-min"), ("beta-sweep", "--beta-max"),
        ("filters", "--z-points"), ("filters", "--chi-beta-points"),
        ("filters", "--chi-beta-min"), ("filters", "--chi-beta-max"),
    ])
    def test_empty_grid_is_rejected_by_flag(self, tmp_path, capsys, command, flag):
        # a count of 0 or a geometric grid's end at 0
        out = tmp_path / "o"
        assert flag in self.error_text([command, flag, 0, "--out-dir", out], capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("theta-sweep", "--theta-grid", ","), ("beta-sweep", "--beta-grid", ","),
        ("beta-sweep", "--beta-max", "inf"), ("filters", "--chi-beta-max", "nan"),
        ("beta-sweep", "--beta-grid", "inf"), ("beta-sweep", "--beta-grid", "0.01,nan"),
        # the filter table's z grid starts at 1e-6
        ("filters", "--z-max", "-1"), ("filters", "--z-max", "0"), ("filters", "--z-max", "inf"),
    ])
    def test_bad_grid_value_is_rejected_by_flag(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "o"
        assert flag in self.error_text([command, f"{flag}={value}", "--out-dir", out], capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("single", "--beta", "nan"), ("single", "--eta", "inf"), ("single", "--kappa", "nan"),
        ("theta-sweep", "--beta", "inf"), ("theta-sweep", "--eta", "nan"),
    ])
    def test_non_finite_parameter_is_rejected_by_name(self, tmp_path, capsys, command, flag,
                                                      value):
        # "nan <= 0" is false: without its own check a NaN ran and wrote NaN rows
        out = tmp_path / "o"
        extra = ["--scheme", "cpmg", "--theta", 1.0, "--beta", 0.001, "--eta", 0.4,
                 "--realizations", 8] if command == "single" else []
        err = self.error_text([command, *extra, f"{flag}={value}", "--out-dir", out], capsys)
        assert f"{flag[2:]} must be finite" in err
        assert not out.exists()

    def test_config_that_is_not_an_object_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        err = self.error_text(["single", "--config", path, "--out-dir", tmp_path / "o"],
                              capsys)
        assert "config" in err and "list" in err

    @pytest.mark.parametrize("extra, missing", [({"bogus": 1}, None), ({}, "notes")])
    def test_manifest_key_is_rejected_by_name(self, tmp_path, capsys, extra, missing):
        man = {k: v for k, v in {**self.MANIFEST, **extra}.items() if k != missing}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(man))
        err = self.error_text(["single", "--manifest", path, "--out-dir", tmp_path / "o"],
                              capsys)
        assert f"'{missing or 'bogus'}'" in err

    def test_sweep_manifest_is_not_rerun_as_single(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**self.MANIFEST, "command": "theta-sweep"}))
        out = tmp_path / "o"
        assert "'theta-sweep'" in self.error_text(
            ["single", "--manifest", path, "--out-dir", out], capsys)
        assert not out.exists()


class TestNoScipy:
    def test_runs_load_no_scipy(self, tmp_path):
        # a fresh interpreter, so that no other test's import counts: the
        # import and the run paths of single and theta-sweep need numpy only
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "from berrydd import cli\n"
            f"out = {str(tmp_path)!r}\n"
            "assert cli.main(['single', '--scheme', 'cpmg_balanced', '--theta', '1.0', "
            "'--beta', '0.001', '--eta', '0.4', '--realizations', '8', '--out-dir', out]) == 0\n"
            "assert cli.main(['theta-sweep', '--theta-points', '1', '--realizations', '8', "
            "'--out-dir', out]) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "theta_sweep_results.csv").exists()


class TestVersion:
    def test_pyproject_and_package_agree(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert f'version = "{berrydd.__version__}"' in pyproject.read_text()

    def test_rerun_of_other_version_warns(self, tmp_path, tiny_config, capsys):
        out1 = tmp_path / "a"
        assert run_cli(["single", "--config", tiny_config, "--out-dir", out1]) == 0
        manifest = out1 / "single_manifest.json"
        man = json.loads(manifest.read_text())
        assert man["tool_version"] == berrydd.__version__
        man["tool_version"] = "0.1.0"
        manifest.write_text(json.dumps(man))
        capsys.readouterr()
        out2 = tmp_path / "b"
        assert run_cli(["single", "--manifest", manifest, "--out-dir", out2]) == 0
        assert "written by berrydd 0.1.0" in capsys.readouterr().err
        text = (out2 / "single_result.csv").read_text()
        assert "# manifest written by berrydd 0.1.0" in text
        # the rows themselves are those of the first run
        assert grab_rows(out2 / "single_result.csv") == grab_rows(out1 / "single_result.csv")


class TestAdaptiveCsv:
    def test_header_states_stop_rule_and_keeps_columns(self, tmp_path, tiny_config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scheme": "mirror", "theta_a": 5 * math.pi / 12, "beta": 0.001, "eta": 0.4,
            "realizations": 400, "adaptive": True}))
        assert run_cli(["single", "--config", path, "--out-dir", tmp_path / "a"]) == 0
        assert run_cli(["single", "--config", tiny_config, "--out-dir", tmp_path / "p"]) == 0
        adaptive = (tmp_path / "a" / "single_result.csv").read_text()
        plain = (tmp_path / "p" / "single_result.csv").read_text()
        assert "# adaptive stop:" in adaptive
        assert "adaptive stop" not in plain
        header, rows = grab_rows(tmp_path / "a" / "single_result.csv")
        assert header == grab_rows(tmp_path / "p" / "single_result.csv")[0]
        assert int(rows[0]["realizations"]) == 128


class TestConfigTypes:
    BASE = {"scheme": "cpmg", "theta_a": 1.0, "beta": 0.001, "eta": 0.4}

    @pytest.mark.parametrize("name, value", [
        ("adaptive", "false"), ("adaptive", 0), ("kappa", True), ("kappa", "12"),
        ("realizations", True), ("realizations", "400"), ("realizations", 40.5),
        ("scheme", 3), ("noise_axis", False),
    ])
    def test_other_json_type_is_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"'{name}'"):
            cli.config_from_dict({**self.BASE, name: value})

    def test_numbers_stand_for_ints_and_floats(self):
        cfg = cli.config_from_dict({**self.BASE, "kappa": 12, "realizations": 400.0,
                                    "adaptive": False})
        assert type(cfg.kappa) is float and cfg.kappa == 12.0
        assert type(cfg.realizations) is int and cfg.realizations == 400
        assert cfg.adaptive is False


class TestFidWindings:
    # the free loop always winds twice; manifests written while that was a
    # config field record "fid_windings": 2
    CONFIG = {"scheme": "fid", "theta_a": 1.0, "beta": 0.001, "eta": 0.4,
              "realizations": 16, "master_seed": 7}

    def test_old_manifest_reruns_byte_identically(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.CONFIG))
        out1 = tmp_path / "a"
        assert run_cli(["single", "--config", path, "--out-dir", out1]) == 0
        manifest = out1 / "single_manifest.json"
        man = json.loads(manifest.read_text())
        assert "fid_windings" not in man["config"]
        man["config"]["fid_windings"] = 2
        manifest.write_text(json.dumps(man))
        out2 = tmp_path / "b"
        assert run_cli(["single", "--manifest", manifest, "--out-dir", out2]) == 0
        assert (out1 / "single_result.csv").read_bytes() == \
            (out2 / "single_result.csv").read_bytes()

    def test_other_winding_count_is_rejected_by_name(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="fid_windings"):
            cli.config_from_dict({**self.CONFIG, "fid_windings": 3})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.CONFIG, "fid_windings": 3}))
        assert run_cli(["single", "--config", path, "--out-dir", tmp_path / "o"]) == 2
        assert "fid_windings" in capsys.readouterr().err


class TestThetaSweep:
    def test_default_sweep_matches_golden_rows(self, tmp_path):
        # the benchmark's golden results at seed 2024, header comments aside
        out = tmp_path / "o"
        assert run_cli(["theta-sweep", "--seed", 2024, "--workers", 1, "--out-dir", out]) == 0

        def rows(path):
            return [ln for ln in path.read_bytes().split(b"\n") if not ln.startswith(b"#")]

        assert rows(out / "theta_sweep_results.csv") == rows(GOLDEN)

    def test_small_sweep(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli([
            "theta-sweep", "--theta-grid", "0.6,1.2", "--realizations", 16,
            "--seed", 5, "--out-dir", out,
        ])
        assert code == 0
        header, rows = grab_rows(out / "theta_sweep_results.csv")
        assert len(rows) == 8  # 2 angles x 4 schemes
        schemes = {r["scheme"] for r in rows}
        assert schemes == {"fid", "cpmg", "cpmg_balanced", "mirror"}
        # view files: one row per angle
        _, phase_rows = grab_rows(out / "theta_sweep_phase.csv")
        _, w_rows = grab_rows(out / "theta_sweep_coherence.csv")
        assert len(phase_rows) == 2 and len(w_rows) == 2
        assert (out / "theta_sweep_manifest.json").exists()

    def test_loop_phase_view_is_fid_theory(self, tmp_path):
        # the phase view's loop column is the fid rows' gamma_theory, string for string
        out = tmp_path / "o"
        assert run_cli(["theta-sweep", "--realizations", 2, "--out-dir", out]) == 0
        _, rows = grab_rows(out / "theta_sweep_results.csv")
        _, phase_rows = grab_rows(out / "theta_sweep_phase.csv")
        fid = [(r["theta_a"], r["gamma_theory"]) for r in rows if r["scheme"] == "fid"]
        assert len(fid) == 13
        assert [(r["theta_a"], r["gamma_theory_loop"]) for r in phase_rows] == fid

    def test_longitudinal_sweep_notes_only_its_grid(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(["theta-sweep", "--theta-grid", "0.9", "--realizations", 2,
                        "--out-dir", out]) == 0
        assert "warning" not in capsys.readouterr().err
        man = json.loads((out / "theta_sweep_manifest.json").read_text())
        assert man["notes"] == ["theta_grid=[0.9]"]

    def test_transverse_sweep_carries_the_mirror_warning(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli(["theta-sweep", "--theta-grid", "0.9", "--realizations", 2,
                        "--noise-axis", "transverse", "--out-dir", out]) == 0
        assert "does not suppress transverse" in capsys.readouterr().err
        man = json.loads((out / "theta_sweep_manifest.json").read_text())
        assert len(man["notes"]) == 2
        assert "does not suppress transverse" in man["notes"][0]
        header = (out / "theta_sweep_results.csv").read_text()
        assert f"# {man['notes'][0]}\n" in header

    @pytest.mark.parametrize("command, grid", [("theta-sweep", "--theta-grid"),
                                               ("beta-sweep", "--beta-grid")])
    def test_low_kappa_sweep_notes_it_once(self, tmp_path, capsys, command, grid):
        out = tmp_path / "o"
        with pytest.warns(UserWarning):
            assert run_cli([command, grid, "0.9", "--realizations", 2, "--kappa", 4,
                            "--out-dir", out]) == 0
        assert capsys.readouterr().err.count("barely adiabatic") == 1
        prefix = command.split("-")[0]
        man = json.loads((out / f"{prefix}_sweep_manifest.json").read_text())
        notes = [n for n in man["notes"] if "barely adiabatic" in n]
        assert len(notes) == 1
        header = (out / f"{prefix}_sweep_results.csv").read_text()
        assert header.count("barely adiabatic") == 1
        assert f"# {notes[0]}\n" in header

    def test_seeded_rerun_bit_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(["theta-sweep", "--theta-grid", "0.9", "--realizations", 16,
                     "--seed", 3, "--out-dir", out])
            outs.append((out / "theta_sweep_results.csv").read_bytes())
        assert outs[0] == outs[1]


class TestBetaSweep:
    def test_endpoints_exact(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli([
            "beta-sweep", "--beta-points", 2, "--realizations", 8,
            "--out-dir", out,
        ])
        assert code == 0
        _, rows = grab_rows(out / "beta_sweep_results.csv")
        betas = sorted({float(r["beta"]) for r in rows})
        assert betas == [0.005, 5.0]
        # eta rule recorded and applied
        for r in rows:
            assert float(r["eta"]) == pytest.approx(400.0 * float(r["beta"]))
        assert "eta = 400.0*beta" in (out / "beta_sweep_results.csv").read_text()


class TestFilters:
    def test_tables(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["filters", "--z-points", 200, "--out-dir", out]) == 0
        header, rows = grab_rows(out / "filter_functions.csv")
        assert header == ["z", "fid", "se", "cpmg2"]
        z = np.array([float(r["z"]) for r in rows])
        cols = {s: np.array([float(r[s]) for r in rows]) for s in ("fid", "se", "cpmg2")}
        # peak of F/z^2 moves to higher z with more switching
        peaks = [z[np.argmax(cols[s])] for s in ("fid", "se", "cpmg2")]
        assert peaks[0] < peaks[1] < peaks[2]
        # z -> 0 limits: {1/2, 0, 0}
        assert cols["fid"][0] == pytest.approx(0.5, rel=1e-6)
        assert cols["se"][0] < 1e-8
        assert cols["cpmg2"][0] < 1e-8

    def test_chi_table_lowfreq_factors(self, tmp_path):
        out = tmp_path / "o"
        run_cli(["filters", "--chi-beta-min", 1e-4, "--chi-beta-max", 1.0,
                 "--out-dir", out])
        _, rows = grab_rows(out / "chi_vs_beta.csv")
        first = rows[0]  # beta = 1e-4: normalized chi matches the limits
        assert float(first["fid"]) == pytest.approx(float(first["fid_lowfreq"]), rel=1e-3)
        assert float(first["se"]) == pytest.approx(float(first["se_lowfreq"]), rel=1e-3)
        assert float(first["cpmg2"]) == pytest.approx(
            float(first["cpmg2_lowfreq"]), rel=1e-3)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
