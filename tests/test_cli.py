import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from singlewell.cli import EXIT_INVARIANT, EXIT_IO, EXIT_NUMERIC, EXIT_OK, _classify, main
from singlewell.config import (
    Config,
    OutputConfig,
    ProtocolConfig,
    SweepConfig,
    SystemConfig,
    emit_config,
    parse_config,
)
from singlewell.errors import InvariantError, NumericsError
from singlewell.sweeps import SweepPointError


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestConfigRoundTrip:
    def test_default_config(self):
        cfg = Config()
        assert parse_config(emit_config(cfg)) == cfg

    def test_custom_config(self):
        # the swept axis (t) stays at its default; fixing it too would be invalid
        cfg = Config(
            system=SystemConfig(n_particles=20, g=80.0, delta_eps=10.0),
            protocol=ProtocolConfig(theta=0.3, state_kind="coherent"),
            sweep=SweepConfig(target="protocol_qfi", axis="t", axis_min=0.1, axis_max=5.0, steps=7),
            output=OutputConfig(csv="out.csv", svg="out.svg"),
        )
        assert parse_config(emit_config(cfg)) == cfg

    def test_force_dipole_form(self):
        cfg = Config(system=SystemConfig(chi=2.0, kappa=0.25))
        again = parse_config(emit_config(cfg))
        assert again == cfg
        assert again.system.resolve_lambda() == 1.0

    def test_chi_defaults_to_harmonic_dipole(self):
        assert SystemConfig(chi=1.0).resolve_lambda() == pytest.approx(2.0 ** 0.5)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("system:\n  coupling: 3\n")
        with pytest.raises(ValueError, match="unknown config table"):
            parse_config("systems:\n  g: 3\n")

    def test_swept_axis_must_not_be_fixed(self):
        text = "system:\n  g: 10\nsweep:\n  axis: g\n"
        with pytest.raises(ValueError, match="must not also be fixed"):
            parse_config(text)


class TestParamsCommand:
    def test_default_harmonic_values(self):
        code, out = run_cli("params")
        assert code == EXIT_OK
        assert "eta = 0.625" in out
        assert "xi = -0.6" in out
        assert "delta_a = 0.25" in out
        assert "kappa = 0.707106781187" in out

    def test_validity_report(self):
        code, out = run_cli("params", "--n-particles", "50", "--g", "200")
        assert code == EXIT_OK
        assert "gamma = 0.701764257171" in out
        assert "two_mode_ok = True" in out

    def test_invariant_violation_exits_one(self):
        code, _ = run_cli("params", "--eta", "0.5", "--xi", "2.0")
        assert code == EXIT_INVARIANT
        for flag in ("--g", "--t", "--lambda", "--eta", "--chi"):
            for bad in ("nan", "inf", "-inf"):
                code, _ = run_cli("params", f"{flag}={bad}")
                assert code == EXIT_INVARIANT, (flag, bad)


class TestValidateCommand:
    def test_valid_config_passes(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("system:\n  n_particles: 50\n  g: 200.0\n", encoding="utf-8")
        code, out = run_cli("validate", "-c", str(cfg))
        assert code == EXIT_OK
        assert "OK" in out

    def test_sign_constraint_violation_named(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("system:\n  eta: 0.5\n  xi: 2.0\n", encoding="utf-8")
        code, out = run_cli("validate", "-c", str(cfg))
        assert code == EXIT_INVARIANT
        assert "opposite signs" in out
        for flag in ("--t", "--g", "--delta-eps"):
            code, out = run_cli("validate", flag, "nan")
            assert code == EXIT_INVARIANT
            assert "FAIL" in out and "non-finite" in out
        cfg.write_text("system:\n  t: .nan\n", encoding="utf-8")
        code, out = run_cli("validate", "-c", str(cfg))
        assert code == EXIT_INVARIANT
        assert "non-finite t" in out

    @pytest.mark.parametrize("table, key", [
        ("system", "g"), ("sweep", "steps"), ("sweep", "min"), ("protocol", "theta"),
    ])
    def test_non_numeric_yaml_value_named(self, tmp_path, capsys, table, key):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"{table}:\n  {key}: abc\n", encoding="utf-8")
        for command in ("validate", "sweep"):
            code, _ = run_cli(command, "-c", str(cfg))
            err = capsys.readouterr().err
            assert code == EXIT_INVARIANT, command
            assert f"[{table}] {key}" in err and "Traceback" not in err


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["singlewell", "singlewell.cli"])
    def test_python_m_runs_the_cli(self, module):
        path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run([sys.executable, "-m", module, "validate", "--t", "nan"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_INVARIANT
        assert "non-finite t" in proc.stdout


class TestSweepCommand:
    def test_sweep_writes_deterministic_csv(self, tmp_path):
        args = (
            "sweep",
            "--n-particles", "10",
            "--delta-eps", "5",
            "--target", "cqfi_interacting",
            "--sweep-axis", "g",
            "--min", "0", "--max", "20", "--steps", "4",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, _ = run_cli(*args, "--csv", str(a))
        code2, _ = run_cli(*args, "--csv", str(b))
        assert code1 == code2 == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(
            "system:\n  n_particles: 8\nsweep:\n  target: cqfi_noninteracting\n"
            "  axis: delta_eps\n  min: 0.1\n  max: 10\n  steps: 3\n",
            encoding="utf-8",
        )
        out_csv = tmp_path / "o.csv"
        code, _ = run_cli("sweep", "-c", str(cfg), "--steps", "5", "--csv", str(out_csv))
        assert code == EXIT_OK
        rows = [ln for ln in out_csv.read_text().splitlines() if not ln.startswith("#")]
        assert len(rows) == 1 + 5

    def test_missing_config_file_is_io_error(self):
        code, _ = run_cli("sweep", "-c", "/nonexistent/run.yaml")
        assert code == EXIT_IO

    def test_bad_range_is_invariant_error(self):
        code, _ = run_cli("sweep", "--min", "5", "--max", "1")
        assert code == EXIT_INVARIANT
        small = ("sweep", "--n-particles", "4", "--steps", "2")
        for bad in (("--g", "nan"), ("--lambda", "nan"), ("--eta", "nan"), ("--max", "inf"),
                    ("--min", "nan"), ("--sweep-axis", "t", "--g", "inf")):
            code, _ = run_cli(*small, *bad)
            assert code == EXIT_INVARIANT, bad


class TestPlotCommand:
    def test_plot_from_csv(self, tmp_path):
        csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
        run_cli(
            "sweep", "--n-particles", "10", "--delta-eps", "5",
            "--sweep-axis", "g", "--min", "0", "--max", "20", "--steps", "3",
            "--csv", str(csv_path),
        )
        code, _ = run_cli("plot", "--csv", str(csv_path), "--svg", str(svg_path))
        assert code == EXIT_OK
        assert svg_path.read_text(encoding="utf-8").startswith("<svg")

    def test_log_scale_flag(self, tmp_path):
        csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
        run_cli(
            "sweep", "--n-particles", "10", "--delta-eps", "5",
            "--sweep-axis", "g", "--min", "0", "--max", "20", "--steps", "3",
            "--csv", str(csv_path),
        )
        code, _ = run_cli("plot", "--csv", str(csv_path), "--svg", str(svg_path), "--log-scale")
        assert code == EXIT_OK
        assert 'data-y-scale="log"' in svg_path.read_text(encoding="utf-8")

    def test_missing_csv_is_io_error(self):
        code, _ = run_cli("plot", "--csv", "/nonexistent/s.csv", "--svg", "/tmp/x.svg")
        assert code == EXIT_IO


class TestExitCodeClassification:
    def test_direct_mapping(self):
        assert _classify(InvariantError("x")) == EXIT_INVARIANT
        assert _classify(ValueError("x")) == EXIT_INVARIANT
        assert _classify(NumericsError("x")) == EXIT_NUMERIC
        assert _classify(OSError("x")) == EXIT_IO

    def test_cause_chain_is_walked(self):
        inner = NumericsError("diverged")
        outer = SweepPointError("point failed")
        outer.__cause__ = inner
        assert _classify(outer) == EXIT_NUMERIC

    def test_unknown_exception_not_swallowed(self):
        assert _classify(KeyError("x")) is None
