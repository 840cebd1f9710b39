import ctypes
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import hypothesis.strategies as st
import pytest
import yaml
from hypothesis import example, given, settings

from singlewell.cli import (
    EXIT_INVARIANT, EXIT_IO, EXIT_NUMERIC, EXIT_OK, MMAP_THRESHOLD, TRIM_THRESHOLD, _build_parser, _classify,
    _tables, main,
)
from singlewell.config import SCHEMA, build_run, load_config, parse_config
from singlewell.errors import NumericsError
from singlewell.modes import FIELD_KEYS, KEY_FIELDS, SystemParams
from singlewell.protocols import STATE_KINDS
from singlewell.sweeps import AXES, TARGETS, SweepPointError, SweepSpec, load_csv, run_sweep
from oracles import harmonic_params


# the environment of a fresh interpreter that imports this checkout's package
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestConfigRoundTrip:
    """YAML text in, the spec that `validate` checks and `sweep` runs out."""

    def test_default_config(self):
        # no file and an empty file both give SweepSpec's defaults, the harmonic point included
        assert load_config(None) == parse_config("") == {table: {} for table in SCHEMA}
        assert build_run(parse_config("")) == (SweepSpec(), None, None)
        assert SweepSpec().params == SystemParams() == harmonic_params()

    def test_custom_config(self, tmp_path):
        text = ("system: {n_particles: 6, g: 80.0, delta_eps: 10.0, lambda: 0.5}\n"
                "protocol: {theta: 0.3, state_kind: coherent}\n"
                "sweep: {target: protocol_qfi, axis: t, min: 0.1, max: 5.0, steps: 3, log_scale: true}\n"
                f"output: {{csv: {tmp_path / 'o.csv'}, svg: {tmp_path / 'o.svg'}}}\n")
        spec = SweepSpec(target="protocol_qfi", axis="t", axis_min=0.1, axis_max=5.0, steps=3,
                         params=SystemParams(n_particles=6, g=80.0, delta_eps=10.0, lambda_acc=0.5),
                         theta=0.3, state_kind="coherent", log_scale=True)
        assert build_run(parse_config(text)) == (spec, str(tmp_path / "o.csv"), str(tmp_path / "o.svg"))
        # and back out: the CSV echoes every fixed value under its YAML key
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text, encoding="utf-8")
        assert run_cli("sweep", "-c", str(cfg))[0] == EXIT_OK
        meta = load_csv(str(tmp_path / "o.csv")).metadata
        assert {key: meta[key] for key in ("n_particles", "g", "delta_eps", "lambda", "theta",
                                           "state_kind", "target", "axis", "steps", "log_scale")} == {
            "n_particles": 6, "g": 80.0, "delta_eps": 10.0, "lambda": 0.5, "theta": 0.3,
            "state_kind": "coherent", "target": "protocol_qfi", "axis": "t", "steps": 3,
            "log_scale": True}
        assert "t" not in meta

    def test_unknown_keys_rejected(self):
        for key in ("coupling", "chi", "kappa"):
            with pytest.raises(ValueError, match=f"unknown key '{key}' in \\[system\\]"):
                parse_config(f"system:\n  {key}: 3\n")
        with pytest.raises(ValueError, match="unknown key 'workers'"):
            parse_config("sweep:\n  workers: 2\n")
        with pytest.raises(ValueError, match="unknown config table"):
            parse_config("systems:\n  g: 3\n")

    def test_exponent_floats_without_a_dot(self, tmp_path, capsys):
        # YAML 1.2 reads 1e-3 as a float; YAML 1.1 would read the string '1e-3'
        assert parse_config("system: {t: 1e-3}\n")["system"]["t"] == 0.001
        cfg = tmp_path / "run.yaml"
        cfg.write_text("system: {t: 1e-3}\n", encoding="utf-8")
        code, out = run_cli("validate", "-c", str(cfg))
        assert code == EXIT_OK and "t = 0.001" in out
        cfg.write_text("system: {g: -2E+1}\n", encoding="utf-8")  # read as -20.0, not a string
        code, _ = run_cli("validate", "-c", str(cfg))
        assert code == EXIT_INVARIANT and "got -20.0" in capsys.readouterr().err
        assert parse_config("sweep: {steps: 1e2}\n")["sweep"]["steps"] == 100.0
        with pytest.raises(ValueError, match="integer of at least 2 steps, got 100.0"):
            build_run(parse_config("sweep: {steps: 1e2}\n"))
        tables = parse_config("system: {t: 1e-3, g: 2.5e-7}\n"
                              "sweep: {axis: delta_eps, min: 1e-9, max: 1e20}\n")
        assert tables["system"] == {"t": 0.001, "g": 2.5e-7}
        assert tables["sweep"] == {"axis": "delta_eps", "min": 1e-9, "max": 1e20}
        # YAML 1.2 floats with a leading dot, signed or with an exponent
        for text, value in (("-.5", -0.5), (".5e3", 500.0), ("+.5", 0.5), ("-.5e-3", -5e-4)):
            assert parse_config(f"system: {{lambda: {text}}}\n")["system"]["lambda"] == value
        cfg.write_text("system: {n_particles: 4, lambda: -.5}\n", encoding="utf-8")
        code, out = run_cli("params", "-c", str(cfg))
        assert code == EXIT_OK and "lambda = -0.5" in out

    def test_swept_axis_must_not_be_fixed(self):
        text = "system:\n  g: 10\nsweep:\n  axis: g\n"
        with pytest.raises(ValueError, match="must not also be fixed"):
            build_run(parse_config(text))


# A value for every config key, each unlike the default of the field it sets.
_KEY_VALUES = {
    "n_particles": 7, "g": 3.0, "delta_eps": 2.0, "delta_a": 0.5, "eta": 0.5, "xi": -0.3,
    "lambda": 2.0, "t": 2.0,
    "theta": 0.25, "state_kind": "coherent",
    "target": "protocol_qfi", "axis": "t", "min": 1.0, "max": 150.0, "steps": 7, "log_scale": True,
    "csv": "a.csv", "svg": "a.svg",
}
_ALL_KEYS = [(table, key) for table, keys in SCHEMA.items() for key in keys]


def _run_fields(tables) -> dict:
    """Every field `build_run` fills, the fixed point's included, by name."""
    spec, csv, svg = build_run(tables)
    run = {f"params.{f.name}": getattr(spec.params, f.name) for f in fields(spec.params)}
    run.update({f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "params"})
    return {**run, "csv": csv, "svg": svg}


class TestSingleSourceOfTruth:
    def test_params_without_config_prints_the_default_point(self):
        code, out = run_cli("params")
        assert code == EXIT_OK
        printed = dict(line.split(" = ") for line in out.splitlines())
        default = SystemParams()
        for f in fields(default):
            value = getattr(default, f.name)
            expected = f"{value:.12g}" if isinstance(value, float) else str(value)
            assert printed[FIELD_KEYS.get(f.name, f.name)] == expected

    @pytest.mark.parametrize("table, key", _ALL_KEYS)
    def test_every_yaml_key_sets_exactly_one_field(self, table, key):
        base = parse_config("")
        if table == "system":  # sweep an axis the key does not fix
            base["sweep"]["axis"] = "t" if key in ("lambda", "delta_a") else "delta_a"
        before = _run_fields(base)
        base[table][key] = _KEY_VALUES[key]
        after = _run_fields(base)
        changed = [name for name in after if after[name] != before[name]]
        assert len(changed) == 1, changed
        assert changed[0].rpartition(".")[2] == KEY_FIELDS.get(key, key)
        assert after[changed[0]] == _KEY_VALUES[key]

    @pytest.mark.parametrize("command", ["params", "validate", "sweep"])
    def test_every_flag_sets_exactly_one_key(self, capsys, command):
        sub = next(a for a in _build_parser()._actions if a.dest == "command").choices[command]
        flags = {a.option_strings[0]: a.dest for a in sub._actions if "." in a.dest}
        tables = ("system",) if command == "params" else tuple(SCHEMA)
        assert sorted(flags.values()) == sorted(f"{t}.{k}" for t in tables for k in SCHEMA[t])
        for flag, dest in flags.items():
            table, _, key = dest.partition(".")
            value = _KEY_VALUES[key]
            argv = [command, flag] + ([] if value is True else [str(value)])
            assert _tables(_build_parser().parse_args(argv)) == {**parse_config(""), table: {key: value}}
        for flag in sorted({"--lambda", "--min"} & flags.keys()):  # a negative number in any spelling
            table, _, key = flags[flag].partition(".")
            for raw in ("-2e-3", "-.5e1", "-.5", "-3"):
                assert _tables(_build_parser().parse_args([command, flag, raw]))[table] == {key: float(raw)}
        # a flag value argparse refuses is refused input, as in YAML: one error line, exit 1
        for argv in ([command, "--g", "abc"], [command, "--bogus"], ["sweep", "--target", "bogus"],
                     ["validate", "--steps", "abc"], ["validate", "--sweep-axis", "n_particles"],
                     ["-v", command], [command, "--chi", "1"], [command, "--kappa", "0.5"]):
            capsys.readouterr()
            assert run_cli(*argv)[0] == EXIT_INVARIANT, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and len(err.splitlines()) == 1, argv
        with pytest.raises(SystemExit) as info:
            run_cli(command, "--help")
        assert info.value.code == EXIT_OK


class TestFixedSweptAxis:
    """`validate` and `sweep` refuse a swept axis that [system] or a flag also fixes."""

    @pytest.mark.parametrize("text", ["system: {g: 1.0e+300}\n", "system: {g: 80.0}\n",
                                      "system: {t: 2.0}\nsweep: {axis: t}\n",
                                      "system: {lambda: 1.0}\nsweep: {axis: lambda}\n"])
    def test_config_file(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text, encoding="utf-8")
        for command in ("validate", "sweep"):
            code, out = run_cli(command, "-c", str(cfg), "--n-particles", "4", "--steps", "2")
            assert code == EXIT_INVARIANT, command
            assert "OK" not in out and "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("--g", "80"), ("--sweep-axis", "t", "--t", "2"),
                                      ("--sweep-axis", "lambda", "--lambda", "1")])
    def test_flags(self, argv):
        for command in ("validate", "sweep"):
            code, _ = run_cli(command, "--n-particles", "4", "--steps", "2", *argv)
            assert code == EXIT_INVARIANT, command

    def test_another_axis_and_params_still_run(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("system: {g: 80.0}\nsweep: {axis: t}\n", encoding="utf-8")
        for command in ("validate", "sweep"):
            assert run_cli(command, "-c", str(cfg), "--n-particles", "4", "--steps", "2")[0] == EXIT_OK
        code, out = run_cli("params", "--g", "80")
        assert code == EXIT_OK and "g = 80" in out


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
        for flag in ("--g", "--t", "--lambda", "--eta"):
            for bad in ("nan", "inf", "-inf"):
                code, _ = run_cli("params", f"{flag}={bad}")
                assert code == EXIT_INVARIANT, (flag, bad)


class TestValidateCommand:
    def test_valid_config_passes(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("system:\n  n_particles: 50\n  g: 200.0\nsweep:\n  axis: t\n", encoding="utf-8")
        code, out = run_cli("validate", "-c", str(cfg))
        assert code == EXIT_OK
        assert "OK" in out

    def test_sign_constraint_violation_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("system:\n  eta: 0.5\n  xi: 2.0\n", encoding="utf-8")
        code, _ = run_cli("validate", "-c", str(cfg))
        assert code == EXIT_INVARIANT
        assert "opposite signs" in capsys.readouterr().err
        for flag in ("--t", "--g", "--delta-eps"):
            code, _ = run_cli("validate", flag, "nan")
            assert code == EXIT_INVARIANT
            assert capsys.readouterr().err.startswith("error: parameters must be finite, got non-finite")
        cfg.write_text("system:\n  t: .nan\n", encoding="utf-8")
        code, _ = run_cli("validate", "-c", str(cfg))
        assert code == EXIT_INVARIANT
        assert "non-finite t" in capsys.readouterr().err

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
            assert re.search(rf"\b{key}\b", err) and "Traceback" not in err


    @pytest.mark.parametrize("text", [
        "protocol: {theta: 5.0}\nsweep: {target: protocol_qfi}\n",
        "protocol: {state_kind: bogus}\nsweep: {target: protocol_qfi}\n",
        "sweep: {steps: 1}\n",
        "protocol: {state_kind: bogus}\n",  # checked whatever the target
        "protocol: {theta: 5.0}\n",
        "protocol: {theta: -0.2}\nsweep: {target: protocol_qfi}\n",
        "- system\n- sweep\n",  # a list, not a mapping of tables
        "system: 5\n",
    ])
    def test_refuses_what_sweep_refuses(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text, encoding="utf-8")
        errors = []
        for command in ("validate", "sweep"):
            code, out = run_cli(command, "-c", str(cfg))
            assert code == EXIT_INVARIANT, command
            errors.append(capsys.readouterr().err)
            assert "OK" not in out and "Traceback" not in errors[-1]
        # one refusal, one channel: the same `error:` line from both commands
        assert errors[0] == errors[1] and errors[0].startswith("error: ") and len(errors[0].splitlines()) == 1

    @pytest.mark.parametrize("text, commands", [
        ("system: {g: [1\n", ("validate", "sweep")),  # malformed YAML
        ("? [a, b]\n: 1\n", ("validate", "sweep")),  # unhashable key
        ("sweep: {min: 1" + "0" * 400 + "}\n", ("validate", "sweep")),  # int beyond float range
        ("system: {g: 1.0e+300}\n", ("validate", "sweep")),  # gamma overflows a float
        # the grid width max - min overflows a float, though both ends are finite
        ("sweep: {axis: delta_eps, min: -1.7e+308, max: 1.7e+308}\n", ("validate", "sweep")),
        ("system: {t: 1.0e+200}\n", ("validate", "sweep")),  # (N t)^2 overflows a float
        ("sweep: {max: 1" + "0" * 400 + "}\n", ("validate", "sweep")),  # more ints beyond a float
        ("system: {g: 1" + "0" * 400 + "}\n", ("validate", "sweep")),
        ("system: {chi: 1" + "0" * 400 + "}\n", ("validate", "sweep")),  # a key not in the schema
    ])
    def test_unreadable_or_extreme_input_exits_one(self, tmp_path, capsys, text, commands):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text, encoding="utf-8")
        for command in commands:
            code, _ = run_cli(command, "-c", str(cfg))
            assert code == EXIT_INVARIANT, command
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("text, detail", [
        ("system: {g: [1\n", "expected ',' or ']', but got '<stream end>' at line 2:1"),
        ("system:\n  g: 1\n\tt: 2\n", "found character '\\t' that cannot start any token at line 3:1"),
        ("system: {g: *x}\n", "found undefined alias 'x' at line 1:13"),
        # PyYAML's int() of more digits than Python converts to an int
        ("system: {g: 1" + "0" * 5000 + "}\n", "for integer string conversion"),
    ])
    def test_invalid_yaml_is_refused_in_one_line(self, tmp_path, capsys, text, detail):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(text, encoding="utf-8")
        for command in ("validate", "sweep"):
            assert run_cli(command, "-c", str(cfg))[0] == EXIT_INVARIANT, command
            err = capsys.readouterr().err
            assert err.startswith("error: config is not valid YAML: ") and len(err.splitlines()) == 1, err
            assert detail in err

    def test_unallocatable_n_exits_one_from_both(self, tmp_path, capsys):
        # (N+1)^2 float64 entries beyond the address space: refused before any allocation;
        # 10**400 is beyond a float as well, and the one message line still names N. So
        # does it name g, min or max when that key holds an int beyond a float.
        argvs = [(("--n-particles", str(2 ** 30 - 1)), "n_particles = ")]
        for table, key, zeros, named in (("system", "n_particles", 30, "n_particles = "),
                                         ("system", "n_particles", 400, "n_particles = "),
                                         ("system", "g", 400, "g is beyond"),
                                         ("sweep", "min", 400, "min is beyond"),
                                         ("sweep", "max", 400, "max is beyond")):
            cfg = tmp_path / f"{key}{zeros}.yaml"
            cfg.write_text(f"{table}: {{{key}: 1" + "0" * zeros + "}\n", encoding="utf-8")
            argvs.append((("-c", str(cfg)), named))
        for argv, named in argvs:
            for command in ("validate", "sweep"):
                code, out = run_cli(command, *argv)
                err = capsys.readouterr().err
                assert code == EXIT_INVARIANT, (command, argv)
                assert "Traceback" not in err
                assert err.startswith("error: ") and len(err.splitlines()) == 1, (command, argv)
                assert named in err and "OK" not in out, (command, argv)

    def test_overflowing_hamiltonian_is_a_numerical_failure(self, tmp_path, capsys):
        # each parameter is a float, but H's diagonal overflows: validate runs no
        # point, so only the sweep sees it. A raw RuntimeWarning would fail the
        # test (filterwarnings = error).
        csv = tmp_path / "out.csv"
        flags = ("--n-particles", "4", "--steps", "3", "--delta-eps", "1.7e308")
        assert run_cli("validate", *flags)[0] == EXIT_OK
        code, _ = run_cli("sweep", *flags, "--csv", str(csv))
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "Warning" not in err
        assert not csv.exists()

    @pytest.mark.parametrize("extra", [(), ("--target", "protocol_qfi"), ("--sweep-axis", "lambda")])
    def test_overflowing_phase_fails_its_point_in_one_line(self, extra):
        # a fresh interpreter, so a raw RuntimeWarning would reach stderr as it does for a user
        argv = ["sweep", "--n-particles", "4", "--steps", "3", "--delta-eps", "1e200", "--t", "1e150", *extra]
        proc = subprocess.run([sys.executable, "-m", "singlewell", *argv],
                              capture_output=True, text=True, env=SRC_ENV, timeout=120)
        assert proc.returncode == EXIT_NUMERIC
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: sweep point failed at ")
        assert "phase (E_l - E_k) t/2 overflows a float at t = 1e+150" in proc.stderr
        for word in ("RuntimeWarning", "did not converge", "non-finite values"):
            assert word not in proc.stderr

    def test_gamma_overflow_names_the_parameter(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("system: {g: 1.0e+300}\n", encoding="utf-8")
        code, _ = run_cli("validate", "-c", str(cfg))
        assert code == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gamma overflows" in err and "g_1d = 2" in err and "N = 50" in err
        assert "Traceback" not in err


# A wrong YAML kind for every config key: a bool for an int, a string for a float,
# a number for a string, null for a bool, a list for an output path. Every key but
# an output path's refuses null too, and a path refuses a number.
_WRONG_KINDS = {
    "n_particles": "true", "g": "abc", "delta_eps": "abc", "delta_a": "abc", "eta": "abc",
    "xi": "abc", "lambda": "abc", "t": "abc", "theta": "abc", "state_kind": "5",
    "target": "5", "axis": "5", "min": "abc", "max": "abc", "steps": "true", "log_scale": "null",
    "csv": "[a.csv]", "svg": "[a.svg]",
}
_WRONG_VALUES = ([(table, key, _WRONG_KINDS[key]) for table, key in _ALL_KEYS]
                 + [(table, key, "null") for table, key in _ALL_KEYS if key not in ("csv", "svg", "log_scale")]
                 + [("output", "csv", "5"), ("output", "csv", '""'), ("output", "svg", '""')])


class TestWrongKinds:
    """Each value is refused once, by the field it sets, in one line that names its key."""

    @pytest.mark.parametrize("table, key, value", _WRONG_VALUES)
    def test_refused_in_one_line_naming_the_key(self, tmp_path, capsys, table, key, value):
        cfg = tmp_path / "run.yaml"
        other = {"csv": "svg", "svg": "csv"}.get(key)  # a good path beside a bad one: still no file
        paths = f", {other}: {tmp_path / ('out.' + other)}" if other else ""
        cfg.write_text(f"{table}: {{{key}: {value}{paths}}}\n", encoding="utf-8")
        for command in ("validate", "sweep"):
            code, out = run_cli(command, "-c", str(cfg))
            err = capsys.readouterr().err
            assert code == EXIT_INVARIANT and "OK" not in out, command
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
            assert re.search(rf"\b{key}\b", re.split(r", got |; expected ", err)[0]), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]
        # params reads [system] alone
        assert run_cli("params", "-c", str(cfg))[0] == (EXIT_INVARIANT if table == "system" else EXIT_OK)


# Random YAML tables: every schema key (and one unknown) with values of every
# YAML kind, valid names mixed in so some configs pass. [output] is left out,
# so no example writes a file.
_YAML_VALUES = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.text(max_size=6), st.none(),
    st.sampled_from(TARGETS + AXES + STATE_KINDS),
)
_YAML_DOCS = st.fixed_dictionaries({}, optional={
    **{table: st.dictionaries(st.sampled_from(list(keys) + ["bogus"]), _YAML_VALUES, max_size=4)
       for table, keys in SCHEMA.items() if table != "output"},
    "bogus": st.just({}),
})


class TestRandomConfigs:
    @given(doc=_YAML_DOCS, n=st.integers(1, 12), steps=st.integers(2, 5))
    @example(doc={"system": {"g": 1.0e300}}, n=4, steps=2)
    @example(doc={}, n=4, steps=10 ** 23)  # a grid beyond the address space
    # np.linspace sizes the grid as float(steps), which is 2^60 from 2^60 - 64 on
    @example(doc={}, n=4, steps=2 ** 60 - 64)
    @example(doc={}, n=4, steps=2 ** 60 - 1)
    @example(doc={"sweep": {"max": 2 ** 64}}, n=1, steps=2)  # an int numpy holds as an object
    @settings(deadline=None, max_examples=100)
    def test_validate_fails_exactly_when_sweep_does(self, doc, n, steps):
        # sweeps are held to N <= 12 and <= 5 steps so no example builds large matrices
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.yaml")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(yaml.safe_dump(doc))
            flags = ("-c", path, "--n-particles", str(n), "--steps", str(steps))
            codes = [run_cli(command, *flags)[0] for command in ("validate", "sweep")]
        assert set(codes) <= {EXIT_OK, EXIT_INVARIANT, EXIT_IO, EXIT_NUMERIC}, codes
        assert (codes[0] == EXIT_INVARIANT) == (codes[1] == EXIT_INVARIANT), codes


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["singlewell", "singlewell.cli"])
    def test_python_m_runs_the_cli(self, module):
        proc = subprocess.run([sys.executable, "-m", module, "validate", "--t", "nan"],
                              capture_output=True, text=True, env=SRC_ENV, timeout=120)
        assert proc.returncode == EXIT_INVARIANT
        assert proc.stderr == "error: parameters must be finite, got non-finite t\n"


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

    def test_an_integer_axis_end_past_2_to_the_64_runs_as_its_float(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("sweep: {max: 18446744073709551616}\n", encoding="utf-8")
        small = ("--steps", "2", "--n-particles", "1")
        assert run_cli("validate", "-c", str(cfg), *small)[0] == EXIT_OK
        assert run_cli("sweep", "-c", str(cfg), *small, "--csv", str(tmp_path / "int.csv"))[0] == EXIT_OK
        assert run_cli("sweep", *small, "--max", "1.8446744073709552e19",
                       "--csv", str(tmp_path / "float.csv"))[0] == EXIT_OK
        assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()

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

    @pytest.mark.parametrize("where", ["sweeps.dynamical_generator", "hamiltonians.build_spin_operators",
                                       "sweeps.SweepSpec.grid"],
                             ids=["dynamical_generator", "build_spin_operators", "SweepSpec.grid"])
    def test_out_of_memory_exits_three_naming_n(self, monkeypatch, capsys, where):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100001, 100001)")

        monkeypatch.setattr(f"singlewell.{where}", exhausted)
        code, _ = run_cli("sweep", "--n-particles", "12", "--steps", "2")
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.rstrip().endswith("Unable to allocate 74.5 GiB for an array with shape (100001, 100001)")
        # a point's failure names the point, N with it; the grid is built before any point
        assert ("n_particles=12" in err) == (where != "sweeps.SweepSpec.grid"), err

    @pytest.mark.parametrize("flags, rows", [
        (("--lambda", "1e200"), [16.0] * 3),  # lambda^2 overflows, the closed form does not
        (("--sweep-axis", "delta_eps", "--min=-1e300", "--max=1e300"), [0.0, 16.0, 0.0]),
    ], ids=["lambda", "delta_eps"])
    def test_noninteracting_closed_form_at_huge_rates(self, tmp_path, capsys, flags, rows):
        csv_path = tmp_path / "s.csv"
        code, _ = run_cli("sweep", "--target", "cqfi_noninteracting", "--n-particles", "4",
                          "--steps", "3", *flags, "--csv", str(csv_path))
        assert code == EXIT_OK and capsys.readouterr().err == ""
        assert list(load_csv(str(csv_path)).columns["value"]) == rows  # N^2 t^2 = 16 at delta_eps = 0

    def test_failure_without_text_prints_its_type(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("singlewell.sweeps.SweepSpec.grid", exhausted)
        assert run_cli("sweep", "--n-particles", "4", "--steps", "2")[0] == EXIT_NUMERIC
        assert capsys.readouterr().err == "error: MemoryError\n"


class TestHeapSetting:
    class FakeLibc:
        def __init__(self):
            self.calls = []
            self.mallopt = lambda param, value: self.calls.append((param, value)) or 1

    def test_main_sets_both_thresholds(self, monkeypatch):
        libc = self.FakeLibc()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        assert run_cli("params")[0] == EXIT_OK
        assert libc.calls == [(-3, MMAP_THRESHOLD), (-1, TRIM_THRESHOLD)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    def test_arrays_past_n_1000_are_mmapped(self):
        # (N+1)^2 float64 arrays stay in the heap up to N = 1000 and are mmapped from N = 1450 on
        assert 8 * 1001**2 < MMAP_THRESHOLD < 8 * 1451**2

    @pytest.mark.parametrize("error", [OSError, AttributeError])
    def test_missing_mallopt_changes_nothing(self, monkeypatch, error):
        def lookup(name):
            raise error("no mallopt")

        monkeypatch.setattr(ctypes, "CDLL", lookup)
        assert run_cli("params")[0] == EXIT_OK
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a libc without mallopt
        assert run_cli("params")[0] == EXIT_OK

    def test_library_sweeps_leave_the_heap_alone(self, monkeypatch):
        lookups = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: lookups.append(name) or self.FakeLibc())
        run_sweep(SweepSpec(target="cqfi_interacting", axis="g", axis_min=0.0, axis_max=20.0,
                            steps=3, params=harmonic_params(n_particles=6)))
        assert lookups == []


def _finite_coordinates(svg_path) -> bool:
    """The SVG parses and every coordinate in it is a finite number."""
    values = []
    for el in ET.parse(svg_path).getroot().iter():
        values += [el.get(name) for name in ("x", "y", "x1", "y1", "x2", "y2") if el.get(name)]
        values += el.get("points", "").replace(",", " ").split()
    return all(math.isfinite(float(v)) for v in values)


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

    @pytest.mark.parametrize("flags", [
        ("--sweep-axis", "t", "--min", "0", "--max", "2", "--g", "40"),
        ("--target", "protocol_qfi", "--min", "0", "--max", "80", "--log-scale"),
        ("--target", "cqfi_noninteracting", "--sweep-axis", "lambda", "--min", "-1", "--max", "2"),
    ])
    def test_plot_rerenders_the_svg_of_the_sweep(self, tmp_path, flags):
        # sweep draws from the result run_sweep built, plot from the one load_csv read back
        csv_path, first, second = tmp_path / "s.csv", tmp_path / "a.svg", tmp_path / "b.svg"
        code, _ = run_cli("sweep", "--n-particles", "10", "--delta-eps", "5", "--steps", "7", *flags,
                          "--csv", str(csv_path), "--svg", str(first))
        assert code == EXIT_OK
        assert run_cli("plot", "--csv", str(csv_path), "--svg", str(second))[0] == EXIT_OK
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("text", [
        "g,value,bound\n0,1\n",  # a row narrower than its header
        "g,value,bound,ideal\n0,1,2\n",
        "g,value,bound\n0,1,2,3\n",
        "g,value,bound\n0,nan,2\n",
        "g,value,bound,ideal\n0,1,2,inf\n",
        "x,value,bound\n0,1,2\n",  # not a sweep axis
        "g,bound,value\n0,1,2\n",
        "g,value,bound\n1,abc,2\n",  # a value that is not a number
        # a log_scale that is neither true nor false
        "# log_scale = no\ng,value,bound\n0,1,2\n",
        "# log_scale = 0\ng,value,bound\n0,1,2\n",
        "# log_scale = 1.5\ng,value,bound\n0,1,2\n",
        b"\xffg,value,bound\n0,1,2\n",  # not UTF-8
        "# target = cqfi_interacting\n# n_particles = 4\n",  # metadata and no table
    ])
    def test_malformed_csv_is_refused_in_one_line(self, tmp_path, capsys, text):
        csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
        csv_path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        assert run_cli("plot", "--csv", str(csv_path), "--svg", str(svg_path))[0] == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert repr(str(csv_path)) in err  # every refusal names the file
        assert not svg_path.exists()

    @pytest.mark.parametrize("line, text", [
        ("# n_particles = a&b", "n_particles=a&b, delta_eps=5"),  # the title
        ("# target = <script>x</script>", "<script>x</script>"),  # the y label
    ])
    def test_svg_text_from_the_csv_is_escaped(self, tmp_path, line, text):
        csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
        csv_path.write_text(f"{line}\n# delta_eps = 5\ng,value,bound\n0,1,2\n1,2,3\n", encoding="utf-8")
        assert run_cli("plot", "--csv", str(csv_path), "--svg", str(svg_path))[0] == EXIT_OK
        root = ET.parse(svg_path).getroot()
        assert text in [el.text for el in root.iter()]
        assert not [el for el in root.iter() if "script" in el.tag]

    def test_one_row_plots_at_any_x(self, tmp_path):
        # a single x spans no width, and at |x| >= 2^53 neither does x + 1
        csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
        csv_path.write_text("g,value,bound\n1e17,1,2\n", encoding="utf-8")
        assert run_cli("plot", "--csv", str(csv_path), "--svg", str(svg_path))[0] == EXIT_OK
        assert _finite_coordinates(svg_path)

    @pytest.mark.parametrize("rows", ["-1.7e308,1,2\n1.7e308,2,3\n", "0,-1.7e308,2\n1,1.7e308,3\n"],
                             ids=["x", "y"])
    def test_values_spanning_more_than_the_largest_float_plot(self, tmp_path, rows):
        # x (first) or y (second) values whose span max - min is no float
        csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
        csv_path.write_text(f"g,value,bound\n{rows}", encoding="utf-8")
        assert run_cli("plot", "--csv", str(csv_path), "--svg", str(svg_path))[0] == EXIT_OK
        assert _finite_coordinates(svg_path)
        labels = {el.text for el in ET.parse(svg_path).getroot().iter("{http://www.w3.org/2000/svg}text")}
        assert "-1.7e+308" in labels and not labels & {"nan", "inf", "-inf"}, labels

    def test_headroom_above_the_largest_float_stays_finite(self, tmp_path):
        # the Heisenberg ceiling (N t)^2 is 1.75e308 here: 5% (linear) or 2x (log) headroom
        # above it is no float, and on the log scale neither is 10 ** log10 of the largest float
        csv_path, svg_path, replot = tmp_path / "s.csv", tmp_path / "s.svg", tmp_path / "p.svg"
        for scale in ((), ("--log-scale",)):
            code, _ = run_cli("sweep", "--n-particles", "4", "--steps", "3", "--max", "1",
                              "--t", "3.307e153", *scale, "--csv", str(csv_path), "--svg", str(svg_path))
            assert code == EXIT_OK
            assert run_cli("plot", "--csv", str(csv_path), "--svg", str(replot), *scale)[0] == EXIT_OK
            for path in (svg_path, replot):
                assert _finite_coordinates(path), (scale, path)
                root = ET.parse(path).getroot()
                labels = {el.text for el in root.iter("{http://www.w3.org/2000/svg}text")}
                assert not labels & {"nan", "inf", "-inf"}, (scale, labels)
                bound = root.find(".//{http://www.w3.org/2000/svg}polyline[@id='bound']").get("points")
                assert "390.00" not in bound, (scale, bound)  # not flat on the bottom edge

    def test_missing_csv_is_io_error(self):
        code, _ = run_cli("plot", "--csv", "/nonexistent/s.csv", "--svg", "/tmp/x.svg")
        assert code == EXIT_IO


class TestExitCodeClassification:
    def test_direct_mapping(self):
        assert _classify(ValueError("x")) == EXIT_INVARIANT
        assert _classify(NumericsError("x")) == EXIT_NUMERIC
        assert _classify(OSError("x")) == EXIT_IO
        assert _classify(MemoryError("x")) == EXIT_NUMERIC

    def test_cause_chain_is_walked(self):
        inner = NumericsError("diverged")
        outer = SweepPointError("point failed")
        outer.__cause__ = inner
        assert _classify(outer) == EXIT_NUMERIC

    def test_input_error_inside_a_point_is_numerical(self, capsys):
        # the spec passed every input check, so a point that still raises one failed numerically
        for inner in (ValueError("x"), OverflowError("x")):
            outer = SweepPointError("point failed")
            outer.__cause__ = inner
            assert _classify(outer) == EXIT_NUMERIC
        # every parameter is a float, but H's diagonal is not: total_hamiltonian refuses it,
        # and the one error line names that cause after the failed point
        assert run_cli("sweep", "--n-particles", "4", "--steps", "3",
                       "--delta-eps", "1.7e308")[0] == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: sweep point failed at g = 0.0") and "non-finite" in err

    def test_an_overflowing_band_is_named_word_for_word(self, capsys):
        # the chunk's band check fails first; the point that fails alone is the one named
        assert run_cli("sweep", "--n-particles", "4", "--steps", "3", "--delta-eps", "1.7e308")[0] == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "error: sweep point failed at g = 0.0 (target = cqfi_interacting, fixed = SystemParams(n_particles=4, "
            "g=0.0, delta_eps=1.7e+308, delta_a=0.25, eta=0.625, xi=-0.6, lambda_acc=1.0, t=1.0)): "
            "matrix has non-finite entries\n")

    def test_any_failure_inside_a_point_exits_three(self, monkeypatch, capsys):
        # a point's failure arrives wrapped in SweepPointError, whatever its own type
        def broken(*args):
            raise KeyError("x")

        monkeypatch.setattr("singlewell.sweeps.dynamical_generator", broken)
        assert run_cli("sweep", "--n-particles", "4", "--steps", "2")[0] == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: sweep point failed")

    def test_unknown_exception_not_swallowed(self):
        assert _classify(KeyError("x")) is None
