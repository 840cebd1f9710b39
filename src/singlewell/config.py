"""Run configuration: YAML tables and command-line flags in, one sweep spec out.

The file has up to four tables: ``system`` (the fixed parameter point),
``protocol`` (initial-state choice), ``sweep`` (target and grid) and
``output`` (file paths). `SCHEMA` lists every key with the type of the
spec field it sets; the CLI merges the flags it was given into the tables
as plain values, and `build_run` turns them into a `SweepSpec`. Every
default is the spec's own: `SystemParams` holds the harmonic point,
`SweepSpec` the grid and the input state.
"""

from __future__ import annotations

import re
from dataclasses import fields
from typing import get_args, get_type_hints

import yaml

from .modes import HARMONIC_KAPPA, SystemParams, as_float
from .sweeps import FIELD_KEYS, KEY_FIELDS, SweepSpec

__all__ = ["SCHEMA", "load_config", "parse_config", "system_params", "build_run"]


def _keys(cls, names) -> dict:
    """YAML key -> accepted type for the given fields of cls."""
    hints = get_type_hints(cls)
    return {FIELD_KEYS.get(name, name): hints[name] for name in names}


# Table -> YAML key -> accepted type. chi (and kappa) set lambda = 2 chi kappa
# instead; null leaves them, and the output paths, unset.
SCHEMA = {
    "system": {**_keys(SystemParams, [f.name for f in fields(SystemParams)]),
               "chi": float | None, "kappa": float | None},
    "protocol": _keys(SweepSpec, ["theta", "state_kind"]),
    "sweep": _keys(SweepSpec, ["target", "axis", "axis_min", "axis_max", "steps", "log_scale"]),
    "output": {"csv": str | None, "svg": str | None},
}


def _has_type(value, annotation) -> bool:
    """Whether a YAML value fits a field type; an int fits a float, a bool only a bool."""
    allowed = get_args(annotation) or (annotation,)
    if isinstance(value, bool):
        return bool in allowed
    if isinstance(value, int) and float in allowed:
        return True
    return isinstance(value, allowed)


class _Loader(yaml.SafeLoader):
    """The safe loader, reading YAML 1.2 floats with no dot such as 1e-3 as floats."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9]+(\.[0-9]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)


def parse_config(text: str) -> dict[str, dict]:
    """Every table of a YAML config, empty where absent; keys and value types checked."""
    try:
        raw = yaml.load(text, Loader=_Loader) or {}
    except yaml.MarkedYAMLError as exc:  # the parser's problem and where, on one line
        mark = exc.problem_mark or exc.context_mark
        where = f" at line {mark.line + 1}:{mark.column + 1}" if mark else ""
        raise ValueError(f"config is not valid YAML: {exc.problem or exc.context}{where}") from None
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: e.g. an int past Python's 4300 digits
        raise ValueError(f"config is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("config root must be a mapping of tables")
    for section in raw:
        if section not in SCHEMA:
            raise ValueError(f"unknown config table {section!r}")
    tables = {section: raw.get(section) or {} for section in SCHEMA}
    for section, table in tables.items():
        if not isinstance(table, dict):
            raise ValueError(f"[{section}] must be a mapping, got {table!r}")
        for key, value in table.items():
            if key not in SCHEMA[section]:
                raise ValueError(f"unknown key {key!r} in [{section}]")
            kind = SCHEMA[section][key]
            if not _has_type(value, kind):
                raise ValueError(f"[{section}] {key} must be of type "
                                 f"{getattr(kind, '__name__', kind)}, got {value!r}")
    return tables


def load_config(path: str | None) -> dict[str, dict]:
    """The tables of the YAML file at path; with no path, every table empty."""
    if path is None:
        return parse_config("")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _system_fields(tables: dict[str, dict]) -> dict:
    """SystemParams field -> value from [system]; chi (and kappa) give lambda = 2 chi kappa."""
    system = dict(tables["system"])
    chi, kappa = system.pop("chi", None), system.pop("kappa", None)
    if chi is not None:
        kappa = HARMONIC_KAPPA if kappa is None else as_float("kappa", kappa)
        system["lambda"] = 2.0 * as_float("chi", chi) * kappa
    return {KEY_FIELDS.get(key, key): value for key, value in system.items()}


def system_params(tables: dict[str, dict]) -> SystemParams:
    """The fixed parameter point of the [system] table."""
    return SystemParams(**_system_fields(tables))


def build_run(tables: dict[str, dict]) -> tuple[SweepSpec, str | None, str | None]:
    """The spec that `validate` checks and `sweep` runs, with the CSV and SVG paths.

    The swept axis must not also be fixed in [system], whichever table, flag
    or default names it.
    """
    fixed = _system_fields(tables)
    grid = {KEY_FIELDS.get(key, key): value
            for key, value in {**tables["protocol"], **tables["sweep"]}.items()}
    spec = SweepSpec(params=SystemParams(**fixed), **grid)
    if KEY_FIELDS[spec.axis] in fixed:
        raise ValueError(f"swept axis {spec.axis!r} must not also be fixed in [system]")
    return spec, tables["output"].get("csv"), tables["output"].get("svg")
