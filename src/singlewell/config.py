"""Declarative run configuration: YAML in, dataclasses inside, YAML out.

The file has up to four tables: ``system`` (physics parameters),
``protocol`` (initial-state choice), ``sweep`` (target and grid) and
``output`` (file paths). Flags given on the command line override file
values. Defaults are the harmonic-orbital parameter set with N = 50.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field, replace
from typing import Any, get_args, get_type_hints

import yaml

from .modes import HARMONIC_DELTA_A, HARMONIC_ETA, HARMONIC_KAPPA, HARMONIC_XI, SystemParams

__all__ = [
    "SystemConfig",
    "ProtocolConfig",
    "SweepConfig",
    "OutputConfig",
    "Config",
    "load_config",
    "parse_config",
    "emit_config",
]


@dataclass(frozen=True)
class SystemConfig:
    n_particles: int = 50
    g: float = 0.0
    delta_eps: float = 1.0
    delta_a: float = HARMONIC_DELTA_A
    eta: float = HARMONIC_ETA
    xi: float = HARMONIC_XI
    lambda_acc: float | None = 1.0
    chi: float | None = None
    kappa: float | None = None
    t: float = 1.0

    def resolve_lambda(self) -> float:
        """Either lambda_acc directly or 2 * chi * kappa."""
        if self.chi is not None:
            kappa = HARMONIC_KAPPA if self.kappa is None else self.kappa
            return 2.0 * self.chi * kappa
        if self.lambda_acc is None:
            raise ValueError("config must provide either 'lambda' or 'chi'")
        return self.lambda_acc

    def to_system_params(self) -> SystemParams:
        return SystemParams(
            n_particles=self.n_particles,
            g=self.g,
            delta_eps=self.delta_eps,
            delta_a=self.delta_a,
            eta=self.eta,
            xi=self.xi,
            lambda_acc=self.resolve_lambda(),
            t=self.t,
        )


@dataclass(frozen=True)
class ProtocolConfig:
    theta: float = 0.5
    state_kind: str = "fragmented"


@dataclass(frozen=True)
class SweepConfig:
    target: str = "cqfi_interacting"
    axis: str = "g"
    axis_min: float = 0.0
    axis_max: float = 200.0
    steps: int = 101
    log_scale: bool = False


@dataclass(frozen=True)
class OutputConfig:
    csv: str | None = None
    svg: str | None = None


@dataclass(frozen=True)
class Config:
    system: SystemConfig = field(default_factory=SystemConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


# YAML key -> dataclass field where they differ.
_SYSTEM_KEYS = {"lambda": "lambda_acc"}
_SWEEP_KEYS = {"min": "axis_min", "max": "axis_max"}


def _has_type(value, annotation) -> bool:
    """Whether a YAML value fits a field type; an int fits a float, a bool only a bool."""
    allowed = get_args(annotation) or (annotation,)
    if isinstance(value, bool):
        return bool in allowed
    if isinstance(value, int) and float in allowed:
        return True
    return isinstance(value, allowed)


def _table_to_dataclass(cls, table: dict, key_map: dict[str, str], section: str):
    if not isinstance(table, dict):
        raise ValueError(f"[{section}] must be a mapping, got {table!r}")
    types = get_type_hints(cls)
    kwargs = {}
    for key, value in table.items():
        name = key_map.get(key, key)
        if name not in types:
            raise ValueError(f"unknown key {key!r} in [{section}]")
        if not _has_type(value, types[name]):
            expected = getattr(types[name], "__name__", types[name])
            raise ValueError(f"[{section}] {key} must be of type {expected}, got {value!r}")
        kwargs[name] = value
    return cls(**kwargs)


class _Loader(yaml.SafeLoader):
    """The safe loader, reading YAML 1.2 floats with no dot such as 1e-3 as floats."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9]+(\.[0-9]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)


def parse_config(text: str) -> Config:
    """Parse a YAML config document into a Config."""
    try:
        raw = yaml.load(text, Loader=_Loader) or {}
    except yaml.YAMLError as exc:
        raise ValueError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config root must be a mapping of tables")
    for section in raw:
        if section not in ("system", "protocol", "sweep", "output"):
            raise ValueError(f"unknown config table {section!r}")
    system_table = raw.get("system", {}) or {}
    cfg = Config(
        system=_table_to_dataclass(SystemConfig, system_table, _SYSTEM_KEYS, "system"),
        protocol=_table_to_dataclass(ProtocolConfig, raw.get("protocol", {}) or {}, {}, "protocol"),
        sweep=_table_to_dataclass(SweepConfig, raw.get("sweep", {}) or {}, _SWEEP_KEYS, "sweep"),
        output=_table_to_dataclass(OutputConfig, raw.get("output", {}) or {}, {}, "output"),
    )
    swept = cfg.sweep.axis
    fixed_key = "lambda" if swept == "lambda" else swept
    if "sweep" in raw and fixed_key in system_table:
        raise ValueError(f"swept axis {swept!r} must not also be fixed in [system]")
    return cfg


def emit_config(cfg: Config) -> str:
    """Serialize a Config back to YAML; parse_config inverts this for valid configs.

    The swept axis is not a fixed parameter, so its key is left out of the
    [system] table; a config is valid when that field sits at its default.
    """
    inverse_system = {v: k for k, v in _SYSTEM_KEYS.items()}
    inverse_sweep = {v: k for k, v in _SWEEP_KEYS.items()}

    def table(obj, inverse):
        return {inverse.get(k, k): v for k, v in asdict(obj).items() if v is not None}

    system_table = table(cfg.system, inverse_system)
    system_table.pop(cfg.sweep.axis, None)
    doc = {
        "system": system_table,
        "protocol": table(cfg.protocol, {}),
        "sweep": table(cfg.sweep, inverse_sweep),
        "output": table(cfg.output, {}),
    }
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)


def load_config(path: str | None) -> Config:
    if path is None:
        return Config()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def apply_overrides(cfg: Config, **overrides: Any) -> Config:
    """Override individual config fields, e.g. from command-line flags."""
    tables = {"system": cfg.system, "protocol": cfg.protocol, "sweep": cfg.sweep, "output": cfg.output}
    updates: dict[str, dict] = {name: {} for name in tables}
    for dotted, value in overrides.items():
        if value is None:
            continue
        section, _, name = dotted.partition(".")
        if section not in tables or not name:
            raise ValueError(f"unknown override {dotted!r}")
        updates[section][name] = value
    new = {name: replace(tables[name], **upd) if upd else tables[name] for name, upd in updates.items()}
    return Config(**new)
