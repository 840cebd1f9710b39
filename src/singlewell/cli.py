"""Command-line interface: params, validate, sweep, plot.

Exit codes: 0 success, 1 physics-invariant violation (including bad
parameter values and unreadable configs), 2 I/O failure, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields

import numpy as np

from .config import Config, SystemConfig, apply_overrides, load_config
from .errors import InvariantError, NumericsError
from .modes import HARMONIC_KAPPA, renormalized_q, validity_gamma
from .protocols import STATE_KINDS
from .sweeps import AXES, TARGETS, SweepSpec, emit_csv, emit_plot, load_csv, run_sweep

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singlewell",
        description="Channel QFI and ground-state QFI for acceleration sensing "
        "with two-mode bosons in a single trap.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("-c", "--config", help="YAML config file")

    def add_system_flags(p):
        # one flag per [system] field: --n-particles, --g, ..., with --lambda for lambda_acc
        for f in fields(SystemConfig):
            flag = "--lambda" if f.name == "lambda_acc" else "--" + f.name.replace("_", "-")
            p.add_argument(flag, dest=f.name, type=int if f.name == "n_particles" else float)

    p_params = sub.add_parser("params", help="print derived model parameters")
    add_config(p_params)
    add_system_flags(p_params)

    p_validate = sub.add_parser("validate", help="check config invariants")
    add_config(p_validate)
    add_system_flags(p_validate)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    add_config(p_sweep)
    add_system_flags(p_sweep)
    p_sweep.add_argument("--target", choices=TARGETS)
    p_sweep.add_argument("--sweep-axis", choices=AXES)
    p_sweep.add_argument("--min", dest="axis_min", type=float)
    p_sweep.add_argument("--max", dest="axis_max", type=float)
    p_sweep.add_argument("--steps", type=int)
    p_sweep.add_argument("--theta", type=float)
    p_sweep.add_argument("--state-kind", choices=STATE_KINDS)
    p_sweep.add_argument("--log-scale", action="store_const", const=True, default=None)
    p_sweep.add_argument("--csv", help="CSV output path")
    p_sweep.add_argument("--svg", help="SVG output path")

    p_plot = sub.add_parser("plot", help="render an SVG from a sweep CSV")
    p_plot.add_argument("--csv", required=True, help="sweep CSV produced by the sweep command")
    p_plot.add_argument("--svg", required=True, help="SVG output path")
    p_plot.add_argument("--log-scale", action="store_const", const=True, default=None)
    return parser


def _config_from_args(args) -> Config:
    cfg = load_config(getattr(args, "config", None))
    overrides = {f"system.{f.name}": getattr(args, f.name, None) for f in fields(SystemConfig)}
    if getattr(args, "command", None) == "sweep":
        overrides.update(
            {
                "sweep.target": args.target,
                "sweep.axis": args.sweep_axis,
                "sweep.axis_min": args.axis_min,
                "sweep.axis_max": args.axis_max,
                "sweep.steps": args.steps,
                "sweep.log_scale": args.log_scale,
                "protocol.theta": args.theta,
                "protocol.state_kind": args.state_kind,
                "output.csv": args.csv,
                "output.svg": args.svg,
            }
        )
    return apply_overrides(cfg, **overrides)


def _report_params(cfg: Config, out) -> None:
    p = cfg.system.to_system_params()
    gamma, ok = validity_gamma(p.g_1d, p.n_particles)
    rows = [
        ("n_particles", p.n_particles),
        ("g", p.g),
        ("delta_eps", p.delta_eps),
        ("eta", p.eta),
        ("xi", p.xi),
        ("delta_a", p.delta_a),
        ("lambda", p.lambda_acc),
        ("t", p.t),
        ("q", renormalized_q(p)),
        ("kappa", HARMONIC_KAPPA),
        ("gamma", gamma),
        ("two_mode_ok", ok),
    ]
    for name, value in rows:
        out.write(f"{name} = {value:.12g}\n" if isinstance(value, float) else f"{name} = {value}\n")


def _sweep_spec(cfg: Config) -> SweepSpec:
    return SweepSpec(
        target=cfg.sweep.target,
        axis=cfg.sweep.axis,
        axis_min=cfg.sweep.axis_min,
        axis_max=cfg.sweep.axis_max,
        steps=cfg.sweep.steps,
        params=cfg.system.to_system_params(),
        theta=cfg.protocol.theta,
        state_kind=cfg.protocol.state_kind,
        log_scale=cfg.sweep.log_scale,
    )


def cmd_params(args, out) -> int:
    _report_params(_config_from_args(args), out)
    return EXIT_OK


def cmd_validate(args, out) -> int:
    cfg = _config_from_args(args)
    try:
        _report_params(cfg, out)
        _sweep_spec(cfg)  # the spec `sweep` would run: grid and protocol inputs
    except (InvariantError, ValueError) as exc:
        out.write(f"FAIL: {exc}\n")
        return EXIT_INVARIANT
    out.write("OK: all structural invariants hold\n")
    return EXIT_OK


def cmd_sweep(args, out) -> int:
    cfg = _config_from_args(args)
    spec = _sweep_spec(cfg)
    result = run_sweep(spec)
    csv_path, svg_path = cfg.output.csv, cfg.output.svg
    if csv_path:
        emit_csv(result, csv_path)
        out.write(f"wrote {csv_path}\n")
    if svg_path:
        emit_plot(result, svg_path)
        out.write(f"wrote {svg_path}\n")
    if not csv_path and not svg_path:
        out.write(f"# computed {spec.steps} points for {spec.target} over {spec.axis}; "
                  "give output.csv/output.svg or --csv/--svg to save them\n")
    return EXIT_OK


def cmd_plot(args, out) -> int:
    result = load_csv(args.csv)
    emit_plot(result, args.svg, log_scale=args.log_scale)
    out.write(f"wrote {args.svg}\n")
    return EXIT_OK


def _classify(exc: BaseException) -> int | None:
    seen = set()
    node: BaseException | None = exc
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if isinstance(node, NumericsError) or isinstance(node, np.linalg.LinAlgError):
            return EXIT_NUMERIC
        if isinstance(node, (InvariantError, ValueError, OverflowError)):
            return EXIT_INVARIANT
        if isinstance(node, OSError):
            return EXIT_IO
        node = node.__cause__ or node.__context__
    return None


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    handlers = {
        "params": cmd_params,
        "validate": cmd_validate,
        "sweep": cmd_sweep,
        "plot": cmd_plot,
    }
    try:
        return handlers[args.command](args, out)
    except Exception as exc:  # noqa: BLE001 - map every failure to an exit code
        code = _classify(exc)
        if code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
