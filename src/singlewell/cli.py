"""Command-line interface: params, validate, sweep, plot.

`params`, `validate` and `sweep` read the YAML tables of `-c` and merge
the flags given into them (`config`); `validate` and `sweep` build their
spec with the same `config.build_run`, so `validate` refuses exactly the
inputs `sweep` refuses before its first point.

Exit codes, read off the type of the outermost exception: 0 success; 1 refused input,
a `ValueError` or `OverflowError` raised where it enters (bad parameter or flag values,
unreadable configs or sweep CSVs, N or steps too large to address); 2 I/O failure; 3
numerical failure or out of memory, and any failure inside a sweep point, which arrives
as a `SweepPointError`. The `error:` line names the outermost failure and its root cause.

`main` keeps freed n x n arrays in glibc's heap for the rest of the process;
library callers of `run_sweep` keep the allocator's defaults.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import logging
import sys
from dataclasses import fields
from typing import get_args

from .config import SCHEMA, build_run, load_config, system_params
from .errors import NumericsError
from .modes import HARMONIC_KAPPA, SystemParams, renormalized_q, validity_gamma
from .protocols import STATE_KINDS
from .sweeps import AXES, FIELD_KEYS, TARGETS, SweepPointError, emit_csv, emit_plot, load_csv, run_sweep

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
_REFUSED = (ValueError, OverflowError)  # OverflowError: Python refusing a number too large for an operation


def _keep_freed_arrays() -> None:
    """Keep freed n x n arrays in glibc's heap, so the next grid point does not
    fault them in again. Setting either threshold stops glibc adjusting the
    other, so both are set; 32 MiB is glibc's own ceiling on 64-bit."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no mallopt: not glibc
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_CHOICES = {"target": TARGETS, "axis": AXES, "state_kind": STATE_KINDS}


def _add_table_flags(p: argparse.ArgumentParser, *tables: str) -> None:
    """One flag per key of each config table, --n-particles for n_particles,
    --sweep-axis for axis; its value lands in the table as given."""
    for table in tables:
        for key, kind in SCHEMA[table].items():
            flag = "--sweep-axis" if key == "axis" else "--" + key.replace("_", "-")
            dest = f"{table}.{key}"
            if kind is bool:
                p.add_argument(flag, dest=dest, action="store_const", const=True)
            else:
                p.add_argument(flag, dest=dest, type=(get_args(kind) or (kind,))[0],
                               choices=_CHOICES.get(key), metavar=None if key in _CHOICES else key.upper())


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # refused as a YAML value is: one `error:` line, exit 1, no usage
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process, as parsing leaves it unchanged."""
    parser = _Parser(
        prog="singlewell",
        description="Channel QFI and ground-state QFI for acceleration sensing "
        "with two-mode bosons in a single trap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, tables in (
        ("params", "print derived model parameters", ("system",)),
        ("validate", "check everything `sweep` would check, and run nothing", tuple(SCHEMA)),
        ("sweep", "run a parameter sweep", tuple(SCHEMA)),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", help="YAML config file")
        _add_table_flags(p, *tables)

    p_plot = sub.add_parser("plot", help="render an SVG from a sweep CSV")
    p_plot.add_argument("--csv", required=True, help="sweep CSV produced by the sweep command")
    p_plot.add_argument("--svg", required=True, help="SVG output path")
    p_plot.add_argument("--log-scale", action="store_const", const=True, default=None)
    return parser


def _tables(args) -> dict[str, dict]:
    """The config file's tables with the flags that were given merged in."""
    tables = load_config(args.config)
    for dest, value in vars(args).items():
        table, _, key = dest.partition(".")
        if key and value is not None:
            tables[table][key] = value
    return tables


def _report_params(p: SystemParams, out) -> None:
    gamma, ok = validity_gamma(p)
    rows = [(FIELD_KEYS.get(f.name, f.name), getattr(p, f.name)) for f in fields(p)]
    rows += [("q", renormalized_q(p)), ("kappa", HARMONIC_KAPPA), ("gamma", gamma), ("two_mode_ok", ok)]
    for name, value in rows:
        out.write(f"{name} = {value:.12g}\n" if isinstance(value, float) else f"{name} = {value}\n")


def cmd_params(args, out) -> int:
    _report_params(system_params(_tables(args)), out)
    return EXIT_OK


def cmd_validate(args, out) -> int:
    tables = _tables(args)
    _report_params(system_params(tables), out)
    build_run(tables)
    out.write("OK: all structural invariants hold\n")
    return EXIT_OK


def cmd_sweep(args, out) -> int:
    spec, csv_path, svg_path = build_run(_tables(args))
    try:
        result = run_sweep(spec)
    except (MemoryError, SweepPointError) as exc:
        if not isinstance(exc, MemoryError) and not isinstance(exc.__cause__, MemoryError):
            raise
        n = spec.params.n_particles
        size, grid = 8 * (n + 1) ** 2, 8 * spec.steps
        raise MemoryError(f"out of memory at N = {n}: each dense (N+1)x(N+1) float64 array "
                          f"takes {size} bytes ({size / 2 ** 30:.3g} GiB), and the grid of "
                          f"{spec.steps} points takes {grid} bytes ({grid / 2 ** 30:.3g} GiB)") from exc
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
    """Exit code of a failure, from the type of the outermost exception alone."""
    if isinstance(exc, (SweepPointError, NumericsError, MemoryError)):
        return EXIT_NUMERIC
    if isinstance(exc, _REFUSED):
        return EXIT_INVARIANT
    if isinstance(exc, OSError):
        return EXIT_IO
    return None


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    _keep_freed_arrays()
    handlers = {
        "params": cmd_params,
        "validate": cmd_validate,
        "sweep": cmd_sweep,
        "plot": cmd_plot,
    }
    try:
        args = _build_parser().parse_args(argv)
        logging.basicConfig(level=logging.WARNING)
        return handlers[args.command](args, out)
    except Exception as exc:  # noqa: BLE001 - map every failure to an exit code
        code = _classify(exc)
        if code is None:
            raise
        root = exc
        while root.__cause__ is not None:
            root = root.__cause__
        detail = f"{exc}: {root}" if root is not exc and str(root) else str(exc)
        print(f"error: {detail}", file=sys.stderr)
        return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
