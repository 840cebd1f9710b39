"""Parameter sweeps over one axis, with CSV and SVG emission.

A sweep evaluates one target (analytic noninteracting channel QFI,
interacting channel QFI, or the ground-state protocol QFI) on a uniform
grid of a single axis while every other parameter stays fixed; `SweepSpec`
checks it whole when it is built, so a bad spec fails before any point
runs. Sweeps on one grid share one pass over it (`run_sweeps`). A pass
reads the closed form off the grid and builds generators in chunks of
`stack_size(N)` points: one array of their bands, one stack of their
generators, one `eigvalsh` call for their channel QFI and one
`qfi_pure_state` call per prepared input, each point by the arithmetic
of its own call, so identical specs give byte-identical
CSVs; a chunk that fails is read again point by point, so a failure names
the first failing point in grid order. Given two CPUs and a one-thread
BLAS, a pass that builds generators runs its two halves on two threads. A
result is the CSV's table (`SweepResult`).
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .analytic import cqfi_noninteracting, phase_shift_qfi
from .dynamics import cqfi_upper_bound, dynamical_generator, eigenbasis, generator_at, qfi_pure_state, spread_squared
from .errors import NumericsError
from .linalg import blas_threads
from .modes import AXIS_FIELDS, FIELD_KEYS, SystemParams, as_float, axis_gammas, with_axis_value
from .plotting import render_svg
from .protocols import STATE_KINDS, prepare_input

__all__ = ["SweepSpec", "SweepResult", "SweepPointError", "run_sweep", "run_sweeps", "emit_csv", "emit_plot",
           "load_csv"]

log = logging.getLogger(__name__)

TARGETS = ("cqfi_noninteracting", "cqfi_interacting", "protocol_qfi")
AXES = tuple(AXIS_FIELDS)
_COLUMNS = ("value", "bound", "ideal")  # after the axis; ideal only in protocol sweeps
# The bytes of one chunk's stack of kernels: 16 points at N = 50, 4 at N = 100, 1 from N = 145 on.
STACK_BYTES = 340_000


class SweepPointError(Exception):
    """One grid point failed; carries the offending parameter tuple."""


@dataclass(frozen=True)
class SweepSpec:
    """One target on a uniform grid of one axis around a fixed point; the
    defaults are the CLI's: a 101-point g-sweep of the channel QFI at the
    harmonic point, and the fragmented input at theta = 0.5."""

    target: str = "cqfi_interacting"
    axis: str = "g"
    axis_min: float = 0.0
    axis_max: float = 200.0
    steps: int = 101
    params: SystemParams = field(default_factory=SystemParams)
    theta: float = 0.5
    state_kind: str = "fragmented"
    log_scale: bool = False

    def __post_init__(self):
        if not isinstance(self.params, SystemParams):
            raise ValueError(f"params must be a SystemParams, got {self.params!r}")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}; expected one of {TARGETS}")
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}; expected one of {AXES}")
        width = as_float("axis_max", self.axis_max) - as_float("axis_min", self.axis_min)
        if not 0.0 < width < np.inf:  # NaN or infinite ends too
            raise ValueError(
                f"axis range must be increasing and finite with a width that fits a float, "
                f"got [{self.axis_min!r}, {self.axis_max!r}]"
            )
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)) or self.steps < 2:
            raise ValueError(f"a sweep needs an integer of at least 2 steps, got {self.steps!r}")
        limit = np.iinfo(np.intp).max  # as SystemParams bounds N
        # np.linspace allocates float(steps) entries, 2^60 from 2^60 - 64 on; int first: float() overflows
        if 8 * self.steps > limit or 8 * float(self.steps) > limit:
            raise ValueError(f"steps = {self.steps} is too large: the grid does not fit in the address space")
        for end in (self.axis_min, self.axis_max):
            with_axis_value(self.params, self.axis, end)  # e.g. g < 0 fails here, not mid-sweep
        # The protocol input is checked whatever the target.
        if not 0.0 <= as_float("theta", self.theta) <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta!r}")
        if self.state_kind not in STATE_KINDS:
            raise ValueError(f"unknown state_kind {self.state_kind!r}; expected one of {STATE_KINDS}")
        if not isinstance(self.log_scale, bool):
            raise ValueError(f"log_scale must be a bool, got {self.log_scale!r}")

    def grid(self) -> np.ndarray:
        return np.linspace(float(self.axis_min), float(self.axis_max), self.steps)


@dataclass(frozen=True)
class SweepResult:
    """The CSV's columns by header name: the grid under the axis name, the
    target values, the per-row Heisenberg bound and, for protocol sweeps,
    the pure phase-shift baseline ideal; metadata echoes the target and
    the fixed parameters."""

    columns: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    @property
    def axis(self) -> str:
        return next(iter(self.columns))

    def __post_init__(self):
        shape = self.columns[self.axis].shape
        for col in self.columns.values():
            if not np.all(np.isfinite(col)):
                raise NumericsError("sweep produced non-finite values")
            if col.shape != shape:
                raise ValueError("sweep columns must share one length")


def stack_size(n_particles: int) -> int:
    """How many points a pass reads as one chunk: as many (N+1) x (N+1) kernels as STACK_BYTES
    holds, and at least one."""
    return max(1, STACK_BYTES // (8 * (n_particles + 1) ** 2))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the target over the grid; any point failure aborts the sweep,
    naming the first failing point in grid order."""
    return run_sweeps([spec])[0]


def run_sweeps(specs: list[SweepSpec]) -> list[SweepResult]:
    """The result of each spec, in order, as `run_sweep` gives it, from one pass per distinct grid
    (params, axis, ends and steps), which every spec on it reads; equal specs share one result."""
    passes: dict[tuple, list[SweepSpec]] = {}
    for spec in dict.fromkeys(specs):
        passes.setdefault((spec.params, spec.axis, spec.axis_min, spec.axis_max, spec.steps), []).append(spec)
    results = {spec: result for group in passes.values() for spec, result in zip(group, _run_pass(group))}
    return [results[spec] for spec in specs]


def _run_pass(specs: list[SweepSpec]) -> list[SweepResult]:
    """The results of distinct specs on one grid, from one pass over it. The closed form is read off the
    grid; the QFI of each prepared input and the channel QFI are read off one stack of generators per
    chunk of `stack_size(N)` points."""
    spec = specs[0]
    steps, n = spec.steps, spec.params.n_particles + 1
    grid = spec.grid()
    values = grid.tolist()
    inputs = {(s.state_kind, s.theta): prepare_input(n - 1, s.state_kind, s.theta)
              for s in specs if s.target == "protocol_qfi"}
    rows = {key: [None] * steps for key in [s.target for s in specs if s.target == "cqfi_interacting"] + [*inputs]}
    if any(s.target == "cqfi_noninteracting" for s in specs):
        rows["cqfi_noninteracting"] = [cqfi_noninteracting(n - 1, p["lambda_acc"], p["delta_eps"], p["t"])
                                       for p in ({**vars(spec.params), AXIS_FIELDS[spec.axis]: v} for v in values)]
    failures = []  # (grid index, exception) of each loop's failing point; read while the other appends
    channel, size = rows.get("cqfi_interacting"), stack_size(n - 1)
    build = None  # a chunk of the grid -> the stack of its generators
    try:
        if channel is not None or inputs:
            psi = np.stack([prepared for prepared, _ in inputs.values()]) if inputs else None
            build = lambda chunk: dynamical_generator(spec.params, psi, spec.axis, chunk)  # noqa: E731
            if spec.axis == "t":  # H does not change along t: decompose it once, before any thread starts
                energies, jx, state = eigenbasis(spec.params, psi)  # E and V^T psi serve every slot of a chunk
                build = lambda chunk: generator_at(energies, np.repeat(jx, len(chunk), axis=0), chunk,  # noqa: E731
                                                   state)
    except Exception as exc:
        failures.append((0, exc))

    def read(first: int, stop: int) -> None:
        """The readouts of grid[first:stop], each at its grid index."""
        gen = build(grid[first:stop])
        if channel is not None:
            channel[first:stop] = spread_squared(gen.kernel).tolist()
        for k, key in enumerate(inputs):
            rows[key][first:stop] = qfi_pure_state(gen, gen.state[:, k]).tolist()

    def run(start: int, stop: int) -> None:
        """The readouts of grid[start:stop] in chunks, until a point fails. A chunk that fails is read
        again point by point, so the first failing point is the one named."""
        for first in range(start, stop, size):
            if any(j < first for j, _ in failures):  # the sweep failed at an earlier point
                return
            try:
                read(first, min(first + size, stop))
            except Exception:  # raised on the caller's thread: none escapes a worker
                for i in range(first, min(first + size, stop)):
                    try:
                        read(i, i + 1)
                    except Exception as exc:
                        failures.append((i, exc))
                        return

    if build is not None and not failures:
        # dsbevd, matmul and eigvalsh release the GIL. 101-point sweeps, one thread -> two, one BLAS thread:
        # 1.4-2.0x along g and 0.96-1.7x along t from N = 50 on, 0.77-1.06x (~1 ms) at N = 12 (CHANGES.md);
        # over a two-thread BLAS, 0.62x (protocol) and 0.76x (cQFI) at N = 200.
        threaded = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2 and blas_threads() == 1
        split = (steps + 1) // 2 if threaded else steps
        if threaded:
            second = threading.Thread(target=run, args=(split, steps), daemon=True)
            second.start()
        run(0, split)
        if threaded:
            second.join()
    if failures:
        index, exc = min(failures, key=lambda failure: failure[0])
        raise SweepPointError(
            f"sweep point failed at {spec.axis} = {values[index]!r} "
            f"(target = {', '.join(dict.fromkeys(s.target for s in specs))}, fixed = {spec.params})"
        ) from exc

    if build is not None:  # where g enters: one line for the whole grid
        gammas = axis_gammas(spec.params, spec.axis, grid)
        if outside := int((gammas > 1.0).sum()):
            log.warning("%d of %d points outside two-mode validity, gamma_max = %.3g", outside, steps, gammas.max())
    ts = values if spec.axis == "t" else [spec.params.t] * steps  # the bound and baseline read t alone
    bounds = [cqfi_upper_bound(n - 1, t) for t in ts]
    results = []
    for s in specs:
        protocol = s.target == "protocol_qfi"
        metadata = {"target": s.target, "axis": s.axis, "steps": s.steps,
                    **{FIELD_KEYS.get(f.name, f.name): getattr(s.params, f.name)  # the swept axis is not fixed
                       for f in fields(s.params) if f.name != AXIS_FIELDS[s.axis]},
                    "log_scale": s.log_scale, **({"theta": s.theta, "state_kind": s.state_kind} if protocol else {})}
        key = (s.state_kind, s.theta) if protocol else s.target
        ideal = [[phase_shift_qfi(inputs[key][1], t) for t in ts]] if protocol else []
        columns = dict(zip((s.axis, *_COLUMNS), map(np.array, (s.grid(), rows[key], bounds, *ideal))))
        results.append(SweepResult(columns=columns, metadata=metadata))
    return results


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def emit_csv(result: SweepResult, path: str) -> None:
    """Write the sweep as UTF-8 CSV: '#' metadata lines, header, 12-digit rows."""
    if not path:
        raise ValueError("CSV path must be a non-empty string")
    lines = [f"# {key} = {_fmt_value(val)}" for key, val in result.metadata.items()]
    lines.append(",".join(result.columns))
    for row in zip(*(col.tolist() for col in result.columns.values())):  # Python floats format faster
        lines.append(",".join(f"{v:.12g}" for v in row))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_csv(path: str) -> SweepResult:
    """Read back a sweep CSV produced by emit_csv.

    The file may come from anywhere, so it is checked as it is read: it
    must be UTF-8, the header axis,value,bound[,ideal], every row as wide
    as the header, and every value a finite number; anything else is a
    ValueError that names the file.
    """
    metadata: dict = {}
    header: list[str] | None = None
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path!r} is not UTF-8 text") from exc
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            metadata[key.strip()] = _parse_meta(val.strip())
        elif header is None:
            header = [c.strip() for c in line.split(",")]
            if header[0] not in AXES or tuple(header[1:]) not in (_COLUMNS[:2], _COLUMNS):
                raise ValueError(f"header {line!r} of {path!r} is not axis,value,bound[,ideal]")
        else:
            try:
                row = [float(c) for c in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"row {line!r} of {path!r} has a value that is not a number") from exc
            if len(row) != len(header):
                raise ValueError(
                    f"row {line!r} of {path!r} has {len(row)} columns, its header {len(header)}"
                )
            if not np.isfinite(row).all():
                raise ValueError(f"row {line!r} of {path!r} has a non-finite value")
            rows.append(row)
    if header is None or not rows:
        raise ValueError(f"no sweep data found in {path!r}")
    if not isinstance(metadata.get("log_scale", False), bool):
        raise ValueError(f"log_scale of {path!r} must be true or false, got {metadata['log_scale']!r}")
    return SweepResult(columns=dict(zip(header, np.array(rows).T)), metadata=metadata)


def _parse_meta(raw: str):
    if raw in ("true", "false"):
        return raw == "true"
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def emit_plot(result: SweepResult, path: str, log_scale: bool | None = None) -> None:
    """Write the sweep as a static SVG with the Heisenberg bound as reference."""
    if not path:
        raise ValueError("SVG path must be a non-empty string")
    if log_scale is None:
        log_scale = result.metadata.get("log_scale", False)
    (axis, grid), *series = result.columns.items()
    svg = render_svg(
        grid.tolist(),  # Python floats: the renderer works value by value
        {name: col.tolist() for name, col in series},
        x_label=axis,
        y_label=result.metadata.get("target", "value"),
        log_scale=log_scale,
        title=_title(result.metadata),
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)


def _title(metadata: dict) -> str:
    keys = ("n_particles", "delta_eps", "lambda", "t")
    bits = [f"{k}={_fmt_value(metadata[k])}" for k in keys if k in metadata]
    if "state_kind" in metadata:
        bits.append(str(metadata["state_kind"]))
    return ", ".join(bits)
