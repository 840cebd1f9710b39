"""Parameter sweeps over one axis, with CSV and SVG emission.

A sweep evaluates one target (analytic noninteracting channel QFI,
interacting channel QFI, or the ground-state protocol QFI) on a uniform
grid of a single axis while every other parameter stays fixed. It loops
in grid order through the kernels `dynamical_generator`, `prepare_input`
and `qfi_pure_state`, with the work that does not change along the grid
done once: the protocol input state and, on the t axis, where H stays the
same, the decomposition of H. A channel-QFI loop writes the kernels G~ of
consecutive points into one stack of up to STACK_BYTES and reads their
spectra with one `eigvalsh` call, long enough to leave the interpreter to
another thread. Given two CPUs and a BLAS on one thread per call
(OPENBLAS_NUM_THREADS=1), a channel-QFI sweep at every N, and a protocol
sweep from N = THREADS_FROM_N on, runs the two halves of its grid in two
such loops on two threads. Each loop writes its rows at their grid
indices, and a failure names the first failing point in grid order, as one
loop would: a stack whose `eigvalsh` raises is read again one kernel at a
time. Every point does the same arithmetic on either path, since
`eigvalsh` runs the same LAPACK call on each matrix of a stack.
A spec is checked whole when it is built, its protocol inputs included
whatever the target, so a bad spec fails before any point runs. Identical
specs produce byte-identical CSVs. A result is the CSV's table: its named
columns, the axis first, and the metadata that echoes the target and the
fixed parameters.
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .analytic import cqfi_noninteracting, phase_shift_qfi
from .dynamics import cqfi_upper_bound, dynamical_generator, generator_at, qfi_pure_state, spread_squared
from .errors import NumericsError
from .linalg import blas_threads
from .modes import AXIS_FIELDS, FIELD_KEYS, SystemParams, as_float, validity_gamma, with_axis_value
from .plotting import render_svg
from .protocols import STATE_KINDS, prepare_input

__all__ = [
    "SweepSpec",
    "SweepResult",
    "SweepPointError",
    "run_sweep",
    "emit_csv",
    "emit_plot",
    "load_csv",
]

log = logging.getLogger(__name__)

TARGETS = ("cqfi_noninteracting", "cqfi_interacting", "protocol_qfi")
AXES = tuple(AXIS_FIELDS)
_COLUMNS = ("value", "bound", "ideal")  # after the axis; ideal only in protocol sweeps
# Given two CPUs and a BLAS on one thread per call, a sweep runs the two halves of its grid on
# two threads (dsbevd through ctypes, matmul and eigvalsh release the GIL): a protocol sweep from
# this N on, a channel-QFI sweep at every N. 101-point g-sweeps on a 2-core Xeon VM, one BLAS
# thread, one sweep thread -> two, medians of 5, ms: protocol 37.7 -> 40.3 at N = 50, 108.9 ->
# 110.6 at 100, 142.0 -> 147.9 at 120, 202.8 -> 118.6 at 150, 361.7 -> 210.6 at 200. A channel
# point's eigvalsh, ~0.1 ms at N = 50, is too short to leave the interpreter to the other thread;
# a stack of kernels read in one call is not. Fig. 2's N = 50 workload in process, against one
# thread reading one kernel per call: two threads, one kernel per call, 1.01-1.05x; stacks of
# 16 on one thread 1.06x, on two 1.50-1.58x; stacks of 4, 8 and 32 on two, 1.18, 1.27 and 1.50x.
# Over a two-thread OpenBLAS, two sweep threads ran 0.62x (protocol) and 0.76x (cQFI) as fast as
# one at N = 200.
THREADS_FROM_N = 150
# The bytes of one channel-QFI loop's stack of kernels: 16 at N = 50, 4 at N = 100, 1 from
# N = 145 on, where the stack is the point's own kernel.
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
        return np.linspace(self.axis_min, self.axis_max, self.steps)


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
    """How many (N+1) x (N+1) kernels a channel-QFI loop stacks for one `eigvalsh` call:
    as many as STACK_BYTES holds, and at least one."""
    return max(1, STACK_BYTES // (8 * (n_particles + 1) ** 2))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the target over the grid; any point failure aborts the sweep,
    naming the first failing point in grid order."""
    grid = spec.grid()
    values = grid.tolist()
    n = spec.params.n_particles + 1
    protocol = spec.target == "protocol_qfi"
    channel = spec.target == "cqfi_interacting"
    psi = None
    if protocol:
        psi, jx_variance = prepare_input(spec.params.n_particles, spec.state_kind, spec.theta)
    rows, gammas = [None] * spec.steps, [0.0] * spec.steps  # gamma stays 0 where g does not enter
    failures = []  # (grid index, exception) of each loop's failing point; read while the other appends
    size = stack_size(spec.params.n_particles) if channel else 1

    def read(kernels: np.ndarray, pending: list) -> None:
        """The channel QFI of each stacked kernel into the row of its point, (grid index, bound)
        in pending, which empties; a failing kernel's point fails and pending stays."""
        try:
            cqfis = spread_squared(kernels).tolist()
        except Exception:  # read the kernels again one at a time, to find the failing point
            cqfis = []
            for kernel, (i, _) in zip(kernels, pending):
                try:
                    cqfis.append(float(spread_squared(kernel)))
                except Exception as exc:
                    failures.append((i, exc))
                    return
        for cqfi, (i, bound) in zip(cqfis, pending):
            rows[i] = (cqfi, bound)
        pending.clear()

    def run(start: int, stop: int) -> None:
        """The points of grid[start:stop] in order, each row at its index; stops at a failure.
        A channel-QFI point writes its kernel into the next slot of the stack, which is read
        once full and at the end; with room for one kernel, the stack is the point's own."""
        gen = None
        stack = np.empty((min(size, stop - start), n, n)) if size > 1 else None
        pending = []  # (grid index, bound) of each point whose kernel waits in the stack
        for i in range(start, stop):
            if failures and any(j < i for j, _ in failures):  # the sweep failed at an earlier point
                return
            try:
                p = with_axis_value(spec.params, spec.axis, values[i])
                bound = cqfi_upper_bound(p.n_particles, p.t)
                if spec.target == "cqfi_noninteracting":
                    rows[i] = (cqfi_noninteracting(p.n_particles, p.lambda_acc, p.delta_eps, p.t), bound)
                    continue  # g does not enter it, so neither does two-mode validity
                out = None if stack is None else stack[len(pending)]
                if spec.axis == "t" and gen is not None:  # H does not depend on t
                    energies, jx, state = gen.energies, gen.jx, gen.state
                    gen = None  # release the last point's kernel before building the next
                    gen = generator_at(energies, jx, p.t, state, out)
                else:
                    gen = None  # release the last point's arrays before building the next H
                    gen = dynamical_generator(p, psi, out)
                gammas[i] = validity_gamma(p)[0]
                if protocol:
                    rows[i] = (qfi_pure_state(gen), bound, phase_shift_qfi(jx_variance, p.t))
                    continue
                pending.append((i, bound))
                if len(pending) == size or i == stop - 1:
                    read(gen.kernel[np.newaxis] if stack is None else stack[:len(pending)], pending)
                    if pending:  # left unread: a kernel failed
                        return
            except Exception as exc:  # raised on the caller's thread: none escapes a worker
                if pending:  # an earlier point of the stack fails first if its kernel does
                    read(stack[:len(pending)], pending)
                failures.append((i, exc))
                return

    threaded = ((channel or (protocol and spec.params.n_particles >= THREADS_FROM_N))
                and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
                and blas_threads() == 1)
    split = (spec.steps + 1) // 2 if threaded else spec.steps
    if threaded:
        second = threading.Thread(target=run, args=(split, spec.steps), daemon=True)
        second.start()
    run(0, split)
    if threaded:
        second.join()
    if failures:
        first, exc = min(failures, key=lambda failure: failure[0])
        raise SweepPointError(
            f"sweep point failed at {spec.axis} = {values[first]!r} "
            f"(target = {spec.target}, fixed = {spec.params})"
        ) from exc

    outside = sum(gamma > 1.0 for gamma in gammas)
    if outside:
        log.warning(
            "%d of %d points outside two-mode validity, gamma_max = %.3g",
            outside, len(gammas), max(gammas),
        )

    p = spec.params
    metadata = {"target": spec.target, "axis": spec.axis, "steps": spec.steps}
    metadata.update({FIELD_KEYS.get(f.name, f.name): getattr(p, f.name) for f in fields(p)})
    metadata["log_scale"] = spec.log_scale
    # The swept axis is not a fixed parameter; keep it out of the echo.
    metadata.pop(spec.axis, None)
    if protocol:
        metadata["theta"] = spec.theta
        metadata["state_kind"] = spec.state_kind
    columns = dict(zip((spec.axis, *_COLUMNS), (grid, *np.array(rows).T)))
    return SweepResult(columns=columns, metadata=metadata)


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
