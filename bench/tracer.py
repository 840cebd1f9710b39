"""Outside-in tracer for singlewell: spans at every public layer boundary.

`Tracer.install()` discovers, in each module of the package, every public
module-level function and every public class defined there, and wraps
them without editing the package: a function is rebound at every place a
loaded singlewell module (the package re-exports included) holds it, since
modules import each other's functions by name; a class gets a wrapped
`__init__`. `numpy.linalg.eigh` and `eigvalsh` are wrapped too and form
the `linalg` layer. Each call records a span (parent span, name, start,
end, failed) in memory; `dump()` hands them over at the end.

A layer is the last component of the module name. `summarize` turns spans
into per-layer call counts, busy time (outermost span of the layer only, so
re-entry into the same layer is not counted twice), self time (duration
minus the time covered by child spans) and error counts. Names that the
package no longer defines simply report zero calls.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import statistics
import sys
import time

import numpy as np

PACKAGE = "singlewell"
LINALG = ("eigh", "eigvalsh")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [parent span or -1, name index, t0, t1, failed]
        self.linalg: list[list] = []  # [span, n, batch, complex, vectors]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def install(self) -> None:
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        functions, classes = {}, []
        for mod in modules:
            if mod is pkg:
                continue
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, enum.Enum):
                        classes.append((f"{layer}.{attr}", obj, obj.__init__))
                elif callable(obj):
                    functions[id(obj)] = (f"{layer}.{attr}", obj)
        # Originals are read before any patch so a subclass wraps its base's
        # unwrapped __init__.
        for name, cls, init in classes:
            self._patch(cls, "__init__", self._wrap(name, init))
        for name, fn in functions.values():
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._patch(mod, attr, wrapper)
        for attr in LINALG:
            self._patch(np.linalg, attr, self._wrap_linalg(attr, getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "linalg": self.linalg}

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), attr in vars(owner)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, on_enter=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            record = [stack[-1] if stack else -1, index, 0.0, 0.0, 0]
            spans.append(record)
            if on_enter is not None:
                on_enter(span, args)
            stack.append(span)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[4] = 1
                raise
            finally:
                record[3] = clock()
                stack.pop()

        return traced

    def _wrap_linalg(self, attr: str, fn):
        def on_enter(span, args):
            a = np.asarray(args[0])
            n = a.shape[-1] if a.ndim >= 2 else 0
            batch = int(np.prod(a.shape[:-2])) if a.ndim > 2 else 1
            self.linalg.append([span, int(n), batch, bool(np.iscomplexobj(a)), attr == "eigh"])

        return self._wrap(f"linalg.{attr}", fn, on_enter)


def flops(n: int, batch: int, is_complex: bool, vectors: bool) -> float:
    """Computed operation count of a dense Hermitian eigensolve.

    Golub & Van Loan's counts for the symmetric QR algorithm: 9 n^3 with
    eigenvectors, 4 n^3 / 3 for eigenvalues alone; complex arithmetic
    counts four real operations per multiply-add.
    """
    real = 9.0 * n ** 3 if vectors else 4.0 * n ** 3 / 3.0
    return batch * real * (4.0 if is_complex else 1.0)


def summarize(trace: dict) -> dict:
    """Per-name and per-layer aggregates of one traced run."""
    names, spans = trace["names"], trace["spans"]
    layer_of = [name.partition(".")[0] for name in names]
    durations = [t1 - t0 for _, _, t0, t1, _ in spans]
    child = [0.0] * len(spans)
    for (parent, *_), dur in zip(spans, durations):
        if parent >= 0:
            child[parent] += dur

    per_name: dict[str, list[float]] = {}
    layers: dict[str, dict] = {}
    outermost: dict[str, int] = {}
    for i, ((parent, index, _, _, failed), dur) in enumerate(zip(spans, durations)):
        name, layer = names[index], layer_of[index]
        per_name.setdefault(name, []).append(dur)
        agg = layers.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
        agg["calls"] += 1
        agg["self_s"] += dur - child[i]
        agg["errors"] += failed
        ancestor = parent
        while ancestor >= 0 and layer_of[spans[ancestor][1]] != layer:
            ancestor = spans[ancestor][0]
        if ancestor < 0:
            agg["busy_s"] += dur
            outermost[name] = outermost.get(name, 0) + 1

    linalg_flop = sum(flops(n, batch, cplx, vec) for _, n, batch, cplx, vec in trace["linalg"])
    linalg_time = sum(durations[span] for span, *_ in trace["linalg"])
    linalg_calls = len(trace["linalg"])
    return {
        "layers": layers,
        "calls": {name: len(d) for name, d in per_name.items()},
        "outermost_calls": outermost,
        "ms_per_call": {name: 1e3 * statistics.median(d) for name, d in per_name.items()},
        "linalg": {
            "complex_share": (sum(1 for _, _, _, cplx, _ in trace["linalg"] if cplx) / linalg_calls
                              if linalg_calls else 0.0),
            "flop": linalg_flop,
            "gflop_per_s": linalg_flop / linalg_time / 1e9 if linalg_time > 0 else 0.0,
        },
    }
