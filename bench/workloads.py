"""Seeded workload generator: the sweeps that make up each benchmark workload.

Each workload is taken from one of the paper's figures. A seed jitters the
fixed physics parameters and the upper grid endpoints by a factor drawn
uniformly from [1 - JITTER, 1 + JITTER], rounded to four decimals. Axes,
particle numbers, point counts, lower grid endpoints (all 0), the zero
coupling of the g = 0 t-sweep and the harmonic shape parameters eta and xi
never change, so every seed does the same amount of work. The program sees
only the YAML files and argv lists generated here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

JITTER = 0.02

# Harmonic-orbital interaction shape used by every figure of the paper.
ETA = 0.625
XI = -0.6


@dataclass(frozen=True)
class Sweep:
    """One `singlewell sweep` invocation: a target evaluated on a uniform grid."""

    stem: str
    target: str
    axis: str
    axis_min: float
    axis_max: float
    steps: int
    system: dict  # every fixed parameter, keyed as in the YAML [system] table
    theta: float = 0.5
    state_kind: str = "fragmented"
    log_scale: bool = False

    def config_yaml(self) -> str:
        """The YAML config: physics and grid; steps and outputs come as flags."""
        lines = ["system:"]
        lines += [f"  {key}: {_yaml_value(val)}" for key, val in self.system.items()]
        lines += ["protocol:", f"  theta: {_yaml_value(self.theta)}", f"  state_kind: {self.state_kind}"]
        lines += [
            "sweep:",
            f"  target: {self.target}",
            f"  axis: {self.axis}",
            f"  min: {_yaml_value(self.axis_min)}",
            f"  max: {_yaml_value(self.axis_max)}",
            f"  log_scale: {_yaml_value(self.log_scale)}",
        ]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple[Sweep, ...]
    replot: bool  # re-render every SVG from its CSV with `singlewell plot`

    @property
    def points(self) -> int:
        return sum(s.steps for s in self.sweeps)

    def files(self) -> dict[str, str]:
        """Input files to place in the working directory before the run."""
        return {f"{s.stem}.yaml": s.config_yaml() for s in self.sweeps}

    def invocations(self) -> list[tuple[int, list[str]]]:
        """(index of the sweep it serves, CLI argv), in the order they run."""
        calls = [
            (i, ["sweep", "-c", f"{s.stem}.yaml", "--steps", str(s.steps),
                 "--csv", f"{s.stem}.csv", "--svg", f"{s.stem}.svg"])
            for i, s in enumerate(self.sweeps)
        ]
        if self.replot:
            calls += [
                (i, ["plot", "--csv", f"{s.stem}.csv", "--svg", f"{s.stem}.svg"])
                for i, s in enumerate(self.sweeps)
            ]
        return calls


def _yaml_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def _jitter(name: str, seed: int):
    rng = random.Random(f"{name}:{seed}")
    return lambda value: round(value * rng.uniform(1.0 - JITTER, 1.0 + JITTER), 4)


def _system(n_particles: int, **fixed) -> dict:
    return {"n_particles": n_particles, "delta_a": 0.25, "eta": ETA, "xi": XI, **fixed}


def _without(system: dict, axis: str) -> dict:
    return {k: v for k, v in system.items() if k != axis}


def fig2_cqfi_n50(seed: int) -> Workload:
    """Fig. 2: channel QFI at N = 50 over g (a, b), delta_eps (c) and t (d)."""
    j = _jitter("fig2-cqfi-n50", seed)
    lam, t, de, g_max = j(1.0), j(1.0), j(10.0), j(200.0)
    base = _system(50, g=0.0, delta_eps=de, **{"lambda": lam}, t=t)
    sweeps = []
    for de_a in (1.0, 5.0, 10.0):
        sweeps.append(Sweep(f"cqfi_vs_g_deps{de_a:g}", "cqfi_interacting", "g", 0.0, g_max, 101,
                            _without({**base, "delta_eps": j(de_a)}, "g")))
    for da in (0.25, 0.5, 1.0):
        sweeps.append(Sweep(f"cqfi_vs_g_da{da:g}", "cqfi_interacting", "g", 0.0, g_max, 101,
                            _without({**base, "delta_a": j(da)}, "g")))
    sweeps.append(Sweep("cqfi_vs_delta_eps_g20", "cqfi_interacting", "delta_eps", 0.0, j(20.0), 201,
                        _without({**base, "g": j(20.0)}, "delta_eps")))
    t_max = j(10.0)
    for g in (0.0, 20.0, 80.0):
        sweeps.append(Sweep(f"cqfi_vs_t_g{g:g}", "cqfi_interacting", "t", 0.0, t_max, 201,
                            _without({**base, "g": j(g)}, "t")))
    return Workload("fig2-cqfi-n50", tuple(sweeps), replot=True)


def fig3_protocol_n200(seed: int) -> Workload:
    """Fig. 3: ground-state protocol QFI of the fragmented input over g at N = 200."""
    j = _jitter("fig3-protocol-n200", seed)
    system = _system(200, delta_eps=j(10.0), **{"lambda": j(1.0)}, t=j(1.0))
    sweep = Sweep("qfi_vs_g_fragmented", "protocol_qfi", "g", 0.0, j(200.0), 101, system,
                  theta=j(0.5), state_kind="fragmented", log_scale=True)
    return Workload("fig3-protocol-n200", (sweep,), replot=False)


WORKLOADS = {
    "fig2-cqfi-n50": fig2_cqfi_n50,
    "fig3-protocol-n200": fig3_protocol_n200,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
