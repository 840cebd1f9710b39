"""Parameter layer: one point of the two-mode model and its diagnostics.

The two retained orbitals are the ground and first excited states of the
harmonic trap (units hbar = m = omega = 1). All interaction couplings are
reduced by the 1D contact strength and normalized so the mode-0
self-interaction integral equals one. `SystemParams` refuses a bad point
with a `ValueError` as it is built; `renormalized_q(p)` and
`validity_gamma(p)` read a point that has passed those checks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .spin_core import check_particle_number

__all__ = [
    "SystemParams",
    "renormalized_q",
    "validity_gamma",
]

# The harmonic dipole element <0|x|1> = 1/sqrt(2), exact; the tests check it by quadrature.
HARMONIC_KAPPA = 2.0 ** -0.5


@dataclass(frozen=True)
class SystemParams:
    """All scalars defining one parameter point of the two-mode model.

    g is the rescaled coupling N * g_1d; delta_eps the bare level
    splitting; delta_a, eta, xi the interaction shape parameters;
    lambda_acc the acceleration strength and t the accumulation time.
    The defaults are the harmonic-orbital point at N = 50, which the CLI,
    tests and scripts start from. Its shape is exact: the harmonic orbitals'
    in-mode integrals a1 = 1, a2 = 3/4, pair tunneling a3 = 1/2 and
    density-density coupling a4 = 2 (sigma_a = a1 + a2) give
    delta_a = a1 - a2, eta = (a4 + 2 a3 - sigma_a)/2 and
    xi = (sigma_a + 2 a3 - a4)/(sigma_a - 2 a3 - a4). g_1d must keep gamma
    (`validity_gamma`) a finite float, and N t the Heisenberg ceiling (N t)^2.
    """

    n_particles: int = 50
    g: float = 0.0
    delta_eps: float = 1.0
    delta_a: float = 0.25
    eta: float = 0.625
    xi: float = -0.6
    lambda_acc: float = 1.0
    t: float = 1.0

    def __post_init__(self):
        check_particle_number(self.n_particles)
        if 8 * (int(self.n_particles) + 1) ** 2 > np.iinfo(np.intp).max:
            raise ValueError(
                f"n_particles = {self.n_particles} is too large: an (N+1)x(N+1) float64 "
                "matrix does not fit in the address space"
            )
        non_finite = [f.name for f in fields(self) if not np.isfinite(as_float(f.name, getattr(self, f.name)))]
        if non_finite:
            keys = ", ".join(FIELD_KEYS.get(name, name) for name in non_finite)
            raise ValueError(f"parameters must be finite, got non-finite {keys}")
        if self.g < 0.0:
            raise ValueError(f"repulsive model requires g >= 0, got {self.g!r}")
        if self.t < 0.0:
            raise ValueError(f"evolution time must be nonnegative, got {self.t!r}")
        if (
            abs(self.eta) > 1e-12
            and abs(self.xi) > 1e-12
            and np.sign(self.eta) == np.sign(self.xi)
        ):
            raise ValueError(
                f"eta = {self.eta!r} and xi = {self.xi!r} must have opposite signs"
            )
        if not (self.xi <= 1e-12 or self.xi >= 1.0 - 1e-12):
            raise ValueError(f"xi must be <= 0 or >= 1, got {self.xi!r}")
        validity_gamma(self)
        root = float(self.n_particles * self.t)
        if not root * root < np.inf:  # float * float gives inf where ** would raise
            raise ValueError(
                f"Heisenberg ceiling (N t)^2 overflows a float at N = {self.n_particles}, t = {self.t!r}"
            )

    @property
    def g_1d(self) -> float:
        return self.g / self.n_particles


def as_float(name: str, value) -> float:
    """float(value) of an int or a float; a bool, any other type or an int beyond a
    float is refused as a ValueError that names the field by its YAML key."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{FIELD_KEYS.get(name, name)} must be a float, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{FIELD_KEYS.get(name, name)} is beyond the range of a float "
                         "(2^1024 or more in magnitude)") from exc


def renormalized_q(p: SystemParams) -> float:
    """Interaction-shifted level splitting q = g (N-1)/(2N) delta_a - delta_eps, the
    coefficient of Jz in H; q = 0 marks the optimal coupling."""
    n = p.n_particles
    return -p.delta_eps + p.g * (n - 1) / (2.0 * n) * p.delta_a


def validity_gamma(p: SystemParams) -> tuple[float, bool]:
    """Lieb-Liniger-type diagnostic for the two-mode truncation.

    gamma = 1.5 * g_1d^(4/3) * N^(-2/3); the truncation is trusted for
    gamma of order one or below. The boolean flag uses gamma <= 1 and is
    advisory only.
    """
    try:
        gamma = 1.5 * p.g_1d ** (4.0 / 3.0) * p.n_particles ** (-2.0 / 3.0)
    except OverflowError as exc:
        raise ValueError(
            f"two-mode validity gamma overflows a float at g_1d = {p.g_1d!r}, N = {p.n_particles}"
        ) from exc
    return float(gamma), bool(gamma <= 1.0)


# Sweepable axis name -> SystemParams field. An axis is named as its YAML
# key and CSV column, so this is where lambda stands for lambda_acc.
AXIS_FIELDS = {
    "g": "g",
    "delta_eps": "delta_eps",
    "t": "t",
    "lambda": "lambda_acc",
    "delta_a": "delta_a",
}
# YAML key and metadata name -> spec field for the axes and the grid ends, and
# back; any other key is its field's name. A refusal names a field by its key.
KEY_FIELDS = {**AXIS_FIELDS, "min": "axis_min", "max": "axis_max"}
FIELD_KEYS = {name: key for key, name in KEY_FIELDS.items()}


def with_axis_value(p: SystemParams, axis: str, value: float) -> SystemParams:
    """Return a copy of p with one sweepable axis, checked by `SweepSpec`, replaced."""
    return replace(p, **{AXIS_FIELDS[axis]: float(value)})
