"""Orbital layer: overlap integrals of the trap modes and derived couplings.

The two retained orbitals are the ground and first excited states of the
harmonic trap (units hbar = m = omega = 1). All interaction couplings are
reduced by the 1D contact strength and normalized so the mode-0
self-interaction integral equals one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InvariantError, NumericsError

__all__ = [
    "ModeIntegrals",
    "SystemParams",
    "harmonic_mode_integrals",
    "derive_params",
    "renormalized_q",
    "validity_gamma",
]

_REALITY_TOL = 1e-10
_QUAD_TOL = 1e-10

# The harmonic dipole element <0|x|1>, exact; harmonic_mode_integrals()
# gives it to quadrature precision.
HARMONIC_KAPPA = 2.0 ** -0.5

# Orbital prefactors with the Gaussian exp(-x^2/2) stripped off:
# psi_i(x) = h_i(x) exp(-x^2/2), and d/dx psi_i(x) = d_i(x) exp(-x^2/2).
_PI4 = np.pi ** -0.25


def _h0(x):
    return _PI4 * np.ones_like(x)


def _h1(x):
    return _PI4 * np.sqrt(2.0) * x


def _d0(x):
    return -_PI4 * x


def _d1(x):
    return _PI4 * np.sqrt(2.0) * (1.0 - x * x)


@dataclass(frozen=True)
class ModeIntegrals:
    """Reduced couplings of the two-orbital expansion.

    a1, a2 are the in-mode interaction integrals, a3 the pair-tunneling
    amplitude and a4 the density-density coupling; sigma_a = a1 + a2.
    kappa is the dipole element <0|x|1> and eps0, eps1 the single-particle
    energies, all in trap units.
    """

    a1: float
    a2: float
    a3: float
    a4: float
    sigma_a: float
    kappa: float
    eps0: float
    eps1: float

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4"):
            if getattr(self, name) < -_REALITY_TOL:
                raise InvariantError(f"coupling {name} = {getattr(self, name)!r} is negative")
        if abs(self.a4 - 4.0 * self.a3) > _REALITY_TOL:
            raise InvariantError(
                f"real orbitals require a4 = 4*a3, got a4 = {self.a4!r}, a3 = {self.a3!r}"
            )
        if abs(self.sigma_a - (self.a1 + self.a2)) > _REALITY_TOL:
            raise InvariantError("sigma_a must equal a1 + a2")
        if self.sigma_a < 2.0 * self.a3 - _REALITY_TOL:
            raise InvariantError(
                f"sigma_a = {self.sigma_a!r} below the pair-tunneling bound 2*a3 = {2 * self.a3!r}"
            )


@dataclass(frozen=True)
class SystemParams:
    """All scalars defining one parameter point of the two-mode model.

    g is the rescaled coupling N * g_1d; delta_eps the bare level
    splitting; delta_a, eta, xi the interaction shape parameters;
    lambda_acc the acceleration strength and t the accumulation time.
    The defaults are the harmonic-orbital point at N = 50, which the CLI,
    tests and scripts start from; its delta_a, eta and xi are exact, and
    derive_params of harmonic_mode_integrals() gives them to quadrature
    precision. g_1d must keep gamma (`validity_gamma`) a finite float, and
    N t the Heisenberg ceiling (N t)^2.
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
        non_finite = [f.name for f in fields(self) if not np.isfinite(float(getattr(self, f.name)))]
        if non_finite:
            raise InvariantError(f"parameters must be finite, got non-finite {', '.join(non_finite)}")
        if self.n_particles < 1:
            raise InvariantError("n_particles must be at least 1")
        if 8 * (int(self.n_particles) + 1) ** 2 > np.iinfo(np.intp).max:
            raise InvariantError(
                f"n_particles = {self.n_particles} is too large: an (N+1)x(N+1) float64 "
                "matrix does not fit in the address space"
            )
        if self.g < 0.0:
            raise InvariantError(f"repulsive model requires g >= 0, got {self.g!r}")
        if self.t < 0.0:
            raise InvariantError(f"evolution time must be nonnegative, got {self.t!r}")
        if (
            abs(self.eta) > 1e-12
            and abs(self.xi) > 1e-12
            and np.sign(self.eta) == np.sign(self.xi)
        ):
            raise InvariantError(
                f"eta = {self.eta!r} and xi = {self.xi!r} must have opposite signs"
            )
        if not (self.xi <= 1e-12 or self.xi >= 1.0 - 1e-12):
            raise InvariantError(f"xi must be <= 0 or >= 1, got {self.xi!r}")
        validity_gamma(self.g_1d, self.n_particles)
        root = float(self.n_particles * self.t)
        if not root * root < np.inf:  # float * float gives inf where ** would raise
            raise InvariantError(
                f"Heisenberg ceiling (N t)^2 overflows a float at N = {self.n_particles}, t = {self.t!r}"
            )

    @property
    def g_1d(self) -> float:
        return self.g / self.n_particles


def _gauss_hermite_integrals(num_nodes: int) -> dict[str, float]:
    """Evaluate every orbital integral with num_nodes Gauss-Hermite nodes."""
    x, w = np.polynomial.hermite.hermgauss(num_nodes)

    # Quartic products carry the weight exp(-2x^2); substituting y = sqrt(2) x
    # maps them onto the native exp(-y^2) weight exactly.
    xq = x / np.sqrt(2.0)
    wq = w / np.sqrt(2.0)
    h0q, h1q = _h0(xq), _h1(xq)
    v0000 = float(np.sum(wq * h0q ** 4))
    v1111 = float(np.sum(wq * h1q ** 4))
    v0011 = float(np.sum(wq * h0q ** 2 * h1q ** 2))

    h0, h1, d0, d1 = _h0(x), _h1(x), _d0(x), _d1(x)
    kappa = float(np.sum(w * x * h0 * h1))
    eps0 = 0.5 * float(np.sum(w * (d0 ** 2 + x ** 2 * h0 ** 2)))
    eps1 = 0.5 * float(np.sum(w * (d1 ** 2 + x ** 2 * h1 ** 2)))
    return {
        "v0000": v0000,
        "v1111": v1111,
        "v0011": v0011,
        "kappa": kappa,
        "eps0": eps0,
        "eps1": eps1,
    }


def harmonic_mode_integrals(num_nodes: int = 64) -> ModeIntegrals:
    """Quadrature of the harmonic-orbital overlaps, normalized so a1 = 1.

    Doubling the node count must move every integral by less than 1e-10,
    otherwise the quadrature has not converged and a NumericsError is
    raised. The converged values are a2 = 3/4, a3 = 1/2, a4 = 2,
    kappa = 1/sqrt(2), eps1 - eps0 = 1.
    """
    coarse = _gauss_hermite_integrals(num_nodes)
    fine = _gauss_hermite_integrals(2 * num_nodes)
    for name in coarse:
        if abs(fine[name] - coarse[name]) > _QUAD_TOL:
            raise NumericsError(
                f"quadrature for {name} moved by {abs(fine[name] - coarse[name])!r} "
                f"when doubling from {num_nodes} nodes"
            )
    scale = fine["v0000"]
    return ModeIntegrals(
        a1=1.0,
        a2=fine["v1111"] / scale,
        a3=fine["v0011"] / scale,
        a4=4.0 * fine["v0011"] / scale,
        sigma_a=1.0 + fine["v1111"] / scale,
        kappa=fine["kappa"],
        eps0=fine["eps0"],
        eps1=fine["eps1"],
    )


def derive_params(
    mi: ModeIntegrals,
    n_particles: int,
    g: float,
    lambda_acc: float,
    t: float,
    delta_eps_override: float | None = None,
) -> SystemParams:
    """Map mode integrals to the Hamiltonian parameters (delta_a, eta, xi, delta_eps).

    delta_eps defaults to the orbital splitting eps1 - eps0 but may be
    overridden: parameter scans treat it as a free knob while keeping the
    interaction shape fixed.
    """
    if g < 0.0:
        raise InvariantError(f"repulsive model requires g >= 0, got {g!r}")
    if n_particles < 1:
        raise InvariantError("n_particles must be at least 1")
    denom = mi.sigma_a - (2.0 * mi.a3 + mi.a4)
    if abs(denom) < 1e-12:
        raise InvariantError(
            "singular mode geometry: sigma_a - (2*a3 + a4) vanishes, xi is undefined"
        )
    delta_a = mi.a1 - mi.a2
    eta = (mi.a4 + 2.0 * mi.a3 - mi.sigma_a) / 2.0
    xi = (mi.sigma_a + 2.0 * mi.a3 - mi.a4) / denom
    delta_eps = (mi.eps1 - mi.eps0) if delta_eps_override is None else delta_eps_override
    return SystemParams(
        n_particles=int(n_particles),
        g=float(g),
        delta_eps=float(delta_eps),
        delta_a=float(delta_a),
        eta=float(eta),
        xi=float(xi),
        lambda_acc=float(lambda_acc),
        t=float(t),
    )


def renormalized_q(p: SystemParams) -> float:
    """Interaction-shifted level splitting; q = 0 marks the optimal coupling."""
    return p.g * ((p.n_particles - 1) / p.n_particles) * (p.delta_a / 2.0) - p.delta_eps


def validity_gamma(g_1d: float, n_particles: int) -> tuple[float, bool]:
    """Lieb-Liniger-type diagnostic for the two-mode truncation.

    gamma = 1.5 * g_1d^(4/3) * N^(-2/3); the truncation is trusted for
    gamma of order one or below. The boolean flag uses gamma <= 1 and is
    advisory only.
    """
    if g_1d < 0.0:
        raise InvariantError(f"repulsive model requires g_1d >= 0, got {g_1d!r}")
    if n_particles < 1:
        raise InvariantError("n_particles must be at least 1")
    try:
        gamma = 1.5 * g_1d ** (4.0 / 3.0) * n_particles ** (-2.0 / 3.0)
    except OverflowError as exc:
        raise InvariantError(
            f"two-mode validity gamma overflows a float at g_1d = {g_1d!r}, N = {n_particles}"
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


def with_axis_value(p: SystemParams, axis: str, value: float) -> SystemParams:
    """Return a copy of p with one sweepable axis replaced."""
    field = AXIS_FIELDS.get(axis)
    if field is None:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return replace(p, **{field: float(value)})
