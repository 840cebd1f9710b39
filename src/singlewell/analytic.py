"""Closed-form baselines used both directly and as cross-checks for dynamics."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["cqfi_noninteracting", "phase_shift_qfi"]


def cqfi_noninteracting(n_particles: int, lambda_acc: float, delta_eps: float, t: float) -> float:
    """Channel QFI of the noninteracting dynamics lambda Jx - delta_eps Jz.

    C = N^2 [ t^2 l^2/(l^2+d^2) + (2d/(l^2+d^2))^2 sin^2((t/2) sqrt(l^2+d^2)) ].

    The level splitting suppresses the quadratic term and adds an
    oscillating one; at delta_eps = 0 the Heisenberg value N^2 t^2 is
    recovered, and the (lambda, delta_eps) = (0, 0) point returns that
    same continuous limit. The terms are evaluated as t^2 (l/r)^2 and
    t^2 (d/r)^2 sinc^2(x), x = (t/2) r, r = hypot(l, d), so neither
    exceeds t^2 and no square of l or d is formed: a tiny splitting does
    not overflow 2d/r^2, a tiny t does not underflow t^2 l^2, and a huge
    l or d does not overflow l^2 + d^2. sinc(x) -> 0 as x -> inf. l and d
    are first scaled by one power of two, the larger into [0.5, 1), so a
    subnormal r does not round the ratios (to 1 each at l = d = 5e-324),
    nor does r overflow at huge l and d.
    """
    exponent = math.frexp(max(abs(lambda_acc), abs(delta_eps)))[1]
    lam, delta = math.ldexp(lambda_acc, -exponent), math.ldexp(delta_eps, -exponent)
    r_scaled = math.hypot(lam, delta)
    if r_scaled == 0.0:
        return float(n_particles * t) ** 2
    quadratic = t * t * (lam / r_scaled) ** 2
    x = math.ldexp(0.5 * r_scaled, exponent) * t
    sinc = 0.0 if math.isinf(x) else np.sin(x) / x if x else 1.0
    oscillating = t * t * (delta / r_scaled) ** 2 * sinc ** 2
    return float(n_particles * n_particles * (quadratic + oscillating))


def phase_shift_qfi(jx_variance: float, t: float) -> float:
    """QFI under a pure phase shift lambda Jx: 4 t^2 Var_psi(Jx), from a known Var(Jx)."""
    return 4.0 * t * t * jx_variance
