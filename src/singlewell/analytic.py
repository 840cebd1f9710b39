"""Closed-form baselines used both directly and as cross-checks for dynamics."""

from __future__ import annotations

import numpy as np

__all__ = ["cqfi_noninteracting", "phase_shift_qfi"]


def cqfi_noninteracting(n_particles: int, lambda_acc: float, delta_eps: float, t: float) -> float:
    """Channel QFI of the noninteracting dynamics lambda Jx - delta_eps Jz.

    C = N^2 [ t^2 l^2/(l^2+d^2) + (2d/(l^2+d^2))^2 sin^2((t/2) sqrt(l^2+d^2)) ].

    The level splitting suppresses the quadratic term and adds an
    oscillating one; at delta_eps = 0 the Heisenberg value N^2 t^2 is
    recovered, and the (lambda, delta_eps) = (0, 0) point returns that
    same continuous limit. The terms are evaluated as t^2 (l^2/s) and
    t^2 (d^2/s) sinc^2(x), x = (t/2) sqrt(s), s = l^2 + d^2, so neither
    exceeds t^2: a tiny splitting does not overflow 2d/s, and a tiny t
    does not underflow t^2 l^2 before the division by s.
    """
    s = lambda_acc * lambda_acc + delta_eps * delta_eps
    if s == 0.0:
        return float(n_particles * t) ** 2
    quadratic = t * t * (lambda_acc * lambda_acc / s)
    x = 0.5 * t * np.sqrt(s)
    sinc = np.sin(x) / x if x else 1.0
    oscillating = t * t * (delta_eps * delta_eps / s) * sinc ** 2
    return float(n_particles * n_particles * (quadratic + oscillating))


def phase_shift_qfi(jx_variance: float, t: float) -> float:
    """QFI under a pure phase shift lambda Jx: 4 t^2 Var_psi(Jx), from a known Var(Jx)."""
    return 4.0 * t * t * jx_variance
