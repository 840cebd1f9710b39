"""Closed-form baselines used both directly and as cross-checks for dynamics."""

from __future__ import annotations

import numpy as np

from .spin_core import DickeState, SpinOperators, variance

__all__ = ["cqfi_noninteracting", "ideal_qfi", "phase_shift_qfi"]


def cqfi_noninteracting(n_particles: int, lambda_acc: float, delta_eps: float, t: float) -> float:
    """Channel QFI of the noninteracting dynamics lambda Jx - delta_eps Jz.

    C = N^2 [ t^2 l^2/(l^2+d^2) + (2d/(l^2+d^2))^2 sin^2((t/2) sqrt(l^2+d^2)) ].

    The level splitting suppresses the quadratic term and adds an
    oscillating one; at delta_eps = 0 the Heisenberg value N^2 t^2 is
    recovered, and the (lambda, delta_eps) = (0, 0) point returns that
    same continuous limit.
    """
    s = lambda_acc * lambda_acc + delta_eps * delta_eps
    if s == 0.0:
        return float(n_particles * t) ** 2
    quadratic = t * t * lambda_acc * lambda_acc / s
    oscillating = (2.0 * delta_eps / s) ** 2 * np.sin(0.5 * t * np.sqrt(s)) ** 2
    return float(n_particles * n_particles * (quadratic + oscillating))


def ideal_qfi(state: DickeState, t: float, ops: SpinOperators) -> float:
    """QFI under a pure phase shift lambda Jx: 4 t^2 Var_psi(Jx)."""
    return phase_shift_qfi(variance(ops.jx, state), t)


def phase_shift_qfi(jx_variance: float, t: float) -> float:
    """`ideal_qfi` of an input whose Var(Jx) is already known."""
    return 4.0 * t * t * jx_variance
