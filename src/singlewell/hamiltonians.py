"""Dense Hamiltonian builders for the two-mode model.

Matrices are dense float64 arrays: only Jz, Jx, Jx^2 and Jy^2 enter, so
every model Hamiltonian is real symmetric. At the particle numbers of
interest (N up to a few hundred) the (N+1)^2 storage is negligible and
dense eigensolvers dominate the runtime anyway. Builders take the spin
operators explicitly so parameter sweeps construct them once per N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .modes import SystemParams
from .spin_core import SpinOperators

__all__ = [
    "HermitianOperator",
    "DoubleWellParams",
    "single_well_hamiltonian",
    "acceleration_hamiltonian",
    "double_well_hamiltonian",
    "total_hamiltonian",
]

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix (energies in trap units)."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex if np.iscomplexobj(self.matrix) else float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvariantError(f"expected a square matrix, got shape {mat.shape}")
        defect = np.abs(mat - mat.conj().T).max()
        if defect > HERMITICITY_TOL:
            raise InvariantError(f"matrix deviates from Hermiticity by {defect!r}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DoubleWellParams:
    """Level difference, tunneling rate and on-site interaction of the comparator."""

    delta_eps: float
    omega: float
    u: float


def _check_dimension(p: SystemParams, ops: SpinOperators):
    if ops.dimension != p.n_particles + 1:
        raise ValueError(
            f"spin operators of dimension {ops.dimension} do not match N = {p.n_particles}"
        )


def single_well_hamiltonian(p: SystemParams, ops: SpinOperators) -> HermitianOperator:
    """Interacting single-trap Hamiltonian.

    H = -delta_eps Jz + g [ (N-1)/(2N) delta_a Jz + (eta/N)(Jx^2 + xi Jy^2) ].

    Interactions both renormalize the Jz coefficient (equivalently, H =
    q Jz + (eta g / N)(Jx^2 + xi Jy^2) with q the renormalized splitting)
    and add a nonlinear term whose shape is set by eta and xi. Only Jz,
    Jx^2 and Jy^2 appear, so matrix elements between Dicke states whose
    k differ by an odd number vanish identically.
    """
    _check_dimension(p, ops)
    n = p.n_particles
    linear = (-p.delta_eps + p.g * (n - 1) / (2.0 * n) * p.delta_a) * ops.jz
    nonlinear = (p.eta * p.g / n) * (ops.jx @ ops.jx + p.xi * (ops.jy @ ops.jy).real)
    mat = linear + nonlinear
    return HermitianOperator(matrix=(mat + mat.T) / 2.0)


def acceleration_hamiltonian(lambda_acc: float, ops: SpinOperators) -> HermitianOperator:
    """Linear-potential perturbation lambda * Jx; lambda = 2 * force * dipole element."""
    return HermitianOperator(matrix=lambda_acc * ops.jx)


def double_well_hamiltonian(dw: DoubleWellParams, ops: SpinOperators) -> HermitianOperator:
    """Comparator Hamiltonian delta_eps Jz + omega Jx + u Jz^2.

    In a double well single-particle tunneling survives (omega) while the
    pair-tunneling and density-density couplings are exponentially small,
    so interactions reduce to the u Jz^2 form.
    """
    mat = dw.delta_eps * ops.jz + dw.omega * ops.jx + dw.u * (ops.jz @ ops.jz)
    return HermitianOperator(matrix=mat)


def total_hamiltonian(p: SystemParams, ops: SpinOperators) -> HermitianOperator:
    """Phase-accumulation Hamiltonian: system plus acceleration.

    The derivative with respect to lambda_acc is exactly Jx.
    """
    _check_dimension(p, ops)
    mat = single_well_hamiltonian(p, ops).matrix + p.lambda_acc * ops.jx
    return HermitianOperator(matrix=mat)
