"""Dense Hamiltonian builders for the two-mode model.

Matrices are dense float64 arrays: only Jz, Jx, Jx^2 and Jy^2 enter, so
every model Hamiltonian is real symmetric and pentadiagonal in the Dicke
basis. The quadratic part comes from the exact identities
Jx^2 + Jy^2 = j(j+1) - Jz^2 and Jx^2 - Jy^2 = (J+^2 + J-^2)/2, so a
Hamiltonian is written band by band into one array with no matrix product.
Builders read the Jz eigenvalues and the ladder of the spin operators,
which parameter sweeps construct once per N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .modes import SystemParams
from .spin_core import SpinOperators

__all__ = [
    "HermitianOperator",
    "single_well_hamiltonian",
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
        if not np.array_equal(mat, mat.conj().T):
            defect = np.abs(mat - mat.conj().T).max()
            if not defect <= HERMITICITY_TOL:  # NaN fails too
                raise InvariantError(f"matrix deviates from Hermiticity by {defect!r}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def _jx2_plus_xi_jy2(ops: SpinOperators, xi: float) -> np.ndarray:
    """Jx^2 + xi Jy^2 without a matrix product.

    It equals (1+xi)/2 (j(j+1) - Jz^2) + (1-xi)/4 (J+^2 + J-^2): a diagonal
    plus the two second off-diagonals, every other entry exactly zero.
    """
    j = 0.5 * ops.n_particles
    m, ladder = ops.m, ops.ladder
    mat = np.diag(0.5 * (1.0 + xi) * (j * (j + 1.0) - m * m))
    k = np.arange(ops.dimension - 2)
    mat[k, k + 2] = mat[k + 2, k] = 0.25 * (1.0 - xi) * ladder[:-1] * ladder[1:]
    return mat


def _model_matrix(p: SystemParams, ops: SpinOperators, lambda_acc: float) -> np.ndarray:
    """q Jz + (eta g / N)(Jx^2 + xi Jy^2) + lambda_acc Jx in one array (q: renormalized splitting)."""
    n = p.n_particles
    if ops.dimension != n + 1:
        raise ValueError(f"spin operators of dimension {ops.dimension} do not match N = {n}")
    mat = _jx2_plus_xi_jy2(ops, p.xi)
    mat *= p.eta * p.g / n
    k = np.arange(n + 1)
    mat[k, k] += (-p.delta_eps + p.g * (n - 1) / (2.0 * n) * p.delta_a) * ops.m
    mat[k[:-1], k[1:]] = mat[k[1:], k[:-1]] = lambda_acc * (0.5 * ops.ladder)
    return mat


def single_well_hamiltonian(p: SystemParams, ops: SpinOperators) -> HermitianOperator:
    """Interacting single-trap Hamiltonian.

    H = -delta_eps Jz + g [ (N-1)/(2N) delta_a Jz + (eta/N)(Jx^2 + xi Jy^2) ].

    Interactions both renormalize the Jz coefficient (equivalently, H =
    q Jz + (eta g / N)(Jx^2 + xi Jy^2) with q the renormalized splitting)
    and add a nonlinear term whose shape is set by eta and xi. Only Jz,
    Jx^2 and Jy^2 appear, so matrix elements between Dicke states whose
    k differ by an odd number vanish identically.
    """
    return HermitianOperator(matrix=_model_matrix(p, ops, 0.0))


def total_hamiltonian(p: SystemParams, ops: SpinOperators) -> HermitianOperator:
    """Phase-accumulation Hamiltonian: system plus the linear potential
    lambda_acc Jx (lambda_acc = 2 * force * dipole element).

    The derivative with respect to lambda_acc is exactly Jx.
    """
    return HermitianOperator(matrix=_model_matrix(p, ops, p.lambda_acc))
