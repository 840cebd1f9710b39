"""The dense Hamiltonian of the two-mode model.

Matrices are dense float64 arrays: only Jz, Jx, Jx^2 and Jy^2 enter, so
every model Hamiltonian is real symmetric and pentadiagonal in the Dicke
basis. The quadratic part comes from the exact identities
Jx^2 + Jy^2 = j(j+1) - Jz^2 and Jx^2 - Jy^2 = (J+^2 + J-^2)/2, so a
Hamiltonian is written band by band into one array with no matrix product.
The builder reads the Jz eigenvalues and the ladder of the spin operators
of p.n_particles, which `build_spin_operators` builds once per N. Every
parameter passed `SystemParams`, but an entry can still overflow a float
(e.g. delta_eps * m near the float limit): such a matrix fails its point as a
`NumericsError`, a numerical failure, instead of reaching the eigensolver.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericsError
from .modes import SystemParams, renormalized_q
from .spin_core import build_spin_operators

__all__ = ["total_hamiltonian"]


def _jx2_plus_xi_jy2(m: np.ndarray, ladder: np.ndarray, xi: float) -> np.ndarray:
    """Jx^2 + xi Jy^2 without a matrix product, from the Jz eigenvalues m and the ladder.

    It equals (1+xi)/2 (j(j+1) - Jz^2) + (1-xi)/4 (J+^2 + J-^2): a diagonal
    plus the two second off-diagonals, every other entry exactly zero.
    """
    j = m[0]  # m runs from j down to -j
    mat = np.diag(0.5 * (1.0 + xi) * (j * (j + 1.0) - m * m))
    k = np.arange(m.shape[0] - 2)
    mat[k, k + 2] = mat[k + 2, k] = 0.25 * (1.0 - xi) * ladder[:-1] * ladder[1:]
    return mat


def _model_matrix(p: SystemParams) -> np.ndarray:
    """q Jz + (eta g / N)(Jx^2 + xi Jy^2) + lambda_acc Jx in one array (q: renormalized splitting).

    Each off-diagonal band and its mirror are written in one chained
    assignment, so the matrix is exactly symmetric by construction. An
    entry that overflows is left as inf or NaN, without a warning, for
    total_hamiltonian to refuse.
    """
    n = p.n_particles
    m, ladder = build_spin_operators(n)
    with np.errstate(over="ignore", invalid="ignore"):
        mat = _jx2_plus_xi_jy2(m, ladder, p.xi)
        mat *= p.eta * p.g / n
        k = np.arange(n + 1)
        mat[k, k] += renormalized_q(p) * m
        mat[k[:-1], k[1:]] = mat[k[1:], k[:-1]] = p.lambda_acc * (0.5 * ladder)
    return mat


def total_hamiltonian(p: SystemParams) -> np.ndarray:
    """Phase-accumulation Hamiltonian: the interacting single-trap system
    plus the linear potential lambda_acc Jx (lambda_acc = 2 * force * dipole
    element),

    H = -delta_eps Jz + g [ (N-1)/(2N) delta_a Jz + (eta/N)(Jx^2 + xi Jy^2) ] + lambda_acc Jx.

    Interactions both renormalize the Jz coefficient (equivalently, the
    system part is q Jz + (eta g / N)(Jx^2 + xi Jy^2) with q the
    renormalized splitting) and add a nonlinear term whose shape is set by
    eta and xi. At lambda_acc = 0 only Jz, Jx^2 and Jy^2 appear, so matrix
    elements between Dicke states whose k differ by an odd number vanish
    identically. The derivative with respect to lambda_acc is exactly Jx.
    """
    mat = _model_matrix(p)
    if not np.isfinite(mat).all():
        raise NumericsError("matrix has non-finite entries")
    return mat
