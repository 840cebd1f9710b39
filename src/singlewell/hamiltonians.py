"""The Hamiltonian of the two-mode model, held as its lower band.

Only Jz, Jx, Jx^2 and Jy^2 enter, so every model Hamiltonian is real
symmetric and pentadiagonal in the Dicke basis. It is never formed dense:
it is the 3 x (N+1) float64 array band[d, k] = H[k+d, k] (LAPACK's UPLO = 'L'
layout, zero-padded at the end) that `linalg.eigh_band` takes. The
identities Jx^2 + Jy^2 = j(j+1) - Jz^2 and Jx^2 - Jy^2 = (J+^2 + J-^2)/2
give each band from the Jz eigenvalues and the ladder of
`build_spin_operators`, built per call, with no matrix product. Every
parameter passed `SystemParams`, but an entry can still overflow a float
(e.g. delta_eps * m near the float limit): such a band fails its point as a
`NumericsError`, a numerical failure, instead of reaching the eigensolver.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .errors import NumericsError
from .modes import AXIS_FIELDS, SystemParams, axis_gammas, renormalized_q
from .spin_core import build_spin_operators

__all__ = ["total_hamiltonian"]


def total_hamiltonian(p: SystemParams, axis: str | None = None, values: np.ndarray | None = None) -> np.ndarray:
    """Phase-accumulation Hamiltonian: the interacting single-trap system
    plus the linear potential lambda_acc Jx (lambda_acc = 2 * force * dipole
    element),

    H = -delta_eps Jz + g [ (N-1)/(2N) delta_a Jz + (eta/N)(Jx^2 + xi Jy^2) ] + lambda_acc Jx,

    as its lower band. Interactions both renormalize the Jz coefficient
    (equivalently, the system part is q Jz + (eta g / N)(Jx^2 + xi Jy^2)
    with q the renormalized splitting) and add a nonlinear term whose shape
    is set by eta and xi: (eta g / N)(1+xi)/2 (j(j+1) - m^2) on the diagonal
    and (eta g / N)(1-xi)/4 (J+^2 + J-^2) on the second sub-diagonal.
    lambda_acc Jx alone fills the first sub-diagonal, so at lambda_acc = 0
    elements between Dicke states whose k differ by an odd number vanish
    identically, and the derivative with respect to lambda_acc is exactly Jx.

    Given a sweepable axis and an array of c values, the bands of p with that
    axis at each value, as one (c, 3, N+1) array: the swept field enters as a
    column, so each element is the same arithmetic on the same floats as in
    total_hamiltonian of p with that field at value. The values are refused
    first as `SystemParams` refuses them (`modes.axis_gammas`).
    """
    n = p.n_particles
    m, ladder = build_spin_operators(n)
    if axis is not None:
        axis_gammas(p, axis, values)
        p = SimpleNamespace(**{**vars(p), AXIS_FIELDS[axis]: np.asarray(values)[:, np.newaxis]})
    j, scale = m[0], p.eta * p.g / n  # m runs from j down to -j
    band = np.zeros((*np.shape(values), 3, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        band[..., 0, :] = 0.5 * (1.0 + p.xi) * (j * (j + 1.0) - m * m) * scale + renormalized_q(p) * m
        band[..., 1, :-1] = p.lambda_acc * (0.5 * ladder)
        band[..., 2, :-2] = 0.25 * (1.0 - p.xi) * ladder[:-1] * ladder[1:] * scale
    if not np.isfinite(band).all():
        raise NumericsError("matrix has non-finite entries")
    return band
