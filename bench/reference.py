"""Frozen copy of the per-point chain as singlewell 0.1.0 computed it.

This is the benchmark's correctness oracle. It repeats, with numpy alone,
each step of the original chain: the dense complex Hamiltonian, its
eigendecomposition with the phase convention, the generator
G = int_0^t e^{iHs} Jx e^{-iHs} ds built in the eigenbasis, and then either
the squared spectral spread of G (channel QFI) or 4 Var_psi(G) (protocol
QFI). The self-audits of the original only raise and never change a value,
so they are left out. Nothing here imports singlewell, so later changes to
the package cannot move the reference.
"""

from __future__ import annotations

from math import lgamma

import numpy as np

DEGENERACY_RTOL = 1e-9


def spin_operators(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jx, Jy, Jz for j = N/2 in the Dicke basis, index k = occupation of mode 1."""
    j = n / 2.0
    k = np.arange(n + 1)
    m = j - k
    jz = np.diag(m.astype(complex))
    jplus = np.zeros((n + 1, n + 1), dtype=complex)
    jplus[k[1:] - 1, k[1:]] = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jminus = jplus.conj().T
    return (jplus + jminus) / 2.0, (jplus - jminus) / 2.0j, jz


def hamiltonian(p: dict, ops) -> np.ndarray:
    """-de Jz + g[(N-1)/(2N) da Jz + (eta/N)(Jx^2 + xi Jy^2)] + lambda Jx."""
    jx, jy, jz = ops
    n = p["n_particles"]
    linear = (-p["delta_eps"] + p["g"] * (n - 1) / (2.0 * n) * p["delta_a"]) * jz
    nonlinear = (p["eta"] * p["g"] / n) * (jx @ jx + p["xi"] * (jy @ jy))
    mat = linear + nonlinear
    return (mat + mat.conj().T) / 2.0 + p["lambda"] * jx


def _eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(mat)
    idx = np.abs(vecs).argmax(axis=0)
    anchors = vecs[idx, np.arange(vecs.shape[1])]
    return vals, vecs / (anchors / np.abs(anchors))[np.newaxis, :]


def generator(p: dict, ops) -> np.ndarray:
    energies, v = _eigh(hamiltonian(p, ops))
    jx_eig = v.conj().T @ ops[0] @ v
    gaps = energies[:, np.newaxis] - energies[np.newaxis, :]
    degenerate = np.abs(gaps) <= DEGENERACY_RTOL * np.abs(energies).max()
    safe = np.where(degenerate, 1.0, gaps)
    t = p["t"]
    phase = np.where(degenerate, t, (np.exp(1j * gaps * t) - 1.0) / (1j * safe))
    gen = v @ (jx_eig * phase) @ v.conj().T
    return (gen + gen.conj().T) / 2.0


def channel_qfi(p: dict, ops) -> float:
    vals = np.linalg.eigvalsh(generator(p, ops))
    return float(vals[-1] - vals[0]) ** 2


def _variance(mat: np.ndarray, psi: np.ndarray) -> float:
    applied = mat @ psi
    first = float(np.vdot(psi, applied).real)
    return max(float(np.vdot(applied, applied).real) - first * first, 0.0)


def coherent_state(n: int, theta: float, phi: float) -> np.ndarray:
    k = np.arange(n + 1)
    log_binom = np.array([0.5 * (lgamma(n + 1) - lgamma(kk + 1) - lgamma(n - kk + 1)) for kk in k])
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_term = np.where(k < n, (n - k) * np.log(np.cos(theta / 2.0)), 0.0)
        sin_term = np.where(k > 0, k * np.log(np.sin(theta / 2.0)), 0.0)
    amp = np.exp(log_binom + cos_term + sin_term) * np.exp(1j * phi * k)
    return amp / np.linalg.norm(amp)


def protocol_qfi(p: dict, ops, theta: float, state_kind: str) -> tuple[float, float]:
    """(4 Var_psi(G), 4 t^2 Var_psi(Jx)) for the split input state psi."""
    n = p["n_particles"]
    if state_kind == "coherent":
        prepared = coherent_state(n, 0.0, 0.0)
    else:
        amp = coherent_state(n, theta, np.pi / 2.0) + 1j * coherent_state(n, theta, 3.0 * np.pi / 2.0)
        prepared = amp / np.linalg.norm(amp)
    m = np.real(np.diag(ops[2]))
    psi = np.exp(-1j * (np.pi / 2.0) * m) * prepared
    t = p["t"]
    return 4.0 * _variance(generator(p, ops), psi), 4.0 * t * t * _variance(ops[0], psi)


def cqfi_noninteracting(n: int, lam: float, de: float, t: float) -> float:
    """Closed-form channel QFI of lambda Jx - delta_eps Jz."""
    s = lam * lam + de * de
    if s == 0.0:
        return float(n * t) ** 2
    return float(n * n * (t * t * lam * lam / s + (2.0 * de / s) ** 2 * np.sin(0.5 * t * np.sqrt(s)) ** 2))


def expected(sweep) -> dict[str, np.ndarray | None]:
    """Reference columns of one sweep's CSV, plus the closed form where g = 0.

    `analytic` holds cqfi_noninteracting at channel-QFI points with g = 0
    and NaN elsewhere.
    """
    grid = np.linspace(sweep.axis_min, sweep.axis_max, sweep.steps)
    n = sweep.system["n_particles"]
    ops = spin_operators(n)
    values, bounds, ideal, analytic = [], [], [], []
    for x in grid:
        p = {**sweep.system, sweep.axis: float(x)}
        bounds.append(float(n * p["t"]) ** 2)
        if sweep.target == "protocol_qfi":
            qfi, base = protocol_qfi(p, ops, sweep.theta, sweep.state_kind)
            values.append(qfi)
            ideal.append(base)
            analytic.append(np.nan)
        else:
            values.append(channel_qfi(p, ops))
            zero_g = p["g"] == 0.0
            analytic.append(
                cqfi_noninteracting(n, p["lambda"], p["delta_eps"], p["t"]) if zero_g else np.nan
            )
    return {
        "axis": grid,
        "value": np.array(values),
        "bound": np.array(bounds),
        "ideal": np.array(ideal) if sweep.target == "protocol_qfi" else None,
        "analytic": np.array(analytic),
    }
