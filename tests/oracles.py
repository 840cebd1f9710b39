"""Independent numerical oracles and shared parameter helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.linalg import expm, expm_frechet

from singlewell import SystemParams, build_spin_operators, dynamical_generator, total_hamiltonian
from singlewell.linalg import eigh_band


def harmonic_params(**overrides) -> SystemParams:
    """The harmonic-orbital point, SystemParams' defaults; fields overridable per test."""
    return SystemParams(**overrides)


def dense_of_band(band: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower band is band, band[d, k] = H[k+d, k]; padding ignored."""
    n = band.shape[1]
    mat = np.diag(band[0])
    for d in range(1, min(band.shape[0], n)):
        mat += np.diag(band[d, :n - d], -d) + np.diag(band[d, :n - d], d)
    return mat


def lower_band(mat: np.ndarray, kd: int = 2) -> np.ndarray:
    """The lower band, band[d, k] = mat[k+d, k] zero-padded at the end, of a symmetric mat."""
    n = mat.shape[0]
    return np.array([np.concatenate([np.diagonal(mat, -d), np.zeros(min(d, n))]) for d in range(kd + 1)])


def dense_hamiltonian(p: SystemParams) -> np.ndarray:
    """The dense H that total_hamiltonian(p) holds as its band: the matrix the code decomposes."""
    return dense_of_band(total_hamiltonian(p))


def finite_difference_generator(p: SystemParams, h: float = 1e-6) -> np.ndarray:
    """Oracle for the response generator: i U(l)^dag [U(l+h) - U(l-h)] / (2h).

    Uses scipy's matrix exponential for the propagators, independent of the
    spectral-formula code path under test.
    """
    up = expm(-1j * p.t * dense_hamiltonian(replace(p, lambda_acc=p.lambda_acc + h)))
    um = expm(-1j * p.t * dense_hamiltonian(replace(p, lambda_acc=p.lambda_acc - h)))
    u0 = expm(-1j * p.t * dense_hamiltonian(p))
    return 1j * u0.conj().T @ (up - um) / (2.0 * h)


def exact_generator(h: np.ndarray, jx: np.ndarray, t: float) -> np.ndarray:
    """G = i U^dag L(-itH, -itJx), L scipy's Frechet derivative of expm at
    U = exp(-itH): the exact derivative, with no finite-difference step."""
    u, du = expm_frechet(-1j * t * h, -1j * t * jx)
    mat = 1j * u.conj().T @ du
    return (mat + mat.conj().T) / 2.0


def dense_spin(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense Jx, Jy, Jz (only Jy complex) of N particles from the Jz eigenvalues and the ladder."""
    m, ladder = build_spin_operators(n)
    jx = np.diag(ladder / 2.0, 1) + np.diag(ladder / 2.0, -1)
    jy = np.diag(ladder / 2.0j, 1) - np.diag(ladder / 2.0j, -1)
    return jx, jy, np.diag(m)


def degree_of_fragmentation(psi: np.ndarray) -> float:
    """F = 1 - |l0 - l1| / N from the eigenvalues of the 2x2 one-body density
    matrix of the normalized state psi, N = len(psi) - 1: 0 for a condensate
    (rank-1 one-body density matrix), 1 when both natural orbitals are
    equally occupied."""
    n = psi.shape[0] - 1
    m, ladder = build_spin_operators(n)
    jplus = np.sum(ladder * psi[:-1].conj() * psi[1:])  # <Jx> + i <Jy>
    ez = float(np.sum(m * np.abs(psi) ** 2))
    occ = np.linalg.eigvalsh(np.array([[n / 2.0 + ez, jplus], [jplus.conjugate(), n / 2.0 - ez]]))
    frag = 1.0 - abs(occ[1] - occ[0]) / n
    assert -1e-9 <= frag <= 1.0 + 1e-9, frag
    return float(min(max(frag, 0.0), 1.0))


def variance(mat: np.ndarray, psi: np.ndarray) -> float:
    """<A^2> - <A>^2 of a Hermitian A, as ||A psi||^2 - <A>^2 so it stays real."""
    applied = mat @ psi
    mean = np.vdot(psi, applied).real
    return max(float(np.vdot(applied, applied).real - mean * mean), 0.0)


def evolve(h: np.ndarray, t: float, psi: np.ndarray) -> np.ndarray:
    """exp(-i H t) psi through the eigendecomposition of H, not renormalized."""
    energies, vectors = np.linalg.eigh(h)
    return vectors @ (np.exp(-1j * energies * t) * (vectors.conj().T @ psi))


def dense_generator(p: SystemParams) -> np.ndarray:
    """The Dicke-basis G = W G~ W^dag at p, with the frame W = V diag(exp(i E t/2));
    the generator drops V, so V comes from `eigh_band`, which gives the same V again."""
    energies, vectors = eigh_band(total_hamiltonian(p))
    frame = vectors * np.exp(0.5j * p.t * energies)
    mat = frame @ dynamical_generator(p).kernel @ frame.conj().T
    return (mat + mat.conj().T) / 2.0


def harmonic_shape(num_nodes: int = 64) -> dict[str, float]:
    """The harmonic orbitals by Gauss-Hermite quadrature: reduced couplings
    a2, a3, a4 (a1 = 1), dipole element kappa, energies eps0, eps1, and the
    shape delta_a, eta, xi they give. Doubling num_nodes must move no
    integral by more than 1e-10.
    """
    def integrals(nodes):
        # psi_i = h_i exp(-x^2/2) with h0 = c, h1 = sqrt(2) c x, c = pi^(-1/4); quartic
        # products carry exp(-2x^2), which y = sqrt(2) x maps onto the native weight
        x, w = np.polynomial.hermite.hermgauss(nodes)
        c = np.pi ** -0.25
        xq, wq = x / np.sqrt(2.0), w / np.sqrt(2.0)
        h1q, h1 = np.sqrt(2.0) * c * xq, np.sqrt(2.0) * c * x
        d0, d1 = -c * x, np.sqrt(2.0) * c * (1.0 - x * x)  # d/dx psi_i, Gaussian stripped
        return np.array([np.sum(wq * c ** 4), np.sum(wq * h1q ** 4), np.sum(wq * c ** 2 * h1q ** 2),
                         np.sum(w * x * c * h1), 0.5 * np.sum(w * (d0 ** 2 + x ** 2 * c ** 2)),
                         0.5 * np.sum(w * (d1 ** 2 + x ** 2 * h1 ** 2))])

    coarse, fine = integrals(num_nodes), integrals(2 * num_nodes)
    assert np.abs(fine - coarse).max() <= 1e-10, (num_nodes, fine - coarse)
    v0000, v1111, v0011, kappa, eps0, eps1 = fine
    a2, a3, a4 = v1111 / v0000, v0011 / v0000, 4.0 * v0011 / v0000
    sigma_a = 1.0 + a2
    return {"a2": a2, "a3": a3, "a4": a4, "kappa": kappa, "eps0": eps0, "eps1": eps1,
            "delta_a": 1.0 - a2, "eta": (a4 + 2.0 * a3 - sigma_a) / 2.0,
            "xi": (sigma_a + 2.0 * a3 - a4) / (sigma_a - (2.0 * a3 + a4))}


def random_valid_params(rng: np.random.Generator, n_particles: int | None = None) -> SystemParams:
    """Draw a parameter point satisfying the structural sign constraints."""
    n = int(rng.integers(1, 51)) if n_particles is None else n_particles
    eta = rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0])
    xi = rng.uniform(-3.0, 0.0) if eta > 0 else rng.uniform(1.0, 4.0)
    return SystemParams(
        n_particles=n,
        g=float(rng.uniform(0.0, 300.0)),
        delta_eps=float(rng.uniform(0.0, 20.0)),
        delta_a=float(rng.uniform(0.0, 1.0)),
        eta=float(eta),
        xi=float(xi),
        lambda_acc=float(rng.uniform(-5.0, 5.0)),
        t=float(rng.uniform(0.0, 10.0)),
    )

