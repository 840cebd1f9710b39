"""Shared fixtures and independent numerical oracles for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from singlewell import SystemParams, total_hamiltonian


def harmonic_params(**overrides) -> SystemParams:
    """The harmonic-orbital point, SystemParams' defaults; fields overridable per test."""
    return SystemParams(**overrides)


def finite_difference_generator(p: SystemParams, ops, h: float = 1e-6) -> np.ndarray:
    """Oracle for the response generator: i U(l)^dag [U(l+h) - U(l-h)] / (2h).

    Uses scipy's matrix exponential for the propagators, independent of the
    spectral-formula code path under test.
    """
    up = expm(-1j * p.t * total_hamiltonian(replace(p, lambda_acc=p.lambda_acc + h), ops).matrix)
    um = expm(-1j * p.t * total_hamiltonian(replace(p, lambda_acc=p.lambda_acc - h), ops).matrix)
    u0 = expm(-1j * p.t * total_hamiltonian(p, ops).matrix)
    return 1j * u0.conj().T @ (up - um) / (2.0 * h)


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


@pytest.fixture(scope="session")
def ops50():
    from singlewell import build_spin_operators

    return build_spin_operators(50)
