"""Spectral evolution, the dynamical generator and channel QFI.

The response of the evolved state to the estimated acceleration is
encoded in the Hermitian generator G = i U(lambda)^dag d/dlambda U(lambda)
with U = exp(-i t H(lambda)). Its seminorm (spectral spread) squared is
the QFI maximized over initial pure states, and 4 Var_psi(G) is the QFI
of a particular input psi.

H is real symmetric, so one real eigendecomposition H = V diag(E) V^T
carries both readouts. Centering the integration window on t/2 factors G
as W G~ W^dag with W = V diag(exp(i E t/2)) and the real symmetric kernel

    G~_kl = (V^T Jx V)_kl * t * sinc((E_k - E_l) t / 2 pi).

The channel QFI is read from the spectrum of G~, the QFI of psi as
4 Var of G~ over W^dag psi. The sinc is smooth through E_k = E_l, where
it equals t, so exactly or nearly degenerate levels need no threshold and
lose no precision to the cancellation in (e^{i w t} - 1) / (i w).

The generator comes in two steps: `dynamical_generator` takes H to
(E, V, V^T Jx V), which does not depend on t, and `generator_at` reads
that out at one time. A sweep along t therefore decomposes H once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericsError
from .hamiltonians import HermitianOperator, total_hamiltonian
from .modes import SystemParams
from .spin_core import DickeState, SpinOperators

__all__ = [
    "SpectralDecomposition",
    "GeneratorResult",
    "decompose",
    "evolve",
    "dynamical_generator",
    "generator_at",
    "qfi_pure_state",
    "cqfi_upper_bound",
]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order and the matching unitary of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)
        vecs = np.array(self.eigenvectors)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def decompose(h: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition with a deterministic phase convention.

    Eigenvalues come out ascending; each eigenvector is rotated so its
    largest-magnitude component is real and positive. Real matrices keep
    real eigenvectors.
    """
    try:
        vals, vecs = np.linalg.eigh(h.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericsError("eigendecomposition failed") from exc
    idx = np.abs(vecs).argmax(axis=0)
    anchors = vecs[idx, np.arange(vecs.shape[1])]
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs / (anchors / np.abs(anchors)))


def evolve(h: HermitianOperator, t: float, state: DickeState) -> DickeState:
    """Apply exp(-i H t) through the spectral decomposition of H."""
    if h.dimension != state.dimension:
        raise ValueError(
            f"operator dimension {h.dimension} does not match state dimension {state.dimension}"
        )
    dec = decompose(h)
    coeffs = dec.eigenvectors.conj().T @ state.amplitudes
    out = dec.eigenvectors @ (np.exp(-1j * dec.eigenvalues * t) * coeffs)
    return DickeState(amplitudes=out / np.linalg.norm(out))


@dataclass(frozen=True)
class GeneratorResult:
    """Dynamical generator as the spectrum of H, Jx in its eigenbasis
    (V^T Jx V) and the real kernel G~, with its seminorm and the channel QFI.

    The Dicke-basis generator and the state that saturates the channel
    QFI (equal superposition of the extremal eigenvectors) are built only
    when read.
    """

    spectrum: SpectralDecomposition
    jx: np.ndarray
    kernel: np.ndarray
    t: float
    seminorm: float
    cqfi: float

    @cached_property
    def _frame(self) -> np.ndarray:
        """W = V diag(exp(i E t/2)), so that G = W G~ W^dag."""
        return self.spectrum.eigenvectors * np.exp(0.5j * self.t * self.spectrum.eigenvalues)

    @cached_property
    def generator(self) -> HermitianOperator:
        mat = self._frame @ self.kernel @ self._frame.conj().T
        return HermitianOperator(matrix=(mat + mat.conj().T) / 2.0)

    @cached_property
    def optimal_state(self) -> DickeState:
        _, vecs = np.linalg.eigh(self.kernel)
        amp = self._frame @ (vecs[:, -1] + vecs[:, 0])
        return DickeState(amplitudes=amp / np.linalg.norm(amp))


def generator_at(spectrum: SpectralDecomposition, jx: np.ndarray, t: float) -> GeneratorResult:
    """The generator after time t from the spectrum of H and jx = V^T Jx V.

    In the eigenbasis of H, int_0^t e^{i(E_k-E_l)s} ds = e^{i(E_k-E_l)t/2} t
    sinc((E_k-E_l)t/2pi); the phases are the unitary frame W, which
    leaves the spectrum alone, so the channel QFI is the squared spread
    of eigvalsh(G~). Degenerate pairs need no special case: sinc(0) = 1.
    """
    gaps = spectrum.eigenvalues[:, np.newaxis] - spectrum.eigenvalues[np.newaxis, :]
    kernel = jx * (t * np.sinc(gaps * (t / (2.0 * np.pi))))
    kernel = (kernel + kernel.T) / 2.0
    kernel.setflags(write=False)
    levels = np.linalg.eigvalsh(kernel)
    seminorm = float(levels[-1] - levels[0])
    return GeneratorResult(
        spectrum=spectrum, jx=jx, kernel=kernel, t=t, seminorm=seminorm, cqfi=seminorm * seminorm
    )


def dynamical_generator(p: SystemParams, ops: SpinOperators) -> GeneratorResult:
    """Generator of the acceleration imprint after time p.t.

    G = int_0^t e^{iHs} Jx e^{-iHs} ds, since dH/dlambda = Jx.
    """
    spectrum = decompose(total_hamiltonian(p, ops))
    v = spectrum.eigenvectors
    return generator_at(spectrum, v.T @ ops.jx @ v, p.t)


def qfi_pure_state(gen: GeneratorResult, state: DickeState) -> float:
    """QFI of a specific input state: 4 Var_psi(G), evaluated as 4 Var of G~
    over phi = W^dag psi = exp(-i E t/2) * (V^T psi)."""
    spectrum = gen.spectrum
    if spectrum.dimension != state.dimension:
        raise ValueError(
            f"generator dimension {spectrum.dimension} does not match state dimension {state.dimension}"
        )
    phi = np.exp(-0.5j * gen.t * spectrum.eigenvalues) * (spectrum.eigenvectors.T @ state.amplitudes)
    applied = gen.kernel @ phi
    mean = np.vdot(phi, applied).real
    return 4.0 * max(np.vdot(applied, applied).real - mean * mean, 0.0)


def cqfi_upper_bound(n_particles: int, t: float) -> float:
    """Heisenberg ceiling N^2 t^2; no dynamics can push the channel QFI above it."""
    return float(n_particles * t) ** 2
