"""Spectral evolution, the dynamical generator and channel QFI.

The response of the evolved state to the estimated acceleration is
encoded in the Hermitian generator G = i U(lambda)^dag d/dlambda U(lambda)
with U = exp(-i t H(lambda)). Its seminorm (spectral spread) squared is
the QFI maximized over initial pure states, and 4 Var_psi(G) is the QFI
of a particular input psi.

H is real symmetric, so one real eigendecomposition H = V diag(E) V^T
carries both readouts. Centering the integration window on t/2 factors G
as W G~ W^dag with W = V diag(exp(i E t/2)) and the real symmetric kernel

    G~_kl = (V^T Jx V)_kl * t * sin(x_kl) / x_kl,   x_kl = (E_l - E_k) t / 2.

The channel QFI is read from the spectrum of G~, the QFI of psi as
4 Var of G~ over W^dag psi. sin(x)/x is even, so it is evaluated once per
pair of levels, and smooth through E_k = E_l, where it is 1, so exactly or
nearly degenerate levels need no threshold and lose no precision to the
cancellation in (e^{i w t} - 1) / (i w).
`decompose` fixes no sign of the columns of V: flipping them is the
similarity G~ -> D G~ D with D = diag(+-1), which changes neither readout.

The generator comes in two steps: `dynamical_generator` takes H to
(E, V, V^T Jx V), which does not depend on t, and `generator_at` reads
that out at one time. A sweep along t therefore decomposes H once. The
spectrum of G~ is taken only when the channel QFI is read; the QFI of a
state needs only products with G~.
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
    "qfi_and_ritz_spread",
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


def decompose(h: HermitianOperator) -> SpectralDecomposition:
    """Full eigendecomposition: eigenvalues ascending, real matrices keep
    real eigenvectors, and each column keeps the phase LAPACK gives it."""
    try:
        vals, vecs = np.linalg.eigh(h.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericsError("eigendecomposition failed") from exc
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)


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
    (V^T Jx V) and the real kernel G~.

    The seminorm, the channel QFI and the Dicke-basis generator are
    computed only when read.
    """

    spectrum: SpectralDecomposition
    jx: np.ndarray
    kernel: np.ndarray
    t: float

    @cached_property
    def seminorm(self) -> float:
        """Spectral spread of G~ (the frame W leaves it alone), from one eigvalsh."""
        levels = np.linalg.eigvalsh(self.kernel)
        return float(levels[-1] - levels[0])

    @cached_property
    def cqfi(self) -> float:
        return self.seminorm * self.seminorm

    @cached_property
    def generator(self) -> HermitianOperator:
        """G = W G~ W^dag with the frame W = V diag(exp(i E t/2))."""
        frame = self.spectrum.eigenvectors * np.exp(0.5j * self.t * self.spectrum.eigenvalues)
        mat = frame @ self.kernel @ frame.conj().T
        return HermitianOperator(matrix=(mat + mat.conj().T) / 2.0)


def generator_at(spectrum: SpectralDecomposition, jx: np.ndarray, t: float) -> GeneratorResult:
    """The generator after time t from the spectrum of H and the symmetric jx = V^T Jx V.

    In the eigenbasis of H, int_0^t e^{i(E_k-E_l)s} ds = e^{i(E_k-E_l)t/2} t
    sin(x)/x with x = (E_l-E_k)t/2; the phases are the unitary frame W, which
    leaves the spectrum alone. sin(x)/x, even and 1 at x = 0, is taken once per
    level pair, where x > 0, and mirrored, so the kernel is exactly symmetric.
    """
    x = spectrum.eigenvalues - spectrum.eigenvalues[:, np.newaxis]
    x *= 0.5 * t
    above = x > 0
    kernel = np.zeros_like(x)
    np.sin(x, out=kernel, where=above)
    np.divide(kernel, x, out=kernel, where=above)
    kernel *= t
    kernel *= jx
    np.copyto(kernel, kernel.T, where=above.T)
    level = x == 0  # the diagonal and exactly degenerate pairs: t (jx_kl + jx_lk)/2
    np.add(jx, jx.T, out=kernel, where=level)
    np.multiply(kernel, 0.5 * t, out=kernel, where=level)
    kernel.setflags(write=False)
    return GeneratorResult(spectrum=spectrum, jx=jx, kernel=kernel, t=t)


def dynamical_generator(p: SystemParams, ops: SpinOperators) -> GeneratorResult:
    """Generator of the acceleration imprint after time p.t.

    G = int_0^t e^{iHs} Jx e^{-iHs} ds, since dH/dlambda = Jx. Jx is
    tridiagonal, so V^T Jx V = M + M^T with M = V[:-1]^T (ladder/2 * V[1:]):
    one matrix product, and exactly symmetric.
    """
    spectrum = decompose(total_hamiltonian(p, ops))
    v = spectrum.eigenvectors
    half = v[:-1].T @ ((0.5 * ops.ladder)[:, np.newaxis] * v[1:])
    return generator_at(spectrum, half + half.T, p.t)


def _pairs(z: np.ndarray) -> np.ndarray:
    """A complex vector as the n x 2 real array of its (real, imag) pairs, without a copy."""
    return z.view(float).reshape(-1, 2)


def qfi_and_ritz_spread(gen: GeneratorResult, state: DickeState) -> tuple[float, float]:
    """The QFI of psi, 4 Var_psi(G), and L, the spread of the two
    Rayleigh-Ritz values of G~ on span{phi, G~ phi}, phi = W^dag psi.

    V and G~ are real, so the products act on the (real, imag) pairs of
    psi and phi. For symmetric G~, 2 sigma_psi(G) <= L (Popoviciu) and
    L <= seminorm (Cauchy interlacing), so qfi <= L^2 certifies
    qfi <= cqfi without the spectrum of G~. L comes from an orthonormal
    basis, so it does not share the QFI's assumption |phi| = 1. It is 0
    when phi is an eigenvector of G~, whose span holds one Ritz value.
    """
    spectrum = gen.spectrum
    if spectrum.dimension != state.dimension:
        raise ValueError(
            f"generator dimension {spectrum.dimension} does not match state dimension {state.dimension}"
        )
    rotated = (spectrum.eigenvectors.T @ _pairs(state.amplitudes)).view(complex).ravel()
    phi = _pairs(np.exp(-0.5j * gen.t * spectrum.eigenvalues) * rotated)
    applied = gen.kernel @ phi
    mean = np.vdot(phi, applied)
    qfi = 4.0 * max(np.vdot(applied, applied) - mean * mean, 0.0)

    norm2 = np.vdot(phi, phi)
    ritz = mean / norm2  # <q|G~|q> for q = phi / |phi|
    resid = applied - ritz * phi
    resid2 = np.vdot(resid, resid)
    if resid2 == 0.0:
        return qfi, 0.0
    other = np.vdot(resid, gen.kernel @ resid) / resid2  # <r|G~|r> for r = resid / |resid|
    return qfi, float(np.hypot(ritz - other, 2.0 * np.sqrt(resid2 / norm2)))


def cqfi_upper_bound(n_particles: int, t: float) -> float:
    """Heisenberg ceiling N^2 t^2; no dynamics can push the channel QFI above it."""
    return float(n_particles * t) ** 2
