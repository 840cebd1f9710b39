"""The dynamical generator, channel QFI and the QFI of a state.

The response of the evolved state to the estimated acceleration is
encoded in the Hermitian generator G = i U(lambda)^dag d/dlambda U(lambda)
with U = exp(-i t H(lambda)). Its seminorm (spectral spread) squared is
the QFI maximized over initial pure states (Boixo et al., PRL 98, 090401
(2007)), so it bounds 4 Var_psi(G), the QFI of a particular input psi:
the tests check that order, no readout does.

H is real symmetric, so one real eigendecomposition H = V diag(E) V^T,
taken from the band of H by `linalg.eigh_band`, carries both readouts.
Centering the integration window on t/2 factors G as W G~ W^dag with
W = V diag(exp(i E t/2)) and the real symmetric kernel

    G~_kl = (V^T Jx V)_kl * t * sin(x_kl) / x_kl,   x_kl = (E_l - E_k) t / 2.

The channel QFI `cqfi` is read from the spectrum of G~ by `spread_squared`,
`qfi_pure_state` as 4 Var of G~ over W^dag psi; a sweep calls each once per
stack of kernels. sin(x)/x is even, so it is evaluated once
per pair of levels, and smooth through E_k = E_l, where it is 1, so exactly
or nearly degenerate levels need no threshold and lose no precision to the
cancellation in (e^{i w t} - 1) / (i w).
`eigh_band` fixes no sign of the columns of V: flipping them is the
similarity G~ -> D G~ D with D = diag(+-1), which changes neither readout.

The generator comes in two steps: `eigenbasis` takes H to the arrays
(E, V^T Jx V) and, for a protocol point, each input in the eigenbasis of
H, V^T psi, none of which depend on t, and `generator_at` reads them out
at one time, building G~ in the memory of V^T Jx V; `dynamical_generator`
is the two in turn. Each also takes a stack of points, such as a sweep's
chunk of a grid, with the arithmetic of each point's own call. V is
dropped once those products are formed, so a point holds no more than
`dsbevd`'s three dense arrays. The spectrum of G~ is taken only when the
channel QFI is read; the QFI of a state needs only products with G~.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericsError
from .hamiltonians import total_hamiltonian
from .linalg import eigh_band
from .modes import SystemParams
from .spin_core import build_spin_operators, check_unit_norm

__all__ = [
    "GeneratorResult",
    "dynamical_generator",
    "eigenbasis",
    "generator_at",
    "qfi_pure_state",
    "cqfi_upper_bound",
]


def spread_squared(kernels: np.ndarray) -> np.ndarray:
    """The squared spectral spread of each symmetric matrix along the last two axes, so of
    one kernel G~ or of a stack of them, from one `eigvalsh` call, which runs the same
    LAPACK call on each matrix of a stack as on that matrix alone."""
    levels = np.linalg.eigvalsh(kernels)
    spread = levels[..., -1] - levels[..., 0]
    return spread * spread


@dataclass(frozen=True)
class GeneratorResult:
    """Dynamical generator as the energies E of H, ascending, and the real
    kernel G~; for a protocol point, each input psi in the eigenbasis of H,
    V^T psi, as state (or its rows). A stack of generators holds each along a
    first axis, where E and state may have length 1: one H shared by every slot."""

    energies: np.ndarray
    kernel: np.ndarray
    t: float | np.ndarray
    state: np.ndarray | None = None

    @cached_property
    def cqfi(self) -> float:
        """Channel QFI of one generator: the squared spectral spread of G~ (W leaves it alone), on first read."""
        return float(spread_squared(self.kernel))


def _refuse_overflow(phase: str, reach: np.ndarray, t) -> None:
    """A NumericsError naming the first slot's t where reach, the largest |phase| of each slot, overflows."""
    overflows = ~(abs(reach) < np.inf)  # a negative t too
    if overflows.any():
        first = float(np.broadcast_to(t, reach.shape)[overflows][0])
        raise NumericsError(f"{phase} overflows a float at t = {first!r}")


def generator_at(energies: np.ndarray, jx: np.ndarray, t, state: np.ndarray | None = None) -> GeneratorResult:
    """The generator after time t from the energies of H, the symmetric
    jx = V^T Jx V and, for a protocol point, the input's state = V^T psi; or a
    stack of c generators, from energies (c, n), t (c,), jx (c, n, n) and
    states (c, ...), each slot bit for bit its own call's; energies (1, n) and
    states (1, ...) are one H's, shared by every slot. jx must be
    writeable and shaped like the stack: G~ is built in its memory, so jx
    becomes the read-only kernel, as `eigenbasis` hands it over.

    In the eigenbasis of H, int_0^t e^{i(E_k-E_l)s} ds = e^{i(E_k-E_l)t/2} t
    sin(x)/x with x = (E_l-E_k)t/2; the phases are the unitary frame W, which
    leaves the spectrum alone. sin(x)/x, even and 1 at x = 0, is taken once per
    level pair, where x > 0, times t and the pair's jx, and mirrored, so the
    kernel is exactly symmetric. The pair's jx, read from the mirrored slot,
    and the mirror go through the gap buffer x, spent by then: copying kernel.T
    into kernel directly would make numpy allocate a hidden temporary.
    """
    t_col = np.asarray(t)[..., np.newaxis, np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        reach = (energies[..., -1] - energies[..., 0]) * (0.5 * np.asarray(t))
    _refuse_overflow("level phase (E_l - E_k) t/2", reach, t)
    kernel = jx
    x = np.empty(kernel.shape)
    np.subtract(energies[..., np.newaxis, :], energies[..., :, np.newaxis], out=x)
    x *= 0.5 * t_col
    above = x > 0
    level = x == 0  # the diagonal and exactly degenerate pairs: t (jx_kl + jx_lk)/2
    np.sin(x, out=kernel, where=above)
    np.divide(kernel, x, out=kernel, where=above)
    np.multiply(kernel, t_col, out=kernel, where=above)
    np.copyto(x, kernel.swapaxes(-1, -2))  # jx_lk where above and level: those slots are untouched
    np.multiply(kernel, x, out=kernel, where=above)
    np.add(kernel, x, out=kernel, where=level)
    np.multiply(kernel, 0.5 * t_col, out=kernel, where=level)
    np.copyto(x, kernel.swapaxes(-1, -2))
    np.copyto(kernel, x, where=above.swapaxes(-1, -2))
    kernel.setflags(write=False)
    return GeneratorResult(energies=energies, kernel=kernel, t=t, state=state)


def eigenbasis(p: SystemParams, psi: np.ndarray | None = None, axis: str | None = None,
               values: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The arrays of p's generator that do not depend on t, each a stack of one point or, given a sweepable
    axis and c values, of p with that axis at each value: the read-only energies E of H, ascending,
    V^T Jx V, in which `generator_at` builds the kernel, and, given an input psi or one per row, V^T psi.

    Jx is tridiagonal, so V^T Jx V = M + M^T with M = V[:-1]^T (ladder/2 * V[1:]): one matrix product,
    and exactly symmetric. V is last read there and in V^T psi, one product per input on the (real, imag)
    pairs of psi, whose norm is checked to 1e-12 here.
    """
    inputs = () if psi is None else np.atleast_2d(psi)
    for row in inputs:
        if len(row) != p.n_particles + 1:
            raise ValueError(f"generator dimension {p.n_particles + 1} does not match state dimension {len(row)}")
        check_unit_norm(row)
    bands = total_hamiltonian(p, axis, values).reshape(-1, 3, p.n_particles + 1)
    _, ladder = build_spin_operators(p.n_particles)
    scale = (0.5 * ladder)[:, np.newaxis]
    energies, jx = np.empty(bands.shape[::2]), None
    state = None if psi is None else np.empty((len(bands), *np.shape(psi)), dtype=complex)
    for i, band in enumerate(bands):
        energies[i], v = eigh_band(band)
        if state is not None:
            state[i] = np.array([(v.T @ _pairs(row)).view(complex).ravel() for row in inputs]).reshape(np.shape(psi))
        half = np.empty(v.shape)  # before the N x (N+1) scaled rows, whose freed slot jx then fills
        np.matmul(v[:-1].T, scale * v[1:], out=half)
        del v  # not held through the kernel build
        if jx is None:  # once V is dropped: a one-point stack never holds V and its jx
            jx = np.empty((len(bands), *half.shape))
        np.add(half, half.T, out=jx[i])
        del half
    energies.setflags(write=False)
    return energies, jx, state


def dynamical_generator(p: SystemParams, psi: np.ndarray | None = None, axis: str | None = None,
                        values: np.ndarray | None = None) -> GeneratorResult:
    """Generator of the acceleration imprint after time p.t, G = int_0^t e^{iHs} Jx e^{-iHs} ds since
    dH/dlambda = Jx, as `generator_at` of `eigenbasis`, carrying the input psi of a protocol point, or a
    stack of inputs, one per row; given a sweepable axis and c values, the stack of the generators of p
    with that axis at each value, each slot bit for bit its point's. `qfi_pure_state` reads the QFI of psi."""
    energies, jx, state = eigenbasis(p, psi, axis, values)
    if axis is None:
        return generator_at(energies[0], jx[0], p.t, None if state is None else state[0])
    t = np.asarray(values, dtype=float) if axis == "t" else np.full(len(energies), p.t)
    return generator_at(energies, jx, t, state)


def _pairs(z: np.ndarray) -> np.ndarray:
    """z as the n x 2 real array of its complex (real, imag) pairs; no copy for a contiguous complex z."""
    return np.ascontiguousarray(z, dtype=complex).view(float).reshape(-1, 2)


def qfi_pure_state(gen: GeneratorResult, state: np.ndarray | None = None) -> float | np.ndarray:
    """The QFI of an input psi, 4 Var_psi(G) = 4 Var_phi(G~) with phi = W^dag psi =
    diag(exp(-i E t/2)) V^T psi, where V^T psi is state: gen.state, or one of its
    rows for a generator that carries a stack of inputs. Of a stack of c generators,
    with state (c, n), or (1, n) shared by every slot, the QFI of each slot, bit for
    bit its point's own call's.

    G~ is real, so its products act on the (real, imag) pairs of phi, one product per
    slot, and each slot's two sums are one (1, 2n) @ (2n, 1) product of its 2n floats,
    the sums np.vdot gives a point.
    """
    state = gen.state if state is None else state
    if state is None:
        raise ValueError("the generator carries no input state: pass psi to dynamical_generator")
    t = np.asarray(gen.t)
    with np.errstate(over="ignore"):  # refused below
        reach = np.maximum(-gen.energies[..., 0], gen.energies[..., -1]) * (0.5 * abs(t))
    _refuse_overflow("frame phase E t/2", reach, t)
    phi = (np.exp(-0.5j * t[..., np.newaxis] * gen.energies) * state).view(float)  # each slot's 2n floats
    applied = (gen.kernel @ phi.reshape(*phi.shape[:-1], -1, 2)).reshape(phi.shape)
    mean, square = ((v[..., np.newaxis, :] @ applied[..., np.newaxis])[..., 0, 0] for v in (phi, applied))
    qfi = 4.0 * np.maximum(square - mean * mean, 0.0)
    return qfi if qfi.ndim else float(qfi)


def cqfi_upper_bound(n_particles: int, t: float) -> float:
    """Heisenberg ceiling N^2 t^2; no dynamics can push the channel QFI above it."""
    return float(n_particles * t) ** 2
