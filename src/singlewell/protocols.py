"""Ground-state interferometry: the split input state of the protocol.

The sequence is: prepare the (fragmented or coherent) ground state, apply
the pi/2 splitter exp(-i (pi/2) Jz), a phase per Dicke state read from the
Jz eigenvalues, accumulate phase under the full interacting Hamiltonian
with the acceleration on, and evaluate the QFI of the evolved family. The
closing splitter-and-measurement step does not change the QFI and is
omitted.

The input side depends only on N, theta and the state kind, so a sweep
builds the split state psi and its Var(Jx) once with `prepare_input` and
reads its QFI under the generator of each parameter point with
`dynamics.qfi_pure_state`: a protocol point costs one eigendecomposition,
that of H.
"""

from __future__ import annotations

import numpy as np

from .spin_core import build_spin_operators, fragmented_ground_state, spin_coherent_state

__all__ = ["prepare_input"]

STATE_KINDS = ("fragmented", "coherent")


def prepare_input(n_particles: int, state_kind: str, theta: float) -> tuple[np.ndarray, float]:
    """The fragmented or coherent state of N bosons after the splitter, read-only,
    and its Var(Jx); the coherent kind ignores theta.

    The splitter turns the coherent-state azimuth phi by a quarter turn and
    leaves the polar angle alone. It is diagonal and Jx tridiagonal, so both
    act on the band: no dense operator is built.
    """
    m, ladder = build_spin_operators(n_particles)
    if state_kind == "coherent":
        prepared = spin_coherent_state(n_particles, 0.0, 0.0)
    elif state_kind == "fragmented":
        prepared = fragmented_ground_state(n_particles, theta)
    else:
        raise ValueError(f"unknown state kind {state_kind!r}; expected one of {STATE_KINDS}")
    psi = np.exp(-1j * (np.pi / 2.0) * m) * prepared
    jx_psi = np.zeros_like(psi)
    jx_psi[:-1] += 0.5 * ladder * psi[1:]
    jx_psi[1:] += 0.5 * ladder * psi[:-1]
    mean = np.vdot(psi, jx_psi).real
    psi.setflags(write=False)
    return psi, max(float(np.vdot(jx_psi, jx_psi).real - mean * mean), 0.0)
