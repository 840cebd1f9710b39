"""Ground-state interferometry: splitter, phase accumulation, QFI readout.

The sequence is: prepare the (fragmented or coherent) ground state, apply
the pi/2 splitter exp(-i (pi/2) Jz), a phase per Dicke state read from the
Jz eigenvalues, accumulate phase under the full interacting Hamiltonian
with the acceleration on, and evaluate the QFI of the evolved family. The
closing splitter-and-measurement step does not change the QFI and is
omitted.

The input side depends only on N, theta and the state kind, so a sweep
builds it once with `prepare_input` and pairs it with the generator of
each parameter point in `protocol_readout`. Every readout checks
qfi <= cqfi, certified in O(n^2) where it can be, so a protocol point
costs one eigendecomposition, that of H.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import GeneratorResult, qfi_and_ritz_spread
from .errors import NumericsError
from .spin_core import DickeState, SpinOperators, fragmented_ground_state, spin_coherent_state

__all__ = ["ProtocolInput", "prepare_input", "protocol_readout"]

_CRB_SLACK = 1e-9

STATE_KINDS = ("fragmented", "coherent")


@dataclass(frozen=True)
class ProtocolInput:
    """The split input state and its Var(Jx)."""

    state: DickeState
    jx_variance: float


def prepare_input(ops: SpinOperators, state_kind: str, theta: float) -> ProtocolInput:
    """Prepare the fragmented or coherent state of ops.n_particles bosons
    and apply the splitter; the coherent kind ignores theta.

    The splitter turns the coherent-state azimuth phi by a quarter turn and
    leaves the polar angle alone. It is diagonal and Jx tridiagonal, so both
    act on the band: no dense operator is built.
    """
    n = ops.n_particles
    if state_kind == "coherent":
        prepared = spin_coherent_state(n, 0.0, 0.0)
    elif state_kind == "fragmented":
        prepared = fragmented_ground_state(n, theta)
    else:
        raise ValueError(f"unknown state kind {state_kind!r}; expected one of {STATE_KINDS}")
    psi = np.exp(-1j * (np.pi / 2.0) * ops.m) * prepared.amplitudes
    jx_psi = np.zeros_like(psi)
    jx_psi[:-1] += 0.5 * ops.ladder * psi[1:]
    jx_psi[1:] += 0.5 * ops.ladder * psi[:-1]
    mean = np.vdot(psi, jx_psi).real
    return ProtocolInput(
        state=DickeState(amplitudes=psi),
        jx_variance=max(float(np.vdot(jx_psi, jx_psi).real - mean * mean), 0.0),
    )


def protocol_readout(inp: ProtocolInput, gen: GeneratorResult) -> float:
    """QFI of a prepared input under one generator.

    The state QFI may not exceed the channel QFI of the same dynamics
    (up to a 1e-9 relative slack); a breach means a corrupted generator.
    An exactly symmetric kernel with qfi < L^2 (1 + 1e-9), L the Ritz
    spread of `qfi_and_ritz_spread`, passes without the spectrum of G~;
    otherwise, e.g. for L = 0, gen.cqfi decides.
    """
    qfi, spread = qfi_and_ritz_spread(gen, inp.state)
    kernel = gen.kernel
    certified = np.array_equal(kernel, kernel.T) and qfi < spread * spread * (1.0 + _CRB_SLACK)
    if not certified and qfi > gen.cqfi * (1.0 + _CRB_SLACK):
        raise NumericsError(
            f"state QFI {qfi!r} exceeds the channel QFI {gen.cqfi!r}: corrupted generator"
        )
    return qfi
