"""Ground-state interferometry: splitter, phase accumulation, QFI readout.

The sequence is: prepare the (fragmented or coherent) ground state, apply
the pi/2 splitter rotation about Jz, accumulate phase under the full
interacting Hamiltonian with the acceleration on, and evaluate the QFI of
the evolved family. The closing splitter-and-measurement step does not
change the QFI and is omitted.

The input side depends only on N, theta and the state kind, so
`prepare_input` builds it once and `protocol_readout` pairs it with the
generator of each parameter point; `run_protocol` chains the two.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .analytic import phase_shift_qfi
from .dynamics import GeneratorResult, dynamical_generator, qfi_pure_state
from .errors import InvariantError, NumericsError
from .modes import SystemParams, validity_gamma
from .spin_core import (
    DickeState,
    SpinOperators,
    degree_of_fragmentation,
    fragmented_ground_state,
    spin_coherent_state,
    variance,
)

__all__ = ["ProtocolSpec", "ProtocolInput", "ProtocolResult", "beam_splitter",
           "prepare_input", "protocol_readout", "run_protocol"]

log = logging.getLogger(__name__)

_CRB_SLACK = 1e-9

STATE_KINDS = ("fragmented", "coherent")


@dataclass(frozen=True)
class ProtocolSpec:
    """Parameter point plus the initial-state choice for one protocol run."""

    params: SystemParams
    theta: float = 0.5
    state_kind: str = "fragmented"

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise InvariantError(f"theta must lie in [0, pi], got {self.theta!r}")
        if self.state_kind not in STATE_KINDS:
            raise InvariantError(f"unknown state kind {self.state_kind!r}")


@dataclass(frozen=True)
class ProtocolInput:
    """The split input state, the fragmentation of the prepared one, and Var(Jx)."""

    state: DickeState
    fragmentation: float
    jx_variance: float


@dataclass(frozen=True)
class ProtocolResult:
    qfi: float
    ideal_qfi_baseline: float
    cqfi_reference: float
    fragmentation: float


def beam_splitter(ops: SpinOperators, sign: int = -1) -> np.ndarray:
    """Splitter unitary exp(sign * i (pi/2) Jz), diagonal in the Dicke basis.

    The default sign = -1 matches the rotated-state convention; sign = +1
    gives the rotation generated by free evolution under -delta_eps Jz.
    Either choice turns the coherent-state azimuth phi by a quarter turn
    and leaves the polar angle theta alone, so on a Jz eigenstate (the
    theta = 0 coherent input) it is only a global phase.
    """
    if sign not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    m = np.real(np.diag(ops.jz))
    return np.diag(np.exp(sign * 1j * (np.pi / 2.0) * m))


def prepare_input(spec: ProtocolSpec, ops: SpinOperators) -> ProtocolInput:
    """Prepare the fragmented or coherent state and apply the splitter."""
    n = spec.params.n_particles
    if ops.dimension != n + 1:
        raise ValueError(f"spin operators of dimension {ops.dimension} do not match N = {n}")
    if spec.state_kind == "coherent":
        prepared = spin_coherent_state(n, 0.0, 0.0)
    else:
        prepared = fragmented_ground_state(n, spec.theta)
    rotated = DickeState(amplitudes=beam_splitter(ops) @ prepared.amplitudes)
    return ProtocolInput(
        state=rotated,
        fragmentation=degree_of_fragmentation(prepared, ops),
        jx_variance=variance(ops.jx, rotated),
    )


def protocol_readout(inp: ProtocolInput, gen: GeneratorResult) -> ProtocolResult:
    """QFI figures of a prepared input under one generator.

    The state QFI may not exceed the channel QFI of the same dynamics
    (up to a 1e-9 relative slack); a breach means a corrupted generator.
    """
    qfi = qfi_pure_state(gen, inp.state)
    if qfi > gen.cqfi * (1.0 + _CRB_SLACK):
        raise NumericsError(
            f"state QFI {qfi!r} exceeds the channel QFI {gen.cqfi!r}: corrupted generator"
        )
    return ProtocolResult(
        qfi=qfi,
        ideal_qfi_baseline=phase_shift_qfi(inp.jx_variance, gen.t),
        cqfi_reference=gen.cqfi,
        fragmentation=inp.fragmentation,
    )


def run_protocol(spec: ProtocolSpec, ops: SpinOperators) -> ProtocolResult:
    """Run the split-accumulate sequence and report QFI figures.

    Returns the QFI of the prepared-and-rotated state, the pure
    phase-shift baseline for the same state, the channel QFI of the same
    dynamics as a reference ceiling, and the degree of fragmentation of
    the prepared state.
    """
    inp = prepare_input(spec, ops)
    p = spec.params
    gamma, ok = validity_gamma(p.g_1d, p.n_particles)
    if not ok:
        log.warning("two-mode validity parameter gamma = %.3g exceeds 1 at g = %.3g", gamma, p.g)
    else:
        log.debug("two-mode validity parameter gamma = %.3g", gamma)
    return protocol_readout(inp, dynamical_generator(p, ops))
