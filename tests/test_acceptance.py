"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from dataclasses import replace

import numpy as np
import pytest

from singlewell import (
    SweepSpec,
    cqfi_noninteracting,
    cqfi_upper_bound,
    dynamical_generator,
    emit_csv,
    qfi_and_ritz_spread,
    run_sweep,
)
from oracles import (
    dense_generator, dense_hamiltonian, dense_spin, evolve, finite_difference_generator, harmonic_params,
    random_valid_params,
)

G_GRID = np.arange(0.0, 200.0 + 1e-9, 2.0)


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name} -- {detail}")
    return ok


def test_criterion_1_analytic_numeric_agreement():
    worst = 0.0
    count = 0
    for n in (2, 10, 50):
        for lam in np.linspace(0.1, 5.0, 6):
            for de in np.linspace(0.1, 20.0, 6):
                for t in np.linspace(0.1, 10.0, 5):
                    p = harmonic_params(n_particles=n, g=0.0, delta_eps=de, lambda_acc=lam, t=t)
                    numeric = dynamical_generator(p).cqfi
                    analytic = cqfi_noninteracting(n, lam, de, t)
                    worst = max(worst, abs(numeric - analytic) / analytic)
                    count += 1
    ok = worst <= 1e-8
    assert _report(1, "noninteracting channel QFI matches the closed form", ok,
                   f"{count} grid points, worst relative error {worst:.3e} (tol 1e-8)")


def test_criterion_2_ideal_protocol_limit():
    worst = 0.0
    for n in range(1, 51):
        for t in (1.0, 2.7):
            p = harmonic_params(n_particles=n, g=0.0, delta_eps=0.0, t=t)
            cqfi = dynamical_generator(p).cqfi
            worst = max(worst, abs(cqfi - (n * t) ** 2) / (n * t) ** 2)
    ok = worst <= 1e-10
    assert _report(2, "zero splitting recovers N^2 t^2", ok,
                   f"N = 1..50, worst relative error {worst:.3e} (tol 1e-10)")


def test_criterion_3_heisenberg_bound():
    rng = np.random.default_rng(20240811)
    worst_excess = -np.inf
    for _ in range(1000):
        p = random_valid_params(rng)
        cqfi = dynamical_generator(p).cqfi
        bound = cqfi_upper_bound(p.n_particles, p.t)
        excess = cqfi - bound * (1 + 1e-9)
        worst_excess = max(worst_excess, excess)
    ok = worst_excess <= 0.0
    assert _report(3, "channel QFI never exceeds N^2 t^2", ok,
                   f"1000 random points, worst excess {worst_excess:.3e}")


def test_criterion_4_interaction_restores_saturation():
    values = []
    for g in G_GRID:
        p = harmonic_params(g=float(g), delta_eps=10.0)
        values.append(dynamical_generator(p).cqfi)
    values = np.array(values)
    peak = float(values.max())
    peak_g = float(G_GRID[values.argmax()])
    ok = peak >= 0.9 * 2500.0 and abs(peak_g - 80.0) <= 20.0
    assert _report(4, "coupling sweep nearly saturates the bound near g = 80", ok,
                   f"max cQFI {peak:.1f} at g = {peak_g:.0f} (need >= 2250 within 80 +/- 20)")


def _protocol_curve(state_kind: str, theta: float):
    res = run_sweep(SweepSpec(target="protocol_qfi", axis="g", axis_min=0.0, axis_max=200.0,
                              steps=len(G_GRID), params=harmonic_params(delta_eps=10.0),
                              theta=theta, state_kind=state_kind))
    assert np.array_equal(res.columns["g"], G_GRID)
    return res.columns["value"], res.columns["ideal"]


@pytest.fixture(scope="module")
def protocol_curves():
    frag, _ = _protocol_curve("fragmented", 0.5)
    coh, coh_ideal = _protocol_curve("coherent", 0.0)
    return frag, coh, coh_ideal


def test_criterion_5_fragmented_state_reaches_half_the_bound(protocol_curves):
    frag, _, _ = protocol_curves
    peak = float(frag.max())
    ok = 0.35 * 2500.0 <= peak <= 0.65 * 2500.0
    assert _report(5, "fragmented-state QFI peaks near half the bound", ok,
                   f"max QFI {peak:.1f} over g in [0, 200] (need within [875, 1625])")


def test_criterion_6_coherent_state_ratios(protocol_curves):
    frag, coh, coh_ideal = protocol_curves
    ratio = float(frag.max() / coh.max())
    idx150 = int(np.argmin(np.abs(G_GRID - 150.0)))
    gain = float(coh[idx150] / coh_ideal[idx150])
    ratio_ok = 5.0 <= ratio <= 20.0
    gain_ok = gain >= 4.0
    ok = ratio_ok and gain_ok
    assert _report(6, "coherent-state max sits 5-20x below the fragmented max "
                      "and beats its phase-shift baseline 4x at g = 150", ok,
                   f"fragmented/coherent max ratio {ratio:.2f} (need 5-20), "
                   f"gain over baseline at g = 150 is {gain:.2f} (need >= 4)")


def test_criterion_7_generator_matches_finite_differences():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        p = harmonic_params(
            n_particles=20,
            g=float(rng.uniform(0.0, 200.0)),
            delta_eps=float(rng.uniform(0.0, 20.0)),
            lambda_acc=float(rng.uniform(0.1, 5.0)),
            t=float(rng.uniform(0.1, 3.0)),
        )
        gen = dense_generator(dynamical_generator(p))
        worst = max(worst, float(np.abs(gen - finite_difference_generator(p)).max()))
    ok = worst <= 1e-5
    assert _report(7, "spectral generator agrees with the central-difference oracle", ok,
                   f"50 random points at N = 20, worst elementwise error {worst:.3e} (tol 1e-5)")


def test_criterion_8_algebraic_property_suite():
    rng = np.random.default_rng(4242)
    failures = []
    for n in (1, 2, 5, 20, 50):
        dim = n + 1
        j = n / 2.0

        jx, jy, jz = dense_spin(n)
        comm = np.abs(jx @ jy - jy @ jx - 1j * jz).max()
        if comm >= 1e-10:
            failures.append(f"commutator N={n}")
        casimir = jx @ jx + jy @ jy + jz @ jz
        if np.abs(casimir - j * (j + 1) * np.eye(dim)).max() >= 1e-10:
            failures.append(f"casimir N={n}")

        p = harmonic_params(n_particles=n, g=30.0, delta_eps=5.0)
        h_sys = dense_hamiltonian(replace(p, lambda_acc=0.0))
        h_tot = dense_hamiltonian(p)
        if np.abs(h_tot - h_tot.conj().T).max() >= 1e-12:
            failures.append(f"hermiticity N={n}")
        k = np.arange(dim)
        odd = (np.abs(k[:, None] - k[None, :]) % 2) == 1
        if not np.all(h_sys[odd] == 0.0):
            failures.append(f"parity N={n}")

        gen = dynamical_generator(p)
        for _ in range(200):
            amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            state = amp / np.linalg.norm(amp)
            if qfi_and_ritz_spread(gen, state)[0] > gen.cqfi * (1 + 1e-9):
                failures.append(f"crb N={n}")
                break

        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state = amp / np.linalg.norm(amp)
        out = evolve(dense_hamiltonian(p), 2.3, state)
        if abs(np.linalg.norm(out) - 1.0) >= 1e-10:
            failures.append(f"unitarity N={n}")
    ok = not failures
    assert _report(8, "operator algebra, parity, CRB ordering and unitarity hold", ok,
                   "all checks clean for N in {1, 2, 5, 20, 50}" if ok else f"failed: {failures}")


def test_criterion_9_sweep_determinism(tmp_path):
    spec = SweepSpec(
        target="cqfi_interacting",
        axis="g",
        axis_min=0.0,
        axis_max=40.0,
        steps=9,
        params=harmonic_params(n_particles=20, delta_eps=10.0),
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_sweep(spec), str(a))
    emit_csv(run_sweep(spec), str(b))
    ok = a.read_bytes() == b.read_bytes()
    assert _report(9, "identical sweep specs emit byte-identical CSV", ok,
                   f"{len(a.read_bytes())} bytes compared")
