import logging
import os
import re
import sys
import threading
import time
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from singlewell import (
    SweepSpec,
    SystemParams,
    dynamical_generator,
    emit_csv,
    emit_plot,
    load_csv,
    phase_shift_qfi,
    prepare_input,
    qfi_pure_state,
    run_sweep,
    run_sweeps,
    validity_gamma,
)
from singlewell.modes import AXIS_FIELDS, FIELD_KEYS, with_axis_value
from singlewell import dynamics, sweeps
from singlewell.protocols import STATE_KINDS
from singlewell.sweeps import AXES, TARGETS, SweepPointError
from singlewell.errors import NumericsError
from oracles import dense_hamiltonian, dense_spin, exact_generator, harmonic_params, variance


def small_spec(**overrides):
    base = dict(
        target="cqfi_interacting",
        axis="g",
        axis_min=0.0,
        axis_max=40.0,
        steps=5,
        params=harmonic_params(n_particles=12, delta_eps=5.0),
    )
    base.update(overrides)
    return SweepSpec(**base)


N_ONE_POINT_CHUNKS = 300  # past N = 145, where a chunk is one point: the memory tests count one point's arrays


def _big_spec(target, axis, steps, **overrides):
    """A sweep at N = 300, in chunks of one point: on two threads given two CPUs and a one-thread BLAS."""
    base = dict(target=target, axis=axis, axis_min=0.5, axis_max=40.0, steps=steps,
                params=harmonic_params(n_particles=N_ONE_POINT_CHUNKS, delta_eps=5.0))
    return small_spec(**{**base, **overrides})


def _peak_in_arrays(spec) -> float:
    """The traced peak of run_sweep(spec) over its start, in dense (N+1)^2 float64 arrays."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / (8 * (spec.params.n_particles + 1) ** 2)


class TestSweepSpec:
    def test_rejects_too_few_steps(self):
        with pytest.raises(ValueError):
            small_spec(steps=1)
        # a float steps, whole or not, fails at the spec, not in np.linspace mid-run
        for steps in (5.0, 5.5):
            with pytest.raises(ValueError, match="integer of at least 2 steps"):
                small_spec(steps=steps)

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            small_spec(axis_min=5.0, axis_max=5.0)
        # the last pair has finite ends, but a width beyond a float: linspace would give NaN
        for lo, hi in ((np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 1.0), (-1.7e308, 1.7e308)):
            with pytest.raises(ValueError, match="finite"):
                small_spec(axis_min=lo, axis_max=hi)

    def test_an_integer_end_past_2_to_the_64_gives_the_float_grid(self):
        # numpy holds an int of 2^64 or more as an object, which linspace cannot subtract
        assert np.array_equal(SweepSpec(axis_max=2 ** 64, steps=2).grid(),
                              SweepSpec(axis_max=float(2 ** 64), steps=2).grid())

    def test_grid_ends_outside_the_model_fail_at_the_spec(self):
        for axis, message in (("g", "g >= 0"), ("t", "evolution time")):
            with pytest.raises(ValueError, match=message):
                small_spec(axis=axis, axis_min=-1e-97, axis_max=1.0)

    def test_rejects_unknown_target_and_axis(self):
        with pytest.raises(ValueError):
            small_spec(target="qfi_of_doom")
        with pytest.raises(ValueError):
            small_spec(axis="n_particles")

    @pytest.mark.parametrize("name, bad", [
        ("theta", "a"), ("theta", None), ("theta", True), ("log_scale", "no"), ("log_scale", 1),
        ("axis_min", "0"), ("axis_max", False), ("params", None),
    ])
    def test_wrong_typed_field_refused_at_the_spec(self, name, bad):
        # a YAML value's rule: an int fits a float, a bool only a bool; named by its YAML key
        with pytest.raises(ValueError, match=FIELD_KEYS.get(name, name)):
            small_spec(**{name: bad})


class TestRunSweep:
    @pytest.mark.parametrize("target, axis", [
        ("cqfi_interacting", "g"), ("protocol_qfi", "g"), ("cqfi_interacting", "lambda"),
    ])
    def test_overflowing_phase_fails_its_point(self, target, axis):
        # every input is a float, but (E_l - E_k) t/2 is not
        spec = SweepSpec(target=target, axis=axis, axis_max=1.0, steps=3,
                         params=SystemParams(n_particles=4, delta_eps=1e200, t=1e150))
        with pytest.raises(SweepPointError, match=f"{axis} = 0.0") as info:
            run_sweep(spec)
        assert isinstance(info.value.__cause__, NumericsError)
        assert "phase (E_l - E_k) t/2 overflows" in str(info.value.__cause__)

    def test_grid_shape_and_finiteness(self):
        res = run_sweep(small_spec())
        assert list(res.columns) == ["g", "value", "bound"]
        assert len(res.columns["g"]) == 5
        assert np.all(np.isfinite(res.columns["value"]))
        assert np.all(res.columns["bound"] == 144.0)

    def test_analytic_target(self):
        res = run_sweep(small_spec(target="cqfi_noninteracting", axis="delta_eps", axis_max=20.0))
        assert res.columns["value"][0] > res.columns["value"][-1]  # splitting suppresses the cQFI

    def test_protocol_target_has_ideal_column(self):
        res = run_sweep(small_spec(target="protocol_qfi", steps=3, theta=0.5))
        assert list(res.columns) == ["g", "value", "bound", "ideal"]
        assert len(res.columns["ideal"]) == 3
        assert res.metadata["state_kind"] == "fragmented"

    def test_bound_tracks_swept_time(self):
        res = run_sweep(small_spec(axis="t", axis_min=1.0, axis_max=2.0, steps=3))
        assert np.allclose(res.columns["bound"], (12.0 * res.columns["t"]) ** 2)

    def test_every_value_respects_the_bound(self):
        res = run_sweep(small_spec(steps=9))
        assert np.all(res.columns["value"] <= res.columns["bound"] * (1 + 1e-9))
        # no input reaches above the channel QFI of its own point, which run_sweep does not check
        for kind in STATE_KINDS:
            spec = small_spec(target="protocol_qfi", steps=9, state_kind=kind)
            res = run_sweep(spec)
            assert np.all(res.columns["value"] <= res.columns["bound"] * (1 + 1e-9))
            for g, qfi in zip(res.columns["g"].tolist(), res.columns["value"].tolist()):
                cqfi = dynamical_generator(with_axis_value(spec.params, "g", g)).cqfi
                assert qfi <= cqfi * (1 + 1e-9), (kind, g)

    def test_point_failure_names_the_tuple(self, monkeypatch):
        def failing(p, psi=None):  # along t, the pass decomposes H once, and its failure is grid[0]'s
            raise NumericsError("eigendecomposition failed")

        monkeypatch.setattr(sweeps, "eigenbasis", failing)
        spec = small_spec(axis="t", axis_min=0.0, axis_max=1.0, steps=3)
        with pytest.raises(SweepPointError, match=r"t = 0\.0") as info:
            run_sweep(spec)
        assert isinstance(info.value.__cause__, NumericsError)

    @pytest.mark.parametrize("target, axis", [
        ("cqfi_interacting", "g"), ("cqfi_interacting", "t"), ("protocol_qfi", "g"),
    ])
    def test_a_point_peaks_below_three_and_a_half_arrays(self, target, axis, monkeypatch):
        # numpy reports its data buffers to tracemalloc, dsbevd's workspace among
        # them, as numpy owns it: decompose holds V and 2n^2 of workspace, 3 arrays,
        # and the kernel build, V dropped, V^T Jx V, the gaps, the kernel and two
        # boolean masks, 3.25 arrays (3.35-3.37 measured); V held through it lifts it to 4.25+
        monkeypatch.setattr(sweeps, "blas_threads", lambda: 2)  # the rule says one thread: one point at a time
        assert _peak_in_arrays(_big_spec(target, axis, steps=2)) <= 3.5

    @pytest.mark.parametrize("target, axis", [
        ("cqfi_interacting", "g"), ("cqfi_interacting", "t"), ("protocol_qfi", "g"),
    ])
    def test_a_two_thread_sweep_holds_at_most_two_points(self, target, axis, two_cpus):
        # 6.41-6.51 arrays measured: the two halves' points, each at most a point's 3.5
        assert _peak_in_arrays(_big_spec(target, axis, steps=4)) <= 2 * 3.5

    @pytest.mark.parametrize("target", ["cqfi_interacting", "protocol_qfi"])
    def test_a_two_thread_n_50_sweep_holds_two_stacks_and_two_points(self, target, two_cpus):
        # each half's chunk of 16 points at its kernel build: 16 slots, each its point's jx and then
        # its kernel, the gap scratch x of 16 and two boolean masks of 16, 2.25 x 16 arrays; beside
        # them numpy's ufunc buffer for the broadcast t, getbufsize() float64s, the chunk's bands and
        # energies, 4 (N+1) floats a point, and less than an array of the pass's lists and the chunk's
        # vectors: 2 x 41.4 in all; 45.5-80.2 arrays measured over 40 runs (81.3 with g up to 50).
        # A protocol chunk also holds its input in the eigenbasis, V^T psi, N+1 complex a point: 2 x 42.0;
        # 46.9-82.6 measured over 100 runs
        spec = small_spec(target=target, steps=37, axis_max=200.0,
                          params=harmonic_params(n_particles=50, delta_eps=10.0))
        run_sweep(spec)  # N = 50's first sweep fills the caches the process keeps
        size, array = sweeps.stack_size(50), 8 * 51 ** 2
        states = size * 51 * 16 if target == "protocol_qfi" else 0
        chunk = 2.25 * size + (8 * np.getbufsize() + size * 4 * 51 * 8 + states) / array + 1
        assert _peak_in_arrays(spec) <= 2 * chunk

    def test_sweep_matches_pointwise_evaluation(self):
        # the sweep hoists the protocol input and, on the t axis, the
        # decomposition of H; point by point it must still agree with the
        # kernels called afresh
        ranges = {"g": (0.0, 40.0), "delta_eps": (0.0, 10.0), "t": (0.0, 3.0),
                  "lambda": (-1.0, 2.0), "delta_a": (0.0, 1.0)}
        assert set(ranges) == set(AXES)
        base = replace(small_spec().params, g=20.0)
        for axis, (lo, hi) in ranges.items():
            cases = [("cqfi_interacting", "fragmented")]
            cases += [("protocol_qfi", kind) for kind in ("fragmented", "coherent")]
            for target, kind in cases:
                spec = small_spec(target=target, axis=axis, axis_min=lo, axis_max=hi, steps=7,
                                  params=base, theta=0.7, state_kind=kind)
                res = run_sweep(spec)
                points = [with_axis_value(base, axis, v) for v in res.columns[axis]]
                if target == "cqfi_interacting":
                    expected = [dynamical_generator(p).cqfi for p in points]
                else:
                    psi, jx_variance = prepare_input(base.n_particles, kind, 0.7)
                    expected = [qfi_pure_state(dynamical_generator(p, psi)) for p in points]
                    np.testing.assert_allclose(
                        res.columns["ideal"], [phase_shift_qfi(jx_variance, p.t) for p in points],
                        rtol=1e-12, atol=0)
                np.testing.assert_allclose(res.columns["value"], expected, rtol=1e-12, atol=0,
                                           err_msg=f"{target} {kind} over {axis}")

    def test_protocol_sweep_takes_no_spectrum_of_the_kernel(self, monkeypatch):
        # a protocol point reads the QFI of its input from products with the kernel alone
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        run_sweep(small_spec(target="protocol_qfi", steps=9))
        assert calls == []

    def test_validity_warning_is_one_line_per_sweep(self, caplog):
        # every target that g enters warns once; the noninteracting one, and a grid inside
        # two-mode validity, do not
        grid = small_spec(steps=9)
        gammas = [validity_gamma(replace(grid.params, g=g))[0] for g in grid.grid()]
        outside = sum(gamma > 1.0 for gamma in gammas)
        assert 0 < outside < 9
        for target in ("protocol_qfi", "cqfi_interacting"):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                run_sweep(small_spec(target=target, steps=9))
            warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
            assert len(warnings) == 1, target
            assert warnings[0].getMessage() == (
                f"{outside} of 9 points outside two-mode validity, gamma_max = {max(gammas):.3g}"
            ), target
        for spec in (small_spec(target="cqfi_noninteracting", steps=9),
                     small_spec(target="protocol_qfi", axis_max=20.0, steps=9),
                     small_spec(target="cqfi_interacting", axis_max=20.0, steps=9)):
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                run_sweep(spec)
            assert not [r for r in caplog.records if r.levelno == logging.WARNING], spec.target

    def test_swept_axis_left_out_of_metadata(self):
        res = run_sweep(small_spec())
        assert "g" not in res.metadata
        assert res.metadata["delta_eps"] == 5.0


def _refuse_kernel(monkeypatch, bad):
    """Make eigvalsh raise on any input that holds the kernel bad, alone or in a stack."""
    eigvalsh = np.linalg.eigvalsh

    def refusing(a):
        if any(np.array_equal(kernel, bad) for kernel in a.reshape(-1, *bad.shape)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", refusing)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs and a one-thread BLAS for the sweep's thread rule, whatever this machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(sweeps, "blas_threads", lambda: 1)


class TestThreadedSweep:
    """Sweeps on two threads: each half of the grid on its own thread, each row at
    its grid index; at N = 50 each half reads its points in chunks of 16."""

    def test_two_threads_for_every_pass_that_builds_generators_at_every_n(self, two_cpus, monkeypatch):
        starts = []
        thread = threading.Thread
        monkeypatch.setattr(threading, "Thread", lambda **kw: starts.append(kw["args"]) or thread(**kw))
        for target in ("cqfi_interacting", "protocol_qfi"):
            for n in (12, 50, 149):
                run_sweep(small_spec(target=target, params=harmonic_params(n_particles=n), steps=5))
        assert starts == [(3, 5)] * 6  # the main thread runs grid[:3], a second grid[3:]
        starts.clear()
        run_sweep(_big_spec("cqfi_noninteracting", "g", steps=5))  # the closed form: one thread
        for target in ("cqfi_interacting", "protocol_qfi"):
            for blas in (2, None):  # BLAS on two threads per call, or a BLAS of unknown threads
                monkeypatch.setattr(sweeps, "blas_threads", lambda: blas)
                run_sweep(small_spec(target=target, steps=3))
            monkeypatch.setattr(sweeps, "blas_threads", lambda: 1)
            with monkeypatch.context() as one_cpu:
                one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
                run_sweep(small_spec(target=target, steps=3))
        assert starts == []

    def test_a_closed_form_pass_builds_no_generator_and_starts_no_thread(self, two_cpus, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the closed form builds no generator")

        starts = []
        monkeypatch.setattr(threading, "Thread", lambda **kw: starts.append(kw["args"]))
        monkeypatch.setattr(sweeps, "dynamical_generator", refused)
        for axis in AXES:
            res = run_sweep(_big_spec("cqfi_noninteracting", axis, steps=37, axis_min=0.0, axis_max=1.0))
            assert np.all(res.columns["value"] <= res.columns["bound"] * (1 + 1e-12)), axis
        assert starts == []

    def test_a_stack_holds_16_4_and_1_kernels_at_n_50_100_and_200(self):
        assert [sweeps.stack_size(n) for n in (50, 100, 200)] == [16, 4, 1]

    @pytest.mark.parametrize("axis, axis_max", [("g", 200.0), ("delta_eps", 20.0), ("t", 10.0)])
    def test_stacked_cqfi_equals_pointwise_calls_bit_for_bit(self, axis, axis_max, two_cpus, monkeypatch):
        # 37 points: grid[:19] and grid[19:] each end in a partial stack of 16
        spec = small_spec(axis=axis, axis_min=0.0, axis_max=axis_max, steps=37,
                          params=harmonic_params(n_particles=50, g=20.0, delta_eps=10.0))
        stacks = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: stacks.append(a.shape[0]) or eigvalsh(a))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads take turns as often as the interpreter allows
        try:
            res = run_sweep(spec)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(stacks) == [2, 3, 16, 16]
        points = [with_axis_value(spec.params, axis, v) for v in res.columns[axis].tolist()]
        assert res.columns["value"].tolist() == [dynamical_generator(p).cqfi for p in points]

    @pytest.mark.parametrize("refused, named", [(None, 17), (16, 16)])
    def test_phase_overflow_inside_a_stack_names_the_first_failing_point(self, refused, named, two_cpus,
                                                                         monkeypatch):
        # along t, every point from index 17 on overflows: grid[17] sits in the first half's
        # second stack, behind grid[16], and the second half fails from its first point on;
        # if eigvalsh refuses grid[16]'s kernel too, that unread point fails first
        params = harmonic_params(n_particles=50, delta_eps=1e200)
        energies = dynamical_generator(params).energies
        spread = float(energies[-1]) - float(energies[0])
        t_max = float(np.finfo(float).max) / (0.5 * spread) * (36 / 16.5)
        spec = small_spec(axis="t", axis_min=0.0, axis_max=t_max, steps=37, params=params)
        grid = spec.grid().tolist()
        assert [not spread * (0.5 * t) < np.inf for t in grid].index(True) == 17
        if refused is not None:
            point = with_axis_value(params, "t", grid[refused])
            _refuse_kernel(monkeypatch, dynamical_generator(point).kernel)
        with pytest.raises(SweepPointError, match=re.escape(f"t = {grid[named]!r} ")) as info:
            run_sweep(spec)
        if refused is None:
            assert "phase (E_l - E_k) t/2 overflows" in str(info.value.__cause__)
        else:
            assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("failing", [25, 4])
    def test_a_kernel_whose_spectrum_fails_is_named_from_its_stack(self, failing, two_cpus, monkeypatch):
        # eigvalsh refuses one kernel, alone or in a stack: grid[25] sits in the second half's
        # first stack, grid[4] in the first half's
        spec = small_spec(axis="g", axis_min=0.0, axis_max=200.0, steps=37,
                          params=harmonic_params(n_particles=50, delta_eps=10.0))
        grid = spec.grid().tolist()
        point = with_axis_value(spec.params, "g", grid[failing])
        _refuse_kernel(monkeypatch, dynamical_generator(point).kernel)
        with pytest.raises(SweepPointError, match=f"g = {grid[failing]!r} ") as info:
            run_sweep(spec)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("axis", ["g", "t"])
    def test_values_equal_pointwise_calls_bit_for_bit(self, axis, two_cpus):
        for target, kind in [("cqfi_interacting", "fragmented"), ("protocol_qfi", "fragmented"),
                             ("protocol_qfi", "coherent")]:
            spec = _big_spec(target, axis, steps=4, state_kind=kind)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # the threads take turns as often as the interpreter allows
            try:
                res = run_sweep(spec)
            finally:
                sys.setswitchinterval(interval)
            points = [with_axis_value(spec.params, axis, v) for v in res.columns[axis].tolist()]
            if target == "cqfi_interacting":
                expected = [dynamical_generator(p).cqfi for p in points]
            else:
                psi, jx_variance = prepare_input(spec.params.n_particles, kind, spec.theta)
                expected = [qfi_pure_state(dynamical_generator(p, psi)) for p in points]
                assert res.columns["ideal"].tolist() == [phase_shift_qfi(jx_variance, p.t) for p in points]
            assert res.columns["value"].tolist() == expected, (target, kind)
            assert res.columns["bound"].tolist() == [(p.n_particles * p.t) ** 2 for p in points]

    @pytest.mark.parametrize("failing, named", [({1: 0.05, 4: 0.0}, 1), ({4: 0.0}, 4)])
    def test_failure_names_the_first_failing_point_in_grid_order(self, failing, named, two_cpus,
                                                                  monkeypatch):
        # grid[:3] runs on the caller's thread and grid[3:] on a second; the first half's
        # failure waits, so the second half fails first in time, not in grid order
        spec = _big_spec("protocol_qfi", "g", steps=6)
        grid = spec.grid().tolist()

        def failing_generator(p, psi=None, axis=None, values=None):
            index = grid.index(values[0])  # from N = 145 on, a chunk is one point
            if index in failing:
                time.sleep(failing[index])
                raise NumericsError(f"failed at index {index}")
            return dynamical_generator(p, psi, axis, values)

        hooked = []  # the hook threading calls for an exception that escapes a thread
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        monkeypatch.setattr(sweeps, "dynamical_generator", failing_generator)
        with pytest.raises(SweepPointError, match=f"g = {grid[named]!r} ") as info:
            run_sweep(spec)
        assert str(info.value.__cause__) == f"failed at index {named}"
        assert hooked == []

    def test_validity_warning_is_one_line_for_the_whole_grid(self, two_cpus, caplog):
        spec = _big_spec("cqfi_interacting", "g", steps=5, axis_max=8000.0)
        gammas = [validity_gamma(replace(spec.params, g=g))[0] for g in spec.grid()]
        assert [gamma > 1.0 for gamma in gammas] == [False, False, True, True, True]  # in both halves
        with caplog.at_level(logging.WARNING):
            run_sweep(spec)
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            f"3 of 5 points outside two-mode validity, gamma_max = {max(gammas):.3g}"]


def _one_grid(axis, axis_max, **params):
    """The channel QFI and both inputs' QFI on one 37-point N = 50 grid: a stacked pass, and a
    threaded one under the thread rule."""
    params = harmonic_params(**{"n_particles": 50, "g": 20.0, "delta_eps": 10.0, **params})
    return [SweepSpec(target=target, axis=axis, axis_min=0.0, axis_max=axis_max, steps=37, params=params,
                      state_kind=kind) for target, kind in [("cqfi_interacting", "fragmented"),
                                                            ("protocol_qfi", "fragmented"),
                                                            ("protocol_qfi", "coherent")]]


def _count_decompositions(monkeypatch) -> list:
    """The shapes of the bands that dynamics.eigh_band decomposes from now on."""
    calls = []
    eigh_band = dynamics.eigh_band
    monkeypatch.setattr(dynamics, "eigh_band", lambda band: calls.append(band.shape) or eigh_band(band))
    return calls


class TestRunSweeps:
    """Specs on one grid read one pass, and each gets the result its own run_sweep gives."""

    @pytest.mark.parametrize("threads", [True, False], ids=["two_threads", "one_thread"])
    @pytest.mark.parametrize("axis, axis_max", [("g", 200.0), ("t", 10.0)])
    def test_grouped_columns_equal_separate_sweeps_bit_for_bit(self, axis, axis_max, threads, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(sweeps, "blas_threads", lambda: 1 if threads else 2)  # 2: the rule says one
        specs = _one_grid(axis, axis_max)
        starts, thread = [], threading.Thread
        monkeypatch.setattr(threading, "Thread", lambda **kw: starts.append(kw["args"]) or thread(**kw))
        calls = _count_decompositions(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads take turns as often as the interpreter allows
        try:
            grouped = run_sweeps(specs)
        finally:
            sys.setswitchinterval(interval)
        assert starts == ([(19, 37)] if threads else [])  # one pass, the second half on a second thread
        assert len(calls) == (37 if axis == "g" else 1)  # along t, H is decomposed once per pass
        for spec, result in zip(specs, grouped):
            alone = run_sweep(spec)
            assert result.metadata == alone.metadata
            assert list(result.columns) == list(alone.columns)
            for name, column in alone.columns.items():
                assert np.array_equal(result.columns[name], column), (spec.target, spec.state_kind, name)

    @pytest.mark.parametrize("threads", [True, False], ids=["two_threads", "one_thread"])
    @pytest.mark.parametrize("axis, axis_max", [("g", 200.0), ("delta_eps", 20.0), ("t", 10.0), ("lambda", 2.0),
                                                ("delta_a", 1.0)])
    def test_a_chunked_pass_equals_the_per_point_chain_bit_for_bit(self, axis, axis_max, threads, monkeypatch):
        # 37 points: each half, grid[:19] and grid[19:], ends in a partial chunk of 16
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(sweeps, "blas_threads", lambda: 1 if threads else 2)  # 2: the rule says one
        starts, thread = [], threading.Thread
        monkeypatch.setattr(threading, "Thread", lambda **kw: starts.append(kw["args"]) or thread(**kw))
        specs = _one_grid(axis, axis_max)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads take turns as often as the interpreter allows
        try:
            results = run_sweeps(specs)
        finally:
            sys.setswitchinterval(interval)
        assert starts == ([(19, 37)] if threads else [])
        points = [with_axis_value(specs[0].params, axis, v) for v in specs[0].grid().tolist()]
        assert np.array_equal(results[0].columns["value"], [dynamical_generator(p).cqfi for p in points])
        for spec, result in zip(specs[1:], results[1:]):
            psi, _ = prepare_input(50, spec.state_kind, spec.theta)
            expected = [qfi_pure_state(dynamical_generator(p, psi)) for p in points]
            assert np.array_equal(result.columns["value"], expected), spec.state_kind

    @pytest.mark.parametrize("axis, axis_max", [("g", 200.0), ("delta_eps", 20.0), ("t", 10.0)])
    def test_the_closed_form_and_the_channel_qfi_on_one_grid_equal_their_single_sweeps(self, axis, axis_max,
                                                                                      two_cpus):
        params = harmonic_params(n_particles=50, g=20.0, delta_eps=10.0)
        specs = [SweepSpec(target=target, axis=axis, axis_min=0.0, axis_max=axis_max, steps=37, params=params)
                 for target in ("cqfi_noninteracting", "cqfi_interacting")]
        for spec, result in zip(specs, run_sweeps(specs)):
            alone = run_sweep(spec)
            assert result.metadata == alone.metadata
            assert list(result.columns) == list(alone.columns)
            for name, column in alone.columns.items():
                assert np.array_equal(result.columns[name], column), (spec.target, name)

    def test_results_follow_the_specs_across_grids(self):
        specs = [small_spec(), small_spec(target="cqfi_noninteracting", axis="delta_eps", axis_max=20.0),
                 small_spec(target="protocol_qfi", state_kind="coherent"), small_spec()]
        results = run_sweeps(specs)
        assert results[0] is results[3]  # equal specs share one result
        for spec, result in zip(specs, results):
            alone = run_sweep(spec)
            assert result.metadata == alone.metadata
            assert all(np.array_equal(result.columns[name], column) for name, column in alone.columns.items())

    @pytest.mark.parametrize("threads", [True, False], ids=["two_threads", "one_thread"])
    def test_a_generator_failure_is_named_as_in_each_single_sweep(self, threads, monkeypatch):
        # along t, every point from index 17 on overflows its level phase (E_l - E_k) t/2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(sweeps, "blas_threads", lambda: 1 if threads else 2)
        params = harmonic_params(n_particles=50, delta_eps=1e200)
        energies = dynamical_generator(params).energies
        t_max = float(np.finfo(float).max) / (0.5 * (float(energies[-1]) - float(energies[0]))) * (36 / 16.5)
        specs = _one_grid("t", t_max, g=0.0, delta_eps=1e200)
        grid = specs[0].grid().tolist()
        for spec in specs:  # a one-spec call's message, word for word
            with pytest.raises(SweepPointError) as alone:
                run_sweep(spec)
            assert str(alone.value) == (f"sweep point failed at t = {grid[17]!r} "
                                        f"(target = {spec.target}, fixed = {spec.params})")
        with pytest.raises(SweepPointError, match=re.escape(f"t = {grid[17]!r} ")) as grouped:
            run_sweeps(specs)
        assert "phase (E_l - E_k) t/2 overflows" in str(grouped.value.__cause__)

    @pytest.mark.parametrize("failing", [25, 4])
    def test_a_failing_channel_readout_is_named_as_in_its_single_sweep(self, failing, two_cpus, monkeypatch):
        # eigvalsh refuses one kernel, grid[25] in the second half's stack, grid[4] in the first's;
        # the protocol readouts of that point do not fail, and alone those sweeps pass
        specs = _one_grid("g", 200.0)
        grid = specs[0].grid().tolist()
        _refuse_kernel(monkeypatch, dynamical_generator(with_axis_value(specs[0].params, "g", grid[failing])).kernel)
        with pytest.raises(SweepPointError, match=re.escape(f"g = {grid[failing]!r} (target = cqfi_interacting, ")):
            run_sweep(specs[0])
        for spec in specs[1:]:
            run_sweep(spec)
        with pytest.raises(SweepPointError, match=re.escape(f"g = {grid[failing]!r} ")) as grouped:
            run_sweeps(specs)
        assert isinstance(grouped.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("spec", [_one_grid("t", 10.0)[0], _big_spec("protocol_qfi", "t", steps=4)],
                             ids=["cqfi_interacting", "protocol_qfi"])
    def test_a_threaded_t_sweep_decomposes_h_once(self, spec, two_cpus, monkeypatch):
        starts, thread = [], threading.Thread
        monkeypatch.setattr(threading, "Thread", lambda **kw: starts.append(kw["args"]) or thread(**kw))
        calls = _count_decompositions(monkeypatch)
        slots = []  # the kernels built, through dynamical_generator or the pass's own call
        for module in (dynamics, sweeps):
            monkeypatch.setattr(module, "generator_at", lambda energies, *args, build=module.generator_at:
                                slots.append(energies[..., 0].size) or build(energies, *args))
        run_sweep(spec)
        assert len(starts) == 1 and len(calls) == 1
        assert sum(slots) == spec.steps  # one kernel per grid point


# Each axis drawn from a range around the figures' points; lambda and t include 0.
_AXIS_VALUES = {
    "g": st.floats(0.0, 200.0),
    "delta_eps": st.floats(-20.0, 20.0),
    "t": st.just(0.0) | st.floats(0.0, 3.0),
    "lambda": st.just(0.0) | st.floats(-2.0, 2.0),
    "delta_a": st.floats(0.0, 1.0),
}


@st.composite
def _random_sweeps(draw):
    axis = draw(st.sampled_from(AXES))
    lo, hi = sorted(draw(_AXIS_VALUES[axis]) for _ in range(2))
    assume(lo < hi)
    fixed = {AXIS_FIELDS[a]: draw(_AXIS_VALUES[a]) for a in AXES if a != axis}
    return SweepSpec(target=draw(st.sampled_from(TARGETS)), axis=axis, axis_min=lo, axis_max=hi,
                     steps=3, params=SystemParams(n_particles=draw(st.integers(1, 24)), **fixed),
                     theta=draw(st.floats(0.0, np.pi)), state_kind=draw(st.sampled_from(STATE_KINDS)))


# sqrt(QFI) to k eps (1 + t ||H||) N t; the worst k measured over ~20000
# random sweeps is 15. QFIs below the smallest normal float are compared to
# sqrt(tiny) absolute only: their rounding is absolute, not relative.
_ORACLE_K = 30.0
_SUBNORMAL_FLOOR = np.sqrt(np.finfo(float).tiny)


class TestExactOracleOverRandomSweeps:
    """Every row of a random sweep's value column against the exact derivative
    of expm (`exact_generator`): the channel QFI is the squared spread of
    that G, a protocol QFI 4 Var of G over the prepared input, and the
    closed form the channel QFI of the g = 0 model. sqrt(QFI) is a spread
    of G, and rounding in G is ~ eps (1 + t ||H||) ||G|| with ||G|| <= N t,
    so the bound is on sqrt(QFI), to k eps (1 + t ||H||) N t: relative near
    the Heisenberg value (N t)^2, and a floor for QFIs near 0, where a
    relative error grows as N t / sqrt(QFI)."""

    @given(spec=_random_sweeps())
    @example(spec=SweepSpec(  # q = 0 at the middle point, g = 90
        target="cqfi_interacting", axis="g", axis_min=0.0, axis_max=180.0, steps=3,
        params=SystemParams(n_particles=9, delta_eps=10.0)))
    @example(spec=SweepSpec(  # q = 0 at g = 90 again, for the protocol readout
        target="protocol_qfi", axis="g", axis_min=0.0, axis_max=180.0, steps=3,
        params=SystemParams(n_particles=9, delta_eps=10.0), state_kind="coherent"))
    @example(spec=SweepSpec(  # the t axis reuses H, from t = 0 on
        target="cqfi_interacting", axis="t", axis_min=0.0, axis_max=3.0, steps=3,
        params=SystemParams(n_particles=24, g=80.0, delta_eps=10.0)))
    @example(spec=SweepSpec(
        target="protocol_qfi", axis="t", axis_min=0.0, axis_max=3.0, steps=3,
        params=SystemParams(n_particles=24, g=80.0, delta_eps=10.0)))
    @example(spec=SweepSpec(  # hypot(lambda, delta_eps) subnormal at the middle point
        target="cqfi_noninteracting", axis="lambda", axis_min=0.0, axis_max=2.2250738585e-313, steps=3,
        params=SystemParams(n_particles=1, delta_eps=2.2250738585e-313, delta_a=0.0), theta=0.0))
    @settings(deadline=None, max_examples=150)
    def test_value_column_matches_the_exact_derivative(self, spec):
        res = run_sweep(spec)
        protocol = spec.target == "protocol_qfi"
        assert list(res.columns) == [spec.axis, "value", "bound"] + ["ideal"] * protocol
        jx = dense_spin(spec.params.n_particles)[0]
        psi, _ = prepare_input(spec.params.n_particles, spec.state_kind, spec.theta)
        for row, (x, value) in enumerate(zip(res.columns[spec.axis], res.columns["value"])):
            p = with_axis_value(spec.params, spec.axis, x)
            assert res.columns["bound"][row] == float(p.n_particles * p.t) ** 2
            if protocol:
                assert res.columns["ideal"][row] == pytest.approx(4.0 * p.t ** 2 * variance(jx, psi),
                                                                  rel=1e-12, abs=1e-300)
            if spec.target == "cqfi_noninteracting":
                p = replace(p, g=0.0)  # H = lambda Jx - delta_eps Jz
            h = dense_hamiltonian(p)
            oracle = exact_generator(h, jx, p.t)
            if protocol:
                expected = 4.0 * variance(oracle, psi)
            else:
                levels = np.linalg.eigvalsh(oracle)
                expected = (levels[-1] - levels[0]) ** 2
            scale = np.finfo(float).eps * (1.0 + p.t * np.linalg.norm(h, 2)) * p.n_particles * p.t
            assert abs(np.sqrt(abs(value)) - np.sqrt(expected)) <= _ORACLE_K * scale + _SUBNORMAL_FLOOR, \
                (x, value, expected)


class TestCsv:
    def test_structure(self, tmp_path):
        path = tmp_path / "sweep.csv"
        emit_csv(run_sweep(small_spec(steps=3)), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == "g,value,bound"
        assert len(data) == 1 + 3
        assert any("n_particles = 12" in c for c in comments)

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(small_spec(steps=6)), str(a))
        emit_csv(run_sweep(small_spec(steps=6)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_path_rejected_without_partial_file(self, tmp_path):
        res = run_sweep(small_spec(steps=3))
        with pytest.raises(ValueError):
            emit_csv(res, "")
        assert list(tmp_path.iterdir()) == []

    def test_round_trip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        res = run_sweep(small_spec(target="protocol_qfi", steps=3))
        emit_csv(res, str(path))
        back = load_csv(str(path))
        assert back.axis == "g"
        assert back.metadata["target"] == "protocol_qfi"
        assert list(back.columns) == list(res.columns)
        for name, col in res.columns.items():
            assert np.allclose(back.columns[name], col, rtol=1e-11)
        assert back.metadata["n_particles"] == 12
        assert back.metadata["state_kind"] == "fragmented"

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "sweep.csv"
        emit_csv(run_sweep(small_spec(steps=3)), str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_emitted_rows_respect_the_bound(self, tmp_path):
        path = tmp_path / "sweep.csv"
        emit_csv(run_sweep(small_spec(steps=9)), str(path))
        back = load_csv(str(path))
        assert np.all(back.columns["value"] <= back.columns["bound"] * (1 + 1e-9))


class TestPlot:
    def test_wellformed_svg_with_curve_and_bound(self, tmp_path):
        path = tmp_path / "sweep.svg"
        emit_plot(run_sweep(small_spec()), str(path))
        root = ET.parse(path).getroot()
        ids = {el.get("id") for el in root.iter() if el.get("id")}
        assert {"curve", "bound"} <= ids
        assert root.get("data-y-scale") == "linear"

    def test_bound_polyline_sits_at_reference_level(self, tmp_path):
        path = tmp_path / "sweep.svg"
        res = run_sweep(small_spec())
        emit_plot(res, str(path))
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        bound = next(el for el in root.iter(f"{ns}polyline") if el.get("id") == "bound")
        ys = {pt.split(",")[1] for pt in bound.get("points").split()}
        assert len(ys) == 1  # constant bound renders flat

    def test_log_scale_flag(self, tmp_path):
        path = tmp_path / "sweep.svg"
        emit_plot(run_sweep(small_spec(log_scale=True)), str(path))
        assert ET.parse(path).getroot().get("data-y-scale") == "log"
        emit_plot(run_sweep(small_spec()), str(path), log_scale=True)
        assert ET.parse(path).getroot().get("data-y-scale") == "log"

    def test_ideal_series_rendered_for_protocol(self, tmp_path):
        path = tmp_path / "sweep.svg"
        emit_plot(run_sweep(small_spec(target="protocol_qfi", steps=3)), str(path))
        ids = {el.get("id") for el in ET.parse(path).getroot().iter() if el.get("id")}
        assert "ideal" in ids

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            emit_plot(run_sweep(small_spec(steps=3)), "")
