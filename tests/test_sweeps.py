import logging
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
    validity_gamma,
)
from singlewell.modes import AXIS_FIELDS, with_axis_value
from singlewell import sweeps
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
        ("axis_min", "0"), ("axis_max", False),
    ])
    def test_wrong_typed_field_refused_at_the_spec(self, name, bad):
        # a YAML value's rule: an int fits a float, a bool only a bool
        with pytest.raises(ValueError, match=name):
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
        def failing_at_t0(p):
            if p.t == 0.0:
                raise NumericsError("eigendecomposition failed")
            return dynamical_generator(p)

        monkeypatch.setattr(sweeps, "dynamical_generator", failing_at_t0)
        spec = small_spec(axis="t", axis_min=0.0, axis_max=1.0, steps=3)
        with pytest.raises(SweepPointError, match=r"t = 0\.0") as info:
            run_sweep(spec)
        assert isinstance(info.value.__cause__, NumericsError)

    @pytest.mark.parametrize("target, axis", [
        ("cqfi_interacting", "g"), ("cqfi_interacting", "t"), ("protocol_qfi", "g"),
    ])
    def test_a_point_peaks_below_four_and_a_half_dense_arrays(self, target, axis):
        # numpy reports its data buffers to tracemalloc, dsbevd's workspace among
        # them, as numpy owns it: decompose holds V and 2n^2 of workspace, 3 arrays,
        # and the kernel build V, V^T Jx V, the gaps, the kernel and two boolean
        # masks, 4.25 arrays; a spare n x n temporary on any axis lifts it past 5
        n = 300
        spec = small_spec(target=target, axis=axis, axis_min=0.5, axis_max=40.0, steps=2,
                          params=harmonic_params(n_particles=n, delta_eps=5.0))
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
        assert peak <= 4.5 * 8 * (n + 1) ** 2, peak / (8 * (n + 1) ** 2)

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
                    expected = [qfi_pure_state(dynamical_generator(p), psi) for p in points]
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
