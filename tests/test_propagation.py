import numpy as np
import pytest
from oracles import (
    bass_absorption_oracle,
    convected_delays_oracle,
    emission_time_oracle,
    fd_newton_shear_oracle,
    fermat_grid_oracle,
)

from memsarray import propagation as prop
from memsarray.beamforming import make_focus_grid
from memsarray.errors import NumericalError

C0 = 343.0


def _convected(src, rcv, medium):
    """Travel time of one source-receiver pair in uniform flow."""
    return float(prop.convected_delays(src, rcv, medium))


def _amiet(src, rcv, medium):
    """Travel time of one source-receiver pair across the shear layer."""
    delays, _ = prop.shear_crossing_delays(np.asarray(src, dtype=float)[None], np.asarray(rcv, dtype=float)[None], medium)
    return float(delays[0])


class TestGreenConvected:
    def test_quiescent_limit(self):
        medium = prop.MediumModel()
        r = 3.7
        delay = _convected([0, 0, 0], [r, 0, 0], medium)
        assert delay == pytest.approx(r / C0, rel=1e-12)
        assert C0 * delay == pytest.approx(r, rel=1e-12)

    def test_downstream_axis(self):
        medium = prop.MediumModel(mach_vector=[0.2, 0.0, 0.0])
        r = 2.0
        assert _convected([0, 0, 0], [r, 0, 0], medium) == pytest.approx(r / (C0 * 1.2), rel=1e-12)

    @pytest.mark.parametrize("trial", range(8))
    def test_emission_time_oracle(self, trial, rng):
        src = rng.uniform(-2, 2, 3)
        rcv = src + rng.uniform(0.5, 5.0) * _unit(rng.standard_normal(3))
        mvec = 0.25 * _unit(rng.standard_normal(3)) * rng.uniform(0.2, 1.0)
        medium = prop.MediumModel(mach_vector=mvec)
        assert _convected(src, rcv, medium) == pytest.approx(emission_time_oracle(src, rcv, mvec), abs=1e-10)

    def test_delay_lipschitz(self, rng):
        medium = prop.MediumModel(mach_vector=[0.2, 0.0, 0.0])
        src = np.zeros(3)
        rcv = np.array([1.5, 2.0, 0.3])
        base = _convected(src, rcv, medium)
        bound = 1.0 / (C0 * (1.0 - 0.2))
        for _ in range(20):
            step = 1e-3 * _unit(rng.standard_normal(3))
            new = _convected(src, rcv + step, medium)
            assert abs(new - base) <= np.linalg.norm(step) * bound + 1e-15

    def test_mach_limit(self):
        with pytest.raises(ValueError):
            prop.MediumModel(mach_vector=[1.0, 0.0, 0.0])


class TestConvectedDelays:
    """Travel times summed per coordinate against the (..., 3) difference-array
    formula they replaced."""

    SHAPES = [((9, 1, 3), (1, 11, 3)), ((3,), (13, 3)), ((13, 3), (13, 3))]

    @staticmethod
    def _points(rng, sources_shape, receivers_shape):
        sources = rng.uniform(-2.0, 2.0, sources_shape)
        receivers = rng.uniform(-2.0, 2.0, receivers_shape) + np.array([0.0, 3.39, 0.0])
        return sources, receivers

    @pytest.mark.parametrize("sources_shape, receivers_shape", SHAPES)
    def test_x_only_mach_bit_for_bit(self, rng, sources_shape, receivers_shape):
        sources, receivers = self._points(rng, sources_shape, receivers_shape)
        for mach in (0.0, 0.1, -0.2):
            medium = prop.MediumModel(mach_vector=[mach, 0.0, 0.0])
            got = prop.convected_delays(sources, receivers, medium)
            want = convected_delays_oracle(sources, receivers, medium)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("sources_shape, receivers_shape", SHAPES)
    def test_three_component_mach_within_2_ulp(self, rng, sources_shape, receivers_shape):
        sources, receivers = self._points(rng, sources_shape, receivers_shape)
        for _ in range(4):
            medium = prop.MediumModel(mach_vector=0.3 * _unit(rng.standard_normal(3)))
            got = prop.convected_delays(sources, receivers, medium)
            want = convected_delays_oracle(sources, receivers, medium)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 2 * np.spacing(want))


class TestAtmosphericAbsorption:
    def test_zero_frequency(self):
        assert prop.atmospheric_absorption(0.0, prop.MediumModel()) == 0.0

    def test_monotone(self):
        medium = prop.MediumModel(temperature=20.0, relative_humidity=70.0)
        f = np.linspace(50, 20000, 400)
        a = prop.atmospheric_absorption(f, medium)
        assert (np.diff(a) >= 0).all()

    def test_reference_table_value(self):
        # ISO 9613-1 tabulated: ~4.98 dB/km at 1 kHz, 20 degC, 70 %RH, 1 atm
        medium = prop.MediumModel(temperature=20.0, relative_humidity=70.0, pressure=101.325)
        a = prop.atmospheric_absorption(1000.0, medium)
        assert a == pytest.approx(4.98e-3, rel=0.05)

    @pytest.mark.parametrize("f", [125.0, 500.0, 1000.0, 4000.0, 16000.0])
    def test_against_independent_formula(self, f):
        medium = prop.MediumModel(temperature=20.0, relative_humidity=70.0)
        mine = prop.atmospheric_absorption(f, medium)
        oracle = bass_absorption_oracle(f)
        assert mine == pytest.approx(oracle, rel=0.05)

    def test_negative_frequency(self):
        with pytest.raises(ValueError):
            prop.atmospheric_absorption(-10.0, prop.MediumModel())


def _unit(v):
    return v / np.linalg.norm(v)


def _shear_medium(mach_x):
    return prop.MediumModel(
        mach_vector=[mach_x, 0.0, 0.0],
        shear_layer=prop.ShearLayerPlane(point=[0.0, 1.5, 0.0], normal=[0.0, 1.0, 0.0]),
    )


class TestAmietCorrection:
    SRC = np.array([2.4, 0.0, 0.0])
    RCV = np.array([3.0, 3.39, 0.0])

    def test_no_flow_equals_straight_ray(self):
        straight = np.linalg.norm(self.RCV - self.SRC) / C0
        assert abs(_amiet(self.SRC, self.RCV, _shear_medium(0.0)) - straight) < 1e-9

    def test_receiver_on_plane(self):
        medium = _shear_medium(0.2)
        rcv = np.array([2.8, 1.5, 0.1])
        assert _amiet(self.SRC, rcv, medium) == pytest.approx(_convected(self.SRC, rcv, medium), abs=1e-12)

    def test_matches_grid_search_oracle(self):
        medium = _shear_medium(0.2)
        oracle = fermat_grid_oracle(self.SRC, self.RCV, medium)
        assert abs(_amiet(self.SRC, self.RCV, medium) - oracle) < 1e-7

    @pytest.mark.parametrize("offset", [(-1.2, 0.4), (0.8, -0.9), (2.5, 1.5)])
    def test_oracle_other_geometries(self, offset):
        medium = _shear_medium(0.15)
        rcv = self.RCV + np.array([offset[0], 0.0, offset[1]])
        assert abs(_amiet(self.SRC, rcv, medium) - fermat_grid_oracle(self.SRC, rcv, medium)) < 1e-7

    def test_monotone_convergence_to_straight(self):
        gaps = []
        for m in (0.1, 0.01, 0.001):
            medium = _shear_medium(m)
            corrected = _amiet(self.SRC, self.RCV, medium)
            uncorrected = _convected(self.SRC, self.RCV, medium)
            gaps.append(abs(corrected - uncorrected))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_stationarity(self):
        medium = _shear_medium(0.2)
        delays, crossing = prop.shear_crossing_delays(self.SRC[None, :], self.RCV[None, :], medium)
        p = crossing[0]
        base = delays[0]
        for du in (-1e-3, 1e-3):
            for dv in (-1e-3, 0.0, 1e-3):
                q = p + np.array([du, 0.0, dv])
                t = _convected(self.SRC, q, medium) + np.linalg.norm(self.RCV - q) / C0
                assert t >= base - 1e-12

    def test_same_side_raises(self):
        medium = _shear_medium(0.2)
        with pytest.raises(ValueError):
            _amiet([2.4, 2.0, 0.0], self.RCV, medium)  # source above plane
        with pytest.raises(ValueError):
            _amiet(self.SRC, [3.0, 1.0, 0.0], medium)  # receiver below plane

    def test_no_shear_layer(self):
        with pytest.raises(ValueError):
            _amiet(self.SRC, self.RCV, prop.MediumModel(mach_vector=[0.2, 0, 0]))

    def test_vectorized_matches_scalar(self):
        medium = _shear_medium(0.2)
        receivers = np.array([[3.0, 3.39, 0.0], [1.0, 3.39, 0.8], [5.0, 2.5, -1.0]])
        delays, _ = prop.shear_crossing_delays(self.SRC[None, :], receivers, medium)
        for rcv, d in zip(receivers, delays):
            assert d == pytest.approx(_amiet(self.SRC, rcv, medium), abs=1e-12)


class TestClosedFormNewton:
    """The closed-form Hessian solver against the finite-difference one it replaced."""

    @pytest.mark.parametrize("normal", [[0.0, 1.0, 0.0], [0.3, 1.0, 0.2]])
    def test_matches_finite_difference_solver(self, dnw_sub, normal):
        # the shear-map problem: 17 x 17 focus points x 140 sensors = 40460 pairs, several blocks
        medium = prop.MediumModel(
            mach_vector=[0.2, 0.0, 0.0],
            shear_layer=prop.ShearLayerPlane(point=[0.0, 1.5, 0.0], normal=normal),
        )
        grid = make_focus_grid((2.52, 3.48), (-0.98, -0.02), 0.06)
        sources, receivers = grid.points[:, None, :], dnw_sub.positions[None, :, :]
        delays, _ = prop.shear_crossing_delays(sources, receivers, medium)
        assert delays.shape == (289, 140)
        assert np.abs(delays - fd_newton_shear_oracle(sources, receivers, medium)).max() < 1e-13

    @pytest.mark.parametrize("normal, iterations", [([0.0, 1.0, 0.0], 4), ([0.3, 1.0, 0.2], 5)])
    def test_converges_without_rounding_retries(self, dnw_sub, normal, iterations):
        # a line search that took rounding noise for an increase halved steps
        # near convergence: these pairs then needed 10 and 8 iterations
        medium = prop.MediumModel(
            mach_vector=[0.2, 0.0, 0.0],
            shear_layer=prop.ShearLayerPlane(point=[0.0, 1.5, 0.0], normal=normal),
        )
        grid = make_focus_grid((2.52, 3.48), (-0.98, -0.02), 0.06)
        sources, receivers = grid.points[:, None, :], dnw_sub.positions[None, :, :]
        delays, _ = prop.shear_crossing_delays(sources, receivers, medium, max_iterations=iterations)
        assert np.isfinite(delays).all()

    @staticmethod
    def _plane_frame_pairs(rng, k=50):
        """Sources below the plane z = 0, receivers above it, a 3-component Mach vector."""
        medium = prop.MediumModel(mach_vector=0.25 * _unit(rng.standard_normal(3)))
        sources = np.column_stack([rng.uniform(-2, 2, (k, 2)), rng.uniform(-2.0, -0.5, k)])
        receivers = np.column_stack([rng.uniform(-2, 2, (k, 2)), rng.uniform(0.5, 3.0, k)])
        return medium, sources, receivers

    def test_hessian_matches_central_differences(self, rng):
        medium, sources, receivers = self._plane_frame_pairs(rng)
        pairs = np.concatenate([sources.T, receivers.T])
        u, v = rng.uniform(-1, 1, (2, len(sources)))
        h11, h12, h22 = prop._crossing_terms(u, v, pairs, medium)[3:]
        h = 1e-6
        columns = []
        for du, dv in ((h, 0.0), (0.0, h)):
            gp1, gp2 = prop._crossing_terms(u + du, v + dv, pairs, medium)[1:3]
            gm1, gm2 = prop._crossing_terms(u - du, v - dv, pairs, medium)[1:3]
            columns.append(((gp1 - gm1) / (2 * h), (gp2 - gm2) / (2 * h)))
        (fd11, fd21), (fd12, fd22) = columns
        scale = np.abs(h11) + np.abs(h22)
        for exact, fd in ((h11, fd11), (h12, fd12), (h12, fd21), (h22, fd22)):
            assert np.all(np.abs(exact - fd) <= 1e-6 * scale)

    def test_gradient_matches_central_differences(self, rng):
        medium, sources, receivers = self._plane_frame_pairs(rng)
        pairs = np.concatenate([sources.T, receivers.T])
        u, v = rng.uniform(-1, 1, (2, len(sources)))
        g1, g2 = prop._crossing_terms(u, v, pairs, medium)[1:3]
        h = 1e-6
        for exact, (du, dv) in ((g1, (h, 0.0)), (g2, (0.0, h))):
            fd = (prop._crossing_terms(u + du, v + dv, pairs, medium)[0]
                  - prop._crossing_terms(u - du, v - dv, pairs, medium)[0]) / (2 * h)
            assert np.all(np.abs(exact - fd) <= 1e-6 * (np.abs(g1) + np.abs(g2)))

    def test_time_at_the_crossing_is_the_convected_delay(self, rng):
        # one implementation of the convected leg: the solver's time at its
        # crossing p is convected_delays(s, p) + |r - p| / c, bit for bit
        medium, sources, receivers = self._plane_frame_pairs(rng, k=200)
        uv, times, stalled = prop._solve_crossings(np.concatenate([sources.T, receivers.T]), medium, 80)
        assert stalled is None
        p = np.column_stack([uv, np.zeros(len(uv))])
        want = prop.convected_delays(sources, p, medium) + np.linalg.norm(receivers - p, axis=-1) / C0
        assert np.array_equal(times, want)

    def test_converged_start_spends_no_trial(self, rng, monkeypatch):
        # without flow the straight-line start is the Fermat crossing: its Newton step is below the tolerance,
        # so the evaluation at the start is the only one, and the pair keeps that point and time
        _, sources, receivers = self._plane_frame_pairs(rng)
        medium = prop.MediumModel(mach_vector=np.zeros(3))
        calls = []
        terms = prop._crossing_terms
        monkeypatch.setattr(prop, "_crossing_terms", lambda *a: calls.append(a) or terms(*a))
        uv, times, stalled = prop._solve_crossings(np.concatenate([sources.T, receivers.T]), medium, 80)
        assert stalled is None and len(calls) == 1
        p1, p2 = calls[0][:2]
        assert np.array_equal(uv, np.column_stack([p1, p2]))
        assert np.array_equal(times, terms(p1, p2, calls[0][2], medium)[0])
        assert np.allclose(times, np.linalg.norm(receivers - sources, axis=-1) / C0, rtol=1e-14, atol=0)

    def test_stalled_pair_named_by_its_original_index(self):
        medium = _shear_medium(0.2)
        src = np.array([2.4, 0.0, 0.0])
        receivers = np.array([[3.0, 3.39, 0.0], [1.0, 3.39, 0.8], [2.8, 1.5, 0.1], [np.nan, 3.39, 0.0]])
        # pairs 0 and 1 converge, pair 2 lies on the plane, pair 3 never converges
        delays, _ = prop.shear_crossing_delays(src[None, :], receivers[:3], medium, max_iterations=10)
        assert np.isfinite(delays).all()
        with pytest.raises(NumericalError, match="pair 3:"):
            prop.shear_crossing_delays(src[None, :], receivers, medium, max_iterations=10)

    def test_blocks_give_the_same_delays(self, monkeypatch):
        medium = _shear_medium(0.2)
        src = np.array([2.4, 0.0, 0.0])
        receivers = np.array(
            [[3.0, 3.39, 0.0], [2.8, 1.5, 0.1], [1.0, 3.39, 0.8], [5.0, 2.5, -1.0], [2.0, 1.5, -0.3], [4.0, 4.0, 1.0]]
        )
        whole, crossing = prop.shear_crossing_delays(src[None, :], receivers, medium)
        monkeypatch.setattr(prop, "_CROSSING_BLOCK", 2)
        blocked, blocked_crossing = prop.shear_crossing_delays(src[None, :], receivers, medium)
        assert np.array_equal(whole, blocked)
        assert np.array_equal(crossing, blocked_crossing)
        on_plane = [1, 4]
        assert np.array_equal(crossing[on_plane], receivers[on_plane])
        assert np.array_equal(whole[on_plane], prop.convected_delays(src, receivers[on_plane], medium))
        receivers[3, 0] = np.nan
        with pytest.raises(NumericalError, match="pair 3:"):
            prop.shear_crossing_delays(src[None, :], receivers, medium, max_iterations=10)
