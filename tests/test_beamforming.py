import numpy as np
import pytest
from oracles import clean_sc_oracle, dense_map_oracle, dense_values

from memsarray import beamforming as bf
from memsarray import geometry as geo
from memsarray import propagation as prop
from memsarray.errors import parse
from memsarray.propagation import MediumModel, ShearLayerPlane, atmospheric_absorption
from memsarray.spectral import CrossSpectralMatrix, welch_csm
from memsarray.synthesis import Scene, Source, synthesize_csm, synthesize_timeseries

Q2 = 2.5e-4


def monopole_csm(positions, src, freq, power=Q2, noise=None):
    scene = Scene(
        sources=(Source(position=src, spectrum={"type": "tone", "frequency": freq, "power": power}),),
        noise=noise,
        seed=0,
    )
    return synthesize_csm(scene, positions, [freq], include_absorption=False)[0]


def zero_csm(freq, m):
    return CrossSpectralMatrix(frequency=freq, factor=np.zeros((m, 0), dtype=complex), diagonal=np.zeros(m))


def summed_csm(csms):
    """The CSM of uncorrelated parts: their factors side by side, their diagonals added."""
    return CrossSpectralMatrix(
        frequency=csms[0].frequency,
        factor=np.hstack([c.factor for c in csms]),
        diagonal=sum(c.diagonal for c in csms),
        units=csms[0].units,
    )


@pytest.fixture(scope="module")
def setup(full_array_module):
    geo_, sub = full_array_module
    grid = bf.make_focus_grid((2.4, 3.6), (-1.1, 0.1), 0.02)
    return geo_, sub, grid


@pytest.fixture(scope="module")
def full_array_module():
    g = geo.assemble_full_array(3, 3, seed=42)
    return g, geo.spiral_subarray(g, 140, 1.5, 0.1)  # the DNW-like sub-array


class TestFocusGrid:
    def test_inclusive_endpoint_count(self):
        grid = bf.make_focus_grid((1.0, 4.0), (-3.0, 2.0), 0.02)
        assert grid.shape == (151, 251)
        assert grid.size == 37_901

    def test_two_by_two(self):
        grid = bf.make_focus_grid((0.0, 1.0), (0.0, 1.0), 1.0)
        assert grid.shape == (2, 2)

    def test_unrotated_in_plane(self):
        grid = bf.make_focus_grid((0.0, 1.0), (0.0, 1.0), 0.5, y_plane=0.25)
        assert np.allclose(grid.points[:, 1], 0.25)

    def test_rotation_preserves_pivot(self):
        grid = bf.make_focus_grid((0.0, 2.0), (0.0, 2.0), 0.5, delta_angle=20.0, aoa=8.7)
        center = np.array([1.0, 0.0, 1.0])
        d = np.linalg.norm(grid.points - center, axis=1)
        assert d.min() < 1e-12  # pivot cell unmoved
        # rotation is rigid
        pair = np.linalg.norm(grid.points[0] - grid.points[-1])
        flat = bf.make_focus_grid((0.0, 2.0), (0.0, 2.0), 0.5)
        assert pair == pytest.approx(np.linalg.norm(flat.points[0] - flat.points[-1]))

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            bf.make_focus_grid((0.0, 1.0), (0.0, 1.0), 0.0)


class TestSteering:
    def test_single_sensor_reduction(self):
        # one sensor is its own reference: r_m = r_0, so h = 1 at every focus point
        mics = np.array([[0.0, 3.0, 0.0]])
        grid = bf.make_focus_grid((-0.5, 0.5), (-0.5, 0.5), 0.5)
        steer = bf.steering_vectors(bf.steering_geometry(grid, mics), 1000.0)
        assert np.allclose(steer.matrix, 1.0, rtol=0.0, atol=1e-12)

    def test_equidistant_magnitude(self):
        # ring of sensors at y = 3 around its mean, focus at the origin: |h_m| = r / (M r_0)
        m = 8
        ang = 2 * np.pi * np.arange(m) / m
        mics = np.stack([np.cos(ang), np.full(m, 3.0), np.sin(ang)], axis=1)
        grid = bf.FocusGrid(points=np.zeros((1, 3)), local=np.zeros((1, 2)), shape=(1, 1), spacing=1.0)
        steer = bf.steering_vectors(bf.steering_geometry(grid, mics), 2000.0)
        r, r0 = np.sqrt(10.0), 3.0
        assert np.allclose(np.abs(steer.matrix[:, 0]), r / (m * r0), rtol=1e-12)

    def test_level_true_at_source(self, setup):
        _, sub, grid = setup
        idx = grid.index_of([3.0, 0.0, -0.5])
        csm = monopole_csm(sub.positions, grid.points[idx], 4000.0)
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 4000.0)
        bmap = bf.conventional_beamform(csm, steer)
        peak_idx, peak_val = bmap.peak()
        assert peak_idx == idx
        assert abs(10 * np.log10(peak_val / Q2)) <= 0.01

    def test_frequency_positive(self, setup):
        _, sub, grid = setup
        with pytest.raises(ValueError):
            bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 0.0)

    def test_focus_on_sensor_rejected(self, setup):
        geo_, sub, _ = setup
        pt = sub.positions[0]
        grid = bf.FocusGrid(points=pt[None, :], local=np.zeros((1, 2)), shape=(1, 1), spacing=1.0)
        with pytest.raises(ValueError):
            bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 1000.0)


    @pytest.mark.parametrize(
        "medium",
        [
            MediumModel(mach_vector=[0.1, 0.0, 0.0]),
            MediumModel(
                mach_vector=[0.2, 0.0, 0.0], shear_layer=ShearLayerPlane(point=[0.0, 1.5, 0.0], normal=[0.0, 1.0, 0.0])
            ),
        ],
        ids=["free-field", "shear-layer"],
    )
    def test_delays_are_the_transposed_grid_to_sensor_solve(self, dnw_sub, medium):
        # 81 points x 140 sensors: the Amiet pairs span two solver blocks
        grid = bf.make_focus_grid((2.6, 3.4), (-0.9, -0.1), 0.1)
        mics = dnw_sub.positions
        geometry = bf.steering_geometry(grid, mics, medium)
        tau = prop.path_delays(grid.points[:, None, :], mics[None, :, :], medium).T
        tau0 = prop.path_delays(grid.points, mics.mean(axis=0)[None, :], medium)
        assert geometry.delay.shape == (140, 81)
        assert np.array_equal(geometry.delay, tau - tau0)
        assert np.array_equal(geometry.r, medium.speed_of_sound * tau)


class TestSteeringPhasor:
    """The phasor built from one `tan` of the half-turn remainder against the
    complex exponential it replaced, on synthetic delays up to 10 ms and
    effective distances of 1-5 m."""

    FREQS = [1000.0, 2500.0, 5000.0, 10000.0, 20000.0]

    @staticmethod
    def _geometry(delay, rng):
        m, n = delay.shape
        grid = bf.make_focus_grid((0.0, 0.01 * (n - 1)), (0.0, 0.0), 0.01)
        r = rng.uniform(1.0, 5.0, (m, n))
        return bf.SteeringGeometry(grid=grid, delay=delay, r=r, r0=rng.uniform(1.0, 5.0, n), medium=MediumModel())

    @staticmethod
    def _amplitude(geometry, frequency, include_absorption):
        r, r0 = geometry.r, geometry.r0
        if include_absorption:
            neper = atmospheric_absorption(frequency, geometry.medium) * (np.log(10.0) / 20.0)
            r, r0 = r * np.exp(neper * r), r0 * np.exp(neper * r0)
        return 1.0 / (r * r0 * np.sum(r**-2.0, axis=0))

    @pytest.mark.parametrize("include_absorption", [False, True])
    def test_matches_the_exponential(self, rng, include_absorption):
        geometry = self._geometry(rng.uniform(-1e-2, 1e-2, (40, 60)), rng)
        for f in self.FREQS:
            h = bf.steering_vectors(geometry, f, include_absorption).matrix
            phase = -2.0 * np.pi * f * geometry.delay
            want = self._amplitude(geometry, f, include_absorption) * np.exp(1j * phase)
            # both forms round their phase argument, each by about one ulp of
            # its largest value (1257 rad at 20 kHz and 10 ms, 2.3e-13 rad)
            rounding = 2.0 * np.finfo(float).eps * np.abs(phase).max()
            assert np.abs(h - want).max() <= (1e-14 + rounding) * np.abs(h).max()

    @pytest.mark.parametrize("include_absorption", [False, True])
    def test_exact_half_turn_phase(self, rng, include_absorption):
        # delays of k 2^-20 s give u = -2 f delay exactly in half turns, so the
        # reference phase pi (u mod 2) is exact up to the rounding of one product
        k = rng.integers(-10486, 10487, (40, 60))
        geometry = self._geometry(k * 2.0**-20, rng)
        for f in self.FREQS:
            h = bf.steering_vectors(geometry, f, include_absorption).matrix
            turns = np.mod(-2 * int(f) * k, 2**21) * 2.0**-20
            want = self._amplitude(geometry, f, include_absorption) * np.exp(1j * np.pi * turns)
            assert np.abs(h - want).max() <= 1e-14 * np.abs(h).max()

    @pytest.mark.parametrize("include_absorption", [False, True])
    def test_magnitude_is_the_amplitude(self, rng, include_absorption):
        geometry = self._geometry(rng.uniform(-1e-2, 1e-2, (40, 60)), rng)
        for f in self.FREQS:
            h = bf.steering_vectors(geometry, f, include_absorption).matrix
            amp = self._amplitude(geometry, f, include_absorption)
            assert np.all(np.abs(np.abs(h) - amp) <= 4 * np.spacing(amp))

    @pytest.mark.parametrize("include_absorption", [False, True])
    def test_power_is_the_squared_magnitude(self, rng, include_absorption):
        # |h| is the amplitude to 4 ulp, and squaring doubles a relative error
        geometry = self._geometry(rng.uniform(-1e-2, 1e-2, (40, 60)), rng)
        for f in self.FREQS:
            steering = bf.steering_vectors(geometry, f, include_absorption)
            h_sq = np.abs(steering.matrix) ** 2
            assert np.all(np.abs(steering.power - h_sq) <= 8 * np.finfo(float).eps * h_sq)

    @pytest.mark.parametrize("include_absorption", [False, True])
    def test_whole_half_turns_give_plus_or_minus_the_amplitude(self, rng, include_absorption):
        # a delay of k / (2 f) is k half turns: h = (-1)^k amp, with no imaginary part
        k = rng.integers(-400, 401, (40, 60))
        for f in (1024.0, 4096.0, 16384.0):
            geometry = self._geometry(k / (2.0 * f), rng)
            h = bf.steering_vectors(geometry, f, include_absorption).matrix
            amp = self._amplitude(geometry, f, include_absorption)
            assert np.array_equal(h.real, np.where(k % 2 == 0, amp, -amp))
            assert np.array_equal(h.imag, np.zeros_like(amp))


class TestConventional:
    def test_dr_invariance_exact(self, setup):
        _, sub, grid = setup
        csm = monopole_csm(sub.positions, grid.points[grid.index_of([3.0, 0.0, -0.5])], 2000.0)
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 2000.0)
        base = bf.conventional_beamform(csm, steer, diagonal_removal=True)
        perturbed = CrossSpectralMatrix(
            frequency=csm.frequency,
            factor=csm.factor,
            diagonal=csm.diagonal + np.linspace(1.0, 2.0, sub.size),
            units=csm.units,
        )
        again = bf.conventional_beamform(perturbed, steer, diagonal_removal=True)
        assert np.array_equal(base.values, again.values)
        assert np.array_equal(base.raw_values, again.raw_values)

    def test_zero_csm(self, setup):
        _, sub, grid = setup
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 2000.0)
        zero = zero_csm(2000.0, sub.size)
        bmap = bf.conventional_beamform(zero, steer)
        assert not bmap.values.any()
        assert bmap.stop_reason is None

    def test_dimension_mismatch(self, setup):
        _, sub, grid = setup
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 2000.0)
        small = zero_csm(2000.0, 10)
        for beamform in (bf.conventional_beamform, bf.clean_sc):
            with pytest.raises(ValueError, match=f"CSM has 10 channels but steering expects {sub.size}"):
                beamform(small, steer)

    @pytest.mark.parametrize("diagonal_removal", [False, True])
    def test_overflowing_factor_rejected(self, setup, diagonal_removal):
        # a factor of 1e200 overflows |F|^2 and would map to inf (nan under DR); 1e150 is accepted and maps finite
        _, sub, grid = setup
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 2000.0)

        def csm(level):
            factor = np.full((sub.size, 1), level, dtype=complex)
            return CrossSpectralMatrix(frequency=2000.0, factor=factor, diagonal=np.zeros(sub.size))

        with pytest.raises(ValueError, match="CSM contains non-finite entries"):
            csm(1e200)
        bmap = bf.conventional_beamform(csm(1e150), steer, diagonal_removal=diagonal_removal)
        assert np.isfinite(bmap.raw_values).all()
        assert bmap.values.max() > 0.0

    def test_maps_carry_the_steering_grid(self, setup):
        _, sub, grid = setup
        csm = monopole_csm(sub.positions, grid.points[grid.index_of([3.0, 0.0, -0.5])], 4000.0)
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 4000.0)
        for bmap in (bf.conventional_beamform(csm, steer), bf.clean_sc(csm, steer)):
            assert bmap.grid is steer.grid is grid
            assert bmap.frequency == csm.frequency

    def test_dr_negative_clamping(self, setup):
        _, sub, grid = setup
        csm = monopole_csm(sub.positions, grid.points[grid.index_of([3.0, 0.0, -0.5])], 4000.0)
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 4000.0)
        bmap = bf.conventional_beamform(csm, steer, diagonal_removal=True)
        assert bmap.n_negative > 0  # sidelobe regions dip negative under DR
        assert (bmap.values >= 0).all()
        assert (bmap.raw_values < 0).any()


class TestCleanSc:
    def test_single_source_recovery(self, setup):
        _, sub, grid = setup
        idx = grid.index_of([3.0, 0.0, -0.5])
        csm = monopole_csm(sub.positions, grid.points[idx], 4000.0)
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 4000.0)
        bmap = bf.clean_sc(csm, steer)
        assert bmap.kind == "clean_sc"
        # dominant component within one grid cell of the truth
        comp_idx = max(bmap.components, key=lambda tp: tp[1])[0]
        dist = np.linalg.norm(grid.points[comp_idx] - grid.points[idx])
        assert dist <= grid.spacing * np.sqrt(2) + 1e-12
        assert abs(10 * np.log10(bmap.component_power() / Q2)) <= 0.1
        assert bmap.stop_reason == "threshold"

    def test_zero_csm_empty(self, setup):
        _, sub, grid = setup
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 4000.0)
        zero = zero_csm(4000.0, sub.size)
        bmap = bf.clean_sc(zero, steer)
        assert bmap.components == ()
        assert (bmap.iterations, bmap.stop_reason) == (0, "threshold")

    def test_two_uncorrelated_sources(self, setup):
        _, sub, grid = setup
        i1 = grid.index_of([2.7, 0.0, -0.8])
        i2 = grid.index_of([3.4, 0.0, -0.1])
        c1 = monopole_csm(sub.positions, grid.points[i1], 4000.0)
        c2 = monopole_csm(sub.positions, grid.points[i2], 4000.0)
        csm = summed_csm([c1, c2])
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 4000.0)
        bmap = bf.clean_sc(csm, steer)
        tops = sorted(bmap.components, key=lambda tp: -tp[1])[:2]
        found = {t for t, _ in tops}
        for want in (i1, i2):
            assert any(
                np.linalg.norm(grid.points[got] - grid.points[want]) <= grid.spacing * np.sqrt(2) + 1e-12
                for got in found
            )
        for _, p in tops:
            assert abs(10 * np.log10(p / Q2)) <= 0.3

    def test_loop_gain_below_one(self, setup):
        _, sub, grid = setup
        idx = grid.index_of([3.0, 0.0, -0.5])
        csm = monopole_csm(sub.positions, grid.points[idx], 4000.0)
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 4000.0)
        bmap = bf.clean_sc(csm, steer, loop_gain=0.8)
        assert bmap.iterations > 1
        assert abs(10 * np.log10(bmap.component_power() / Q2)) <= 0.1

    def test_invalid_loop_gain(self, setup):
        _, sub, grid = setup
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 4000.0)
        csm = monopole_csm(sub.positions, grid.points[0], 4000.0)
        with pytest.raises(ValueError):
            bf.clean_sc(csm, steer, loop_gain=0.0)

    def test_non_finite_rejected(self, setup):
        # a finite factor whose product overflows is rejected when the CSM is made, before CLEAN-SC sees it
        _, sub, _ = setup
        with pytest.raises(ValueError, match="CSM contains non-finite entries"):
            CrossSpectralMatrix(
                frequency=4000.0, factor=np.full((sub.size, 1), 1e200, dtype=complex), diagonal=np.zeros(sub.size)
            )

    def test_norm_monotone(self, setup):
        # accepted iterations never increase the degraded-CSM 1-norm: rerun
        # with unit loop gain on a 3-source CSM and watch the iteration count
        _, sub, grid = setup
        rngs = [(2.6, -0.9), (3.1, -0.4), (3.5, -0.9)]
        csm = summed_csm(
            [monopole_csm(sub.positions, grid.points[grid.index_of([x, 0.0, z])], 4000.0) for x, z in rngs]
        )
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), 4000.0)
        bmap = bf.clean_sc(csm, steer, loop_gain=0.9, max_iterations=40)
        assert 0 < bmap.iterations <= 40
        total = bmap.component_power()
        assert abs(10 * np.log10(total / (3 * Q2))) < 0.5


@pytest.fixture(scope="module")
def pitch_case(full_array_module):
    """A pitch-series sub-array, a 26 x 26 grid over a dipole and a weaker
    monopole in Mach 0.1 flow, and their exact CSMs with sensor noise."""
    g, _ = full_array_module
    sub = geo.pitch_subarray_series(g, 13, 2.0, 150, 0.1)[5]
    scene = parse(Scene, {
        "sources": [
            {"position": [3.0, 0.0, -0.5], "kind": "dipole", "axis": [0.0, 1.0, 0.0],
             "spectrum": {"type": "broadband", "psd": 1e-6}},
            {"position": [3.07, 0.0, -0.44], "spectrum": {"type": "broadband", "psd": 1e-7}},
        ],
        "medium": {"mach": [0.1, 0.0, 0.0]},
        "noise": {"psd": 1e-9},
        "seed": 3,
    }, "scene")
    grid = bf.make_focus_grid((2.85, 3.15), (-0.65, -0.35), 0.012)
    steering = bf.steering_geometry(grid, sub.positions, scene.medium)
    freqs = [1000.0, 4000.0, 16000.0]
    csms = dict(zip(freqs, synthesize_csm(scene, sub.positions, freqs)))
    return csms, steering


def _assert_matches_clean_sc_oracle(csm, steer, **kwargs):
    """Same cells and iterations as the full-recompute loop; every component
    and the residual map within 1e-13 of the initial dirty-map peak, all in
    reference-scaled units. A bound on the initial peak does not depend on how
    either side rounds a residual that CLEAN-SC has made small."""
    bmap = bf.clean_sc(csm, steer, **kwargs)
    comps, iterations, initial, dirty = clean_sc_oracle(dense_values(csm), steer.matrix, **kwargs)
    scale = (steer.reference_distance / bf.REFERENCE_DISTANCE) ** 2
    tolerance = 1e-13 * (initial * scale).max()
    assert bmap.iterations == iterations
    assert [t for t, _ in bmap.components] == sorted(comps)
    for t, p in bmap.components:
        assert abs(p - comps[t] * scale[t]) <= tolerance
    assert np.abs(bmap.raw_values - dirty * scale).max() <= tolerance
    return bmap


class TestCleanScOracle:
    """The incremental dirty-map update against the loop that forms the map
    again from the whole degraded CSM after every component."""

    @pytest.mark.parametrize("frequency", [1000.0, 4000.0, 16000.0])
    @pytest.mark.parametrize("diagonal_removal", [True, False])
    @pytest.mark.parametrize("loop_gain", [1.0, 0.8])
    def test_pitch_maps(self, pitch_case, frequency, diagonal_removal, loop_gain):
        csms, steering = pitch_case
        steer = bf.steering_vectors(steering, frequency)
        bmap = _assert_matches_clean_sc_oracle(
            csms[frequency], steer, loop_gain=loop_gain, diagonal_removal=diagonal_removal
        )
        assert bmap.iterations > 0

    @pytest.mark.parametrize("diagonal_removal", [True, False])
    def test_stops_at_max_iterations(self, pitch_case, diagonal_removal):
        csms, steering = pitch_case
        steer = bf.steering_vectors(steering, 4000.0)
        bmap = _assert_matches_clean_sc_oracle(
            csms[4000.0], steer, loop_gain=0.8, max_iterations=3, diagonal_removal=diagonal_removal
        )
        assert bmap.iterations == 3
        assert bmap.stop_reason == "max_iterations"

    def test_noise_csm_until_norm_increase(self, pitch_case):
        # a random full-rank CSM leaves many components before the 1-norm rises
        _, steering = pitch_case
        steer = bf.steering_vectors(steering, 4000.0)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((steer.n_channels, 60)) + 1j * rng.standard_normal((steer.n_channels, 60))
        csm = CrossSpectralMatrix(frequency=4000.0, factor=x / np.sqrt(60), diagonal=np.zeros(steer.n_channels))
        bmap = _assert_matches_clean_sc_oracle(csm, steer, stop_threshold=0.0, diagonal_removal=False)
        assert bmap.iterations > 5
        assert bmap.stop_reason == "norm_increase"


DNW_CASES = {
    # acceptance criterion 05: a 4 kHz tone on a node of a 60 x 60 grid
    "tone-4k": ({"type": "tone", "frequency": 4000.0, "power": Q2}, 4000.0, ((2.42, 3.60), (-1.08, 0.10))),
    # acceptance criterion 06: broadband at 1 kHz on a 41 x 41 grid
    "broadband-1k": ({"type": "broadband", "psd": 4e-6}, 1000.0, ((2.6, 3.4), (-0.9, -0.1))),
}


class TestFactoredCleanSc:
    """CLEAN-SC of an exact CSM, whose first map comes from its factor,
    against the loop that forms every map from the dense matrix."""

    @pytest.mark.parametrize("noise", [None, {"psd": 1e-7}], ids=["no-noise", "noise"])
    @pytest.mark.parametrize("diagonal_removal", [True, False])
    @pytest.mark.parametrize("case", sorted(DNW_CASES))
    def test_matches_the_dense_csm(self, dnw_sub, case, diagonal_removal, noise):
        spectrum, freq, (x_range, z_range) = DNW_CASES[case]
        scene = Scene(sources=(Source(position=[3.0, 0.0, -0.5], spectrum=spectrum),), noise=noise, seed=21)
        csm = synthesize_csm(scene, dnw_sub.positions, [freq], include_absorption=False)[0]
        grid = bf.make_focus_grid(x_range, z_range, 0.02)
        steer = bf.steering_vectors(bf.steering_geometry(grid, dnw_sub.positions), freq)
        bmap = _assert_matches_clean_sc_oracle(csm, steer, diagonal_removal=diagonal_removal)
        assert bmap.iterations > 0

    def test_no_source_power_leaves_no_components(self, dnw_sub):
        # noise only at 1 kHz, the tone is at 4 kHz: an (M, 0) factor and a diagonal-removed map of zeros
        tone = Source(position=[3.0, 0.0, -0.5], spectrum={"type": "tone", "frequency": 4000.0, "power": Q2})
        scene = Scene(sources=(tone,), noise={"psd": 1e-4}, seed=0)
        csm = synthesize_csm(scene, dnw_sub.positions, [1000.0], include_absorption=False)[0]
        assert csm.factor.shape == (dnw_sub.size, 0)
        grid = bf.make_focus_grid((2.6, 3.4), (-0.9, -0.1), 0.1)
        steer = bf.steering_vectors(bf.steering_geometry(grid, dnw_sub.positions), 1000.0)
        bmap = bf.clean_sc(csm, steer, diagonal_removal=True)
        assert bmap.components == ()
        assert bmap.iterations == 0
        assert bmap.stop_reason == "threshold"
        assert not bmap.raw_values.any()


class TestConventionalFromFactor:
    """Conventional maps formed from F and d against the dense M x M matrix,
    within 1e-12 of the map's peak, for an exact CSM with sensor noise and a
    Welch CSM of the same scene."""

    @staticmethod
    def _scene():
        return Scene(
            sources=(
                Source(position=[3.0, 0.0, -0.5], spectrum={"type": "broadband", "psd": 4e-6}),
                Source(position=[3.2, 0.0, -0.3], spectrum={"type": "broadband", "psd": 1e-6}),
            ),
            noise={"psd": 1e-8},
            seed=11,
        )

    @pytest.fixture(scope="class")
    def csms(self, dnw_sub):
        freq = 3000.0
        exact = synthesize_csm(self._scene(), dnw_sub.positions, [freq], include_absorption=False)[0]
        sig, _ = synthesize_timeseries(self._scene(), dnw_sub.positions, 48_000.0, 0.1, include_absorption=False)
        (welch,) = welch_csm(sig, 48_000.0, block=256, frequencies=[freq])
        assert welch.factor.shape == (dnw_sub.size, welch.n_averages)
        return {"exact": exact, "welch": welch}

    @pytest.mark.parametrize("diagonal_removal", [False, True])
    @pytest.mark.parametrize("kind", ["exact", "welch"])
    def test_matches_the_dense_map(self, dnw_sub, csms, kind, diagonal_removal):
        csm = csms[kind]
        grid = bf.make_focus_grid((2.6, 3.4), (-0.9, -0.1), 0.02)
        steer = bf.steering_vectors(bf.steering_geometry(grid, dnw_sub.positions), csm.frequency)
        bmap = bf.conventional_beamform(csm, steer, diagonal_removal=diagonal_removal)
        scale = (steer.reference_distance / bf.REFERENCE_DISTANCE) ** 2
        want = dense_map_oracle(dense_values(csm), steer.matrix, diagonal_removal) * scale
        assert np.abs(bmap.raw_values - want).max() <= 1e-12 * want.max()


class TestResolutionScaling:
    @staticmethod
    def width_at(geo_, freq, aperture):
        targets = geo.fermat_spiral(150, aperture, center=(3.0, -0.5))
        sub = geo.sample_subarray(geo_, targets, 0.05)
        grid = bf.make_focus_grid((2.2, 3.8), (-0.5, -0.5), 0.004)
        idx = grid.index_of([3.0, 0.0, -0.5])
        csm = monopole_csm(sub.positions, grid.points[idx], freq)
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), freq)
        bmap = bf.conventional_beamform(csm, steer)
        return bf.lobe_width_db(bmap.values, grid.local[:, 0])

    def test_width_scales_with_frequency(self, setup):
        geo_, _, _ = setup
        widths = {f: self.width_at(geo_, f, 2.0) for f in (2000.0, 4000.0, 8000.0)}
        products = [w * f for f, w in widths.items()]
        assert max(products) / min(products) <= 1.2

    def test_width_scales_with_aperture(self, setup):
        geo_, _, _ = setup
        widths = {d: self.width_at(geo_, 4000.0, d) for d in (1.0, 2.0, 4.0)}
        products = [w * d for d, w in widths.items()]
        assert max(products) / min(products) <= 1.2
