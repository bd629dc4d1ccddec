import json

import numpy as np
import pytest
from oracles import (
    assemble_full_array_oracle,
    geometry_json_oracle,
    halton_oracle,
    pcb_positions_oracle,
    sample_subarray_oracle,
    sample_subarray_strip_oracle,
)

from memsarray import cli
from memsarray import geometry as geo
from memsarray.errors import ConfigError, ConstraintError


def _geometry_of(positions) -> geo.ArrayGeometry:
    return geo.ArrayGeometry(np.asarray(positions, dtype=float), origin=np.zeros(3), extent=(1.0, 1.0))


def _pcb_cells(panel):
    """{(bx, bz, dx, dz): (cell origin (x, z), sensors in the cell as (x, z))} over one panel's
    0.5 m x 0.25 m PCB cells; a PCB's long side lies along x."""
    x0 = geo.CENTER_X - geo.PANEL_X / 2.0
    z0 = geo.CENTER_Z - geo.PANEL_Z / 2.0
    xz = panel.positions[:, [0, 2]]
    cells = {}
    for bz in range(2):
        for bx in range(2):
            for dz in range(2):
                for dx in range(2):
                    ox, oz = x0 + bx * 1.0 + dx * geo.PCB_LONG, z0 + bz * 0.5 + dz * geo.PCB_SHORT
                    in_x = (xz[:, 0] >= ox) & (xz[:, 0] < ox + geo.PCB_LONG)
                    inside = in_x & (xz[:, 1] >= oz) & (xz[:, 1] < oz + geo.PCB_SHORT)
                    cells[bx, bz, dx, dz] = (np.array([ox, oz]), xz[inside])
    return cells


def _assert_matches_oracle(geometry, targets, epsilon, sub):
    indices, _ = sample_subarray_oracle(geometry.positions, geo._lift_targets(geometry, targets), epsilon)
    assert np.array_equal(sub.indices, indices)
    assert sub.discarded == len(targets) - len(indices)


class TestPcbLayout:
    def test_deterministic(self):
        a = geo.generate_pcb_layout(0, 42)
        b = geo.generate_pcb_layout(0, 42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("design", [0, 1, 2, 3])
    def test_constraints(self, design):
        p = geo.generate_pcb_layout(design, 42)
        assert p.shape == (50, 2)
        d = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() >= 0.010
        assert p[:, 0].min() >= 0.005 and p[:, 0].max() <= 0.245
        assert p[:, 1].min() >= 0.005 and p[:, 1].max() <= 0.495

    def test_designs_differ(self):
        a = geo.generate_pcb_layout(0, 42)
        b = geo.generate_pcb_layout(1, 42)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = geo.generate_pcb_layout(0, 42)
        b = geo.generate_pcb_layout(0, 43)
        assert not np.array_equal(a, b)

    def test_bad_design_id(self):
        with pytest.raises(ValueError):
            geo.generate_pcb_layout(4, 42)

    @pytest.mark.parametrize("design", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 42, 987_654, 2**31 - 1])
    def test_bit_identical_to_scalar_loops(self, design, seed):
        assert geo.generate_pcb_layout(design, seed).tobytes() == pcb_positions_oracle(design, seed).tobytes()

    @pytest.mark.parametrize("start, base", [(0, 2), (0, 3), (2_000, 2), (48_000, 3)])
    def test_halton_bit_identical_to_scalar_loop(self, start, base):
        assert geo._halton_range(start, 2_000, base).tobytes() == halton_oracle(start, 2_000, base).tobytes()

    def test_validate_catches_spacing(self):
        with pytest.raises(ConstraintError):
            geo._check_pcb_layout(np.full((50, 2), 0.1))


class TestFullArray:
    def test_scale_out(self, full_array):
        assert full_array.sensor_count == 7200
        assert full_array.extent == (6.0, 3.0)
        lo, hi = full_array.bounding_box()
        assert 0.0 <= lo[0] and hi[0] <= 6.0
        assert -2.0 <= lo[2] and hi[2] <= 1.0

    def test_one_panel(self, one_panel):
        assert one_panel.sensor_count == 800
        assert np.array_equal(one_panel.origin, [geo.CENTER_X, geo.PLANE_DISTANCE, geo.CENTER_Z])
        assert (one_panel.positions[:, 1] == geo.PLANE_DISTANCE).all()
        # 16 PCB cells, 50 sensors each, and no sensor outside them
        cells = _pcb_cells(one_panel)
        assert len(cells) == 16
        assert [len(xz) for _, xz in cells.values()] == [50] * 16

    def test_no_duplicate_positions(self, full_array):
        uniq = np.unique(full_array.positions, axis=0)
        assert len(uniq) == full_array.sensor_count

    def test_deterministic(self, full_array):
        again = geo.assemble_full_array(3, 3, seed=42)
        assert np.array_equal(full_array.positions, again.positions)

    def test_design_tiling(self, one_panel):
        # the cell at (dx, dz) of either pattern block carries design dz * 2 + dx
        for (_, _, dx, dz), (origin, xz) in _pcb_cells(one_panel).items():
            local = (xz - origin)[:, ::-1]  # (short side along z, long side along x)
            design = geo.generate_pcb_layout(dz * 2 + dx, 42)
            assert np.abs(local - design).max() <= 1e-12

    def test_sensors_inside_pcb_extent(self, one_panel):
        # every sensor keeps the edge clearance of its 0.5 m x 0.25 m cell
        for origin, xz in _pcb_cells(one_panel).values():
            local = xz - origin
            assert local.min() >= geo.EDGE_CLEARANCE - 1e-12
            assert local[:, 0].max() <= geo.PCB_LONG - geo.EDGE_CLEARANCE + 1e-12
            assert local[:, 1].max() <= geo.PCB_SHORT - geo.EDGE_CLEARANCE + 1e-12

    @pytest.mark.parametrize("panels_x, panels_z, seed", [(1, 1, 0), (2, 3, 7), (3, 3, 42)])
    def test_bit_identical_to_nested_loops(self, panels_x, panels_z, seed):
        geometry = geo.assemble_full_array(panels_x, panels_z, seed)
        assert geometry.positions.tobytes() == assemble_full_array_oracle(panels_x, panels_z, seed).tobytes()

    def test_bad_panel_count(self):
        with pytest.raises(ValueError):
            geo.assemble_full_array(0, 1, seed=1)

    def test_json_round_trip(self, one_panel, tmp_path):
        path = tmp_path / "geom.json"
        one_panel.save_json(path)
        back = geo.ArrayGeometry.load_json(path)
        assert back.positions.tobytes() == one_panel.positions.tobytes()
        assert back.origin.tobytes() == one_panel.origin.tobytes()
        assert back.extent == one_panel.extent == (2.0, 1.0)
        assert back.seed == one_panel.seed == 42

    @pytest.mark.parametrize("key, value", [("x", float("nan")), ("y", float("inf")), ("z", float("-inf"))])
    def test_non_finite_coordinate_rejected(self, one_panel, tmp_path, key, value):
        data = one_panel.to_dict()
        data["positions"][7]["xyz".index(key)] = value
        path = tmp_path / "geom.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="sensor 7 has a non-finite coordinate") as exc:
            geo.ArrayGeometry.load_json(path)
        assert exc.value.field == "geometry"

    @pytest.mark.parametrize("panels", [(1, 1), (3, 3)])
    def test_json_bytes_match_pure_python_encoder(self, panels, tmp_path):
        geometry = geo.assemble_full_array(*panels, seed=7)
        path = tmp_path / "geom.json"
        geometry.save_json(path)
        assert path.read_text(encoding="utf-8") == geometry_json_oracle(geometry)

    @pytest.mark.parametrize(
        "alter, message",
        [
            (lambda d: d.update(extra=1), "the file has unknown key 'extra'"),
            (lambda d: d.pop("extent"), "the file has no key 'extent'"),
            (lambda d: d.update(positions={}), "expected one or more sensors in positions"),
            (lambda d: d["positions"].__setitem__(3, [1.0, 2.0]), "sensor 3 is .* expected 3 numbers"),
            (lambda d: d["positions"].__setitem__(4, {"x": 1.0}), "sensor 4 is .* expected 3 numbers"),
            (lambda d: d["positions"][5].__setitem__(2, "2"), "sensor 5 is .*'2'.* expected 3 numbers"),
            (lambda d: d["positions"][6].__setitem__(0, True), "sensor 6 is .*True.* expected 3 numbers"),
            (lambda d: d["positions"][5].__setitem__(1, 10**400), "int too large to convert to float"),
            (lambda d: d["positions"].__setitem__(9, d["positions"][4]), "sensors 4 and 9 share one position"),
            (lambda d: d.update(origin=[0.0, 1.0]), "origin is .* expected 3 numbers"),
            (lambda d: d.update(origin=[0.0, float("nan"), 1.0]), "origin is .* expected finite"),
            (lambda d: d.update(extent="6x3"), "extent is .* expected 2 numbers"),
            (lambda d: d.update(seed=1.5), "seed is 1.5, expected an integer or null"),
            (lambda d: d.update(sensors=d.pop("positions")), "the file has no key 'positions'"),
        ],
    )
    def test_malformed_file_rejected(self, one_panel, tmp_path, alter, message):
        data = one_panel.to_dict()
        alter(data)
        path = tmp_path / "geom.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=message) as exc:
            geo.ArrayGeometry.load_json(path)
        assert exc.value.field == "geometry"

    def test_csv_export(self, one_panel, tmp_path):
        assert cli.main(["geometry", "--panels", "1x1", "--seed", "42", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "geometry.csv").read_text().splitlines()
        assert lines[0] == "id,x,y,z"
        assert len(lines) == 801
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        np.testing.assert_array_equal(rows[:, 0], np.arange(800))
        np.testing.assert_array_equal(rows[:, 1:], one_panel.positions)


class TestFermatSpiral:
    def test_single_point(self):
        pts = geo.fermat_spiral(1, 2.0, center=(1.0, -0.5))
        assert pts.shape == (1, 2)
        assert np.allclose(pts[0], [1.0, -0.5])

    def test_radius_law(self):
        n = 150
        pts = geo.fermat_spiral(n, 2.0, center=(0.0, 0.0))
        r = np.linalg.norm(pts, axis=1)
        expected = 1.0 * np.sqrt(np.arange(n) / (n - 1))
        assert np.allclose(r, expected, rtol=1e-12, atol=1e-15)
        assert (np.diff(r) >= 0).all()
        assert r.max() <= 1.0 + 1e-12

    def test_max_radius(self):
        pts = geo.fermat_spiral(200, 5.5, center=(0.0, 0.0))
        assert np.isclose(np.linalg.norm(pts, axis=1).max(), 2.75)

    def test_invalid(self):
        with pytest.raises(ValueError):
            geo.fermat_spiral(0, 1.0)
        with pytest.raises(ValueError):
            geo.fermat_spiral(10, -1.0)


class TestSampleSubarray:
    def test_exact_targets(self, full_array):
        targets = full_array.positions[100:150]
        sub = geo.sample_subarray(full_array, targets, 0.1)
        assert sub.indices.tolist() == list(range(100, 150))
        assert np.array_equal(sub.positions, targets)

    def test_far_target_discarded(self, full_array):
        targets = np.array([[100.0, 100.0]])  # 0.2+ m from every sensor
        sub = geo.sample_subarray(full_array, targets, 0.1)
        assert sub.size == 0
        assert sub.discarded == 1

    def test_injectivity(self, full_array):
        t = full_array.positions[500]
        sub = geo.sample_subarray(full_array, np.array([t, t]), 0.1)
        assert sub.size == 2  # second target takes the next-nearest sensor
        assert len(np.unique(sub.indices)) == 2
        assert sub.indices[0] == 500

    def test_fermat_on_full_array(self, full_array):
        targets = geo.fermat_spiral(150, 2.0, center=(3.0, -0.5))
        sub = geo.sample_subarray(full_array, targets, 0.1)
        assert sub.size == 150
        # every target is matched, in order: each sensor lies within epsilon of its own target
        assert np.linalg.norm(sub.positions - geo._lift_targets(full_array, targets), axis=1).max() <= 0.1

    def test_epsilon_positive(self, full_array):
        with pytest.raises(ValueError):
            geo.sample_subarray(full_array, np.zeros((1, 2)), 0.0)


class TestSampleSubarrayOracle:
    """The x-sorted strip candidate search against a scan over every sensor:
    identical indices and discard counts."""

    def test_pitch_series(self, full_array):
        subs = geo.pitch_subarray_series(full_array, 13, 2.0, 150, 0.1)
        lo, hi = full_array.bounding_box()
        for cx, sub in zip(np.linspace(lo[0], hi[0], 13), subs, strict=True):
            targets = geo.fermat_spiral(150, 2.0, center=(cx, full_array.origin[2]))
            _assert_matches_oracle(full_array, targets, 0.1, sub)

    def test_freq_dependent_series(self, full_array):
        bands = [1000.0, 1250.0, 2000.0, 4000.0, 8000.0, 16000.0]
        for f in bands:
            aperture = geo.frequency_dependent_aperture(f, 2.0, 1000.0)
            sub = geo.spiral_subarray(full_array, 150, aperture, 0.1, (3.0, -0.5))
            _assert_matches_oracle(full_array, geo.fermat_spiral(150, aperture, center=(3.0, -0.5)), 0.1, sub)

    @pytest.mark.parametrize("epsilon", [0.004, 0.02, 0.1, 0.5])
    def test_seeded_random_targets(self, full_array, rng, epsilon):
        # dense targets over and beyond the array so that sensors run out and
        # targets compete for them
        targets = np.stack([rng.uniform(-1.0, 7.0, 400), rng.uniform(-3.0, 2.0, 400)], axis=1)
        sub = geo.sample_subarray(full_array, targets, epsilon)
        assert 0 < sub.discarded < len(targets)
        _assert_matches_oracle(full_array, targets, epsilon, sub)

    def test_non_finite_targets_discarded(self, full_array):
        targets = np.array([[np.nan, -0.5], [3.0, -0.5], [np.inf, 0.0], [3.0, -0.5]])
        sub = geo.sample_subarray(full_array, targets, 0.1)
        assert (sub.size, sub.discarded) == (2, 2)
        _assert_matches_oracle(full_array, targets, 0.1, sub)
        # an infinite epsilon would accept an infinite distance: the target is skipped before that
        sub = geo.sample_subarray(full_array, np.array([[3.0, np.inf], [3.0, np.nan], [3.0, -0.5]]), np.inf)
        assert (sub.size, sub.discarded) == (1, 2)

    def test_sensor_at_exactly_epsilon_accepted(self, full_array, rng):
        # epsilon is each target's own distance to its nearest sensor, as
        # np.linalg.norm computes it
        for _ in range(200):
            t = full_array.positions[rng.integers(full_array.sensor_count)] + rng.uniform(-0.03, 0.03, 3)
            t[1] = full_array.origin[1]
            j, d = sample_subarray_oracle(full_array.positions, t[None, :], np.inf)
            sub = geo.sample_subarray(full_array, t[None, :], float(d[0]))
            assert sub.indices.tolist() == j.tolist()
            assert np.linalg.norm(sub.positions - t[None, :], axis=1)[0] == d[0]

    def test_equidistant_sensors_resolve_to_lower_index(self):
        geometry = _geometry_of([[9.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.5]])
        sub = geo.sample_subarray(geometry, np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), 0.5)
        assert sub.indices.tolist() == [1, 2]
        assert np.linalg.norm(sub.positions - [1.0, 0.0, 0.0], axis=1).tolist() == [0.5, 0.5]
        geometry = _geometry_of([[0.5, 0.0, 0.0], [1.5, 0.0, 0.0]])
        sub = geo.sample_subarray(geometry, np.array([[1.0, 0.0, 0.0]]), 0.5)
        assert sub.indices.tolist() == [0]

    def test_targets_beyond_the_x_range(self, full_array):
        lo, hi = full_array.bounding_box()
        z = np.linspace(lo[2], hi[2], 7)
        for x in (lo[0] - 0.05, lo[0] - 0.2, hi[0] + 0.05, hi[0] + 0.2, -1e6, 1e6):
            targets = np.stack([np.full(7, x), z], axis=1)
            _assert_matches_oracle(full_array, targets, 0.1, geo.sample_subarray(full_array, targets, 0.1))
        edge = geo.sample_subarray(full_array, np.array([[lo[0] - 0.05, -0.5], [hi[0] + 0.05, -0.5]]), 0.1)
        assert edge.size == 2

    def test_targets_off_the_plane(self, full_array, rng):
        y = full_array.origin[1] + rng.uniform(-0.09, 0.09, 200)
        targets = np.stack([rng.uniform(0.0, 6.0, 200), y, rng.uniform(-2.0, 1.0, 200)], axis=1)
        for epsilon in (0.03, 0.1):
            sub = geo.sample_subarray(full_array, targets, epsilon)
            assert 0 < sub.size
            _assert_matches_oracle(full_array, targets, epsilon, sub)

    def test_targets_sharing_one_x(self, full_array):
        targets = np.stack([np.full(40, 3.0), np.repeat(np.linspace(-1.0, 0.0, 20), 2)], axis=1)
        for epsilon in (0.02, 0.1):
            sub = geo.sample_subarray(full_array, targets, epsilon)
            assert 0 < sub.size
            _assert_matches_oracle(full_array, targets, epsilon, sub)

    def test_sensor_columns_at_equal_x(self):
        # five columns of sensors, each at one x, listed with x out of order
        # and equidistant pairs for targets between columns
        x, z = np.meshgrid([0.3, 0.0, 0.2, 0.1, 0.4], np.linspace(0.0, 0.4, 9))
        geometry = _geometry_of(np.stack([x.ravel(), np.zeros(x.size), z.ravel()], axis=1))
        tx, tz = np.meshgrid([0.05, 0.1, 0.15, 0.25, 0.45, -0.05], [0.0, 0.025, 0.05, 0.2])
        targets = np.stack([tx.ravel(), tz.ravel()], axis=1)
        for epsilon in (0.05, 0.06, 0.2):
            doubled = np.concatenate([targets, targets])
            _assert_matches_oracle(geometry, doubled, epsilon, geo.sample_subarray(geometry, doubled, epsilon))

    @pytest.mark.parametrize("epsilon", [1.7e308, np.finfo(float).max], ids=["1.7e308", "max-float"])
    def test_huge_epsilon(self, one_panel, rng, epsilon):
        # with the largest float, epsilon x (1 + 1e-9) overflows to inf and every
        # sensor is in every strip; each target takes its nearest unused sensor
        targets = np.stack([rng.uniform(-5.0, 10.0, 60), rng.uniform(-5.0, 4.0, 60)], axis=1)
        sub = geo.sample_subarray(one_panel, targets, float(epsilon))
        assert sub.size == 60
        _assert_matches_oracle(one_panel, targets, float(epsilon), sub)



class TestSampleSubarrayStripOracle:
    """The one-pass candidate gather against the loop it replaced, one strip
    search per target: identical indices and discard counts."""

    @staticmethod
    def _assert_same(geometry, targets, epsilon):
        sub = geo.sample_subarray(geometry, targets, epsilon)
        indices, discarded = sample_subarray_strip_oracle(geometry, geo._lift_targets(geometry, targets), epsilon)
        assert np.array_equal(sub.indices, indices)
        assert sub.indices.dtype == indices.dtype
        assert sub.discarded == discarded

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_pitch_centres(self, seed):
        geometry = geo.assemble_full_array(3, 3, seed=seed)
        lo, hi = geometry.bounding_box()
        for cx in np.linspace(lo[0], hi[0], 13):
            self._assert_same(geometry, geo.fermat_spiral(150, 2.0, center=(cx, geometry.origin[2])), 0.1)

    def test_random_targets(self, full_array, rng):
        for epsilon in (0.01, 0.05, 0.1, 0.3):
            targets = np.stack([rng.uniform(-0.5, 6.5, 300), rng.uniform(-2.5, 1.5, 300)], axis=1)
            self._assert_same(full_array, targets, epsilon)

    def test_non_finite_target(self, full_array):
        targets = np.array([[3.0, -0.5], [np.nan, -0.5], [3.0, -0.5], [3.0, np.inf], [3.0, -0.5]])
        self._assert_same(full_array, targets, 0.1)

    def test_two_equidistant_sensors(self):
        geometry = _geometry_of([[9.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.5]])
        for epsilon in (0.4, 0.5, 0.6):
            self._assert_same(geometry, np.array([[1.0, 0.0, 0.0]] * 3), epsilon)

    def test_no_targets(self, full_array):
        self._assert_same(full_array, np.zeros((0, 2)), 0.1)


class TestSubarrayStats:
    def test_single_sensor(self, full_array):
        sub = geo.sample_subarray(full_array, full_array.positions[3:4], 0.01)
        mean, std = geo.subarray_stats(sub)
        assert np.allclose(mean, full_array.positions[3])
        assert np.allclose(std, 0.0)

    def test_two_sensors_population_std(self, full_array):
        parent = full_array
        sub = geo.SubArray(parent=parent, indices=np.array([0, 1]))
        mean, std = geo.subarray_stats(sub)
        p = parent.positions[:2]
        assert np.allclose(mean, p.mean(axis=0))
        assert np.allclose(std, np.abs(p[1] - p[0]) / 2.0)

    def test_empty_raises(self, full_array):
        sub = geo.sample_subarray(full_array, np.array([[100.0, 100.0]]), 0.1)
        with pytest.raises(ValueError):
            geo.subarray_stats(sub)


class TestObservationAngles:
    def test_nominal_angle(self):
        oa = geo.observation_angles([2.5, 3.39, 0.0], [2.4, 0.0, 0.0])
        assert abs(oa.theta - 91.689) < 0.01

    def test_geometric_mean_angle_with_spread(self):
        oa = geo.observation_angles([2.598, 3.39, 0.0], [2.4, 0.0, 0.0], spread=[0.362, 0.0, 0.0])
        assert abs(oa.theta - 93.338) < 0.01
        assert abs(oa.theta_std - 6.08) < 0.1

    def test_broadside(self):
        oa = geo.observation_angles([2.4, 3.39, 0.0], [2.4, 0.0, 0.0])
        assert oa.theta == pytest.approx(90.0)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 6.0, 25)
        thetas = [geo.observation_angles([x, 3.39, 0.0], [2.4, 0.0, 0.0]).theta for x in xs]
        assert (np.diff(thetas) > 0).all()

    def test_zero_perpendicular_distance(self):
        with pytest.raises(ValueError):
            geo.observation_angles([2.5, 0.0, 0.0], [2.4, 0.0, 0.0])

    def test_coincident(self):
        with pytest.raises(ValueError):
            geo.observation_angles([2.4, 0.0, 0.0], [2.4, 0.0, 0.0])


class TestPitchSeries:
    def test_thirteen_subarrays(self, full_array):
        subs = geo.pitch_subarray_series(full_array, 13, 2.0, 150, 0.1)
        assert len(subs) == 13
        sizes = [s.size for s in subs]
        # interior spirals fully covered
        assert all(s == 150 for s in sizes[3:10])
        # array boundary truncates the first and last
        assert sizes[0] < 150 and sizes[-1] < 150

    def test_single_centered(self, full_array):
        subs = geo.pitch_subarray_series(full_array, 1, 2.0, 150, 0.1)
        assert len(subs) == 1
        mean, _ = geo.subarray_stats(subs[0])
        assert abs(mean[0] - 3.0) < 0.1


class TestSpiralSubarray:
    def test_default_center_is_the_plane_origin(self, one_panel):
        sub = geo.spiral_subarray(one_panel, 60, 0.8, 0.05)
        centered = geo.sample_subarray(one_panel, geo.fermat_spiral(60, 0.8, center=(3.0, -0.5)), 0.05)
        assert np.array_equal(sub.indices, centered.indices) and sub.discarded == centered.discarded
        moved = geo.spiral_subarray(one_panel, 60, 0.8, 0.05, center=(2.5, -0.5))
        assert not np.array_equal(moved.indices, sub.indices)


class TestFreqDependentSubarrays:
    def test_aperture_rule(self):
        assert geo.frequency_dependent_aperture(1000.0, 5.5, 1000.0) == pytest.approx(5.5)
        assert geo.frequency_dependent_aperture(2000.0, 5.5, 1000.0) == pytest.approx(2.75)
        assert geo.frequency_dependent_aperture(500.0, 5.5, 1000.0) == pytest.approx(5.5)
        assert geo.frequency_dependent_aperture(32000.0, 5.5, 1000.0) == pytest.approx(5.5 / 16.0)

    def test_per_band_subarrays(self, full_array):
        out = {
            f: geo.spiral_subarray(full_array, 200, geo.frequency_dependent_aperture(f, 5.5, 1000.0), 0.05, (3.0, -0.5))
            for f in (1000.0, 4000.0)
        }
        r4 = np.linalg.norm(out[4000.0].positions[:, [0, 2]] - np.array([3.0, -0.5]), axis=1)
        # aperture 1.375 m plus the matching tolerance
        assert r4.max() <= 1.375 / 2 + 0.05 + 1e-9
        assert out[1000.0].size <= 200
