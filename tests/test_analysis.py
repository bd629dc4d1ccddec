import numpy as np
import pytest

from memsarray import analysis as an
from memsarray import beamforming as bf
from memsarray.geometry import ObservationAngles
from memsarray.spectral import Spectrum, band_power


def fake_clean_map(grid, components, freq=4000.0):
    values = np.zeros(grid.size)
    for t, p in components:
        values[t] += p
    return bf.BeamformingMap(
        frequency=freq, values=values, grid=grid, kind="clean_sc", components=tuple(components)
    )


@pytest.fixture()
def grid():
    return bf.make_focus_grid((0.0, 2.0), (0.0, 2.0), 0.1)


class TestRoi:
    def test_box_membership(self, grid):
        roi = an.RegionOfInterest(x_range=(0.5, 1.5), z_range=(0.5, 1.5))
        inside = roi.contains(grid.local)
        assert inside.sum() == 11 * 11

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            an.RegionOfInterest(x_range=(1.0, 1.0), z_range=(0.0, 1.0))
        with pytest.raises(TypeError):
            an.RegionOfInterest()


class TestIntegrateMap:
    def test_component_inside(self, grid):
        roi = an.RegionOfInterest(x_range=(0.5, 1.5), z_range=(0.5, 1.5))
        t = grid.index_of([1.0, 0.0, 1.0])
        m = fake_clean_map(grid, [(t, 2.5)])
        assert an.integrate_map(m, roi) == pytest.approx(2.5)

    def test_component_outside(self, grid):
        roi = an.RegionOfInterest(x_range=(0.5, 1.5), z_range=(0.5, 1.5))
        t = grid.index_of([1.9, 0.0, 0.1])
        m = fake_clean_map(grid, [(t, 2.5)])
        assert an.integrate_map(m, roi) == 0.0

    def test_two_components_sum(self, grid):
        roi = an.RegionOfInterest(x_range=(0.5, 1.5), z_range=(0.5, 1.5))
        t1 = grid.index_of([0.9, 0.0, 1.0])
        t2 = grid.index_of([1.2, 0.0, 1.1])
        m = fake_clean_map(grid, [(t1, 1.0), (t2, 1.0)])
        assert an.integrate_map(m, roi) == pytest.approx(2.0)

    def test_conventional_sums_cells(self, grid):
        roi = an.RegionOfInterest(x_range=(0.5, 1.5), z_range=(0.5, 1.5))
        values = np.ones(grid.size)
        m = bf.BeamformingMap(frequency=1000.0, values=values, grid=grid, kind="conventional")
        assert an.integrate_map(m, roi) == pytest.approx(121.0)

    def test_roi_off_grid(self, grid):
        roi = an.RegionOfInterest(x_range=(5.0, 6.0), z_range=(5.0, 6.0))
        m = fake_clean_map(grid, [])
        with pytest.raises(ValueError):
            an.integrate_map(m, roi)


def spectra_at_angles(levels_db, freqs=(1000.0, 2000.0)):
    """Build (angle, Spectrum) pairs from a dB matrix (angles x freqs)."""
    out = []
    for i, row in enumerate(levels_db):
        psd = 4e-10 * 10.0 ** (np.asarray(row, dtype=float) / 10.0)
        ang = ObservationAngles(theta=60.0 + 5.0 * i)
        out.append((ang, Spectrum(frequencies=np.asarray(freqs), psd=psd)))
    return out


class TestDirectivity:
    def test_identical_spectra_zero_gamma(self):
        surface = an.directivity(spectra_at_angles([[50.0, 60.0]] * 5))
        assert np.allclose(surface.gamma_db, 0.0, atol=1e-12)

    def test_single_hot_angle(self):
        n = 6
        levels = [[50.0, 50.0] for _ in range(n)]
        levels[2] = [53.0, 53.0]
        surface = an.directivity(spectra_at_angles(levels))
        expect = 3.0 - 3.0 / n
        assert surface.gamma_db[2, 0] == pytest.approx(expect, abs=1e-9)

    def test_offset_invariance(self):
        base = an.directivity(spectra_at_angles([[50.0, 52.0], [51.0, 49.0], [48.0, 50.0]]))
        shifted = an.directivity(spectra_at_angles([[60.0, 62.0], [61.0, 59.0], [58.0, 60.0]]))
        assert np.allclose(base.gamma_db, shifted.gamma_db, atol=1e-9)

    def test_mean_zero_rows(self):
        rng = np.random.default_rng(5)
        levels = 50.0 + 5.0 * rng.standard_normal((7, 2))
        surface = an.directivity(spectra_at_angles(levels))
        assert np.allclose(np.mean(surface.gamma_db, axis=0), 0.0, atol=1e-9)

    def test_masked_bins(self):
        pairs = spectra_at_angles([[50.0, 50.0], [50.0, 50.0], [50.0, 50.0]])
        # kill one bin at one angle
        ang, spec = pairs[1]
        psd = spec.psd.copy()
        psd[1] = 0.0
        pairs[1] = (ang, Spectrum(frequencies=spec.frequencies, psd=psd))
        surface = an.directivity(pairs)
        assert np.isnan(surface.psd_db[1, 1])
        assert np.isfinite(surface.gamma_db[0, 1])

    def test_needs_two_angles(self):
        with pytest.raises(ValueError):
            an.directivity(spectra_at_angles([[50.0, 50.0]]))

    def test_mismatched_axes(self):
        a = spectra_at_angles([[50.0, 50.0]])[0]
        b = (ObservationAngles(theta=80.0), Spectrum(frequencies=np.array([1.0, 2.0, 3.0]), psd=np.ones(3)))
        with pytest.raises(ValueError):
            an.directivity([a, b])


class TestOctavePolar:
    @staticmethod
    def surface(levels):
        freqs = np.arange(500.0, 8000.0, 100.0)
        rows = [[lv] * len(freqs) for lv in levels]
        pairs = []
        for i, row in enumerate(rows):
            psd = 4e-10 * 10.0 ** (np.asarray(row) / 10.0)
            pairs.append((ObservationAngles(theta=60.0 + 10 * i), Spectrum(frequencies=freqs, psd=psd)))
        return an.directivity(pairs)

    def test_flat_surface_zero(self):
        polar = an.octave_polar(self.surface([50.0, 50.0, 50.0]))
        assert np.allclose(polar["gamma_db"], 0.0, atol=1e-9)
        assert len(polar["centers"]) >= 3

    def test_offset_invariance(self):
        a = an.octave_polar(self.surface([50.0, 53.0, 47.0]))
        b = an.octave_polar(self.surface([52.0, 55.0, 49.0]))
        assert np.allclose(a["gamma_db"], b["gamma_db"], atol=1e-9)

    def test_single_band_energy(self):
        freqs = np.arange(500.0, 8000.0, 100.0)
        psd = np.full(len(freqs), 1e-12)
        band = (freqs >= 900) & (freqs < 1100)
        hot = psd.copy()
        hot[band] = 1e-6
        pairs = [
            (ObservationAngles(theta=60.0), Spectrum(frequencies=freqs, psd=hot)),
            (ObservationAngles(theta=90.0), Spectrum(frequencies=freqs, psd=psd)),
        ]
        polar = an.octave_polar(an.directivity(pairs))
        k = int(np.argmin(np.abs(polar["centers"] - 1000.0)))
        assert polar["gamma_db"][0, k] > 20.0  # hot angle dominates that band

    def test_octave_spaced_axis_keeps_every_band(self):
        # the median spacing (3 kHz) exceeds the lowest frequencies; no band may be lost
        freqs = np.array([1000.0, 2000.0, 4000.0, 8000.0, 16000.0])
        pairs = [
            (ObservationAngles(theta=theta), Spectrum(frequencies=freqs, psd=np.full(5, level)))
            for theta, level in ((60.0, 1e-6), (90.0, 2e-6))
        ]
        polar = an.octave_polar(an.directivity(pairs))
        assert list(polar["centers"]) == list(freqs)
        centers, _ = band_power(freqs, pairs[0][1].psd, "octave")
        assert list(centers) == list(freqs)

    def test_masked_cell_as_directivity_masks_it(self):
        # 5 angles at 1 and 2 kHz, the 2 kHz cell of one angle masked: the other angles stay at Gamma = 0,
        # as in the directivity surface, and the masked one reads NaN
        pairs = spectra_at_angles([[50.0, 50.0]] * 5)
        ang, spec = pairs[2]
        pairs[2] = (ang, Spectrum(frequencies=spec.frequencies, psd=np.array([spec.psd[0], 0.0])))
        surface = an.directivity(pairs)
        polar = an.octave_polar(surface)
        assert list(polar["centers"]) == [1000.0, 2000.0]
        assert np.allclose(surface.gamma_db[[0, 1, 3, 4]], 0.0, atol=1e-12)
        assert np.allclose(polar["gamma_db"][[0, 1, 3, 4]], 0.0, atol=1e-12)
        assert polar["gamma_db"][2, 0] == pytest.approx(0.0, abs=1e-12)
        assert np.isnan(polar["gamma_db"][2, 1])

    def test_single_frequency_is_one_band(self):
        pairs = spectra_at_angles([[50.0], [53.0], [47.0]], freqs=(2000.0,))
        polar = an.octave_polar(an.directivity(pairs))
        assert list(polar["centers"]) == [2000.0]
        assert np.allclose(polar["gamma_db"][:, 0], [0.0, 3.0, -3.0], atol=1e-9)


class TestDistanceNormalize:
    def test_identity(self):
        s = Spectrum(frequencies=np.array([1.0, 2.0]), psd=np.array([1.0, 2.0]))
        out = an.distance_normalize(s, 1.0, 1.0)
        assert np.allclose(out.psd, s.psd)

    def test_plus_20_db(self):
        s = Spectrum(frequencies=np.array([1.0]), psd=np.array([1.0]))
        out = an.distance_normalize(s, 10.0, 1.0)
        assert 10 * np.log10(out.psd[0] / s.psd[0]) == pytest.approx(20.0)

    def test_model_distance(self):
        s = Spectrum(frequencies=np.array([1.0]), psd=np.array([1.0]))
        out = an.distance_normalize(s, 3.39, 1.0)
        assert 10 * np.log10(out.psd[0]) == pytest.approx(10.603, abs=0.01)

    def test_composition(self):
        s = Spectrum(frequencies=np.array([1.0]), psd=np.array([3.0]))
        a = an.distance_normalize(an.distance_normalize(s, 7.3, 2.1), 2.1, 1.0)
        b = an.distance_normalize(s, 7.3, 1.0)
        assert abs(10 * np.log10(a.psd[0] / b.psd[0])) < 1e-12

    def test_invalid_distance(self):
        s = Spectrum(frequencies=np.array([1.0]), psd=np.array([1.0]))
        with pytest.raises(ValueError):
            an.distance_normalize(s, 0.0)


class TestFarfieldCompare:
    def test_inverse_square_mics_agree(self):
        freqs = np.array([1000.0, 2000.0, 4000.0])
        base = np.array([1e-6, 2e-6, 4e-6])
        mic1 = Spectrum(frequencies=freqs, psd=base / 4.0**2)
        mic2 = Spectrum(frequencies=freqs, psd=base / 8.0**2)
        integrated = Spectrum(frequencies=freqs, psd=base)
        cmparison = an.farfield_compare(integrated, [(mic1, 4.0), (mic2, 8.0)])
        assert np.allclose(cmparison.delta_psd_db, 0.0, atol=0.2)

    def test_no_overlap(self):
        integrated = Spectrum(frequencies=np.array([100.0, 200.0]), psd=np.ones(2))
        mic = Spectrum(frequencies=np.array([5000.0, 6000.0]), psd=np.ones(2))
        with pytest.raises(ValueError):
            an.farfield_compare(integrated, [(mic, 2.0)])

    def test_needs_mics(self):
        integrated = Spectrum(frequencies=np.array([100.0]), psd=np.ones(1))
        with pytest.raises(ValueError):
            an.farfield_compare(integrated, [])
