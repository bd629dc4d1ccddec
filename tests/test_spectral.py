import itertools
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_values, welch_csm_oracle

from memsarray import beamforming as bf
from memsarray import cli
from memsarray import spectral as sp
from memsarray.errors import ConfigError, ProtocolError


def white_signals(rng, n, channels, sigma=1.0):
    return sigma * rng.standard_normal((n, channels))


class TestWelchCsm:
    def test_average_count(self, rng):
        x = white_signals(rng, 48_000, 1)
        csms = sp.welch_csm(x, 48_000.0, block=1024, overlap=0.5)
        assert csms[0].n_averages == 92
        assert len(csms) == 513  # rfft bins of a 1024 block

    def test_parseval_closure(self, rng):
        x = white_signals(rng, 48_000, 1)
        x /= x.std()
        csms = sp.welch_csm(x, 48_000.0)
        df = 48_000.0 / 1024
        total = sum(dense_values(c)[0, 0].real for c in csms) * df
        assert total == pytest.approx(1.0, rel=0.05)

    def test_duplicated_channel_full_coherence(self, rng):
        x = white_signals(rng, 24_000, 1)
        both = np.concatenate([x, x], axis=1)
        csms = sp.welch_csm(both, 48_000.0)
        for c in csms[3:-3:50]:
            msc = abs(dense_values(c)[0, 1]) ** 2 / (dense_values(c)[0, 0].real * dense_values(c)[1, 1].real)
            assert msc == pytest.approx(1.0, abs=1e-9)

    def test_hermitian_and_psd(self, rng):
        x = white_signals(rng, 24_000, 4)
        csms = sp.welch_csm(x, 48_000.0)
        for c in csms[:: len(csms) // 7]:
            assert np.allclose(dense_values(c), dense_values(c).conj().T)
            assert (np.diag(dense_values(c)).real >= 0).all()
            assert np.linalg.eigvalsh(dense_values(c)).min() >= -1e-10 * np.trace(dense_values(c)).real

    def test_window_normalization(self, rng):
        # full-scale bin-centered sine: same integrated power under both windows
        rate, block = 48_000.0, 1024
        f0 = 100 * rate / block
        t = np.arange(48_000) / rate
        x = np.sqrt(2.0) * np.sin(2 * np.pi * f0 * t)[:, None]
        powers = {}
        for window in ("boxcar", "hann"):
            csms = sp.welch_csm(x, rate, block=block, window=window)
            df = rate / block
            bins = [dense_values(c)[0, 0].real for c in csms if abs(c.frequency - f0) <= 3.5 * df]
            powers[window] = sum(bins) * df
        ratio_db = 10 * np.log10(powers["hann"] / powers["boxcar"])
        assert abs(ratio_db) <= 0.2
        assert powers["boxcar"] == pytest.approx(1.0, rel=0.05)

    def test_averaging_reduces_variance(self, rng):
        # doubling the averages shrinks off-diagonal scatter by ~1/sqrt(2)
        rate, block = 48_000.0, 256
        x = white_signals(rng, 96_000, 2)
        stds = []
        for n in (48_000, 96_000):
            csms = sp.welch_csm(x[:n], rate, block=block)
            vals = np.array([dense_values(c)[0, 1] for c in csms[5:-5]])
            stds.append(np.concatenate([vals.real, vals.imag]).std())
        ratio = stds[1] / stds[0]
        assert 0.8 / np.sqrt(2) <= ratio <= 1.2 / np.sqrt(2)

    def test_too_short_raises(self, rng):
        with pytest.raises(ValueError):
            sp.welch_csm(white_signals(rng, 512, 2), 48_000.0, block=1024)

    @pytest.mark.parametrize("blocks", [[], [np.zeros((2, 2048)), np.zeros((3, 2047))]], ids=["none", "unequal"])
    def test_bad_channel_blocks_raise(self, blocks):
        with pytest.raises(ValueError):
            sp.welch_csm(iter(blocks), 48_000.0)

    def test_streamed_peak_does_not_grow_with_channels(self):
        # streamed from synthesis, one channel block of records and segment products exists at a time; the (n, M)
        # array and its mean-removed copy grow with the channel count
        from memsarray.synthesis import Scene, Source, record_blocks, synthesize_timeseries

        src = Source(position=[3.0, 0.0, -0.5], spectrum={"type": "broadband", "psd": 1e-6})
        scene = Scene(sources=(src,), noise={"psd": 1e-9}, seed=2)

        def peak(m, streamed):
            mics = np.c_[np.linspace(2.0, 4.0, m), np.full(m, 3.0), np.zeros(m)]
            tracemalloc.start()
            try:
                if streamed:
                    signals = record_blocks(scene, mics, 48_000.0, 0.5)
                else:
                    signals, _ = synthesize_timeseries(scene, mics, 48_000.0, 0.5)
                sp.welch_csm(signals, 48_000.0, frequencies=[1000.0, 2000.0])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(32, streamed=True)  # loads the window's scipy module, which would count in the first peak taken
        assert peak(160, streamed=True) <= 1.3 * peak(32, streamed=True)
        assert peak(160, streamed=False) >= 2.5 * peak(32, streamed=False)


class TestWelchBins:
    # 1024-point blocks at 48 kHz: bins every 46.875 Hz
    def test_half_way_takes_the_lower_bin(self):
        assert sp.welch_bins([46.875 * 2.5], 48_000.0, 1024).tolist() == [2]

    @pytest.mark.parametrize("f", [23.4375, 10.0, 24_000.5, -2000.0])
    def test_outside_the_bins_above_dc(self, f):
        with pytest.raises(ConfigError) as exc:
            sp.welch_bins([2000.0, f], 48_000.0, 1024)
        assert exc.value.field == "frequencies[1]"
        assert exc.value.message == f"expected > 23.4375 and <= 24000.0 Hz (a Welch bin above DC), got {f!r}"

    def test_two_requests_in_one_bin(self):
        with pytest.raises(ConfigError) as exc:
            sp.welch_bins([125.0, 4000.0, 160.0], 48_000.0, 1024)
        assert exc.value.field == "frequencies"
        assert exc.value.message == "125.0 Hz and 160.0 Hz share the 140.625 Hz Welch bin"


@pytest.mark.parametrize("block", [256, 1024, 255])
@pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75])
@pytest.mark.parametrize("window", ["hann", "boxcar"])
@pytest.mark.parametrize("channels", [1, 7])
def test_welch_csm_matches_the_per_block_outer_product(rng, block, overlap, window, channels):
    rate = 48_000.0
    df = rate / block
    x = white_signals(rng, 8 * block + 37, channels) + 0.3
    # unsorted, with the bin next to DC and the top bin (Nyquist for an even block)
    requests = [(block // 3 + 0.3) * df, rate / 2, 1.2 * df, (block // 8 - 0.4) * df]
    full = welch_csm_oracle(x, rate, block, overlap, window)
    by_bin = {f: (f, v, n) for f, v, n in full}
    nearest = [min(by_bin, key=lambda b, r=r: abs(b - r)) for r in requests]  # scan over every bin
    cases = [
        ({}, full),
        ({"frequencies": requests}, [by_bin[f] for f in nearest]),
    ]
    # the 7-channel signal also as uneven channel blocks, rows 0-2 and 3-6
    inputs = {"array": x, "blocks": [x.T[:3], x.T[3:]]} if channels == 7 else {"array": x}
    for (form, signals), (selector, expected) in itertools.product(inputs.items(), cases):
        got = sp.welch_csm(signals, rate, block=block, overlap=overlap, window=window, **selector)
        assert [c.frequency for c in got] == [f for f, _, _ in expected], (form, selector)
        for c, (f, values, n_avg) in zip(got, expected):
            assert c.n_averages == n_avg
            assert np.abs(dense_values(c) - values).max() <= 1e-12 * np.abs(values).max(), (form, selector, f)


class TestCsmInvariants:
    def test_rejects_non_hermitian(self):
        # a complex diagonal would put a non-real entry on the diagonal of F F^H + diag(d)
        with pytest.raises(ValueError):
            sp.CrossSpectralMatrix(frequency=100.0, factor=np.eye(2, dtype=complex), diagonal=np.array([1.0, 1.0j]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf), 1e200])  # 1e200 overflows |F|^2
    @pytest.mark.parametrize("at", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, at, bad):
        factor = np.eye(2, dtype=complex)
        factor[at] = bad
        with pytest.raises(ValueError, match="CSM contains non-finite entries"):
            sp.CrossSpectralMatrix(frequency=100.0, factor=factor, diagonal=np.zeros(2))

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ValueError):
            sp.CrossSpectralMatrix(frequency=100.0, factor=np.eye(2, dtype=complex), diagonal=np.array([-1.0, 1.0]))

    def test_rejects_non_square(self):
        # three factor rows against two diagonal entries
        with pytest.raises(ValueError):
            sp.CrossSpectralMatrix(frequency=100.0, factor=np.ones((3, 2), dtype=complex), diagonal=np.zeros(2))


def random_factor(rng, m, k):
    return rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))


class TestFactoredCsm:
    @pytest.mark.parametrize("m, k", [(1, 1), (7, 3), (300, 2), (513, 4)])
    def test_values_are_the_factor_product(self, rng, m, k):
        # CLEAN-SC's degraded CSM before its first component: its column D w and peak w^H D w are the dense
        # matrix's, and so is the change a component c makes to its squared Frobenius norm
        factor = random_factor(rng, m, k)
        diagonal = rng.uniform(0.0, 2.0, m)
        csm = sp.CrossSpectralMatrix(frequency=100.0, factor=factor, diagonal=diagonal)
        expected = dense_values(csm)
        w, c = random_factor(rng, m, 2).T
        degraded = bf._DegradedCsm(csm, diagonal_removal=False)
        column, peak, magnitude = degraded.column(w)
        assert np.abs(column - expected @ w).max() <= 1e-14 * np.abs(expected @ w).max()
        assert peak == pytest.approx(np.vdot(w, expected @ w).real, rel=1e-14)
        assert magnitude == pytest.approx(peak, rel=1e-14)  # every term of a positive semi-definite D's peak is >= 0
        change = np.linalg.norm(expected - 0.5 * np.outer(c, c.conj())) ** 2 - np.linalg.norm(expected) ** 2
        assert degraded.growth(c, -0.5) == pytest.approx(change, rel=1e-12)
        assert csm.n_channels == m

    @pytest.mark.parametrize("m, k", [(1, 1), (7, 3), (300, 2)])
    def test_auto_power_is_the_diagonal(self, rng, m, k):
        factor = random_factor(rng, m, k)
        diagonal = rng.uniform(0.0, 2.0, m)
        csm = sp.CrossSpectralMatrix(frequency=100.0, factor=factor, diagonal=diagonal)
        expected = np.diag(dense_values(csm)).real
        assert np.abs(csm.auto_power - expected).max() <= 1e-14 * expected.max()
        # each channel's auto-power is bit for bit that of its own one-channel CSM, as a virtual mic reads it
        for i in range(m):
            one = sp.CrossSpectralMatrix(frequency=100.0, factor=factor[i : i + 1], diagonal=diagonal[i : i + 1])
            assert csm.auto_power[i] == dense_values(one)[0, 0].real

    def test_no_columns_leave_the_diagonal(self):
        diagonal = np.array([1.0, 0.0, 2.5])
        csm = sp.CrossSpectralMatrix(frequency=100.0, factor=np.zeros((3, 0), dtype=complex), diagonal=diagonal)
        assert np.array_equal(csm.auto_power, diagonal)

    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        # the container keeps F and d, of ranks 3 and 0, so the matrices are built again alike
        csms = [
            sp.CrossSpectralMatrix(frequency=f, factor=random_factor(rng, 150, k), diagonal=np.full(150, 0.1))
            for f, k in ((1000.0, 3), (2000.0, 0))
        ]
        sp.save_csm_set(tmp_path / "set.csm", csms)
        for got, want in zip(sp.load_csm_set(tmp_path / "set.csm"), csms):
            assert np.array_equal(got.factor, want.factor)
            assert np.array_equal(got.diagonal, want.diagonal)
            assert np.array_equal(dense_values(got), dense_values(want))

    @pytest.mark.parametrize(
        "factor, diagonal",
        [
            (np.array([[np.nan + 0j], [1.0]]), np.zeros(2)),
            (np.array([[complex(0.0, np.inf)], [1.0]]), np.zeros(2)),
            (np.ones((2, 1), dtype=complex), np.array([0.0, np.inf])),
            (np.ones((2, 1), dtype=complex), np.array([0.0, -1e-30])),
            (np.ones((3, 1), dtype=complex), np.zeros(2)),
            (np.ones(2, dtype=complex), np.zeros(2)),
            (np.ones((2, 1), dtype=complex), np.zeros(2, dtype=complex)),
            (np.ones((2, 1), dtype=complex), None),
            (None, np.zeros(2)),
        ],
        ids=[
            "nan", "inf", "inf-diagonal", "negative-diagonal", "rows", "1-d", "complex-diagonal", "no-diagonal",
            "no-factor",
        ],
    )
    def test_bad_factor_rejected(self, factor, diagonal):
        with pytest.raises(ValueError):
            sp.CrossSpectralMatrix(frequency=100.0, factor=factor, diagonal=diagonal)

    def test_values_or_factor_required(self):
        # the factor and the diagonal are the only way to give a CSM's values
        with pytest.raises(TypeError):
            sp.CrossSpectralMatrix(frequency=100.0)


class TestCsmStats:
    def test_monopole_auto_mean_matches_propagation(self, rng):
        # Welch auto-spectrum mean agrees with the closed-form received PSD
        from memsarray.propagation import MediumModel, convected_delays
        from memsarray.synthesis import Scene, Source, synthesize_timeseries

        psd0 = 4e-6
        src = Source(position=[0.0, 0.0, 0.0], spectrum={"type": "broadband", "psd": psd0})
        scene = Scene(sources=(src,), seed=8)
        mics = np.array([[0.2, 3.0, 0.0], [-0.4, 3.2, 0.1], [0.1, 2.8, -0.3]])
        sig, _ = synthesize_timeseries(scene, mics, 48_000.0, 1.0, include_absorption=False)
        csms = [c for c in sp.welch_csm(sig, 48_000.0) if 2000.0 <= c.frequency <= 4000.0]
        medium = MediumModel()
        expected = np.mean(
            [psd0 / (medium.speed_of_sound * convected_delays([0, 0, 0], m, medium)) ** 2 for m in mics]
        )
        measured = np.mean([np.diag(dense_values(c)).real.mean() for c in csms])
        assert abs(10 * np.log10(measured / expected)) <= 0.5


class TestBandIntegrate:
    """`band_power`: a band's power is the mean of its frequencies' entries times its width."""

    def test_third_octave_edges(self):
        lo, hi = sp.band_edges(4000.0, "third_octave")
        assert lo == pytest.approx(3563.6, abs=0.1)
        assert hi == pytest.approx(4489.8, abs=0.1)

    def test_flat_psd(self):
        # a dense flat PSD: mean x width, within one bin of the sum of PSD x df
        f = np.arange(100.0, 10_000.0, 10.0)
        centers, power = sp.band_power(f, np.full(len(f), 2.0), "third_octave")
        lo, hi = sp.band_edges(1000.0, "third_octave")
        n_bins = ((f >= lo) & (f < hi)).sum()
        band = power[list(centers).index(1000.0)]
        assert band == pytest.approx(2.0 * (hi - lo))
        assert abs(band - 2.0 * n_bins * 10.0) <= 2.0 * 10.0

    def test_tone_lands_in_band(self):
        f = np.arange(100.0, 10_000.0, 10.0)
        psd = np.zeros(len(f))
        psd[np.argmin(np.abs(f - 4000.0))] = 5.0
        centers, power = sp.band_power(f, psd, "third_octave")
        idx = np.argmin(np.abs(centers - 4000.0))
        lo, hi = sp.band_edges(centers[idx], "third_octave")
        n_bins = ((f >= lo) & (f < hi)).sum()
        assert power[idx] == pytest.approx(5.0 * (hi - lo) / n_bins)
        others = np.delete(power, idx)
        assert np.allclose(others, 0.0)

    def test_empty_band_dropped(self):
        # the five third-octaves between 1 kHz and 4 kHz hold no bin
        f = np.array([1000.0, 1010.0, 4000.0, 4010.0])
        centers, _ = sp.band_power(f, np.ones(4), "third_octave")
        assert list(centers) == [1000.0, 4000.0]

    def test_one_frequency_per_band_is_exact(self):
        # a single frequency, and frequencies whose band centres lie outside their span, keep their bands
        for f, band_type, expect in (
            ([2000.0], "octave", [2000.0]),
            ([1100.0, 1500.0, 3000.0], "octave", [1000.0, 2000.0, 4000.0]),
            ([1000.0, 1250.0, 1600.0, 2000.0], "third_octave", 1000.0 * 2.0 ** (np.arange(4) / 3)),
        ):
            psd = np.linspace(1.0, 2.0, len(f))
            centers, power = sp.band_power(f, psd, band_type)
            lo, hi = sp.band_edges(centers, band_type)
            assert centers.tolist() == pytest.approx(expect, rel=1e-15)
            assert np.array_equal(power, psd * (hi - lo))

    def test_every_frequency_in_one_band(self):
        f = np.geomspace(20.0, 20_000.0, 997)
        for band_type in ("third_octave", "octave"):
            centers, power = sp.band_power(f, np.ones(len(f)), band_type)
            lo, hi = sp.band_edges(centers, band_type)
            assert np.allclose(hi[:-1], lo[1:], rtol=1e-14)  # the bands tile the axis
            assert lo[0] <= f[0] and f[-1] < hi[-1]
            assert np.allclose(power, hi - lo)

    def test_nan_entries_left_out(self):
        f = np.array([1000.0, 1100.0, 2000.0])
        psd = np.array([[1.0, 3.0, 5.0], [np.nan, 3.0, np.nan]])
        centers, power = sp.band_power(f, psd, "octave")
        lo, hi = sp.band_edges(centers, "octave")
        assert np.array_equal(power[0], [2.0, 5.0] * (hi - lo))
        assert power[1, 0] == 3.0 * (hi - lo)[0]
        assert np.isnan(power[1, 1])


class TestSpectrumIO:
    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            sp.Spectrum(frequencies=np.array([2.0, 1.0]), psd=np.ones(2))

    def test_db_floor(self):
        spec = sp.Spectrum(frequencies=np.array([1.0, 2.0]), psd=np.array([0.0, 4e-10]))
        db = spec.db()
        assert db[0] == sp.DB_FLOOR
        assert db[1] == pytest.approx(0.0)

    def test_csv(self, tmp_path):
        spec = sp.Spectrum(frequencies=np.array([1.0, 2.0]), psd=np.array([1.0, 2.0]))
        rows = zip(spec.frequencies.tolist(), spec.db().tolist())
        cli._write_csv(tmp_path / "s.csv", ["frequency", "psd_db"], rows)
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "frequency,psd_db"
        assert len(lines) == 3
        assert [float(v) for v in lines[1].split(",")] == [1.0, spec.db()[0]]

    def test_csm_container_round_trip(self, rng, tmp_path):
        x = rng.standard_normal((8192, 3))
        csms = sp.welch_csm(x, 48_000.0, block=256, frequencies=[1000.0, 2000.0, 4000.0])
        path = tmp_path / "set.csm"
        sp.save_csm_set(path, csms, geometry_hash="abc123")
        back = sp.load_csm_set(path)
        assert len(back) == len(csms)
        for a, b in zip(csms, back):
            assert a.frequency == b.frequency
            assert np.allclose(dense_values(a), dense_values(b))
            assert b.n_averages == a.n_averages


def small_csm_set(rng):
    a = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    return [sp.CrossSpectralMatrix(frequency=f, factor=x, diagonal=np.zeros(3)) for f, x in zip((1000.0, 2000.0), a)]


class TestCsmContainerErrors:
    def test_truncated_raises_protocol_error(self, rng, tmp_path):
        path = tmp_path / "set.csm"
        sp.save_csm_set(path, small_csm_set(rng))
        data = path.read_bytes()
        for n in range(len(data)):
            path.write_bytes(data[:n])
            with pytest.raises(ProtocolError):
                sp.load_csm_set(path)

    def test_non_finite_entry_raises_protocol_error(self, rng, tmp_path):
        # a NaN, and a finite entry whose square overflows the channel's auto-power
        path = tmp_path / "set.csm"
        for entry in (complex(np.nan, 0.0), complex(1e200, 0.0)):
            sp.save_csm_set(path, small_csm_set(rng))
            raw = bytearray(path.read_bytes())
            payload = 8 + int.from_bytes(raw[4:8], "little")
            raw[payload : payload + 16] = np.array([entry], dtype="<c16").tobytes()
            path.write_bytes(bytes(raw))
            with pytest.raises(ProtocolError, match="corrupt CSM at 1000.0 Hz: CSM contains non-finite entries"):
                sp.load_csm_set(path)

    def test_old_format_raises_protocol_error(self, rng, tmp_path):
        # the dense format: a header without ranks, then each matrix's upper triangle
        csms = small_csm_set(rng)
        header = {
            "frequencies": [c.frequency for c in csms], "n_channels": 3, "n_averages": 1, "window": "exact",
            "block_size": 0, "overlap": 0.0, "units": "Pa^2/Hz", "geometry_hash": "",
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        iu = np.triu_indices(3)
        packed = b"".join(np.ascontiguousarray(dense_values(c)[iu], dtype="<c16").tobytes() for c in csms)
        path = tmp_path / "old.csm"
        path.write_bytes(b"CSMF" + struct.pack("<I", len(blob)) + blob + packed)
        with pytest.raises(ProtocolError, match="corrupt CSM header: 'ranks'"):
            sp.load_csm_set(path)

    @pytest.mark.parametrize("ranks", [[3], [3, 3, 3], [-1, 7], [3.0, 3], ["3", 3], [True, 5], None, 6])
    def test_bad_ranks_raise_protocol_error(self, rng, tmp_path, ranks):
        path = tmp_path / "set.csm"
        sp.save_csm_set(path, small_csm_set(rng))
        data = path.read_bytes()
        hlen = int.from_bytes(data[4:8], "little")
        header = json.loads(data[8 : 8 + hlen])
        header["ranks"] = ranks
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        path.write_bytes(b"CSMF" + struct.pack("<I", len(blob)) + blob + data[8 + hlen :])
        with pytest.raises(ProtocolError, match="corrupt CSM header"):
            sp.load_csm_set(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_corrupt_header_is_read_or_rejected(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("csm") / "set.csm"
        sp.save_csm_set(path, small_csm_set(np.random.default_rng(5)), geometry_hash="abc123")
        intact = sp.load_csm_set(path)
        raw = bytearray(path.read_bytes())
        header_end = 8 + int.from_bytes(raw[4:8], "little")
        offset = data.draw(st.integers(0, header_end - 1), label="offset")
        raw[offset] = data.draw(st.integers(0, 255), label="byte")
        path.write_bytes(bytes(raw))
        try:
            back = sp.load_csm_set(path)
        except ProtocolError:
            return
        assert [dense_values(c).tolist() for c in back] == [dense_values(c).tolist() for c in intact]
