import json
import tracemalloc

import numpy as np
import pytest
from oracles import dense_values, synthesize_timeseries_oracle

from memsarray import cli
from memsarray import synthesis as syn
from memsarray import welch_csm
from memsarray.errors import parse
from memsarray.propagation import MediumModel, atmospheric_absorption, convected_delays


def tone_source(pos, freq=4000.0, power=1e-4):
    return syn.Source(position=pos, spectrum={"type": "tone", "frequency": freq, "power": power})


def broadband_source(pos, psd=1e-6):
    return syn.Source(position=pos, spectrum={"type": "broadband", "psd": psd})


class TestPathTransfer:
    @pytest.mark.parametrize("absorption", [False, True])
    @pytest.mark.parametrize("fraction", [0.02, 0.21, 0.47, 0.498])
    def test_bin_centred_tone_matches_closed_form(self, fraction, absorption):
        # a delayed, attenuated sine over the whole record, up to just below Nyquist
        rate, n = 48_000.0, 4000
        f0 = round(fraction * n) * rate / n
        power, phase = 1e-4, 0.3
        src = syn.Source(position=[0, 0, 0], spectrum={"type": "tone", "frequency": f0, "power": power, "phase": phase})
        scene = syn.Scene(sources=(src,), medium=MediumModel(mach_vector=(0.1, 0.0, 0.0)), seed=1)
        mics = np.array([[0.0, 3.0, 0.0], [1.3, 2.1, -0.4], [-2.2, 4.7, 0.9]])
        sig, _ = syn.synthesize_timeseries(scene, mics, rate=rate, duration=n / rate, include_absorption=absorption)
        alpha = atmospheric_absorption(f0, scene.medium) if absorption else 0.0
        t = np.arange(n) / rate
        for mi, mic in enumerate(mics):
            delay = convected_delays([0, 0, 0], mic, scene.medium)
            r = scene.medium.speed_of_sound * delay
            amp = np.sqrt(2 * power) / r * 10 ** (-alpha * r / 20)
            expected = amp * np.sin(2 * np.pi * f0 * (t - delay) + phase)
            assert np.abs(sig[:, mi] - expected).max() <= 1e-9 * amp

    def test_exact_csm_uses_the_same_transfer(self):
        # the cross-power of a bin-centred tone's record, from one rFFT, is the exact CSM
        rate, n = 48_000.0, 4800
        f0 = 1500.0
        scene = syn.Scene(sources=(tone_source([0, 0, 0], f0, 1e-4),), seed=1)
        mics = np.array([[0.0, 3.0, 0.0], [0.7, 3.1, 0.2]])
        sig, _ = syn.synthesize_timeseries(scene, mics, rate=rate, duration=n / rate)
        k = int(round(f0 * n / rate))
        spec = np.fft.rfft(sig, axis=0)[k] * np.sqrt(2.0) / n  # one-sided complex amplitude, RMS
        exact = dense_values(syn.synthesize_csm(scene, mics, [f0])[0])
        assert np.allclose(np.outer(spec, spec.conj()), exact, rtol=1e-9, atol=0.0)

    def test_aliased_tone_rejected(self):
        # a tone at exactly half the sample rate already aliases
        scene = syn.Scene(sources=(broadband_source([0, 0, 0]), tone_source([0, 0, 0], freq=24_000.0)), seed=1)
        with pytest.raises(syn.ConfigError) as err:
            ma_synth(scene, np.array([[0.0, 3.0, 0.0]]), duration=0.1)
        assert err.value.field == "scene.sources[1].spectrum.frequency"
        # record_blocks checks when called, before its first block is asked for
        with pytest.raises(syn.ConfigError) as err:
            syn.record_blocks(scene, np.array([[0.0, 3.0, 0.0]]), 48_000.0, 0.1)
        assert err.value.field == "scene.sources[1].spectrum.frequency"

    @pytest.mark.parametrize("include_absorption", [True, False])
    def test_zero_sample_duration_rejected(self, include_absorption):
        # 1 us at 48 kHz rounds to no sample
        scene = syn.Scene(sources=(broadband_source([0, 0, 0]),), noise={"psd": 1e-7}, seed=1)
        with pytest.raises(syn.ConfigError) as err:
            syn.synthesize_timeseries(scene, np.array([[0.0, 3.0, 0.0]]), 48_000.0, 1e-6, include_absorption)
        assert err.value.field == "duration"


class TestTimeseries:
    def test_symmetric_mics_identical(self):
        scene = syn.Scene(sources=(tone_source([0.0, 0.0, 0.0]),), seed=5)
        mics = np.array([[1.0, 2.0, 0.0], [-1.0, 2.0, 0.0]])
        sig, _ = ma_synth(scene, mics)
        assert np.allclose(sig[:, 0], sig[:, 1], atol=1e-12)

    def test_tone_rms_level(self):
        power = 4e-4
        f0 = 4000.0
        scene = syn.Scene(sources=(tone_source([0.0, 0.0, 0.0], f0, power),), seed=5)
        mic = np.array([[0.0, 3.0, 0.0]])
        sig, _ = ma_synth(scene, mic, absorption=True)
        medium = scene.medium
        r = medium.speed_of_sound * convected_delays([0, 0, 0], mic[0], medium)
        alpha = atmospheric_absorption(f0, medium)
        expected_rms = np.sqrt(power) * (1.0 / r) * 10 ** (-alpha * r / 20.0)
        measured = sig[500:-500, 0].std()
        assert abs(20 * np.log10(measured / expected_rms)) <= 0.1

    def test_noise_only_low_coherence(self):
        scene = syn.Scene(sources=(), noise={"psd": 1e-6}, seed=9)
        mics = np.array([[0.0, 3.0, 0.0], [0.5, 3.0, 0.0], [1.0, 3.0, 0.2]])
        sig, _ = ma_synth(scene, mics, duration=1.0)
        csms = [c for c in welch_csm(sig, 48_000.0) if 500.0 <= c.frequency <= 4000.0]
        msc = []
        for c in csms:
            v = dense_values(c)
            for i in range(3):
                for j in range(i + 1, 3):
                    msc.append(abs(v[i, j]) ** 2 / (v[i, i].real * v[j, j].real))
        assert np.mean(msc) < 0.05

    def test_zero_sources_noise_level(self):
        scene = syn.Scene(sources=(), noise={"psd": 2e-6}, seed=9)
        sig, _ = ma_synth(scene, np.array([[0.0, 3.0, 0.0]]), duration=0.5)
        measured_psd = sig[:, 0].var() / (48_000.0 / 2.0)
        assert measured_psd == pytest.approx(2e-6, rel=0.1)

    def test_seeded_reproducibility(self):
        scene = syn.Scene(sources=(broadband_source([0, 0, 0]),), noise={"psd": 1e-8}, seed=3)
        mics = np.array([[0.0, 3.0, 0.0], [1.0, 3.0, 0.0]])
        a, _ = ma_synth(scene, mics)
        b, _ = ma_synth(scene, mics)
        assert np.array_equal(a, b)

    def test_energy_conservation(self):
        # received power scales exactly with the squared propagation amplitude
        scene = syn.Scene(sources=(tone_source([0, 0, 0], 2000.0, 1e-4),), seed=2)
        near, _ = ma_synth(scene, np.array([[0.0, 2.0, 0.0]]))
        far, _ = ma_synth(scene, np.array([[0.0, 4.0, 0.0]]))
        ratio = near[500:-500, 0].var() / far[500:-500, 0].var()
        assert ratio == pytest.approx(4.0, rel=0.01)


ORACLE_SOURCES = {
    "tone": (syn.Source(position=[0.2, 0.0, -0.1], spectrum={"type": "tone", "frequency": 4000.0, "power": 1e-4, "phase": 0.3}),),
    "flat broadband": (broadband_source([0.2, 0.0, -0.1]),),
    "shaped broadband": (
        syn.Source(position=[-0.3, 0.1, 0.2], spectrum={"type": "broadband", "frequencies": [500.0, 4000.0, 12000.0], "psd": [1e-6, 4e-6, 5e-7]}),
    ),
    "dipole and monopole": (
        syn.Source(position=[0.0, 0.0, 0.0], spectrum={"type": "broadband", "psd": 2e-6}, kind="dipole", axis=[0.0, 1.0, 0.3]),
        broadband_source([0.4, 0.0, -0.2], psd=5e-7),
    ),
}


def oracle_mics(m):
    rng = np.random.default_rng(7)
    return np.c_[rng.uniform(-1.0, 1.0, m), np.full(m, 3.0), rng.uniform(-0.5, 0.5, m)]


def assert_matches_oracle(scene, m, n, absorption, rate=48_000.0):
    mics = oracle_mics(m)
    sig, meta = syn.synthesize_timeseries(scene, mics, rate=rate, duration=n / rate, include_absorption=absorption)
    expected = synthesize_timeseries_oracle(scene, mics, rate, n / rate, include_absorption=absorption)
    assert sig.shape == (n, m) and sig.dtype == np.float64 and sig.flags.c_contiguous
    assert meta == {"rate": rate, "duration": n / rate, "channels": m}
    assert np.abs(sig - expected).max() <= 1e-12 * np.abs(expected).max()


class TestTimeseriesOracle:
    """Channels in blocks, sources summed per bin and phases from the two-level
    ramp, against one `_transfer` and one inverse FFT per channel and source."""

    @pytest.mark.parametrize("absorption", [False, True])
    @pytest.mark.parametrize("name", ORACLE_SOURCES)
    @pytest.mark.parametrize("m", [1, 15, 16, 17, 140])
    def test_across_channel_blocks(self, m, name, absorption):
        scene = syn.Scene(sources=ORACLE_SOURCES[name], medium=MediumModel(mach_vector=(0.1, 0.0, 0.0)), seed=4)
        assert_matches_oracle(scene, m, 1200, absorption)

    @pytest.mark.parametrize("absorption", [False, True])
    @pytest.mark.parametrize("name", ORACLE_SOURCES)
    @pytest.mark.parametrize("n", [1, 2, 3, 601, 1201])
    def test_any_record_length(self, n, name, absorption):
        scene = syn.Scene(sources=ORACLE_SOURCES[name], noise={"psd": 1e-9}, seed=6)
        assert_matches_oracle(scene, 17, n, absorption)

    @pytest.mark.parametrize("noise", [{"psd": 1e-7}, {"frequencies": [100.0, 8000.0], "psd": [1e-6, 1e-8]}])
    def test_noise_only_is_the_oracle_byte_for_byte(self, noise):
        scene = syn.Scene(sources=(), noise=noise, seed=8)
        mics = oracle_mics(33)
        sig, _ = syn.synthesize_timeseries(scene, mics, rate=48_000.0, duration=0.02)
        assert np.array_equal(sig, synthesize_timeseries_oracle(scene, mics, 48_000.0, 0.02))


class TestRecordBlocks:
    @pytest.mark.parametrize("noise", [None, {"psd": 1e-9}], ids=["no noise", "noise"])
    def test_stacked_blocks_are_the_time_series(self, noise):
        # 37 channels: two full channel blocks and a short one
        scene = syn.Scene(sources=ORACLE_SOURCES["dipole and monopole"], noise=noise, seed=5)
        mics = oracle_mics(37)
        blocks = list(syn.record_blocks(scene, mics, 48_000.0, 0.025))
        assert [b.shape for b in blocks] == [(16, 1200), (16, 1200), (5, 1200)]
        sig, _ = syn.synthesize_timeseries(scene, mics, 48_000.0, 0.025)
        assert np.array_equal(np.concatenate(blocks), sig.T)


def ma_synth(scene, mics, duration=0.25, absorption=False):
    return syn.synthesize_timeseries(
        scene, mics, rate=48_000.0, duration=duration, include_absorption=absorption
    )


class TestExactCsm:
    MICS = np.array([[0.0, 3.0, 0.0], [0.4, 3.0, 0.1], [-0.3, 3.0, -0.2], [0.1, 3.0, 0.4]])

    def test_rank_one_monopole(self):
        scene = syn.Scene(sources=(tone_source([0, 0, 0]),), seed=1)
        csm = syn.synthesize_csm(scene, self.MICS, [4000.0])[0]
        w = np.linalg.eigvalsh(dense_values(csm))
        assert w[-1] > 0
        assert np.allclose(w[:-1], 0.0, atol=1e-12 * w[-1])

    def test_noise_only_diagonal(self):
        scene = syn.Scene(sources=(), noise={"psd": 1e-6}, seed=1)
        csm = syn.synthesize_csm(scene, self.MICS, [1000.0])[0]
        off = dense_values(csm) - np.diag(np.diag(dense_values(csm)))
        assert np.allclose(off, 0.0)
        assert np.allclose(np.diag(dense_values(csm)).real, 1e-6)

    def test_noise_leaves_cross_terms(self):
        src = tone_source([0, 0, 0])
        clean = syn.synthesize_csm(syn.Scene(sources=(src,), seed=1), self.MICS, [4000.0])[0]
        noisy = syn.synthesize_csm(
            syn.Scene(sources=(src,), noise={"psd": 1e-5}, seed=1), self.MICS, [4000.0]
        )[0]
        mask = ~np.eye(4, dtype=bool)
        assert np.array_equal(dense_values(clean)[mask], dense_values(noisy)[mask])

    @pytest.mark.parametrize(
        "sources, noise",
        [
            ((), {"psd": 1e-6}),
            ((tone_source([0, 0, 0], freq=4000.0),), None),
            ((tone_source([0, 0, 0], freq=4000.0),), {"psd": 1e-6}),
        ],
        ids=["noise-only", "tone-elsewhere", "tone-elsewhere-and-noise"],
    )
    def test_no_source_power_gives_an_empty_factor(self, sources, noise):
        scene = syn.Scene(sources=sources, noise=noise, seed=1)
        csm = syn.synthesize_csm(scene, self.MICS, [1000.0])[0]
        assert csm.factor.shape == (4, 0)
        psd = 0.0 if noise is None else noise["psd"]
        assert np.array_equal(csm.diagonal, np.full(4, psd))
        assert np.array_equal(dense_values(csm), np.diag(np.full(4, psd)).astype(complex))

    def test_factor_holds_one_column_per_source(self):
        # a broadband source and a tone at 4 kHz; at 1 kHz only the broadband one has power
        scene = syn.Scene(
            sources=(broadband_source([0, 0, 0], psd=4e-6), tone_source([0.3, 0, 0.1], freq=4000.0)),
            noise={"psd": 1e-7},
            seed=1,
        )
        at_1k, at_4k = syn.synthesize_csm(scene, self.MICS, [1000.0, 4000.0])
        assert at_1k.factor.shape == (4, 1)
        assert at_4k.factor.shape == (4, 2)
        for csm in (at_1k, at_4k):
            expected = csm.factor @ csm.factor.conj().T + np.diag(np.full(4, 1e-7))
            assert np.abs(dense_values(csm) - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_positive_frequency_required(self):
        scene = syn.Scene(sources=(), seed=1)
        with pytest.raises(ValueError):
            syn.synthesize_csm(scene, self.MICS, [0.0])

    def test_welch_converges_to_exact(self):
        # off-diagonal Frobenius error <= 15 % at 92 averages
        scene = syn.Scene(sources=(broadband_source([0, 0, -0.2], psd=4e-6),), seed=12)
        mics = self.MICS
        sig, _ = syn.synthesize_timeseries(scene, mics, rate=48_000.0, duration=1.0, include_absorption=False)
        csms = [c for c in welch_csm(sig, 48_000.0) if 2000.0 <= c.frequency <= 6000.0]
        mask = ~np.eye(len(mics), dtype=bool)
        errs = []
        for c in csms[:: max(len(csms) // 12, 1)]:
            exact = dense_values(syn.synthesize_csm(scene, mics, [c.frequency], include_absorption=False)[0])
            err = np.linalg.norm((dense_values(c) - exact)[mask]) / np.linalg.norm(exact[mask])
            errs.append(err)
        assert np.median(errs) <= 0.15

    def test_dipole_directivity_weighting(self):
        axis = np.array([0.0, 1.0, 0.0])
        dip = syn.Source(
            position=[0, 0, 0], spectrum={"type": "tone", "frequency": 2000.0, "power": 1e-4},
            kind="dipole", axis=axis,
        )
        broadside = np.array([[0.0, 3.0, 0.0]])
        oblique = np.array([[3.0, 3.0, 0.0]])
        c_b = syn.synthesize_csm(syn.Scene(sources=(dip,), seed=1), broadside, [2000.0], include_absorption=False)[0]
        c_o = syn.synthesize_csm(syn.Scene(sources=(dip,), seed=1), oblique, [2000.0], include_absorption=False)[0]
        gain_b = dense_values(c_b)[0, 0].real * np.linalg.norm(broadside[0]) ** 2
        gain_o = dense_values(c_o)[0, 0].real * np.linalg.norm(oblique[0]) ** 2
        # cos^2 of 45 degrees halves the power
        assert gain_o / gain_b == pytest.approx(0.5, rel=1e-6)

    def test_dipole_needs_axis(self):
        with pytest.raises(ValueError):
            syn.Source(position=[0, 0, 0], spectrum={"type": "tone", "frequency": 1e3, "power": 1.0}, kind="dipole")

    def test_paper_aperture_stays_factored(self, rng):
        # 7200 sensors over the 6 m x 3 m aperture of the 3x3-panel array: a dense CSM alone takes 829 MB
        m = 7200
        positions = np.column_stack([rng.uniform(0.0, 6.0, m), np.full(m, 3.39), rng.uniform(-2.0, 1.0, m)])
        scene = parse(syn.Scene, cli.bundled_config("single_monopole")["scene"], "scene")
        tracemalloc.start()
        try:
            (csm,) = syn.synthesize_csm(scene, positions, [4000.0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert csm.factor.shape == (m, 1)
        assert peak <= 50e6


class TestSceneIO:
    def test_round_trip(self, tmp_path):
        scene = {
            "sources": [
                {"position": [1.0, 0.0, -0.5], "spectrum": {"type": "tone", "frequency": 4000.0, "power": 1e-4}},
                {
                    "position": [2.0, 0.0, 0.0],
                    "spectrum": {"type": "broadband", "psd": 1e-6},
                    "kind": "dipole",
                    "axis": [0.0, 1.0, 0.0],
                },
            ],
            "medium": {"mach": [0.1, 0.0, 0.0]},
            "noise": {"psd": 1e-8},
            "seed": 77,
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        back = syn.Scene.load_json(path)
        assert back.seed == 77
        assert len(back.sources) == 2
        assert back.sources[0].spectrum == syn.ToneSpectrum(type="tone", frequency=4000.0, power=1e-4)
        assert back.sources[1].kind == "dipole"
        assert back.sources[1].spectrum == syn.BroadbandSpectrum(psd=1e-6)
        assert np.allclose(back.medium.mach_vector, [0.1, 0.0, 0.0])
        assert back.noise == syn.PsdSpectrum(psd=1e-8)

    def test_malformed_scene(self):
        from memsarray.errors import ConfigError, parse

        with pytest.raises(ConfigError):
            parse(syn.Scene, {"sources": [{"nope": 1}]}, "scene")
