"""Acceptance suite.

One test per criterion, each at its stated tolerance, printing a PASS/FAIL
line (visible with `pytest -s` or in failure output). Criteria marked exact
use exact arithmetic; level criteria run on synthetic scenes with closed-form
ground truth.
"""

import csv
import functools
import json

import numpy as np
import pytest
from oracles import dense_values, fermat_grid_oracle, sine_fit

import memsarray as ma
from memsarray import acquisition as acq
from memsarray import analysis as an
from memsarray import beamforming as bf
from memsarray import cli
from memsarray import geometry as geo
from memsarray import propagation as prop
from memsarray import spectral as sp
from memsarray import synthesis as syn


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL  {text}")
                raise
            print(f"[criterion {num:02d}] PASS  {text}")

        return wrapper

    return deco


def db(ratio):
    return 10.0 * np.log10(ratio)


def tone(pos, freq, power=2.5e-4):
    return syn.Source(position=pos, spectrum={"type": "tone", "frequency": freq, "power": power})


def broadband(pos, psd=1e-6, kind="monopole", axis=None):
    return syn.Source(position=pos, spectrum={"type": "broadband", "psd": psd}, kind=kind, axis=axis)


@pytest.fixture(scope="module")
def big_array():
    return geo.assemble_full_array(3, 3, seed=42)


@pytest.fixture(scope="module")
def dnw(big_array):
    sub = geo.spiral_subarray(big_array, 140, 1.5, 0.1)
    assert sub.size == 140
    return sub


@criterion(1, "geometry scale-out: 3x3 panels -> 7200 sensors in 6 m x 3 m, 1 panel -> 800")
def test_criterion_01_geometry_scale_out(big_array):
    assert big_array.sensor_count == 7200
    assert big_array.extent == (6.0, 3.0)
    lo, hi = big_array.bounding_box()
    assert hi[0] - lo[0] <= 6.0 and hi[2] - lo[2] <= 3.0
    one = geo.assemble_full_array(1, 1, seed=42)
    assert one.sensor_count == 800


@criterion(2, "observation-angle arithmetic: 93.338 deg and 91.689 deg within 0.01 deg")
def test_criterion_02_observation_angles():
    geometric = geo.observation_angles([2.598, 3.39, 0.0], [2.4, 0.0, 0.0])
    assert abs(geometric.theta - 93.338) <= 0.01
    nominal = geo.observation_angles([2.5, 3.39, 0.0], [2.4, 0.0, 0.0])
    assert abs(nominal.theta - 91.689) <= 0.01


@criterion(3, "clock budget 0.0216 deg at 20 kHz and data rate 614.4 -> ~620 Mbit/s")
def test_criterion_03_clock_and_rate():
    assert acq.phase_skew_budget(3e-9, 20_000.0) == pytest.approx(0.0216, abs=1e-12)
    assert acq.phase_skew_budget(3e-9, 20_000.0) < 0.03
    assert acq.stream_data_rate(200, 3.072e6, 0.0) == pytest.approx(614.4, abs=1e-9)
    assert abs(acq.stream_data_rate(200, 3.072e6, 0.0091) - 620.0) < 1.0


@criterion(4, "Welch bookkeeping: 92 averages at 1 s / block 1024 / 50 %, Parseval within 5 %")
def test_criterion_04_welch(rng):
    x = rng.standard_normal((48_000, 1))
    x /= x.std()
    csms = sp.welch_csm(x, 48_000.0, block=1024, overlap=0.5, window="hann")
    assert csms[0].n_averages == 92
    total = sum(dense_values(c)[0, 0].real for c in csms) * (48_000.0 / 1024)
    assert total == pytest.approx(1.0, rel=0.05)


@criterion(5, "level-true beamforming: peak at true cell within 0.01 dB, CLEAN-SC within 0.1 dB")
def test_criterion_05_level_true(dnw):
    q2 = 2.5e-4
    freq = 4000.0
    # 60 x 60 grid with the source on a node
    grid = bf.make_focus_grid((2.42, 3.60), (-1.08, 0.10), 0.02)
    assert grid.shape == (60, 60)
    src_idx = grid.index_of([3.0, 0.0, -0.5])
    assert np.allclose(grid.points[src_idx], [3.0, 0.0, -0.5])
    scene = syn.Scene(sources=(tone(grid.points[src_idx], freq, q2),), seed=0)
    csm = syn.synthesize_csm(scene, dnw.positions, [freq], include_absorption=False)[0]
    steer = bf.steering_vectors(bf.steering_geometry(grid, dnw.positions), freq)

    conv = bf.conventional_beamform(csm, steer, diagonal_removal=False)
    peak_idx, peak_val = conv.peak()
    assert peak_idx == src_idx
    assert abs(db(peak_val / q2)) <= 0.01

    clean = bf.clean_sc(csm, steer, diagonal_removal=True)
    assert abs(db(clean.component_power() / q2)) <= 0.1


@criterion(6, "DR noise immunity: exact maps bit-identical, Welch maps within 1 dB at 92 averages")
def test_criterion_06_dr_noise_immunity(dnw):
    freq = 1000.0
    src = np.array([3.0, 0.0, -0.5])
    scene = syn.Scene(sources=(broadband(src, psd=4e-6),), seed=21)
    grid = bf.make_focus_grid((2.6, 3.4), (-0.9, -0.1), 0.02)
    steer = bf.steering_vectors(bf.steering_geometry(grid, dnw.positions), freq)

    # exact-CSM route: diagonal noise cannot change a DR map at all
    clean_csm = syn.synthesize_csm(scene, dnw.positions, [freq], include_absorption=False)[0]
    noisy_csm = sp.CrossSpectralMatrix(
        frequency=freq, factor=clean_csm.factor, diagonal=clean_csm.diagonal + 1e-4, units=clean_csm.units
    )
    map_a = bf.conventional_beamform(clean_csm, steer, diagonal_removal=True)
    map_b = bf.conventional_beamform(noisy_csm, steer, diagonal_removal=True)
    assert np.array_equal(map_a.values, map_b.values)

    # Welch route: incoherent low-frequency noise lifting autos by ~8 dB
    rate, duration = 48_000.0, 1.0
    signals, _ = syn.synthesize_timeseries(scene, dnw.positions, rate, duration, include_absorption=False)
    csms_clean = sp.welch_csm(signals, rate, frequencies=[freq])
    target = min(csms_clean, key=lambda c: abs(c.frequency - freq))
    assert target.n_averages == 92
    mean_auto = np.mean(np.diag(dense_values(target)).real)
    # per-channel noise at (10**0.8 - 1) times the mean auto PSD below 1.5 kHz
    lift = (10.0 ** 0.8 - 1.0) * mean_auto
    noise_scene = syn.Scene(
        sources=(),
        noise={"frequencies": [0.0, 1500.0, 1600.0, 24_000.0], "psd": [lift, lift, lift * 1e-6, lift * 1e-6]},
        seed=77,
    )
    noise, _ = syn.synthesize_timeseries(noise_scene, dnw.positions, rate, duration)
    noisy = signals + noise

    csms_noisy = sp.welch_csm(noisy, rate, frequencies=[freq])
    target_noisy = min(csms_noisy, key=lambda c: abs(c.frequency - freq))
    rise = db(np.mean(np.diag(dense_values(target_noisy)).real) / mean_auto)
    assert 6.0 <= rise <= 10.0  # autos really are lifted by ~8 dB

    m_clean = bf.conventional_beamform(target, steer, diagonal_removal=True)
    m_noisy = bf.conventional_beamform(target_noisy, steer, diagonal_removal=True)
    delta = abs(db(m_noisy.peak()[1] / m_clean.peak()[1]))
    assert delta <= 1.0


@criterion(7, "sub-array equivalence: <= 0.02 m pointwise geometry change keeps spectra within 1 dB")
def test_criterion_07_subarray_equivalence(dnw, rng):
    # second instrument: same layout displaced pointwise by 5..20 mm in-plane,
    # the desk-scale stand-in for a separately built reference array whose
    # sensors sit ~0.02 m from the matched panel positions
    angles = rng.uniform(0.0, 2 * np.pi, dnw.size)
    radii = rng.uniform(0.005, 0.02, dnw.size)
    offsets = np.stack([radii * np.cos(angles), np.zeros(dnw.size), radii * np.sin(angles)], axis=1)
    positions_b = dnw.positions + offsets
    pointwise = np.linalg.norm(positions_b - dnw.positions, axis=1)
    assert pointwise.max() <= 0.02
    assert pointwise.min() >= 0.005  # a real perturbation, not a no-op

    src = np.array([3.0, 0.0, -0.5])
    scene = syn.Scene(sources=(broadband(src, psd=1e-6),), seed=3)
    roi = an.RegionOfInterest(x_range=(2.7, 3.3), z_range=(-0.8, -0.2))
    grid = bf.make_focus_grid((2.6, 3.4), (-0.9, -0.1), 0.02)
    freqs = np.geomspace(1000.0, 10_000.0, 8)
    deltas = []
    for mics in (dnw.positions, positions_b):
        csms = syn.synthesize_csm(scene, mics, freqs, include_absorption=False)
        maps = []
        for c in csms:
            steer = bf.steering_vectors(bf.steering_geometry(grid, mics), c.frequency)
            maps.append(bf.clean_sc(c, steer, diagonal_removal=True))
        deltas.append(an.maps_to_spectrum(maps, roi).db())
    diff = np.abs(deltas[0] - deltas[1])
    assert diff.max() <= 1.0


@criterion(8, "directivity recovery: dipole peak at ~90 deg, monopole |Gamma| <= 0.5 dB")
def test_criterion_08_directivity(big_array, tmp_path):
    geometry = tmp_path / "geometry.json"
    big_array.save_json(geometry)
    src = [2.4, 0.0, 0.0]

    def run(name, source):
        scene = tmp_path / f"{name}.json"
        scene.write_text(json.dumps({"sources": [source], "seed": 5}))
        out = tmp_path / name
        # the default grid is the ROI +-0.1 m at 0.02 m: (2.0, 2.8) x (-0.4, 0.4)
        argv = [
            "directivity", "--scene", str(scene), "--geometry", str(geometry), "--roi", "2.1,2.7,-0.3,0.3",
            "--reference", "2.4,0.0,0.0", "--freqs", "2000,4000",
            "--count", "13", "--aperture", "2.0", "--mics", "150", "--epsilon", "0.1", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        angles = np.array(json.loads((out / "directivity_meta.json").read_text())["angles_deg"])
        with open(out / "directivity.csv", newline="", encoding="utf-8") as fh:
            gamma = np.array([[float(v) for v in row[1:]] for row in list(csv.reader(fh))[1:]])
        return angles, gamma

    _, iso_gamma = run("monopole", {"position": src, "spectrum": {"type": "broadband", "psd": 1e-6}})
    assert np.nanmax(np.abs(iso_gamma)) <= 0.5

    dipole = {"position": src, "spectrum": {"type": "broadband", "psd": 1e-6}, "kind": "dipole", "axis": [0.0, 1.0, 0.0]}
    angles, gamma = run("dipole", dipole)
    steps = np.diff(angles)
    for col in range(gamma.shape[1]):
        peak_angle = angles[np.nanargmax(gamma[:, col])]
        k = np.argmin(np.abs(angles - 90.0))
        local_step = max(steps[max(k - 1, 0)], steps[min(k, len(steps) - 1)])
        assert abs(peak_angle - 90.0) <= local_step + 1e-9
    assert len(angles) == 13


@criterion(9, "frequency-dependent aperture: D(f) exact, -3 dB width ratio <= 1.5 over 1-16 kHz")
def test_criterion_09_freq_dependent_aperture(big_array):
    assert geo.frequency_dependent_aperture(1000.0, 5.5, 1000.0) == pytest.approx(5.5)
    assert geo.frequency_dependent_aperture(2000.0, 5.5, 1000.0) == pytest.approx(2.75)
    assert geo.frequency_dependent_aperture(16_000.0, 5.5, 1000.0) == pytest.approx(0.34375)
    assert geo.frequency_dependent_aperture(500.0, 5.5, 1000.0) == pytest.approx(5.5)  # clamped
    assert geo.frequency_dependent_aperture(32_000.0, 5.5, 1000.0) == pytest.approx(0.34375)

    bands = [1000.0, 2000.0, 4000.0, 8000.0, 16_000.0]
    subs = {
        f: geo.spiral_subarray(big_array, 200, geo.frequency_dependent_aperture(f, 5.5, 1000.0), 0.035, (3.0, -0.5))
        for f in bands
    }
    q2 = 2.5e-4
    widths = {}
    for f in bands:
        sub = subs[f]
        grid = bf.make_focus_grid((2.2, 3.8), (-0.5, -0.5), 0.004)
        src_idx = grid.index_of([3.0, 0.0, -0.5])
        scene = syn.Scene(sources=(tone(grid.points[src_idx], f, q2),), seed=0)
        csm = syn.synthesize_csm(scene, sub.positions, [f], include_absorption=False)[0]
        steer = bf.steering_vectors(bf.steering_geometry(grid, sub.positions), f)
        bmap = bf.conventional_beamform(csm, steer)
        widths[f] = bf.lobe_width_db(bmap.values, grid.local[:, 0])
    ratio = max(widths.values()) / min(widths.values())
    assert ratio <= 1.5


@criterion(10, "far-field projection: integrated CLEAN-SC vs virtual mics within 1 dB, 300 Hz-20 kHz")
def test_criterion_10_farfield(dnw):
    src = np.array([3.0, 0.0, -0.5])
    scene = syn.Scene(sources=(broadband(src, psd=1e-6),), seed=13)
    freqs = np.geomspace(300.0, 20_000.0, 21)
    grid = bf.make_focus_grid((2.6, 3.4), (-0.9, -0.1), 0.02)
    roi = an.RegionOfInterest(x_range=(2.7, 3.3), z_range=(-0.8, -0.2))

    csms = syn.synthesize_csm(scene, dnw.positions, freqs, include_absorption=False)
    maps = []
    for c in csms:
        steer = bf.steering_vectors(bf.steering_geometry(grid, dnw.positions), c.frequency)
        maps.append(bf.clean_sc(c, steer, diagonal_removal=True))
    integrated = an.maps_to_spectrum(maps, roi)

    mic_positions = [np.array([3.0, 6.0, -0.5]), np.array([4.5, 8.0, 0.5])]
    mics = []
    for pos in mic_positions:
        csm_m = syn.synthesize_csm(scene, pos[None, :], freqs, include_absorption=False)
        psd = np.array([dense_values(c)[0, 0].real for c in csm_m])
        spec = sp.Spectrum(frequencies=freqs, psd=psd)
        mics.append((spec, float(np.linalg.norm(pos - src))))
    comparison = an.farfield_compare(integrated, mics)
    assert np.abs(comparison.delta_psd_db).max() <= 1.0
    # the paper-measured <= 5 dB shear-flow bound is not asserted here


@criterion(11, "acquisition chain: bit-exact packets, exact gap ranges, SINAD >= 60 dB, 64x rate")
def test_criterion_11_acquisition(rng):
    # rate bookkeeping: 1 s of PDM -> 48000 PCM samples
    silent, _ = acq.pdm_modulate(np.zeros(3_072_000))
    assert len(silent) == 3_072_000
    pcm = acq.pdm_decimate(silent)
    assert len(pcm) == 48_000

    # packet codec under reordering + exact gap localization
    bits = np.array([rng.integers(0, 2, 4096, dtype=np.uint8) for c in range(200)], dtype=bool)
    packets = acq.packetize(bits, fpga_id=1)
    rng.shuffle(packets)
    out, gaps = acq.depacketize(packets)
    assert not gaps
    assert all(np.array_equal(a, b) for a, b in zip(bits, out[1]))
    dropped = [p for p in acq.packetize(bits, fpga_id=1) if p.sequence != 5]
    _, gaps = acq.depacketize(dropped, allow_gaps=True)
    assert [(g.first_sequence, g.last_sequence, g.start_sample, g.end_sample) for g in gaps] == [
        (5, 5, 5 * 512, 6 * 512)
    ]

    # -6 dBFS 1 kHz sine round trip
    t = np.arange(int(acq.PDM_RATE * 0.5)) / acq.PDM_RATE
    y = acq.pdm_decimate(acq.pdm_modulate(0.5 * np.sin(2 * np.pi * 1000.0 * t))[0]) * (1.0 / acq.PCM_FULL_SCALE_CODE)
    amp, resid = sine_fit(y[2000:-2000], 1000.0, acq.PCM_RATE)
    sinad = db((amp**2 / 2) / np.mean(resid**2))
    assert sinad >= 60.0


@criterion(12, "Amiet correction: M=0 within 1e-9 s, grid-search match 1e-7 s, monotone M->0")
def test_criterion_12_amiet():
    src = np.array([2.4, 0.0, 0.0])
    rcv = np.array([3.0, 3.39, 0.0])

    def medium(mach):
        return prop.MediumModel(
            mach_vector=[mach, 0.0, 0.0],
            shear_layer=prop.ShearLayerPlane(point=[0.0, 1.5, 0.0], normal=[0.0, 1.0, 0.0]),
        )

    def amiet(med):
        return prop.shear_crossing_delays(src[None], rcv[None], med)[0][0]

    no_flow = amiet(medium(0.0))
    assert abs(no_flow - np.linalg.norm(rcv - src) / 343.0) <= 1e-9

    m02 = medium(0.2)
    corrected = amiet(m02)
    assert abs(corrected - fermat_grid_oracle(src, rcv, m02)) <= 1e-7

    gaps = []
    for mach in (0.1, 0.01, 0.001):
        med = medium(mach)
        gap = abs(amiet(med) - prop.convected_delays(src, rcv, med))
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]
