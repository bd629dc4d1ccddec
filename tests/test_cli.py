import csv
import dataclasses
import json
import os
import subprocess
import sys
import typing

import numpy as np
import pytest

from oracles import dense_values, map_csv_oracle, pdm_decimate_oracle, pdm_modulate_oracle

import memsarray
from memsarray import acquisition, cli
from memsarray.analysis import RegionOfInterest
from memsarray.beamforming import BeamformingMap, make_focus_grid
from memsarray.errors import ConfigError, parse
from memsarray.geometry import ArrayGeometry
from memsarray.spectral import DB_FLOOR, band_edges, load_csm_set, to_db
from memsarray.synthesis import Scene, synthesize_csm


_BROADBAND_SCENE = {
    "sources": [{"position": [3.0, 0.0, -0.5], "spectrum": {"type": "broadband", "psd": 1e-6}}],
    "seed": 4,
}


@pytest.fixture()
def scene_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_BROADBAND_SCENE))
    return str(path)


@pytest.fixture()
def geometry_file(tmp_path):
    rc = cli.main(["geometry", "--panels", "1x1", "--seed", "42", "--out", str(tmp_path / "geo")])
    assert rc == 0
    return str(tmp_path / "geo" / "geometry.json")


class TestGeometryCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "g"
        rc = cli.main(["geometry", "--panels", "1x1", "--seed", "7", "--out", str(out)])
        assert rc == 0
        geo = ArrayGeometry.load_json(out / "geometry.json")
        assert geo.sensor_count == 800
        assert (out / "geometry.csv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "geometry"
        assert "geometry.json" in manifest["outputs"]

    def test_full_panel_build(self, tmp_path):
        out = tmp_path / "g3"
        rc = cli.main(["geometry", "--panels", "3x3", "--seed", "42", "--format", "json", "--out", str(out)])
        assert rc == 0
        geo = ArrayGeometry.load_json(out / "geometry.json")
        assert geo.sensor_count == 7200


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        cfg = json.loads(json.dumps(cli.bundled_config("single_monopole")))
        cfg["beamforming"]["typo_key"] = 1
        with pytest.raises(ConfigError) as err:
            parse(cli.RunConfig, cfg, "")
        assert "typo_key" in err.value.field

    def test_missing_section_rejected(self):
        cfg = json.loads(json.dumps(cli.bundled_config("single_monopole")))
        del cfg["beamforming"]
        with pytest.raises(ConfigError):
            parse(cli.RunConfig, cfg, "")

    def test_exit_code_two(self, tmp_path):
        cfg = cli.bundled_config("single_monopole")
        cfg["unknown_section"] = {}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["pipeline", "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 2

    def test_bundled_config_is_valid(self):
        parse(cli.RunConfig, cli.bundled_config("single_monopole"), "")

    def test_null_key_is_not_given(self):
        # a "read only with" rule applies to a key given a value; beamform passes "spectral": null for an exact run
        cfg = dict(cli.bundled_config("single_monopole"), spectral=None, analysis={"band": None})
        run = parse(cli.RunConfig, cfg, "")
        assert run.spectral is None and run.analysis == cli.AnalysisConfig()


def _dataclasses_in(hint) -> set:
    """The dataclasses a type names, itself and through its fields, unions, `X | None` and tuples."""
    if dataclasses.is_dataclass(hint):
        return {hint}.union(*map(_dataclasses_in, typing.get_type_hints(hint).values()))
    return set().union(*map(_dataclasses_in, typing.get_args(hint)))


def _field_type(kind, dotted: str):
    """The type of the field `dotted` names in dataclass `kind`, through nested (maybe `X | None`) dataclasses."""
    hint = kind
    for part in dotted.split("."):
        (owner,) = [h for h in (hint, *typing.get_args(hint)) if dataclasses.is_dataclass(h)]
        hints = typing.get_type_hints(owner)
        assert part in hints, f"{owner.__name__} has no field {part!r}"
        hint = hints[part]
    return hint


def test_read_with_rules_name_fields_and_values():
    # a renamed field or Literal value must fail here, not switch its rule off
    rules = {
        f"{kind.__name__}.{f.name}": (kind, f.metadata["read_with"])
        for kind in _dataclasses_in(cli.RunConfig) | _dataclasses_in(cli.SimulateConfig)
        for f in dataclasses.fields(kind)
        if "read_with" in f.metadata
    }
    assert set(rules) == {
        "BeamformingConfig.loop_gain", "BeamformingConfig.max_iterations", "BeamformingConfig.stop_threshold",
        "AnalysisConfig.band", "RunConfig.spectral", "SimulateConfig.rate", "SimulateConfig.duration",
        "SimulateConfig.frequencies",
    }
    for where, (kind, rule) in rules.items():
        name, *wanted = (rule,) if isinstance(rule, str) else rule
        hint = _field_type(kind, name)
        for value in wanted:  # a pair's value is one its field's Literal or bool type admits
            literal = typing.get_origin(hint) is typing.Literal and value in typing.get_args(hint)
            assert literal or (hint is bool and isinstance(value, bool)), f"{where}: {name} is never {value!r}"


class TestAcquireCommand:
    def test_drop_and_shuffle(self, tmp_path):
        out = tmp_path / "acq"
        rc = cli.main(
            [
                "acquire",
                "--duration", "0.004",
                "--drop", "1",
                "--shuffle",
                "--out", str(out),
            ]
        )
        assert rc == 0
        gaps = json.loads((out / "gaps.json").read_text())
        assert len(gaps) == 1
        assert gaps[0]["sequences"] == [1, 1]
        sidecar = json.loads((out / "pcm.json").read_text())
        assert sidecar["channels"] == 200
        assert sidecar["rate"] == 48_000

    @staticmethod
    def _tone(tone, amplitude, n):
        """acquire's (n, 200) waveform; each block is copied before the generator reuses its buffer."""
        return np.concatenate([block.copy() for block in cli._tone_blocks(tone, amplitude, n)])

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is no wider than float64 here"
    )
    @pytest.mark.parametrize("amplitude", [0.5, 1.0])
    @pytest.mark.parametrize("tone", [1000.0, 23000.0])
    @pytest.mark.parametrize("n", [6451, 30412])
    def test_tone_within_two_eps(self, amplitude, tone, n):
        # against amplitude sin(p + o) in long double, from the float64 phases p = 2 pi tone t and offsets
        # o = 2 pi c / 200: a per-sample float64 sin rounds its argument p + o, 510 eps off at 23 kHz
        phase = 2 * np.pi * tone * (np.arange(n) / acquisition.PDM_RATE)
        offsets = 2 * np.pi * np.arange(acquisition.CHANNELS_PER_FPGA) / acquisition.CHANNELS_PER_FPGA
        a = 0
        for block in cli._tone_blocks(tone, amplitude, n):
            assert block.shape == (min(cli.ACQUIRE_BLOCK_TICKS, n - a), acquisition.CHANNELS_PER_FPGA)
            ticks = phase[a : a + len(block), None].astype(np.longdouble)
            want = np.longdouble(amplitude) * np.sin(ticks + offsets.astype(np.longdouble))
            assert np.abs(block - want).max() <= 2 * np.finfo(float).eps
            a += len(block)
        assert a == n

    def test_capture_matches_per_channel_loop(self, tmp_path):
        # 6451 ticks: lockstep blocks of 1024 leave a partial block and a partial byte
        out = tmp_path / "acq"
        argv = ["acquire", "--tone", "3100", "--amplitude", "0.7", "--duration", "0.0021", "--fpga-id", "3"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        waves = self._tone(3100.0, 0.7, int(acquisition.PDM_RATE * 0.0021))
        bits = np.array([pdm_modulate_oracle(w)[0] for w in waves.T], dtype=bool)
        expected = [p.pack() for p in acquisition.packetize(bits, fpga_id=3)]
        assert [p.pack() for p in acquisition.read_capture(out / "capture.bin")] == expected

    def test_pcm_export(self, tmp_path):
        # pcm.pcm holds each channel's decimated PDM bits as interleaved int32 columns, pcm.json describes it
        out = tmp_path / "acq"
        argv = ["acquire", "--tone", "1000", "--amplitude", "0.3", "--duration", "0.01"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        samples = int(acquisition.PDM_RATE * 0.01) // acquisition.DECIMATION
        assert json.loads((out / "pcm.json").read_text()) == {
            "channels": 200, "dtype": "int32_le", "full_scale": 1.0, "group_delay": 35.6015625,
            "interleaved": True, "rate": 48_000, "samples": samples,
        }
        pcm = np.fromfile(out / "pcm.pcm", dtype="<i4").reshape(samples, 200)
        waves = self._tone(1000.0, 0.3, int(acquisition.PDM_RATE * 0.01))
        for ch in (0, 57, 199):
            assert np.array_equal(pcm[:, ch], pdm_decimate_oracle(pdm_modulate_oracle(waves[:, ch])[0]))

    def test_gap_decodes_as_silence(self, tmp_path):
        # every channel carries a 0.5 tone; a dropped packet must not swing the PCM toward full scale
        out = tmp_path / "acq"
        assert cli.main(["acquire", "--duration", "0.02", "--drop", "60", "--out", str(out)]) == 0
        sidecar = json.loads((out / "pcm.json").read_text())
        pcm = np.fromfile(out / "pcm.pcm", dtype="<i4").reshape(-1, sidecar["channels"])
        settled = -(-acquisition.decimation_warmup_bits() // acquisition.DECIMATION)
        assert np.abs(pcm[settled:] / acquisition.PCM_FULL_SCALE_CODE).max() <= 0.6


class TestBeamformCommand:
    def test_map_outputs(self, tmp_path, scene_file, geometry_file):
        out = tmp_path / "bf"
        rc = cli.main(
            [
                "beamform",
                "--scene", scene_file,
                "--geometry", geometry_file,
                "--freqs", "2000",
                "--grid", "2.6,3.4,-0.9,-0.1,0.04",
                "--clean-sc",
                "--out", str(out),
            ]
        )
        assert rc == 0
        meta = json.loads((out / "map_2000Hz.json").read_text())
        assert meta["kind"] == "clean_sc"
        assert meta["components"]
        assert meta["stop_reason"] == "threshold"
        assert 0 < meta["iterations"] < 100
        lines = (out / "map_2000Hz.csv").read_text().splitlines()
        assert lines[0] == "x,z,psd_db"
        assert len(lines) == 21 * 21 + 1

    def test_map_csv_matches_row_loop(self, tmp_path):
        grid = make_focus_grid((2.6, 3.4), (-0.9, -0.1), 0.04, y_plane=0.0)
        values = np.random.default_rng(3).lognormal(-12.0, 4.0, grid.size)
        values[::7] = 0.0  # written as DB_FLOOR rows
        bmap = BeamformingMap(frequency=2000.0, values=values, grid=grid)
        (path,) = cli.save_map(str(tmp_path), bmap, ("csv",))
        text = open(path, "rb").read().decode("utf-8")
        assert text == map_csv_oracle(bmap)
        assert text.count(f",{DB_FLOOR!r}\n") == len(values[::7])

    def test_raw_map_is_the_csv_map_in_float32(self, tmp_path, scene_file, panel_geometry):
        # map_<f>Hz.raw: little-endian float32 in FocusGrid.local order, x-major (ix * nz + iz)
        out = tmp_path / "bf"
        argv = ["beamform", "--scene", scene_file, "--geometry", panel_geometry, "--freqs", "2000",
                "--grid", "2.6,3.4,-0.9,-0.1,0.04", "--format", "csv,json,bin", "--out", str(out)]
        assert cli.main(argv) == 0
        shape = tuple(json.loads((out / "map_2000Hz.json").read_text())["shape"])
        raw = np.fromfile(out / "map_2000Hz.raw", dtype="<f4").reshape(shape)
        rows = np.loadtxt(out / "map_2000Hz.csv", delimiter=",", skiprows=1)
        x, z, psd_db = (col.reshape(shape) for col in rows.T)
        assert shape == (21, 21)
        assert (np.diff(x, axis=0) > 0).all() and (np.diff(x, axis=1) == 0).all()
        assert (np.diff(z, axis=1) > 0).all() and (np.diff(z, axis=0) == 0).all()
        assert np.abs(to_db(raw.astype(float)) - psd_db).max() <= 1e-6  # float32 rounds by <= 6e-8 relative

    def test_dnw_like_runs_140_sensors(self, tmp_path, scene_file):
        gout = tmp_path / "geo3"
        cli.main(["geometry", "--panels", "3x3", "--seed", "42", "--format", "json", "--out", str(gout)])
        out = tmp_path / "bf140"
        rc = cli.main(
            [
                "beamform",
                "--scene", scene_file,
                "--geometry", str(gout / "geometry.json"),
                "--subarray", "dnw_like",
                "--freqs", "4000",
                "--grid", "2.7,3.3,-0.8,-0.2,0.05",
                "--out", str(out),
            ]
        )
        assert rc == 0
        meta = json.loads((out / "map_4000Hz.json").read_text())
        assert meta["n_sensors"] == 140


class TestPipelineCommand:
    def test_bundled_run_and_rerun_identical(self, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            rc = cli.main(["pipeline", "--config", "bundled:single-monopole", "--out", str(out)])
            assert rc == 0
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "run"
        cli.main(["pipeline", "--config", "bundled:single-monopole", "--out", str(out)])
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "pipeline"
        assert manifest["seed"] == 7
        assert manifest["package"]["memsarray"]
        assert any(k.startswith("beamforming/map_") for k in manifest["outputs"])
        assert "analysis/roi_spectrum.csv" in manifest["outputs"]

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_manifest_seed_is_the_scene_seed(self, tmp_path, seed):
        # --seed sets the run config's seed, which synthesis does not read: the manifest names the scene's seed
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", "bundled:single-monopole", "--seed", seed, "--out", str(out)]) == 0
        assert json.loads((out / "run_manifest.json").read_text())["seed"] == 7

    def test_manifest_hashes_the_geometry_file(self, tmp_path):
        # one config naming one geometry.load path, whose file holds another array build in the second run
        geo_dir = tmp_path / "geo"
        grid = {"x_range": [2.6, 3.4], "z_range": [-0.9, -0.1], "spacing": 0.08}
        inputs = []
        for seed in ("42", "43"):
            assert cli.main(["geometry", "--panels", "1x1", "--seed", seed, "--out", str(geo_dir)]) == 0
            argv = _panel_pipeline(tmp_path, str(geo_dir / "geometry.json"), beamforming={"frequencies": [2e3], "grid": grid})
            assert cli.main([*argv, "--out", str(tmp_path / f"run{seed}")]) == 0
            inputs.append(json.loads((tmp_path / f"run{seed}" / "run_manifest.json").read_text())["inputs"])
        assert sorted(inputs[0]) == ["config", "config_file", "geometry"]
        assert inputs[0]["config"] == inputs[1]["config"]
        assert inputs[0]["geometry"] != inputs[1]["geometry"]

    def test_band_level_is_the_mean_level_times_the_band_width(self, tmp_path, panel_geometry):
        # one map frequency per third octave: each band level is the narrowband ROI level + 10 log10(hi - lo)
        levels = {}
        for band in (None, "third_octave"):
            argv = _panel_pipeline(
                tmp_path, panel_geometry, beamforming={"frequencies": [1000.0, 1250.0, 1600.0, 2000.0]},
                analysis={"roi": {"x_range": [2.8, 3.2], "z_range": [-0.7, -0.3]}, "band": band},
            )
            assert cli.main([*argv, "--out", str(tmp_path / str(band))]) == 0
            rows = (tmp_path / str(band) / "analysis" / "roi_spectrum.csv").read_text().splitlines()[1:]
            levels[band] = np.array([[float(v) for v in row.split(",")] for row in rows])
        centers, banded = levels["third_octave"].T
        lo, hi = band_edges(centers, "third_octave")
        assert np.allclose(centers, 1000.0 * 2.0 ** (np.arange(4) / 3), rtol=1e-15, atol=0)
        assert np.allclose(banded, levels[None][:, 1] + 10.0 * np.log10(hi - lo), rtol=0, atol=1e-9)

    def test_single_frequency_band(self, tmp_path, panel_geometry):
        argv = _panel_pipeline(
            tmp_path, panel_geometry, beamforming={"frequencies": [2000.0]},
            analysis={"roi": {"x_range": [2.8, 3.2], "z_range": [-0.7, -0.3]}, "band": "octave"},
        )
        assert cli.main([*argv, "--out", str(tmp_path / "run")]) == 0
        lines = (tmp_path / "run" / "analysis" / "roi_spectrum.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("2000.0,")
        assert "analysis/roi_spectrum.csv" in json.loads((tmp_path / "run" / "run_manifest.json").read_text())["outputs"]


class TestDirectivityCommand:
    @pytest.mark.parametrize("freqs, bands", [("2000", "2000.0"), ("1100,3000", "1000.0,4000.0")])
    def test_octave_polar_keeps_every_frequency(self, tmp_path, scene_file, geometry_file, freqs, bands):
        argv = [*CSV_RUNS["directivity"](scene_file, geometry_file), "--freqs", freqs, "--out", str(tmp_path / "run")]
        assert cli.main(argv) == 0
        lines = (tmp_path / "run" / "octave_polar.csv").read_text().splitlines()
        assert lines[0] == f"theta_deg,{bands}"
        assert len(lines) == 4

    def test_surface_outputs(self, tmp_path, geometry_file):
        # 3x1 panels would be slow through the full series; a small run suffices
        spath = tmp_path / "scene.json"
        spath.write_text(json.dumps(_BROADBAND_SCENE))
        out = tmp_path / "direc"
        rc = cli.main(
            [
                "directivity",
                "--scene", str(spath),
                "--geometry", geometry_file,
                "--roi", "2.8,3.2,-0.7,-0.3",
                "--reference", "3.0,0.0,-0.5",
                "--freqs", "2000",
                "--count", "3",
                "--mics", "60",
                "--aperture", "0.8",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "directivity.csv").read_text().splitlines()
        assert len(lines) == 4  # header + 3 angles
        meta = json.loads((out / "directivity_meta.json").read_text())
        assert len(meta["angles_deg"]) == 3

    def test_manifest_inputs_follow_the_flags(self, tmp_path, scene_file, geometry_file):
        inputs = []
        for roi in ("2.8,3.2,-0.7,-0.3", "2.8,3.2,-0.7,-0.35"):
            argv = [*CSV_RUNS["directivity"](scene_file, geometry_file), "--roi", roi, "--out", str(tmp_path / roi)]
            assert cli.main(argv) == 0
            inputs.append(json.loads((tmp_path / roi / "run_manifest.json").read_text())["inputs"])
        assert sorted(inputs[0]) == ["config", "geometry", "scene"]
        assert inputs[0]["config"] != inputs[1]["config"]
        assert [inputs[0]["scene"], inputs[0]["geometry"]] == [inputs[1]["scene"], inputs[1]["geometry"]]

    def test_rerun_identical(self, tmp_path, scene_file, geometry_file):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            argv = [*CSV_RUNS["directivity"](scene_file, geometry_file), "--out", str(out)]
            assert cli.main(argv) == 0
        files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
        assert files[0] == files[1]
        assert len(files[0]) == 4  # surface, meta, octave polar table, manifest
        for rel in files[0]:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel


class TestSimulateCommand:
    def test_timeseries_outputs_and_rerun_identical(self, tmp_path, scene_file, panel_geometry):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            argv = [
                "simulate", "--scene", scene_file, "--geometry", panel_geometry, "--mode", "timeseries",
                "--channels", "8", "--duration", "0.05", "--out", str(out),
            ]
            assert cli.main(argv) == 0
        sig = np.load(outs[0] / "timeseries.npy")
        assert sig.shape == (2400, 8)
        assert np.isfinite(sig).all()
        assert np.abs(sig).max() > 0
        meta = json.loads((outs[0] / "timeseries.json").read_text())
        assert meta == {"rate": 48_000.0, "duration": 0.05, "channels": 8}
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == ["run_manifest.json", "timeseries.json", "timeseries.npy"]
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_exact_csm_reads_back(self, tmp_path, scene_file, panel_geometry):
        argv = [
            "simulate", "--scene", scene_file, "--geometry", panel_geometry, "--mode", "csm",
            "--channels", "6", "--freqs", "1000,4000", "--out", str(tmp_path / "sim"),
        ]
        assert cli.main(argv) == 0
        back = load_csm_set(tmp_path / "sim" / "exact_csm.bin")
        positions = ArrayGeometry.load_json(panel_geometry).positions[:6]
        exact = synthesize_csm(Scene.load_json(scene_file), positions, [1000.0, 4000.0])
        assert [(c.frequency, c.units) for c in back] == [(c.frequency, c.units) for c in exact]
        for got, want in zip(back, exact):
            assert np.array_equal(dense_values(got), dense_values(want))


class TestFarfieldCommand:
    def test_comparison_output(self, tmp_path, scene_file, geometry_file):
        out = tmp_path / "ff"
        rc = cli.main(
            [
                "farfield",
                "--scene", scene_file,
                "--geometry", geometry_file,
                "--roi", "2.8,3.2,-0.7,-0.3",
                "--grid", "2.6,3.4,-0.9,-0.1,0.04",
                "--freqs", "1000,2000",
                "--mics", "3.0,6.0,-0.5;3.0,8.0,-0.5",
                "--reference", "3.0,0.0,-0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "farfield_comparison.csv").read_text().splitlines()
        assert lines[0] == "frequency,integrated_db,mic_average_db,delta_db"
        assert len(lines) == 3
        deltas = [abs(float(l.split(",")[3])) for l in lines[1:]]
        assert max(deltas) < 1.0


@pytest.fixture(scope="module")
def panel_geometry(tmp_path_factory):
    out = tmp_path_factory.mktemp("panel")
    assert cli.main(["geometry", "--panels", "1x1", "--seed", "42", "--format", "json", "--out", str(out)]) == 0
    return str(out / "geometry.json")


def _pipeline_config(tmp_path, cfg) -> list:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return ["pipeline", "--config", str(path)]


# one small run per subcommand that writes CSV files
CSV_RUNS = {
    "geometry": lambda scene, geo: ["geometry", "--panels", "1x1"],
    "beamform": lambda scene, geo: [
        "beamform", "--scene", scene, "--geometry", geo, "--freqs", "2000", "--grid", "2.6,3.4,-0.9,-0.1,0.08",
    ],
    "directivity": lambda scene, geo: [
        "directivity", "--scene", scene, "--geometry", geo, "--roi", "2.8,3.2,-0.7,-0.3", "--reference", "3.0,0.0,-0.5",
        "--freqs", "2000,4000", "--count", "3", "--mics", "60", "--aperture", "0.8", "--octave-polar",
    ],
    "farfield": lambda scene, geo: [
        "farfield", "--scene", scene, "--geometry", geo, "--roi", "2.8,3.2,-0.7,-0.3", "--grid", "2.6,3.4,-0.9,-0.1,0.08",
        "--freqs", "2000", "--mics", "3.0,6.0,-0.5", "--reference", "3.0,0.0,-0.5",
    ],
    "pipeline": lambda scene, geo: ["pipeline", "--config", "bundled:single-monopole"],
}


# the CSV files each CSV_RUNS command writes: path -> (header row, lines with the header)
CSV_TABLES = {
    "geometry": {"geometry.csv": ("id,x,y,z", 801)},
    "beamform": {"map_2000Hz.csv": ("x,z,psd_db", 11 * 11 + 1)},
    "directivity": {
        "directivity.csv": ("theta_deg,2000.0,4000.0", 4),
        "octave_polar.csv": ("theta_deg,2000.0,4000.0", 4),
    },
    "farfield": {"farfield_comparison.csv": ("frequency,integrated_db,mic_average_db,delta_db", 2)},
    "pipeline": {
        "analysis/roi_spectrum.csv": ("frequency,psd_db", 3),
        "beamforming/map_2000Hz.csv": ("x,z,psd_db", 51 * 51 + 1),
        "beamforming/map_4000Hz.csv": ("x,z,psd_db", 51 * 51 + 1),
    },
}


@pytest.mark.parametrize("command", sorted(CSV_RUNS))
def test_every_csv_field_parses_as_a_number(tmp_path, scene_file, panel_geometry, command):
    out = tmp_path / "run"
    assert cli.main(CSV_RUNS[command](scene_file, panel_geometry) + ["--out", str(out)]) == 0
    tables = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*.csv")}
    assert sorted(tables) == sorted(CSV_TABLES[command])
    for name, data in tables.items():
        assert b"\r" not in data, name  # one table format: LF line ends
        rows = list(csv.reader(data.decode("utf-8").split("\n")[:-1]))
        header, lines = CSV_TABLES[command][name]
        assert ",".join(rows[0]) == header, name
        assert len(rows) == lines, name
        for row in rows[1:]:
            [float(v) for v in row]


_MONOPOLE = {"position": [3.0, 0.0, -0.5], "spectrum": {"type": "broadband", "psd": 1e-6}}
# (path of the error, scene); a path may appear twice
BAD_SCENES = [
    ("scene.sources[0].kind", {"sources": [dict(_MONOPOLE, kind="quadrupole")]}),
    ("scene.sources[0].colour", {"sources": [dict(_MONOPOLE, colour="red")]}),
    ("scene.medium.mach", {"sources": [_MONOPOLE], "medium": {"mach": [1.2, 0.0, 0.0]}}),
    ("scene.medium.wind", {"sources": [_MONOPOLE], "medium": {"wind": 3.0}}),
    ("scene.sources[0].spectrum.type", {"sources": [dict(_MONOPOLE, spectrum={"type": "pink", "psd": 1e-6})]}),
    ("scene.sources[0].spectrum.psd", {"sources": [dict(_MONOPOLE, spectrum={"type": "broadband"})]}),
    ("scene.sources[0].spectrum.power", {
        "sources": [dict(_MONOPOLE, spectrum={"type": "tone", "frequency": 2000.0, "power": "loud"})]
    }),
    ("scene.sources[0].spectrum.bandwidth", {
        "sources": [dict(_MONOPOLE, spectrum={"type": "tone", "frequency": 2000.0, "power": 1.0, "bandwidth": 10.0})]
    }),
    ("scene.sources[0].spectrum.frequencies", {
        "sources": [dict(_MONOPOLE, spectrum={"type": "broadband", "frequencies": [0.0, 4e3, 2e3], "psd": [1e-6] * 3})]
    }),
    ("scene.sources[0].spectrum.psd[1]", {
        "sources": [dict(_MONOPOLE, spectrum={"type": "broadband", "frequencies": [0.0, 4000.0], "psd": [1e-6, -1e-6]})]
    }),
    ("scene.noise.psdd", {"sources": [_MONOPOLE], "noise": {"psdd": 1e-9}}),
    ("scene.noise.colour", {"sources": [_MONOPOLE], "noise": {"psd": 1e-9, "colour": "pink"}}),
    ("scene.noise.psd", {"sources": [_MONOPOLE], "noise": {"frequencies": [0.0, 4000.0], "psd": [1e-9]}}),
    ("scene.medium.mach", {"sources": [_MONOPOLE], "medium": {"mach": [0.1, 0.0]}}),
    ("scene.medium.shear_plane.normal", {
        "sources": [_MONOPOLE], "medium": {"shear_plane": {"point": [0.0, 1.5, 0.0], "normal": [0, 1]}}
    }),
    ("scene.sources[0].position", {"sources": [dict(_MONOPOLE, position=[3.0, 0.0])]}),
    ("scene.sources[0].axis", {"sources": [dict(_MONOPOLE, kind="dipole", axis=[0, 0, 0])]}),
    ("scene.medium.temperature", {"sources": [_MONOPOLE], "medium": {"temperature": float("nan")}}),
    ("scene.medium.speed_of_sound", {"sources": [_MONOPOLE], "medium": {"speed_of_sound": "343"}}),
    ("scene.seed", {"sources": [_MONOPOLE], "seed": "7"}),
    ("scene.seed", {"sources": [_MONOPOLE], "seed": 7.9}),
    ("scene.sources[0].position[0]", {"sources": [dict(_MONOPOLE, position=[float("nan"), 0.0, -0.5])]}),
    ("scene.medium.shear_plane.point[1]", {
        "sources": [_MONOPOLE], "medium": {"shear_plane": {"point": [0.0, float("nan"), 0.0], "normal": [0, 1, 0]}}
    }),
]


# the arguments each scene-reading command needs besides --scene and --geometry
SCENE_COMMANDS = {
    "beamform": [],
    "directivity": ["--roi", "2.8,3.2,-0.7,-0.3"],
    "farfield": ["--roi", "2.8,3.2,-0.7,-0.3", "--mics", "3.0,6.0,-0.5"],
}


_SCENE_FIELDS = [f for f, _ in BAD_SCENES]


# a path's first case is its id; a repeat appends " #2", " #3", ...
@pytest.mark.parametrize(
    "field, scene", BAD_SCENES,
    ids=[f"{f} #{_SCENE_FIELDS[:i].count(f) + 1}" if f in _SCENE_FIELDS[:i] else f for i, f in enumerate(_SCENE_FIELDS)],
)
@pytest.mark.parametrize("command", sorted(SCENE_COMMANDS) + ["pipeline"])
def test_bad_scene_is_a_config_error(tmp_path, panel_geometry, capsys, command, field, scene):
    if command == "pipeline":
        argv = _pipeline_config(tmp_path, dict(cli.bundled_config("single_monopole"), scene=scene))
    else:
        spath = tmp_path / "scene.json"
        spath.write_text(json.dumps(scene))
        argv = [command, "--scene", str(spath), "--geometry", panel_geometry] + SCENE_COMMANDS[command]
    assert cli.main(argv + ["--out", str(tmp_path / "run")]) == 2
    assert f"config error at {field}:" in capsys.readouterr().err


# sections that replace the bundled config's before a case sets its key
_REJECTED_KEY_SECTIONS = {
    "subarray.aperture": {"subarray": {"strategy": "freq_dependent"}},
    "subarray.mics": {"subarray": {"strategy": "explicit", "indices": [0, 1, 2]}},
    "subarray.epsilon": {"subarray": {"strategy": "explicit", "indices": [0, 1, 2]}},
    "subarray.indices": {"subarray": {"strategy": "explicit"}},
    "analysis.band": {"analysis": {}},
    "spectral.overlap": {"beamforming": dict(cli.bundled_config("single_monopole")["beamforming"], estimator="welch")},
}


@pytest.mark.parametrize(
    "field, value",
    [
        # keys nothing reads
        ("name", "single-monopole"),
        ("subarray.count", 13),
        ("analysis.reference_point", [3.0, 0.0, -0.5]),
        ("analysis.farfield_mics", [[3.0, 6.0, -0.5]]),
        # wrong types and values
        ("seed", 7.5),
        ("beamforming.clean_sc", "yes"),
        ("beamforming.grid.x_range", [2.5]),
        ("beamforming.estimator", "Welch"),
        ("outputs.formats", ["csv", "png"]),
        # keys the chosen sub-array strategy does not read, and bad sensor indices
        ("subarray.strategy", "ring"),
        ("subarray.aperture", 1.5),
        ("subarray.d_ref", 5.5),
        ("subarray.mics", 140),
        ("subarray.epsilon", 0.1),
        ("subarray.indices", [0, 1, 1]),
        ("subarray.indices", [0, 7200]),
        ("subarray.indices", [-1, 0]),
        # sections and keys nothing reads with these settings
        ("spectral", {"block": 512}),
        ("analysis.band", "octave"),
        # frequencies whose maps would share one file name
        ("beamforming.frequencies", [2000.2, 2000.4]),
        ("beamforming.frequencies", [2000.0, 2000.0]),
        # values outside their domain
        ("beamforming.frequencies", [-2000.0]),
        ("beamforming.frequencies", []),
        ("beamforming.grid.spacing", 0.0),
        ("beamforming.grid.x_range", [4.0, 2.0]),
        ("subarray.epsilon", 0.0),
        ("beamforming.loop_gain", 2.0),
        ("beamforming.max_iterations", -1),
        ("beamforming.stop_threshold", -1.0),
        ("geometry.generate.panels_x", 0),
        ("analysis.roi.z_range", [-0.3, -0.7]),
        ("spectral.overlap", 1.0),
        ("spectral.block", 48_001),
        ("spectral.window", "bogus"),
        # non-finite focus plane and grid rotation
        ("beamforming.grid.y_plane", float("nan")),
        ("beamforming.grid.aoa", float("nan")),
        ("beamforming.grid.delta_angle", float("inf")),
        # an overlap whose hop, round(1024 x 0.0001), is no sample
        ("spectral.overlap", 0.9999),
    ],
)
def test_rejected_key_exits_two_with_its_path(tmp_path, capsys, field, value):
    cfg = cli.bundled_config("single_monopole")
    cfg.update(_REJECTED_KEY_SECTIONS.get(field, {}))
    _reject(tmp_path, capsys, cfg, field, value)


# apart from the cases above, whose loop_gain etc. stay on the bundled clean_sc: true to test their domain checks
@pytest.mark.parametrize("key, value", [("loop_gain", 0.5), ("max_iterations", 7), ("stop_threshold", 0.2)])
def test_clean_sc_key_without_clean_sc_exits_two(tmp_path, capsys, key, value):
    cfg = cli.bundled_config("single_monopole")
    cfg["beamforming"]["clean_sc"] = False
    assert "read only with clean_sc" in _reject(tmp_path, capsys, cfg, f"beamforming.{key}", value)


def _reject(tmp_path, capsys, cfg, field, value) -> str:
    """The error of a pipeline run of `cfg` with `field` set to `value`, which must exit 2 at `field` and write no map."""
    *heads, last = field.split(".")
    node = cfg
    for head in heads:
        node = node.setdefault(head, {})
    node[last] = value
    assert cli.main(_pipeline_config(tmp_path, cfg) + ["--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert f"config error at {field}" in err
    assert not list(tmp_path.rglob("map_*"))
    return err


class TestWelchEstimator:
    ARGS = ["--estimator", "welch", "--duration", "0.25", "--clean-sc", "--grid", "2.6,3.4,-0.9,-0.1,0.08"]

    def test_maps_at_the_nearest_bins(self, tmp_path, scene_file, panel_geometry):
        out = tmp_path / "bf"
        argv = ["beamform", "--scene", scene_file, "--geometry", panel_geometry, "--freqs", "2000,4000"]
        assert cli.main(argv + self.ARGS + ["--out", str(out)]) == 0
        # 1024-point blocks at 48 kHz: bins every 46.875 Hz
        assert sorted(p.name for p in out.glob("map_*.json")) == ["map_2016Hz.json", "map_3984Hz.json"]
        meta = json.loads((out / "map_2016Hz.json").read_text())
        assert meta["frequency"] == 2015.625
        # the strongest CLEAN-SC component sits on the source cell (3.0, -0.5) of the 11 x 11 grid
        cell, _ = max(meta["components"], key=lambda c: c[1])
        assert cell == 5 * 11 + 5

    def test_frequencies_sharing_a_bin_rejected(self, tmp_path, scene_file, panel_geometry, capsys):
        out = tmp_path / "bf"
        argv = ["beamform", "--scene", scene_file, "--geometry", panel_geometry, "--freqs", "125,160"]
        assert cli.main(argv + self.ARGS + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "beamforming.frequencies" in err
        assert "125.0 Hz and 160.0 Hz share the 140.625 Hz Welch bin" in err
        assert not list(out.glob("map_*"))

    def test_pipeline_frequencies_sharing_a_bin_rejected_before_any_output(self, tmp_path, panel_geometry, capsys):
        cfg = cli.bundled_config("single_monopole")
        cfg["beamforming"].update(estimator="welch", frequencies=[125.0, 160.0])
        out = tmp_path / "run"
        assert cli.main(_panel_pipeline(tmp_path, panel_geometry, beamforming=cfg["beamforming"]) + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error at beamforming.frequencies: 125.0 Hz and 160.0 Hz share")
        assert not (out / "geometry").exists()


def test_beamform_negative_frequency_is_a_config_error(tmp_path, scene_file, panel_geometry, capsys):
    argv = ["beamform", "--scene", scene_file, "--geometry", panel_geometry, "--freqs=-2000"]
    assert cli.main(argv + ["--out", str(tmp_path / "bf")]) == 2
    assert "config error at beamforming.frequencies[0]:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("map_*"))


_SHEAR_SCENE = {
    "sources": [{"position": [3.0, 0.0, -0.5], "spectrum": {"type": "broadband", "psd": 1e-6}}],
    "medium": {"mach": [0.2, 0.0, 0.0], "shear_plane": {"point": [0.0, 1.5, 0.0], "normal": [0.0, 1.0, 0.0]}},
    "seed": 3,
}


def _shear_config(subarray: dict) -> dict:
    return dict(
        cli.bundled_config("single_monopole"),
        scene=_SHEAR_SCENE,
        subarray=subarray,
        beamforming={
            "frequencies": [2000.0, 4000.0, 8000.0],
            "grid": {"x_range": [2.8, 3.2], "z_range": [-0.7, -0.3], "spacing": 0.1},
            "include_absorption": True,
        },
    )


@pytest.mark.parametrize(
    "subarray, grid_solves",
    [
        ({"strategy": "dnw_like", "mics": 60}, 1),
        ({"strategy": "freq_dependent", "mics": 60}, 3),
        pytest.param(None, 3, id="directivity-3"),  # `directivity --count 3`: 3 pitch sub-arrays
    ],
)
def test_travel_times_solved_once_per_subarray(tmp_path, monkeypatch, panel_geometry, subarray, grid_solves):
    from memsarray import propagation
    from memsarray.geometry import pitch_subarray_series

    solved = []  # source-receiver shape of each Amiet call
    original = propagation.shear_crossing_delays

    def counting(sources, receivers, medium, **kwargs):
        solved.append(np.broadcast_shapes(np.shape(sources)[:-1], np.shape(receivers)[:-1]))
        return original(sources, receivers, medium, **kwargs)

    monkeypatch.setattr(propagation, "shear_crossing_delays", counting)
    out = tmp_path / "run"
    if subarray is None:
        scene = tmp_path / "shear_scene.json"
        scene.write_text(json.dumps(_SHEAR_SCENE))
        argv = [
            "directivity", "--scene", str(scene), "--geometry", panel_geometry, "--roi", "2.9,3.1,-0.6,-0.4",
            "--count", "3", "--mics", "60", "--freqs", "2000,4000,8000",
        ]
        pitch = pitch_subarray_series(ArrayGeometry.load_json(panel_geometry), 3, 2.0, 60, 0.1)
        sizes, points = [sub.size for sub in pitch], 21 * 21  # the ROI +-0.1 m at 0.02 m
    else:
        argv = _pipeline_config(tmp_path, _shear_config(subarray))
        sizes, points = [60] * grid_solves, 5 * 5
    assert cli.main(argv + ["--out", str(out)]) == 0
    if subarray is None:
        gamma = list(csv.reader((out / "directivity.csv").read_text().splitlines()))
        assert [len(row) for row in gamma] == [4] * 4  # theta and 3 frequencies, a header and 3 angles
    else:
        assert len(list((out / "beamforming").glob("map_*.json"))) == 3
    # per sub-array, not per frequency: every sensor to the grid, the grid to
    # the array reference, and the one source to every sensor
    assert len(sizes) == grid_solves
    assert sorted(solved) == sorted(shape for m in sizes for shape in [(m, points), (points,), (m,)])


# `beamform` and `farfield` have no --jobs; `pipeline` accepts `--jobs 1` only, for the benchmark's argv
@pytest.mark.parametrize(
    "command, jobs", [("beamform", "1"), ("farfield", "1"), ("pipeline", "0"), ("pipeline", "2"), ("pipeline", "1")]
)
def test_jobs_flag(tmp_path, scene_file, panel_geometry, command, jobs):
    run = CSV_RUNS[command](scene_file, panel_geometry)
    out = tmp_path / "run"
    if (command, jobs) == ("pipeline", "1"):
        plain = tmp_path / "plain"
        assert cli.main([*run, "--jobs", jobs, "--out", str(out)]) == 0
        assert cli.main([*run, "--out", str(plain)]) == 0
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert len(files) == 7  # geometry, 2 maps x (csv, json), ROI spectrum, manifest
        assert files == {p.relative_to(plain): p.read_bytes() for p in plain.rglob("*") if p.is_file()}
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main([*run, "--jobs", jobs, "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()


_IMPORT_GUARD = """
import json, sys
import memsarray, memsarray.cli
for argv in json.loads(sys.argv[1]):
    assert memsarray.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("scipy.signal", "scipy.spatial")))))
"""


def test_exact_runs_load_neither_scipy_signal_nor_spatial(tmp_path, scene_file, panel_geometry):
    # a fresh interpreter: this test process has scipy.signal loaded already
    runs = [
        [*CSV_RUNS[c](scene_file, panel_geometry), "--out", str(tmp_path / c)] for c in ("geometry", "beamform", "directivity")
    ]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(memsarray.__file__))}
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_GUARD, json.dumps(runs)], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(run.stdout.splitlines()[-1]) == []


# the flags each command needs to run; a case's flags come after them, and the last of a repeated flag wins
_FLAG_BASES = {
    "simulate": lambda scene, geo: ["--scene", scene, "--geometry", geo],
    "directivity": lambda scene, geo: ["--scene", scene, "--geometry", geo, "--roi", "2.8,3.2,-0.7,-0.3"],
    "beamform": lambda scene, geo: ["--scene", scene, "--geometry", geo, "--grid", "2.6,3.4,-0.9,-0.1,0.08"],
    "geometry": lambda scene, geo: ["--panels", "1x1"],
    "acquire": lambda scene, geo: [],
    "farfield": lambda scene, geo: [
        "--scene", scene, "--geometry", geo, "--roi", "2.8,3.2,-0.7,-0.3", "--grid", "2.6,3.4,-0.9,-0.1,0.08",
        "--freqs", "2000", "--mics", "3.0,6.0,-0.5",
    ],
}
BAD_FLAGS = [
    ("simulate", ["--mode", "csm", "--freqs=-2000"], "frequencies[0]"),
    ("simulate", ["--freqs", "abc"], "frequencies[0]"),
    ("simulate", ["--rate", "0"], "rate"),
    ("simulate", ["--channels", "-3"], "channels"),
    ("directivity", ["--freqs=-2000"], "frequencies[0]"),
    ("directivity", ["--freqs", "2000,2000"], "frequencies"),
    ("directivity", ["--mics", "1"], "mics"),
    ("directivity", ["--epsilon", "0"], "epsilon"),
    ("directivity", ["--epsilon", "1e-6"], "epsilon"),  # a pitch sub-array of fewer than 2 sensors
    ("directivity", ["--count", "1"], "count"),
    ("directivity", ["--roi", "2.8,3.2"], "roi.z_range"),
    ("directivity", ["--roi", "3.2,2.8,-0.7,-0.3"], "roi.x_range"),
    ("directivity", ["--reference", "1,2"], "reference"),
    ("directivity", ["--reference", "NaN,0,0"], "reference[0]"),
    ("beamform", ["--format", "xml"], "outputs.formats[0]"),
    ("beamform", ["--format", ""], "outputs.formats"),
    ("beamform", ["--format", "bin"], "outputs.formats"),  # a raw map's shape is in its map JSON
    ("beamform", ["--grid", "1,2,3"], "beamforming.grid.z_range"),
    ("beamform", ["--estimator", "welch", "--freqs", "10"], "beamforming.frequencies[0]"),
    ("beamform", ["--estimator", "welch", "--freqs", "2000,30000"], "beamforming.frequencies[1]"),
    # a flag the run does not read is an error, not ignored
    ("beamform", ["--block", "512"], "spectral"),  # the exact estimator reads no Welch setting
    ("beamform", ["--overlap", "0.25"], "spectral"),
    ("beamform", ["--duration", "0.5"], "spectral"),
    ("beamform", ["--band", "octave", "--freqs", "2000"], "beamforming.frequencies"),  # the band centers replace it
    ("beamform", ["--band-range", "1000,4000"], "band_range"),  # read only with --band
    ("beamform", ["--band", "octave", "--band-range", "1100,1200"], "band_range"),  # holds no octave center
    ("beamform", ["--loop-gain", "0.5"], "beamforming.loop_gain"),  # read only with --clean-sc
    ("beamform", ["--max-iter", "50"], "beamforming.max_iterations"),
    ("simulate", ["--mode", "timeseries", "--freqs", "2000"], "frequencies"),  # csm mode only
    ("simulate", ["--mode", "csm", "--rate", "96000"], "rate"),  # timeseries mode only
    ("simulate", ["--mode", "csm", "--duration", "0.5"], "duration"),
    ("geometry", ["--panels", "3"], "panels"),
    ("geometry", ["--panels", "0x3"], "panels_x"),
    ("geometry", ["--format", "xml"], "format[0]"),
    ("geometry", ["--format", ""], "format"),
    ("geometry", ["--format", "csv"], "format"),  # geometry.json is always written
    ("acquire", ["--drop", "a"], "drop[0]"),
    ("acquire", ["--duration", "0"], "duration"),
    ("acquire", ["--duration", "0.0001"], "duration"),
    ("acquire", ["--fpga-id", "70000"], "fpga_id"),
    ("acquire", ["--amplitude", "nan"], "amplitude"),
    ("acquire", ["--amplitude", "3"], "amplitude"),
    ("acquire", ["--tone", "2000000"], "tone"),
    ("acquire", ["--tone=-1000"], "tone"),
    ("acquire", ["--tone", "nan"], "tone"),
    ("farfield", ["--mics", "3,6"], "mics[0]"),
    ("farfield", ["--mics", "NaN,3,-0.5"], "mics[0][0]"),
    ("farfield", ["--reference", "NaN,0,0"], "reference[0]"),
    ("farfield", ["--reference", "3.0,6.0,-0.5"], "mics[0]"),
    ("farfield", ["--mics", "3.0,0.0,-0.5"], "mics[0]"),  # on the scene's source
    ("farfield", ["--roi", "5.0,6.0,5.0,6.0"], "analysis.roi"),
    ("farfield", ["--roi", "2.61,2.62,-0.55,-0.45", "--grid", "2.6,3.4,-0.9,-0.1,0.04"], "analysis.roi"),
]


@pytest.mark.parametrize("command, flags, field", BAD_FLAGS, ids=[" ".join([c, *f]) for c, f, _ in BAD_FLAGS])
def test_bad_flag_exits_two_with_its_path(tmp_path, scene_file, panel_geometry, capsys, command, flags, field):
    argv = [command, *_FLAG_BASES[command](scene_file, panel_geometry), *flags, "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 2
    assert f"config error at {field}:" in capsys.readouterr().err
    for pattern in ("map_*", "*.csv", "*.npy", "*.bin", "*.pcm"):
        assert not list(tmp_path.rglob(pattern)), pattern


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["simulate", "--scene", "s.json", "--geometry", "g.json"], cli.SimulateConfig(scene="s.json", geometry="g.json")),
        (["acquire"], cli.AcquireConfig()),
        (
            ["directivity", "--scene", "s.json", "--geometry", "g.json", "--roi", "2.8,3.2,-0.7,-0.3"],
            cli.DirectivityConfig(
                scene="s.json", geometry="g.json", roi=RegionOfInterest(x_range=(2.8, 3.2), z_range=(-0.7, -0.3))
            ),
        ),
    ],
    ids=["simulate", "acquire", "directivity"],
)
def test_flag_defaults_are_the_config_defaults(argv, expected):
    assert cli.config_from_flags(type(expected), cli.build_parser().parse_args(argv)) == expected


def test_clamped_bands_share_one_subarray(full_array):
    # below f_ref and above F_MAX the freq_dependent aperture clamps: one sampling serves those bands
    spec = cli.FreqDependentSubarray(strategy="freq_dependent")
    subarrays = cli._distinct_subarrays(full_array, spec, [500.0, 800.0, 1000.0, 2000.0, 16000.0, 20000.0])
    assert [freqs for _, freqs in subarrays] == [[500.0, 800.0, 1000.0], [2000.0], [16000.0, 20000.0]]
    [(alone, _)] = cli._distinct_subarrays(full_array, spec, [800.0])
    assert np.array_equal(subarrays[0][0].indices, alone.indices)


def _panel_pipeline(tmp_path, geo, **sections) -> list:
    """`pipeline` on the bundled config with the 1x1 panel and `sections` swapped in."""
    cfg = cli.bundled_config("single_monopole")
    cfg.update({"geometry": {"load": geo}, **sections})
    return _pipeline_config(tmp_path, cfg)


def _config_text(tmp_path, text) -> list:
    path = tmp_path / "config.json"
    path.write_text(text)
    return ["pipeline", "--config", str(path)]


def _tone_scene(tmp_path, frequency) -> str:
    path = tmp_path / "tone_scene.json"
    source = {"position": [3.0, 0.0, -0.5], "spectrum": {"type": "tone", "frequency": frequency, "power": 1e-4}}
    path.write_text(json.dumps({"sources": [source], "seed": 4}))
    return str(path)


def _missing(tmp_path) -> str:
    return str(tmp_path / "missing.json")


def _altered_geometry(tmp_path, geo, alter) -> str:
    """A copy of the geometry file `geo` with `alter` applied to its JSON object."""
    with open(geo, encoding="utf-8") as fh:
        data = json.load(fh)
    alter(data)
    path = tmp_path / "altered_geometry.json"
    path.write_text(json.dumps(data))
    return str(path)


def _old_geometry_format(data):
    """Rewrite `data` in place as the earlier geometry format: per-sensor objects, a plane and meta."""
    positions = data.pop("positions")
    data["sensors"] = [
        {"id": i, "x": x, "y": y, "z": z, "panel": 0, "pcb": i // 50, "design": 0}
        for i, (x, y, z) in enumerate(positions)
    ]
    data["plane"] = {"origin": data.pop("origin"), "normal": [0.0, -1.0, 0.0]}
    data["meta"] = {"extent": data.pop("extent"), "seed": data.pop("seed")}


# runs that start but cannot finish: (id, argv before --out, exit code, stderr prefix)
FAILING_RUNS = [
    *(
        (f"{command} missing geometry", lambda t, s, g, c=command: [c, *_FLAG_BASES[c](s, _missing(t))], 2,
         "config error at geometry:")
        for command in ("beamform", "simulate", "directivity")
    ),
    ("beamform scene as geometry", lambda t, s, g: ["beamform", *_FLAG_BASES["beamform"](s, s)], 2,
     "config error at geometry:"),
    *(
        (f"{command} geometry {name}", lambda t, s, g, c=command, a=alter: [c, *_FLAG_BASES[c](s, _altered_geometry(t, g, a))],
         2, "config error at geometry:")
        for command in ("beamform", "directivity")
        for name, alter in (
            ("with a NaN coordinate", lambda d: d["positions"][0].__setitem__(0, float("nan"))),
            ("without sensors", lambda d: d.update(positions=[])),
            ("with a string coordinate", lambda d: d["positions"][0].__setitem__(0, "1.0")),
            ("with a boolean coordinate", lambda d: d["positions"][0].__setitem__(0, True)),
            ("with a two-number position", lambda d: d["positions"][0].pop()),
            ("with an unknown top-level key", lambda d: d.update(extra=1)),
            ("without origin", lambda d: d.pop("origin")),
            ("with a NaN origin", lambda d: d["origin"].__setitem__(1, float("nan"))),
            ("with a three-number extent", lambda d: d["extent"].append(1.0)),
            ("with a fractional seed", lambda d: d.update(seed=1.5)),
            ("with two sensors at one position", lambda d: d["positions"].__setitem__(1, d["positions"][0])),
            ("in the old sensors/plane/meta format", _old_geometry_format),
        )
    ),
    ("pipeline missing config", lambda t, s, g: ["pipeline", "--config", _missing(t)], 2, "config error at config:"),
    ("pipeline non-JSON config", lambda t, s, g: _config_text(t, "{not json"), 2, "config error at config:"),
    ("pipeline bundled:nope", lambda t, s, g: ["pipeline", "--config", "bundled:nope"], 2, "config error at config:"),
    ("pipeline missing geometry.load", lambda t, s, g: _panel_pipeline(t, _missing(t)), 2, "config error at geometry:"),
    ("beamform empty sub-array", lambda t, s, g: ["beamform", *_FLAG_BASES["beamform"](s, g), "--epsilon", "0.0001"], 2,
     "config error at subarray.epsilon:"),
    ("pipeline empty sub-array", lambda t, s, g: _panel_pipeline(t, g, subarray={"epsilon": 0.0001}), 2,
     "config error at subarray.epsilon:"),
    ("pipeline NaN sub-array center", lambda t, s, g: _panel_pipeline(t, g, subarray={"center": [float("nan"), -0.5]}),
     2, "config error at subarray.epsilon:"),
    *(
        (f"acquire --drop {drop}", lambda t, s, g, d=drop: ["acquire", "--duration", "0.0016", "--drop", d], 2,
         f"config error at {field}:")
        for drop, field in (("9", "drop[0]"), ("10", "drop[0]"), ("0,1,2,3,4,5,6,7,8,9", "drop[9]"))
    ),
    ("directivity empty sub-arrays", lambda t, s, g: ["directivity", *_FLAG_BASES["directivity"](s, g), "--epsilon", "0.0001"],
     2, "config error at epsilon:"),
    ("simulate aliased tone", lambda t, s, g: ["simulate", *_FLAG_BASES["simulate"](_tone_scene(t, 5000.0), g), "--rate", "8000"],
     2, "config error at scene.sources[0].spectrum.frequency:"),
    ("simulate zero-sample duration", lambda t, s, g: ["simulate", *_FLAG_BASES["simulate"](s, g), "--duration", "1e-6"], 2,
     "config error at duration:"),
    *(
        (f"simulate --mode {mode} more channels than sensors",
         lambda t, s, g, mode=mode: ["simulate", *_FLAG_BASES["simulate"](s, g), "--mode", mode, "--channels", "801"], 2,
         "config error at channels:")
        for mode in ("timeseries", "csm")
    ),
]


@pytest.mark.parametrize("argv, code, prefix", [r[1:] for r in FAILING_RUNS], ids=[r[0] for r in FAILING_RUNS])
def test_failing_run_exit_code(tmp_path, scene_file, panel_geometry, capsys, argv, code, prefix):
    assert cli.main([*argv(tmp_path, scene_file, panel_geometry), "--out", str(tmp_path / "run")]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert "Traceback" not in err
    for pattern in ("*.npy", "*.bin"):
        assert not list(tmp_path.rglob(pattern)), pattern


@pytest.mark.parametrize(
    "argv",
    [
        lambda t, s, g: ["beamform", *_FLAG_BASES["beamform"](s, _missing(t))],
        lambda t, s, g: ["beamform", *_FLAG_BASES["beamform"](_missing(t), g)],
        lambda t, s, g: _panel_pipeline(t, _missing(t)),
        lambda t, s, g: _panel_pipeline(t, g, scene={"load": _missing(t)}),
    ],
    ids=["beamform missing geometry", "beamform missing scene", "pipeline missing geometry.load", "pipeline missing scene.load"],
)
def test_config_error_makes_no_output_directory(tmp_path, scene_file, panel_geometry, argv):
    out = tmp_path / "f2" / "bf"
    assert cli.main([*argv(tmp_path, scene_file, panel_geometry), "--out", str(out)]) == 2
    assert not (tmp_path / "f2").exists()


def test_unexpected_failure_names_its_type(tmp_path, scene_file, panel_geometry, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise KeyError("x")

    monkeypatch.setattr(cli, "run_beamforming", fail)
    argv = ["beamform", *_FLAG_BASES["beamform"](scene_file, panel_geometry), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: beamform: KeyError:")
    assert "Traceback" not in err
