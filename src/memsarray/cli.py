"""Command-line front end.

One executable with subcommands for each pipeline stage plus a config-driven
full run. All commands are deterministic for fixed seeds and write a run
manifest (input hashes, package versions, output hashes) next to their
outputs, so every artifact can be reproduced byte for byte.

Exit codes: 0 success, 2 configuration/schema error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources
from typing import Literal

import numpy as np
import scipy

from . import __version__, acquisition, analysis, beamforming, geometry, spectral, synthesis
from .errors import ConfigError, NumericalError, check_keys

OUTPUT_ROOT_ENV = "MEMSARRAY_OUTPUT_ROOT"


# ---------------------------------------------------------------- config


def _require(ok: bool, path: str, message: str) -> None:
    """ConfigError at `path` unless `ok`; the dataclasses below check their
    values' domains with it, so a bad value exits 2 before any stage runs."""
    if not ok:
        raise ConfigError(path, message)


def _require_positive(value: float, path: str) -> None:
    _require(0 < value < math.inf, path, f"expected a finite number > 0, got {value!r}")


def _require_range(bounds: tuple[float, float], path: str, strict: bool = False) -> None:
    lo, hi = bounds
    ordered = lo < hi if strict else lo <= hi
    _require(
        math.isfinite(lo) and math.isfinite(hi) and ordered,
        path,
        f"expected finite [low, high] with low {'<' if strict else '<='} high, got {list(bounds)!r}",
    )


@dataclass(frozen=True)
class GenerateConfig:
    panels_x: int = 3
    panels_z: int = 3
    seed: int | None = None  # None: the run's seed

    def __post_init__(self):
        _require(self.panels_x >= 1, "geometry.generate.panels_x", f"expected >= 1, got {self.panels_x!r}")
        _require(self.panels_z >= 1, "geometry.generate.panels_z", f"expected >= 1, got {self.panels_z!r}")


@dataclass(frozen=True)
class GeometryConfig:
    """The array: a generated panel tiling, or a `geometry.json` to load."""

    generate: GenerateConfig | None = None
    load: str | None = None

    def __post_init__(self):
        if (self.generate is None) == (self.load is None):
            raise ConfigError("geometry", "needs exactly one of 'generate' and 'load'")


@dataclass(frozen=True)
class DnwLikeSubarray:
    """One Fermat-spiral sub-array of fixed aperture for every frequency."""

    strategy: Literal["dnw_like"] = "dnw_like"
    mics: int = 140
    aperture: float = 1.5
    epsilon: float = 0.1
    center: tuple[float, float] | None = None  # (x, z); None: the array plane's origin

    def __post_init__(self):
        _require(self.mics >= 1, "subarray.mics", f"expected >= 1, got {self.mics!r}")
        _require_positive(self.aperture, "subarray.aperture")
        _require_positive(self.epsilon, "subarray.epsilon")


@dataclass(frozen=True)
class FreqDependentSubarray:
    """One Fermat-spiral sub-array per frequency, aperture d_ref * f_ref / f."""

    strategy: Literal["freq_dependent"]
    mics: int = 200
    d_ref: float = 5.5
    f_ref: float = 1000.0
    epsilon: float = 0.1
    center: tuple[float, float] | None = None  # (x, z); None: the array plane's origin

    def __post_init__(self):
        _require(self.mics >= 1, "subarray.mics", f"expected >= 1, got {self.mics!r}")
        _require_positive(self.d_ref, "subarray.d_ref")
        _require_positive(self.f_ref, "subarray.f_ref")
        _require_positive(self.epsilon, "subarray.epsilon")


@dataclass(frozen=True)
class ExplicitSubarray:
    """The listed sensors of the geometry."""

    strategy: Literal["explicit"]
    indices: tuple[int, ...]


# `subarray` is one of these, chosen by its `strategy` key; the first is the default
SubarrayConfig = DnwLikeSubarray | FreqDependentSubarray | ExplicitSubarray


@dataclass(frozen=True)
class GridConfig:
    x_range: tuple[float, float] = (2.0, 4.0)
    z_range: tuple[float, float] = (-1.5, 0.5)
    spacing: float = 0.02
    y_plane: float = 0.0
    delta_angle: float = 0.0
    aoa: float = 0.0

    def __post_init__(self):
        _require_range(self.x_range, "beamforming.grid.x_range")
        _require_range(self.z_range, "beamforming.grid.z_range")
        _require_positive(self.spacing, "beamforming.grid.spacing")


@dataclass(frozen=True)
class SpectralConfig:
    """Time-series synthesis and Welch settings, read by the welch estimator only."""

    block: int = 1024
    overlap: float = 0.5
    window: str = "hann"
    duration: float = 1.0
    rate: float = 48_000.0

    def __post_init__(self):
        _require(0.0 <= self.overlap < 1.0, "spectral.overlap", f"expected a number in [0, 1), got {self.overlap!r}")
        _require_positive(self.duration, "spectral.duration")
        _require_positive(self.rate, "spectral.rate")
        samples = int(round(self.rate * self.duration))
        _require(
            1 <= self.block <= samples,
            "spectral.block",
            f"expected 1 to {samples} samples (duration x rate), got {self.block!r}",
        )


@dataclass(frozen=True)
class BeamformingConfig:
    frequencies: tuple[float, ...]
    grid: GridConfig = GridConfig()
    diagonal_removal: bool = True
    clean_sc: bool = True
    loop_gain: float = 1.0
    max_iterations: int = 100
    stop_threshold: float = 1e-3
    estimator: Literal["exact", "welch"] = "exact"
    include_absorption: bool = False

    def __post_init__(self):
        _require(len(self.frequencies) > 0, "beamforming.frequencies", "expected at least one frequency")
        for i, f in enumerate(self.frequencies):
            _require_positive(f, f"beamforming.frequencies[{i}]")
        _require(
            0.0 < self.loop_gain <= 1.0, "beamforming.loop_gain", f"expected a number in (0, 1], got {self.loop_gain!r}"
        )
        _require(self.max_iterations >= 1, "beamforming.max_iterations", f"expected >= 1, got {self.max_iterations!r}")
        _require(
            0.0 <= self.stop_threshold < 1.0,
            "beamforming.stop_threshold",
            f"expected a number in [0, 1), got {self.stop_threshold!r}",
        )
        names = {}  # map file name -> requested frequency
        for f in self.frequencies:
            name = _map_name(f)
            if name in names:
                raise ConfigError("beamforming.frequencies", f"{names[name]!r} Hz and {f!r} Hz both write {name}")
            names[name] = f


@dataclass(frozen=True)
class RoiConfig:
    x_range: tuple[float, float]
    z_range: tuple[float, float]
    label: str = "roi"

    def __post_init__(self):
        _require_range(self.x_range, "analysis.roi.x_range", strict=True)
        _require_range(self.z_range, "analysis.roi.z_range", strict=True)


@dataclass(frozen=True)
class AnalysisConfig:
    roi: RoiConfig | None = None  # None: no ROI spectrum
    band: Literal["third_octave", "octave"] | None = None  # None: narrowband

    def __post_init__(self):
        if self.band is not None and self.roi is None:
            raise ConfigError("analysis.band", "integrates the ROI spectrum, so it needs analysis.roi")


@dataclass(frozen=True)
class OutputsConfig:
    formats: tuple[Literal["csv", "json", "bin"], ...] = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    """One beamforming run; `pipeline` reads it from JSON, `beamform` and
    `farfield` build it from their flags. `scene` is a scene object (see
    `Scene.from_dict`) or `{"load": path}`."""

    geometry: GeometryConfig
    scene: dict
    beamforming: BeamformingConfig
    seed: int = 0
    subarray: SubarrayConfig = DnwLikeSubarray()
    spectral: SpectralConfig | None = None  # None: the defaults; only the welch estimator reads it
    analysis: AnalysisConfig = AnalysisConfig()
    outputs: OutputsConfig = OutputsConfig()

    def __post_init__(self):
        if self.spectral is not None and self.beamforming.estimator != "welch":
            raise ConfigError("spectral", "read only by the welch estimator")


def _parse(kind, value, path: str):
    """`value` from JSON as the annotated type `kind`, or ConfigError at `path`:
    unknown keys, missing required keys and wrong types are rejected."""
    if dataclasses.is_dataclass(kind):
        fields = dataclasses.fields(kind)
        check_keys(value, {f.name for f in fields}, path)
        hints = typing.get_type_hints(kind)
        args = {}
        for f in fields:
            where = f"{path}.{f.name}" if path else f.name
            if f.name in value:
                args[f.name] = _parse(hints[f.name], value[f.name], where)
            elif f.default is dataclasses.MISSING:
                raise ConfigError(where, "missing required key")
        return kind(**args)
    origin, params = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType) and type(None) in params:  # X | None
        return None if value is None else _parse(params[0], value, path)
    if origin in (typing.Union, types.UnionType):  # dataclasses tagged by `strategy`, the first the default
        tags = {typing.get_args(typing.get_type_hints(p)["strategy"])[0]: p for p in params}
        tag = value.get("strategy", params[0].strategy) if isinstance(value, dict) else params[0].strategy
        if not isinstance(tag, str) or tag not in tags:
            raise ConfigError(f"{path}.strategy", f"expected one of {', '.join(tags)}, got {tag!r}")
        return _parse(tags[tag], value, path)
    if origin is Literal:
        if value not in params:
            raise ConfigError(path, f"expected one of {', '.join(params)}, got {value!r}")
        return value
    if origin is tuple:
        n = None if params[-1] is Ellipsis else len(params)
        if not isinstance(value, list) or n not in (None, len(value)):
            raise ConfigError(path, "expected a list" + (f" of {n} values" if n else ""))
        return tuple(_parse(params[0] if n is None else params[i], v, f"{path}[{i}]") for i, v in enumerate(value))
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(path, f"expected {kind.__name__}, got {type(value).__name__}")
    return float(value) if kind is float else value


def validate_pipeline_config(cfg: dict) -> RunConfig:
    """Typed run config from a pipeline config's JSON object."""
    return _parse(RunConfig, cfg, "")


def bundled_config(name: str) -> dict:
    with resources.files("memsarray.data").joinpath(f"{name}.json").open("r") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- manifest


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _sha256_obj(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def write_manifest(out_dir, command: str, inputs: dict, outputs: list, seed=None):
    manifest = {
        "command": command,
        "package": {"memsarray": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "seed": seed,
        "inputs": inputs,
        "outputs": {os.path.relpath(p, out_dir): _sha256(p) for p in sorted(map(str, outputs))},
    }
    path = os.path.join(out_dir, "run_manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
    return path


def _out_dir(args) -> str:
    root = os.environ.get(OUTPUT_ROOT_ENV, ".")
    out = args.out if os.path.isabs(args.out) else os.path.join(root, args.out)
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------- stages


def _load_geometry(cfg: RunConfig) -> geometry.ArrayGeometry:
    if cfg.geometry.load is not None:
        return geometry.ArrayGeometry.load_json(cfg.geometry.load)
    gen = cfg.geometry.generate
    return geometry.assemble_full_array(gen.panels_x, gen.panels_z, cfg.seed if gen.seed is None else gen.seed)


def _load_scene(spec: dict) -> synthesis.Scene:
    if "load" not in spec:
        return synthesis.Scene.from_dict(spec)
    check_keys(spec, ("load",), "scene")
    return synthesis.Scene.load_json(spec["load"])


def _build_subarray(geo, spec: SubarrayConfig, frequencies):
    """Returns {frequency: SubArray}; a strategy-independent view for the runner."""
    if spec.strategy == "freq_dependent":
        center = (geo.plane.origin[0], geo.plane.origin[2]) if spec.center is None else spec.center
        return geometry.freq_dependent_subarrays(
            geo, center, d_ref=spec.d_ref, f_ref=spec.f_ref, mics=spec.mics, bands=frequencies,
            epsilon=spec.epsilon,
        )
    if spec.strategy == "dnw_like":
        sub = geometry.dnw_like_subarray(
            geo, mics=spec.mics, aperture=spec.aperture, epsilon=spec.epsilon, center=spec.center
        )
    else:
        idx = np.asarray(spec.indices, dtype=int)
        if not len(idx) or idx.min() < 0 or idx.max() >= geo.sensor_count:
            raise ConfigError(
                "subarray.indices", f"expected one or more sensor indices within 0..{geo.sensor_count - 1}"
            )
        if len(np.unique(idx)) != len(idx):
            raise ConfigError("subarray.indices", "a sensor index appears twice")
        sub = geometry.SubArray(
            parent=geo,
            indices=idx,
            target_positions=geo.positions[idx],
            match_distances=np.zeros(len(idx)),
            epsilon=0.0,
        )
    return {float(f): sub for f in frequencies}


def _beamform_work(item):
    """Worker for per-frequency beamforming (picklable)."""
    csm, steering, bf = item
    steer = beamforming.steering_vectors(steering, csm.frequency, include_absorption=bf.include_absorption)
    if bf.clean_sc:
        return beamforming.clean_sc(
            csm, steer, steering.grid, loop_gain=bf.loop_gain, max_iterations=bf.max_iterations,
            stop_threshold=bf.stop_threshold, diagonal_removal=bf.diagonal_removal,
        )
    return beamforming.conventional_beamform(csm, steer, bf.diagonal_removal)


def run_beamforming(cfg: RunConfig, geo, scene, jobs: int = 1) -> list:
    """Maps for `beamform`, `farfield` and `pipeline`, sorted by frequency.

    CSMs and steering travel times are computed once per distinct sub-array
    for all of its frequencies; each work item carries its CSM and geometry.
    """
    bf = cfg.beamforming
    g = bf.grid
    grid = beamforming.make_focus_grid(
        g.x_range, g.z_range, g.spacing, y_plane=g.y_plane, delta_angle=g.delta_angle, aoa=g.aoa
    )
    subs = _build_subarray(geo, cfg.subarray, bf.frequencies)
    unique = {}  # id of a distinct sub-array -> (sub-array, its frequencies)
    for f, sub in subs.items():
        unique.setdefault(id(sub), (sub, []))[1].append(f)
    csm_by_freq = {}
    if bf.estimator == "welch":
        sp = cfg.spectral or SpectralConfig()
        requested = {}  # Welch bin frequency -> requested frequency
        for sub, flist in unique.values():
            sig, _ = synthesis.synthesize_timeseries(scene, sub.positions, rate=sp.rate, duration=sp.duration)
            csms = spectral.welch_csm(
                sig, sp.rate, block=sp.block, overlap=sp.overlap, window=sp.window,
                freq_range=(min(flist) - 2 * sp.rate / sp.block, max(flist) + 2 * sp.rate / sp.block),
            )
            for f in flist:
                csm = min(csms, key=lambda c: abs(c.frequency - f))
                if csm.frequency in requested:
                    raise ConfigError(
                        "beamforming.frequencies",
                        f"{requested[csm.frequency]!r} Hz and {f!r} Hz share the {csm.frequency!r} Hz Welch bin",
                    )
                requested[csm.frequency] = f
                csm_by_freq[f] = csm
    else:
        for sub, flist in unique.values():
            csm_by_freq.update(zip(flist, synthesis.synthesize_csm(scene, sub.positions, flist)))

    steering = {
        key: beamforming.steering_geometry(grid, sub.positions, scene.medium) for key, (sub, _) in unique.items()
    }
    work = [(csm_by_freq[f], steering[id(subs[f])], bf) for f in bf.frequencies]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            maps = list(pool.map(_beamform_work, work))
    else:
        maps = [_beamform_work(w) for w in work]
    return sorted(maps, key=lambda m: m.frequency)


def _map_name(frequency: float) -> str:
    return f"map_{frequency:.0f}Hz"


def save_map(out_dir, bmap, formats):
    base = os.path.join(out_dir, _map_name(bmap.frequency))
    written = []
    if "csv" in formats:
        path = base + ".csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,z,psd_db\n")
            db = spectral.to_db(bmap.values)
            for (x, z), v in zip(bmap.grid.local, db):
                fh.write(f"{float(x)!r},{float(z)!r},{float(v)!r}\n")
        written.append(path)
    if "json" in formats:
        path = base + ".json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "frequency": bmap.frequency,
                    "kind": bmap.kind,
                    "diagonal_removal": bmap.diagonal_removed,
                    "reference": "source power at 1 m, dB re 20 uPa",
                    "shape": list(bmap.grid.shape),
                    "spacing": bmap.grid.spacing,
                    "n_sensors": bmap.n_channels,
                    "components": [[int(t), float(p)] for t, p in bmap.components],
                    "n_negative": bmap.n_negative,
                },
                fh,
                sort_keys=True,
            )
        written.append(path)
    if "bin" in formats:
        path = base + ".raw"
        bmap.values.astype("<f4").tofile(path)
        written.append(path)
    return written


# ---------------------------------------------------------------- commands


def cmd_geometry(args) -> int:
    out = _out_dir(args)
    px, _, pz = args.panels.partition("x")
    geo = geometry.assemble_full_array(int(px), int(pz), args.seed)
    outputs = []
    jpath = os.path.join(out, "geometry.json")
    geo.save_json(jpath)
    outputs.append(jpath)
    if "csv" in args.format:
        cpath = os.path.join(out, "geometry.csv")
        geo.save_csv(cpath)
        outputs.append(cpath)
    write_manifest(out, "geometry", {"panels": args.panels}, outputs, seed=args.seed)
    print(f"geometry: {geo.sensor_count} sensors, extent {geo.extent[0]} m x {geo.extent[1]} m")
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    scene = synthesis.Scene.load_json(args.scene)
    geo = geometry.ArrayGeometry.load_json(args.geometry)
    positions = geo.positions
    if args.channels and args.channels < len(positions):
        positions = positions[: args.channels]
    outputs = []
    if args.mode == "timeseries":
        sig, meta = synthesis.synthesize_timeseries(scene, positions, rate=args.rate, duration=args.duration)
        npy = os.path.join(out, "timeseries.npy")
        np.save(npy, sig)
        side = os.path.join(out, "timeseries.json")
        with open(side, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True)
        outputs += [npy, side]
    else:
        freqs = [float(f) for f in args.freqs.split(",")]
        csms = synthesis.synthesize_csm(scene, positions, freqs)
        path = os.path.join(out, "exact_csm.bin")
        spectral.save_csm_set(path, csms, geometry_hash=_sha256(args.geometry))
        outputs.append(path)
    write_manifest(
        out, "simulate", {"scene": _sha256(args.scene), "geometry": _sha256(args.geometry)}, outputs, seed=scene.seed
    )
    return 0


def cmd_acquire(args) -> int:
    out = _out_dir(args)
    rng = np.random.default_rng(args.seed)
    n_bits = int(acquisition.PDM_RATE * args.duration)
    streams = []
    for ch in range(acquisition.CHANNELS_PER_FPGA):
        t = np.arange(n_bits) / acquisition.PDM_RATE
        wave = args.amplitude * np.sin(2 * np.pi * args.tone * t + 2 * np.pi * ch / acquisition.CHANNELS_PER_FPGA)
        streams.append(acquisition.pdm_modulate(wave))
    packets = acquisition.packetize(streams, fpga_id=args.fpga_id)
    if args.drop:
        dropped = set(int(s) for s in args.drop.split(","))
        packets = [p for p in packets if p.sequence not in dropped]
    if args.shuffle:
        rng.shuffle(packets)
    cap = os.path.join(out, "capture.bin")
    acquisition.write_capture(cap, packets)

    streams_by_fpga, gaps = acquisition.depacketize(acquisition.read_capture(cap), allow_gaps=True)
    blocks = [acquisition.pdm_decimate(s) for s in streams_by_fpga[args.fpga_id]]
    pcm = acquisition.write_pcm_raw(os.path.join(out, "pcm"), blocks)
    gap_path = os.path.join(out, "gaps.json")
    with open(gap_path, "w", encoding="utf-8") as fh:
        json.dump(
            [
                {
                    "fpga": g.fpga_id,
                    "sequences": [g.first_sequence, g.last_sequence],
                    "samples": [g.start_sample, g.end_sample],
                }
                for g in gaps
            ],
            fh,
            sort_keys=True,
        )
    outputs = [cap, pcm, os.path.join(out, "pcm.json"), gap_path]
    write_manifest(out, "acquire", {"tone": args.tone, "duration": args.duration}, outputs, seed=args.seed)
    print(f"acquire: {len(packets)} packets, {len(gaps)} gaps, group delay "
          f"{acquisition.decimation_group_delay()} samples")
    return 0


def cmd_beamform(args) -> int:
    out = _out_dir(args)
    if args.band:
        lo, hi = (float(v) for v in args.band_range.split(","))
        freqs = tuple(float(f) for f in spectral.band_centers(args.band, lo, hi))
    else:
        freqs = tuple(float(f) for f in args.freqs.split(","))
    # unlike pipeline and farfield, beamform makes a conventional map unless --clean-sc
    cfg = RunConfig(
        geometry=GeometryConfig(load=args.geometry),
        scene={"load": args.scene},
        beamforming=BeamformingConfig(
            frequencies=freqs,
            grid=_parse_grid(args.grid),
            diagonal_removal=args.dr == "on",
            clean_sc=args.clean_sc,
            loop_gain=args.loop_gain,
            max_iterations=args.max_iter,
            estimator=args.estimator,
        ),
        subarray=_parse(SubarrayConfig, {"strategy": args.subarray, "epsilon": args.epsilon}, "subarray"),
        spectral=(
            SpectralConfig(block=args.block, overlap=args.overlap, duration=args.duration)
            if args.estimator == "welch"
            else None
        ),
        outputs=OutputsConfig(formats=tuple(args.format.split(","))),
    )
    scene = _load_scene(cfg.scene)
    geo = _load_geometry(cfg)
    outputs = []
    for bmap in run_beamforming(cfg, geo, scene, jobs=args.jobs):
        outputs += save_map(out, bmap, cfg.outputs.formats)
    write_manifest(
        out,
        "beamform",
        {"scene": _sha256(args.scene), "geometry": _sha256(args.geometry), "config": _sha256_obj(dataclasses.asdict(cfg))},
        outputs,
        seed=scene.seed,
    )
    return 0


def _parse_grid(spec: str | None) -> GridConfig:
    if spec is None:
        return GridConfig()
    x0, x1, z0, z1, dx = (float(v) for v in spec.split(","))
    return GridConfig(x_range=(x0, x1), z_range=(z0, z1), spacing=dx)


def _parse_roi(spec: str) -> analysis.RegionOfInterest:
    x0, x1, z0, z1 = (float(v) for v in spec.split(","))
    return analysis.RegionOfInterest(x_range=(x0, x1), z_range=(z0, z1))


def cmd_directivity(args) -> int:
    out = _out_dir(args)
    scene = synthesis.Scene.load_json(args.scene)
    geo = geometry.ArrayGeometry.load_json(args.geometry)
    roi = _parse_roi(args.roi)
    reference = [float(v) for v in args.reference.split(",")]
    surface = analysis.directivity_pipeline(
        scene,
        geo,
        reference,
        roi,
        [float(f) for f in args.freqs.split(",")],
        count=args.count,
        aperture=args.aperture,
        mics=args.mics,
        epsilon=args.epsilon,
    )
    gpath = os.path.join(out, "directivity.csv")
    surface.save_csv(gpath)
    mpath = os.path.join(out, "directivity_meta.json")
    surface.save_meta(mpath)
    polar = analysis.octave_polar(surface) if args.octave_polar else None
    outputs = [gpath, mpath]
    if polar is not None:
        ppath = os.path.join(out, "octave_polar.csv")
        with open(ppath, "w", encoding="utf-8") as fh:
            fh.write("theta_deg," + ",".join(repr(float(c)) for c in polar["centers"]) + "\n")
            for a, row in zip(polar["angles"], polar["gamma_db"]):
                fh.write(repr(float(a)) + "," + ",".join(repr(float(v)) for v in row) + "\n")
        outputs.append(ppath)
    write_manifest(
        out, "directivity", {"scene": _sha256(args.scene), "geometry": _sha256(args.geometry)}, outputs, seed=scene.seed
    )
    return 0


def cmd_farfield(args) -> int:
    out = _out_dir(args)
    roi = _parse_roi(args.roi)
    freqs = tuple(float(f) for f in args.freqs.split(","))
    cfg = RunConfig(
        geometry=GeometryConfig(load=args.geometry),
        scene={"load": args.scene},
        beamforming=BeamformingConfig(
            frequencies=freqs, grid=_parse_grid(args.grid), clean_sc=True, diagonal_removal=args.dr == "on"
        ),
        subarray=_parse(SubarrayConfig, {"strategy": args.subarray}, "subarray"),
    )
    scene = _load_scene(cfg.scene)
    maps = run_beamforming(cfg, _load_geometry(cfg), scene, jobs=args.jobs)
    integrated = analysis.maps_to_spectrum(maps, roi)

    mic_specs = []
    for mic in args.mics.split(";"):
        pos = np.array([float(v) for v in mic.split(",")])
        spec = _virtual_mic_spectrum(scene, pos, freqs)
        dist = float(np.linalg.norm(pos - np.array([float(v) for v in args.reference.split(",")])))
        mic_specs.append((spec, dist))
    comparison = analysis.farfield_compare(integrated, mic_specs)
    path = os.path.join(out, "farfield_comparison.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("frequency,integrated_db,mic_average_db,delta_db\n")
        for row in zip(comparison.frequencies, comparison.integrated_db, comparison.mic_average_db, comparison.delta_psd_db):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    write_manifest(
        out, "farfield", {"scene": _sha256(args.scene), "geometry": _sha256(args.geometry)}, [path], seed=scene.seed
    )
    return 0


def _virtual_mic_spectrum(scene, position, freqs) -> spectral.Spectrum:
    csm = synthesis.synthesize_csm(scene, position[None, :], freqs)
    p = np.array([c.values[0, 0].real for c in csm])
    return spectral.Spectrum(frequencies=np.asarray(freqs, dtype=float), psd=p, units=csm[0].units)


def cmd_pipeline(args) -> int:
    if args.config.startswith("bundled:"):
        cfg = bundled_config(args.config.split(":", 1)[1].replace("-", "_"))
        cfg_hash = _sha256_obj(cfg)
    else:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        cfg_hash = _sha256(args.config)
    cfg = validate_pipeline_config(cfg)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    scene = _load_scene(cfg.scene)
    out = _out_dir(args)

    stage = "geometry"
    try:
        geo = _load_geometry(cfg)
        geo_dir = os.path.join(out, "geometry")
        os.makedirs(geo_dir, exist_ok=True)
        gpath = os.path.join(geo_dir, "geometry.json")
        geo.save_json(gpath)
        outputs = [gpath]

        stage = "beamforming"
        maps = run_beamforming(cfg, geo, scene, jobs=args.jobs)
        bf_dir = os.path.join(out, "beamforming")
        os.makedirs(bf_dir, exist_ok=True)
        for bmap in maps:
            outputs += save_map(bf_dir, bmap, cfg.outputs.formats)

        stage = "analysis"
        roi = cfg.analysis.roi
        if roi is not None:
            region = analysis.RegionOfInterest(x_range=roi.x_range, z_range=roi.z_range, label=roi.label)
            spectrum = analysis.maps_to_spectrum(maps, region)
            if cfg.analysis.band is not None:
                spectrum = spectral.band_integrate(spectrum, cfg.analysis.band)
            an_dir = os.path.join(out, "analysis")
            os.makedirs(an_dir, exist_ok=True)
            spath = os.path.join(an_dir, "roi_spectrum.csv")
            spectrum.save_csv(spath)
            outputs.append(spath)
    except ConfigError:
        raise
    except Exception as exc:
        raise NumericalError(f"stage {stage!r} failed: {exc}") from exc

    write_manifest(out, "pipeline", {"config": cfg_hash}, outputs, seed=cfg.seed)
    print(f"pipeline: {len(outputs)} artifacts in {out}")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="memsarray", description=__doc__)
    p.add_argument("--version", action="version", version=f"memsarray {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="generate the panel tiling")
    g.add_argument("--panels", default="3x3", help="PXxPZ, e.g. 3x3")
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--format", default="json,csv")
    g.add_argument("--out", default="run")
    g.set_defaults(func=cmd_geometry)

    s = sub.add_parser("simulate", help="synthesize time series or exact CSMs")
    s.add_argument("--scene", required=True)
    s.add_argument("--geometry", required=True)
    s.add_argument("--mode", choices=["timeseries", "csm"], default="timeseries")
    s.add_argument("--rate", type=float, default=48_000.0)
    s.add_argument("--duration", type=float, default=1.0)
    s.add_argument("--freqs", default="1000")
    s.add_argument("--channels", type=int, default=0)
    s.add_argument("--out", default="run")
    s.set_defaults(func=cmd_simulate)

    a = sub.add_parser("acquire", help="simulate the PDM/packet/PCM chain")
    a.add_argument("--tone", type=float, default=1000.0)
    a.add_argument("--amplitude", type=float, default=0.5)
    a.add_argument("--duration", type=float, default=0.02)
    a.add_argument("--fpga-id", type=int, default=0)
    a.add_argument("--drop", default="", help="comma-separated sequence numbers to drop")
    a.add_argument("--shuffle", action="store_true", help="randomize packet order")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out", default="run")
    a.set_defaults(func=cmd_acquire)

    b = sub.add_parser("beamform", help="beamforming maps from a scene")
    b.add_argument("--scene", required=True)
    b.add_argument("--geometry", required=True)
    b.add_argument("--subarray", default=DnwLikeSubarray.strategy, choices=["dnw_like", "freq_dependent"])
    b.add_argument("--epsilon", type=float, default=DnwLikeSubarray.epsilon)
    b.add_argument("--freqs", default="4000")
    b.add_argument("--band", choices=["third_octave", "octave"], default=None,
                   help="run at standard band centers instead of --freqs")
    b.add_argument("--band-range", default="1000,8000")
    b.add_argument("--grid", default=None, help="x0,x1,z0,z1,spacing (default: the pipeline config's grid)")
    b.add_argument("--dr", choices=["on", "off"], default="on")
    b.add_argument("--clean-sc", action="store_true")
    b.add_argument("--loop-gain", type=float, default=BeamformingConfig.loop_gain)
    b.add_argument("--max-iter", type=int, default=BeamformingConfig.max_iterations)
    b.add_argument("--estimator", choices=["exact", "welch"], default=BeamformingConfig.estimator)
    b.add_argument("--block", type=int, default=SpectralConfig.block)
    b.add_argument("--overlap", type=float, default=SpectralConfig.overlap)
    b.add_argument("--duration", type=float, default=SpectralConfig.duration)
    b.add_argument("--format", default=",".join(OutputsConfig.formats))
    b.add_argument("--jobs", type=int, default=1)
    b.add_argument("--out", default="run")
    b.set_defaults(func=cmd_beamform)

    d = sub.add_parser("directivity", help="pitch sub-array directivity surface")
    d.add_argument("--scene", required=True)
    d.add_argument("--geometry", required=True)
    d.add_argument("--roi", required=True, help="x0,x1,z0,z1")
    d.add_argument("--reference", default="2.4,0.0,0.0")
    d.add_argument("--freqs", default="2000,4000")
    d.add_argument("--count", type=int, default=13)
    d.add_argument("--aperture", type=float, default=2.0)
    d.add_argument("--mics", type=int, default=150)
    d.add_argument("--epsilon", type=float, default=0.1)
    d.add_argument("--octave-polar", action="store_true")
    d.add_argument("--out", default="run")
    d.set_defaults(func=cmd_directivity)

    f = sub.add_parser("farfield", help="beamforming vs far-field projection")
    f.add_argument("--scene", required=True)
    f.add_argument("--geometry", required=True)
    f.add_argument("--roi", required=True)
    f.add_argument("--grid", default=None, help="x0,x1,z0,z1,spacing (default: the pipeline config's grid)")
    f.add_argument("--freqs", default="1000,2000,4000")
    f.add_argument("--mics", required=True, help="semicolon-separated x,y,z positions")
    f.add_argument("--reference", default="2.4,0.0,0.0")
    f.add_argument("--subarray", default=DnwLikeSubarray.strategy, choices=["dnw_like", "freq_dependent"])
    f.add_argument("--dr", choices=["on", "off"], default="on")
    f.add_argument("--jobs", type=int, default=1)
    f.add_argument("--out", default="run")
    f.set_defaults(func=cmd_farfield)

    pl = sub.add_parser("pipeline", help="config-driven full run")
    pl.add_argument("--config", required=True, help="path or bundled:<name>")
    pl.add_argument("--seed", type=int, default=None)
    pl.add_argument("--jobs", type=int, default=1)
    pl.add_argument("--out", default="run")
    pl.set_defaults(func=cmd_pipeline)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error at {exc.field or '<root>'}: {exc.message}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
