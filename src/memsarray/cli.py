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
from dataclasses import dataclass, field
from importlib import resources
from typing import Literal

import numpy as np
import scipy

from . import __version__, acquisition, analysis, beamforming, geometry, spectral, synthesis
from .errors import (
    ConfigError, _require, _require_finite, _require_finite_each, _require_positive, _require_range, check_keys, parse,
)

OUTPUT_ROOT_ENV = "MEMSARRAY_OUTPUT_ROOT"


# ---------------------------------------------------------------- config


def _require_frequencies(frequencies: tuple[float, ...]) -> None:
    _require(len(frequencies) > 0, "frequencies", "expected at least one frequency")
    for i, f in enumerate(frequencies):
        _require_positive(f, f"frequencies[{i}]")


@dataclass(frozen=True)
class GenerateConfig:
    panels_x: int = 3
    panels_z: int = 3
    seed: int | None = None  # None: the run's seed

    def __post_init__(self):
        _require(self.panels_x >= 1, "panels_x", f"expected >= 1, got {self.panels_x!r}")
        _require(self.panels_z >= 1, "panels_z", f"expected >= 1, got {self.panels_z!r}")


@dataclass(frozen=True)
class GeometryConfig:
    """The array: a generated panel tiling, or a `geometry.json` to load."""

    generate: GenerateConfig | None = None
    load: str | None = None

    def __post_init__(self):
        if (self.generate is None) == (self.load is None):
            raise ConfigError("", "needs exactly one of 'generate' and 'load'")


@dataclass(frozen=True)
class DnwLikeSubarray:
    """One Fermat-spiral sub-array of fixed aperture for every frequency."""

    strategy: Literal["dnw_like"] = "dnw_like"
    mics: int = 140
    aperture: float = 1.5
    epsilon: float = 0.1
    center: tuple[float, float] | None = None  # (x, z); None: the array plane's origin

    def __post_init__(self):
        _require(self.mics >= 1, "mics", f"expected >= 1, got {self.mics!r}")
        _require_positive(self.aperture, "aperture")
        _require_positive(self.epsilon, "epsilon")


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
        _require(self.mics >= 1, "mics", f"expected >= 1, got {self.mics!r}")
        _require_positive(self.d_ref, "d_ref")
        _require_positive(self.f_ref, "f_ref")
        _require_positive(self.epsilon, "epsilon")


@dataclass(frozen=True)
class ExplicitSubarray:
    """The listed sensors of the geometry."""

    strategy: Literal["explicit"]
    indices: tuple[int, ...]


# `subarray` is one of these, chosen by its `strategy` key; the first is the default
SubarrayConfig = DnwLikeSubarray | FreqDependentSubarray | ExplicitSubarray
_SPIRALS = {"dnw_like": DnwLikeSubarray, "freq_dependent": FreqDependentSubarray}  # the --subarray choices


@dataclass(frozen=True)
class GridConfig:
    x_range: tuple[float, float] = (2.0, 4.0)
    z_range: tuple[float, float] = (-1.5, 0.5)
    spacing: float = 0.02
    y_plane: float = 0.0
    delta_angle: float = 0.0
    aoa: float = 0.0

    def __post_init__(self):
        _require_range(self.x_range, "x_range")
        _require_range(self.z_range, "z_range")
        _require_positive(self.spacing, "spacing")
        _require_finite(self.y_plane, "y_plane")
        _require_finite(self.delta_angle, "delta_angle")
        _require_finite(self.aoa, "aoa")


@dataclass(frozen=True)
class SpectralConfig:
    """Time-series synthesis and Welch settings, read by the welch estimator only."""

    block: int = 1024
    overlap: float = 0.5
    window: str = "hann"
    duration: float = 1.0
    rate: float = 48_000.0

    def __post_init__(self):
        _require(0.0 <= self.overlap < 1.0, "overlap", f"expected a number in [0, 1), got {self.overlap!r}")
        _require_positive(self.duration, "duration")
        _require_positive(self.rate, "rate")
        samples = int(round(self.rate * self.duration))
        _require(
            1 <= self.block <= samples,
            "block",
            f"expected 1 to {samples} samples (duration x rate), got {self.block!r}",
        )
        hop = int(round(self.block * (1.0 - self.overlap)))
        _require(hop >= 1, "overlap", f"leaves an empty hop: round({self.block} x (1 - {self.overlap!r})) is {hop} samples")
        from scipy.signal import get_window  # only the welch estimator reads this config; slow to load

        try:
            get_window(self.window, self.block)
        except ValueError as exc:
            raise ConfigError("window", f"expected a scipy.signal.get_window name: {exc}") from None


@dataclass(frozen=True)
class BeamformingConfig:
    frequencies: tuple[float, ...]
    grid: GridConfig = GridConfig()
    diagonal_removal: bool = True
    clean_sc: bool = True
    loop_gain: float = field(default=1.0, metadata={"read_with": "clean_sc"})
    max_iterations: int = field(default=100, metadata={"read_with": "clean_sc"})
    stop_threshold: float = field(default=1e-3, metadata={"read_with": "clean_sc"})
    estimator: Literal["exact", "welch"] = "exact"
    include_absorption: bool = False

    def __post_init__(self):
        _require_frequencies(self.frequencies)
        _require(0.0 < self.loop_gain <= 1.0, "loop_gain", f"expected a number in (0, 1], got {self.loop_gain!r}")
        _require(self.max_iterations >= 1, "max_iterations", f"expected >= 1, got {self.max_iterations!r}")
        _require(
            0.0 <= self.stop_threshold < 1.0,
            "stop_threshold",
            f"expected a number in [0, 1), got {self.stop_threshold!r}",
        )
        names = {}  # 1 Hz map name -> requested frequency
        for f in self.frequencies:
            name = _map_name(f)
            if name in names:
                raise ConfigError("frequencies", f"{names[name]!r} Hz and {f!r} Hz share the 1 Hz name {name}")
            names[name] = f


@dataclass(frozen=True)
class AnalysisConfig:
    roi: analysis.RegionOfInterest | None = None  # None: no ROI spectrum
    # None: narrowband
    band: Literal["third_octave", "octave"] | None = field(default=None, metadata={"read_with": "roi"})


@dataclass(frozen=True)
class OutputsConfig:
    formats: tuple[Literal["csv", "json", "bin"], ...] = ("csv", "json")

    def __post_init__(self):
        _require(len(self.formats) > 0, "formats", "expected at least one format")
        # a raw map is float32 values only; its map JSON holds its shape and frequency
        _require("bin" not in self.formats or "json" in self.formats, "formats", "'bin' needs 'json' beside it")


@dataclass(frozen=True)
class RunConfig:
    """One beamforming run; `pipeline` reads it from JSON, `beamform` and
    `farfield` build it from their flags. `scene` is a scene object (parsed
    as `synthesis.Scene`) or `{"load": path}`; `spectral` None means its defaults."""

    geometry: GeometryConfig
    scene: dict
    beamforming: BeamformingConfig
    seed: int = 0
    subarray: SubarrayConfig = DnwLikeSubarray()
    spectral: SpectralConfig | None = field(default=None, metadata={"read_with": ("beamforming.estimator", "welch")})
    analysis: AnalysisConfig = AnalysisConfig()
    outputs: OutputsConfig = OutputsConfig()

    def __post_init__(self):
        if self.beamforming.estimator == "welch":
            sp = self.spectral or SpectralConfig()
            try:
                spectral.welch_bins(self.beamforming.frequencies, sp.rate, sp.block)
            except ConfigError as exc:
                raise ConfigError(f"beamforming.{exc.field}", exc.message) from None
        roi, g = self.analysis.roi, self.beamforming.grid
        if roi is not None:
            nodes = beamforming.make_focus_grid(g.x_range, g.z_range, g.spacing).local
            _require(roi.contains(nodes).any(), "analysis.roi", "holds no node of beamforming.grid")


@dataclass(frozen=True)
class SimulateConfig:
    scene: str
    geometry: str
    mode: Literal["timeseries", "csm"] = "timeseries"
    rate: float = field(default=48_000.0, metadata={"read_with": ("mode", "timeseries")})
    duration: float = field(default=1.0, metadata={"read_with": ("mode", "timeseries")})
    frequencies: tuple[float, ...] = field(default=(1000.0,), metadata={"read_with": ("mode", "csm")})
    channels: int = 0  # the first `channels` sensors; 0: all

    def __post_init__(self):
        _require_positive(self.rate, "rate")
        _require_positive(self.duration, "duration")
        samples = round(self.rate * self.duration)
        _require(samples >= 1, "duration", f"expected at least one sample at rate {self.rate!r}, got {samples!r}")
        _require_frequencies(self.frequencies)
        _require(self.channels >= 0, "channels", f"expected >= 0, got {self.channels!r}")


@dataclass(frozen=True)
class DirectivityConfig:
    scene: str
    geometry: str
    roi: analysis.RegionOfInterest
    reference: tuple[float, float, float] = (2.4, 0.0, 0.0)
    frequencies: tuple[float, ...] = (2000.0, 4000.0)
    count: int = 13
    aperture: float = 2.0
    mics: int = 150
    epsilon: float = 0.1
    octave_polar: bool = False

    def __post_init__(self):
        _require_finite_each(self.reference, "reference")
        _require_frequencies(self.frequencies)
        _require(self.count >= 2, "count", f"expected >= 2 sub-arrays, got {self.count!r}")
        _require_positive(self.aperture, "aperture")
        _require(self.mics >= 2, "mics", f"expected >= 2 (a sub-array needs 2 sensors), got {self.mics!r}")
        _require_positive(self.epsilon, "epsilon")


@dataclass(frozen=True)
class AcquireConfig:
    tone: float = 1000.0
    amplitude: float = 0.5
    duration: float = 0.02
    fpga_id: int = 0
    drop: tuple[int, ...] = ()  # packet sequence numbers
    shuffle: bool = False
    seed: int = 0

    def __post_init__(self):
        nyquist = acquisition.PCM_RATE / 2
        _require(0 < self.tone < nyquist, "tone", f"expected > 0 and < {nyquist!r} Hz (PCM Nyquist), got {self.tone!r}")
        _require(0 <= self.amplitude <= 1, "amplitude", f"expected 0 to 1 (PDM full scale), got {self.amplitude!r}")
        shortest = acquisition.decimation_warmup_bits() / acquisition.PDM_RATE  # the decimation filters' warm-up
        _require(shortest <= self.duration < math.inf, "duration", f"expected >= {shortest!r} s, got {self.duration!r}")
        _require(0 <= self.fpga_id <= 0xFFFF, "fpga_id", f"expected 0 to 65535, got {self.fpga_id!r}")
        # a capture has no end marker, so the stream length comes from the last packet, which must arrive
        packets = -(-int(acquisition.PDM_RATE * self.duration) // acquisition.DEFAULT_FRAMES_PER_PACKET)
        for i, seq in enumerate(self.drop):
            _require(
                0 <= seq <= packets - 2,
                f"drop[{i}]",
                f"expected a sequence number from 0 to {packets - 2} (packet {packets - 1} is the last), got {seq!r}",
            )


def _flags(kind, args) -> dict:
    """The flags stored under `kind`'s field names; one given no parser default (`argparse.SUPPRESS`) only if typed."""
    names = {f.name for f in dataclasses.fields(kind)}
    return {k: v for k, v in vars(args).items() if k in names}


def config_from_flags(kind, args):
    """`kind` from its flags, parsed like a config file."""
    return parse(kind, _flags(kind, args), "")


def _flag_list(text: str) -> list:
    """A comma-separated flag as a list of its items, each read as JSON (`2000,4000` -> [2000, 4000])
    or else kept as a string (`csv,json`); `parse` checks them, so `--freqs abc` fails at `frequencies[0]`."""

    def item(v):
        try:
            return json.loads(v)
        except ValueError:
            return v

    return [item(v) for v in text.split(",")] if text else []


def _roi_flag(text: str) -> dict:
    """`x0,x1,z0,z1` as an ROI object; `parse` rejects a range of the wrong length."""
    v = _flag_list(text)
    return {"x_range": v[:2], "z_range": v[2:]}


def _grid_flag(text: str) -> dict:
    """`x0,x1,z0,z1,spacing` as a grid object."""
    *box, spacing = _flag_list(text)
    return {"x_range": box[:2], "z_range": box[2:], "spacing": spacing}


def bundled_config(name: str) -> dict:
    with resources.files("memsarray.data").joinpath(f"{name}.json").open("r") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- report files


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _sha256_obj(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _write_csv(path, header, rows) -> str:
    """A report table: the header line, then one line per row of Python numbers as `repr`, LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    return path


def _write_json(path, obj, indent=None) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=indent))  # dumps runs the C encoder, json.dump the Python one
    return path


def _write_gamma(path, columns, angles, gamma_db) -> str:
    """A Gamma table: one row per angle (deg), one column per frequency or band center."""
    rows = ([a, *g] for a, g in zip(angles.tolist(), gamma_db.tolist()))
    return _write_csv(path, ["theta_deg", *map(repr, columns.tolist())], rows)


def write_manifest(out_dir, command: str, config, files: dict, outputs: list, seed=None):
    """`run_manifest.json`. Its `inputs` hold the sha256 of `config`, the run's parsed config as
    a JSON-shaped object, and of each file the run read (`files`: its role -> its path)."""
    manifest = {
        "command": command,
        "package": {"memsarray": __version__, "numpy": np.__version__, "scipy": scipy.__version__},
        "seed": seed,
        "inputs": {"config": _sha256_obj(config), **{role: _sha256(path) for role, path in files.items()}},
        "outputs": {os.path.relpath(p, out_dir): _sha256(p) for p in sorted(map(str, outputs))},
    }
    return _write_json(os.path.join(out_dir, "run_manifest.json"), manifest, indent=1)


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
        return parse(synthesis.Scene, spec, "scene")
    check_keys(spec, ("load",), "scene")
    return synthesis.Scene.load_json(spec["load"])


def _distinct_subarrays(geo, spec: SubarrayConfig, frequencies) -> list:
    """The distinct sub-arrays as (SubArray, its frequencies), one per spiral
    aperture, in the order of their first frequency: a `freq_dependent`
    aperture clamps below f_ref and above F_MAX, so those bands share one."""
    if spec.strategy == "explicit":
        idx = np.asarray(spec.indices, dtype=int)
        in_range = len(idx) > 0 and idx.min() >= 0 and idx.max() < geo.sensor_count
        _require(in_range, "subarray.indices", f"expected one or more sensor indices within 0..{geo.sensor_count - 1}")
        _require(len(np.unique(idx)) == len(idx), "subarray.indices", "a sensor index appears twice")
        return [(geometry.SubArray(parent=geo, indices=idx), list(frequencies))]
    fixed = spec.strategy == "dnw_like"  # else freq_dependent
    by_aperture = {}  # spiral aperture -> its frequencies
    for f in frequencies:
        aperture = spec.aperture if fixed else geometry.frequency_dependent_aperture(f, spec.d_ref, spec.f_ref)
        by_aperture.setdefault(aperture, []).append(f)
    subarrays = []
    for aperture, freqs in by_aperture.items():
        sub = geometry.spiral_subarray(geo, spec.mics, aperture, spec.epsilon, spec.center)
        empty = f"no sensor lies within {spec.epsilon!r} m of a target at {freqs[0]!r} Hz"
        _require(sub.size > 0, "subarray.epsilon", empty)
        subarrays.append((sub, freqs))
    return subarrays


def _subarray_maps(bf: BeamformingConfig, spectral_cfg: SpectralConfig | None, scene, subarrays):
    """Yield (SubArray, its maps) for each (SubArray, frequencies) pair, in order.

    One sub-array at a time: its CSMs and steering travel times are formed
    once for all of its frequencies. Welch CSMs are formed as synthesis
    streams the records, one channel block at a time, so the sub-array's
    whole time series never exists. The travel times, the larger, are freed
    before the next sub-array's CSMs are formed, the CSMs when the next
    replace them: freeing both at once made the heap give back and re-fault
    their pages, 5-10 % of a pitch-series job in the benchmark.
    """
    grid = beamforming.make_focus_grid(**vars(bf.grid))  # GridConfig's fields are its parameters
    for sub, frequencies in subarrays:
        if bf.estimator == "welch":
            sp = spectral_cfg or SpectralConfig()
            records = synthesis.record_blocks(scene, sub.positions, sp.rate, sp.duration)
            csms = spectral.welch_csm(
                records, sp.rate, block=sp.block, overlap=sp.overlap, window=sp.window, frequencies=frequencies
            )
        else:
            csms = synthesis.synthesize_csm(scene, sub.positions, frequencies)
        steering = beamforming.steering_geometry(grid, sub.positions, scene.medium)
        maps = [_map(bf, csm, steering) for csm in csms]
        del steering
        yield sub, maps


def _map(bf: BeamformingConfig, csm, steering):
    """The map of one CSM that `bf` asks for, steered at the CSM's frequency."""
    steer = beamforming.steering_vectors(steering, csm.frequency, include_absorption=bf.include_absorption)
    if bf.clean_sc:
        return beamforming.clean_sc(
            csm, steer, loop_gain=bf.loop_gain, max_iterations=bf.max_iterations,
            stop_threshold=bf.stop_threshold, diagonal_removal=bf.diagonal_removal,
        )
    return beamforming.conventional_beamform(csm, steer, bf.diagonal_removal)


def run_beamforming(cfg: RunConfig, geo, scene) -> list:
    """Maps for `beamform`, `farfield` and `pipeline`, sorted by frequency."""
    subarrays = _distinct_subarrays(geo, cfg.subarray, cfg.beamforming.frequencies)
    maps = [m for _, sub_maps in _subarray_maps(cfg.beamforming, cfg.spectral, scene, subarrays) for m in sub_maps]
    return sorted(maps, key=lambda m: m.frequency)


def _map_name(frequency: float) -> str:
    return f"map_{frequency:.0f}Hz"


def save_map(out_dir, bmap, formats):
    base = os.path.join(out_dir, _map_name(bmap.frequency))
    written = []
    if "csv" in formats:
        db = spectral.to_db(bmap.values).tolist()
        written.append(_write_csv(base + ".csv", ["x", "z", "psd_db"], zip(*bmap.grid.local.T.tolist(), db)))
    if "json" in formats:
        written.append(_write_json(base + ".json", {
            "frequency": bmap.frequency,
            "kind": bmap.kind,
            "diagonal_removal": bmap.diagonal_removed,
            "reference": "source power at 1 m, dB re 20 uPa",
            "shape": list(bmap.grid.shape),
            "spacing": bmap.grid.spacing,
            "n_sensors": bmap.n_channels,
            "components": [[int(t), float(p)] for t, p in bmap.components],
            "n_negative": bmap.n_negative,
            "iterations": bmap.iterations,
            "stop_reason": bmap.stop_reason,
        }))
    if "bin" in formats:
        path = base + ".raw"
        bmap.values.astype("<f4").tofile(path)
        written.append(path)
    return written


def _run_files(cfg: RunConfig) -> dict:
    """The files a run config names, by role: `geometry.load` and a scene's `load`."""
    files = {"geometry": cfg.geometry.load, "scene": cfg.scene.get("load")}
    return {role: path for role, path in files.items() if path is not None}


# ---------------------------------------------------------------- commands


def cmd_geometry(args) -> int:
    px, pz = parse(tuple[int, int], _flag_list(args.panels.replace("x", ",")), "panels")
    gen = parse(GenerateConfig, {"panels_x": px, "panels_z": pz, "seed": args.seed}, "")
    formats = parse(tuple[Literal["json", "csv"], ...], args.format, "format")
    # geometry.json is always written, so a list without "json" would not say what is written
    _require("json" in formats, "format", f"expected a list with 'json', got {list(formats)!r}")
    out = _out_dir(args)
    geo = geometry.assemble_full_array(gen.panels_x, gen.panels_z, gen.seed)
    jpath = os.path.join(out, "geometry.json")
    geo.save_json(jpath)
    outputs = [jpath]
    if "csv" in formats:
        rows = ([i, *p] for i, p in enumerate(geo.positions.tolist()))
        outputs.append(_write_csv(os.path.join(out, "geometry.csv"), ["id", "x", "y", "z"], rows))
    write_manifest(out, "geometry", {**dataclasses.asdict(gen), "format": formats}, {}, outputs, seed=args.seed)
    print(f"geometry: {geo.sensor_count} sensors, extent {geo.extent[0]} m x {geo.extent[1]} m")
    return 0


def cmd_simulate(args) -> int:
    cfg = config_from_flags(SimulateConfig, args)
    scene = synthesis.Scene.load_json(cfg.scene)
    geo = geometry.ArrayGeometry.load_json(cfg.geometry)
    _require(
        cfg.channels <= geo.sensor_count,
        "channels",
        f"expected at most the geometry's {geo.sensor_count} sensors, got {cfg.channels!r}",
    )
    out = _out_dir(args)
    positions = geo.positions[: cfg.channels or None]
    if cfg.mode == "timeseries":
        sig, meta = synthesis.synthesize_timeseries(scene, positions, rate=cfg.rate, duration=cfg.duration)
        npy = os.path.join(out, "timeseries.npy")
        np.save(npy, sig)
        outputs = [npy, _write_json(os.path.join(out, "timeseries.json"), meta)]
    else:
        csms = synthesis.synthesize_csm(scene, positions, cfg.frequencies)
        path = os.path.join(out, "exact_csm.bin")
        spectral.save_csm_set(path, csms, geometry_hash=_sha256(cfg.geometry))
        outputs = [path]
    files = {"scene": cfg.scene, "geometry": cfg.geometry}
    write_manifest(out, "simulate", dataclasses.asdict(cfg), files, outputs, seed=scene.seed)
    return 0


# ticks per block of the FPGA's waveform: 1024 x 200 float64 samples (1.6 MB) exist at once, not the whole capture
ACQUIRE_BLOCK_TICKS = 1024


def _tone_blocks(tone: float, amplitude: float, n: int):
    """`acquire`'s test tone, n ticks of 200 channels in (B, 200) time blocks.

    Channel c carries amplitude sin(p + o_c), with p = 2 pi tone t per PDM
    tick and o_c = 2 pi c / 200. It is built by angle addition,
    sin p (amplitude cos o_c) + cos p (amplitude sin o_c), from one sin and
    cos per tick and per channel: one (B, 2) @ (2, 200) product per block,
    fused or not as the BLAS kernel chooses. Every sample is within 2 eps of
    amplitude sin(p + o_c) taken exactly; a per-sample sin must round its
    argument p + o_c first, which put it up to 715 eps off at 3.1 kHz over
    0.2 s. At amplitude 1 a sample may exceed full scale by one ulp: the
    modulator clips it to +-1, and `acquire` discards the clip flags.

    Every block is a view of one reused (1024, 200) buffer, valid until the
    generator resumes, so each must be used up before the next is asked for,
    as `pdm_modulate_channels` does.
    """
    channels = acquisition.CHANNELS_PER_FPGA
    phase = 2 * np.pi * tone * (np.arange(n) / acquisition.PDM_RATE)
    offsets = 2 * np.pi * np.arange(channels) / channels
    sin_cos = np.stack([np.sin(phase), np.cos(phase)], axis=1)  # (n, 2)
    weights = amplitude * np.stack([np.cos(offsets), np.sin(offsets)])  # (2, 200)
    buf = np.empty((ACQUIRE_BLOCK_TICKS, channels))
    for a in range(0, n, ACQUIRE_BLOCK_TICKS):
        block = buf[: min(ACQUIRE_BLOCK_TICKS, n - a)]
        np.matmul(sin_cos[a : a + len(block)], weights, out=block)
        yield block


def cmd_acquire(args) -> int:
    cfg = config_from_flags(AcquireConfig, args)
    out = _out_dir(args)
    rng = np.random.default_rng(cfg.seed)
    n_bits = int(acquisition.PDM_RATE * cfg.duration)
    acquisition.decimation_design()  # before the waveform blocks, so the design does not pin their freed heap
    waves = _tone_blocks(cfg.tone, cfg.amplitude, n_bits)
    bits, _ = acquisition.pdm_modulate_channels(waves, n_bits)
    packets = [p for p in acquisition.packetize(bits, fpga_id=cfg.fpga_id) if p.sequence not in cfg.drop]
    del bits  # the sent bits go before the capture is read back into a second (200, n) array
    if cfg.shuffle:
        rng.shuffle(packets)
    cap = os.path.join(out, "capture.bin")
    acquisition.write_capture(cap, packets)

    bits_by_fpga, gaps = acquisition.depacketize(acquisition.read_capture(cap), allow_gaps=True)
    # raw int32 PCM, one row per 48 kHz sample, channels interleaved, and its JSON sidecar
    pcm = acquisition.pdm_decimate(bits_by_fpga[cfg.fpga_id])  # (channels, samples)
    pcm_path = os.path.join(out, "pcm.pcm")
    np.ascontiguousarray(pcm.T, dtype="<i4").tofile(pcm_path)
    sidecar = _write_json(os.path.join(out, "pcm.json"), {
        "rate": acquisition.PCM_RATE,
        "channels": pcm.shape[0],
        "samples": pcm.shape[1],
        "group_delay": acquisition.decimation_group_delay(),
        "full_scale": 1.0,
        "dtype": "int32_le",
        "interleaved": True,
    })
    gap_path = _write_json(os.path.join(out, "gaps.json"), [
        {"fpga": g.fpga_id, "sequences": [g.first_sequence, g.last_sequence], "samples": [g.start_sample, g.end_sample]}
        for g in gaps
    ])
    outputs = [cap, pcm_path, sidecar, gap_path]
    write_manifest(out, "acquire", dataclasses.asdict(cfg), {}, outputs, seed=cfg.seed)
    print(f"acquire: {len(packets)} packets, {len(gaps)} gaps, group delay "
          f"{acquisition.decimation_group_delay()} samples")
    return 0


def cmd_beamform(args) -> int:
    if args.band:
        _require("freqs" not in vars(args), "beamforming.frequencies", "replaced by the --band centers")
        lo, hi = parse(tuple[float, float], getattr(args, "band_range", [1000, 8000]), "band_range")
        _require(0 < lo <= hi < math.inf, "band_range", f"expected 0 < low <= high, got {[lo, hi]!r}")
        freqs = list(spectral.band_centers(args.band, lo, hi))
        _require(len(freqs) > 0, "band_range", f"holds no {args.band} band center, got {[lo, hi]!r}")
    else:
        _require("band_range" not in vars(args), "band_range", "read only with --band")
        freqs = getattr(args, "freqs", [4000])
    # unlike pipeline and farfield, beamform makes a conventional map unless --clean-sc
    cfg = parse(RunConfig, {
        "geometry": {"load": args.geometry},
        "scene": {"load": args.scene},
        "beamforming": {**_flags(BeamformingConfig, args), "frequencies": freqs, "diagonal_removal": args.dr == "on"},
        "subarray": _flags(_SPIRALS[args.strategy], args),
        # typed Welch flags with the exact estimator make a spectral section, which RunConfig rejects
        "spectral": _flags(SpectralConfig, args) or ({} if args.estimator == "welch" else None),
        "outputs": {"formats": args.format},
    }, "")
    scene = _load_scene(cfg.scene)
    geo = _load_geometry(cfg)
    out = _out_dir(args)
    outputs = []
    for bmap in run_beamforming(cfg, geo, scene):
        outputs += save_map(out, bmap, cfg.outputs.formats)
    write_manifest(out, "beamform", dataclasses.asdict(cfg), _run_files(cfg), outputs, seed=scene.seed)
    return 0


def cmd_directivity(args) -> int:
    cfg = config_from_flags(DirectivityConfig, args)
    (x0, x1), (z0, z1) = cfg.roi.x_range, cfg.roi.z_range
    bf = BeamformingConfig(cfg.frequencies, GridConfig((x0 - 0.1, x1 + 0.1), (z0 - 0.1, z1 + 0.1)))
    scene = synthesis.Scene.load_json(cfg.scene)
    geo = geometry.ArrayGeometry.load_json(cfg.geometry)
    subarrays = geometry.pitch_subarray_series(geo, cfg.count, cfg.aperture, cfg.mics, cfg.epsilon)
    for i, sub in enumerate(subarrays):
        _require(sub.size >= 2, "epsilon", f"pitch sub-array {i} holds {sub.size} sensor(s), fewer than 2")
    out = _out_dir(args)
    surface = analysis.directivity([
        (geometry.subarray_observation(sub, cfg.reference), analysis.maps_to_spectrum(maps, cfg.roi))
        for sub, maps in _subarray_maps(bf, None, scene, [(sub, bf.frequencies) for sub in subarrays])
    ])
    outputs = [
        _write_gamma(os.path.join(out, "directivity.csv"), surface.frequencies, surface.angles, surface.gamma_db),
        _write_json(os.path.join(out, "directivity_meta.json"), {
            "angles_deg": surface.angles.tolist(),
            "angle_spreads_deg": surface.angle_spreads.tolist(),
            "frequencies_hz": surface.frequencies.tolist(),
        }),
    ]
    if cfg.octave_polar:
        polar = analysis.octave_polar(surface)
        ppath = os.path.join(out, "octave_polar.csv")
        outputs.append(_write_gamma(ppath, polar["centers"], polar["angles"], polar["gamma_db"]))
    files = {"scene": cfg.scene, "geometry": cfg.geometry}
    write_manifest(out, "directivity", dataclasses.asdict(cfg), files, outputs, seed=scene.seed)
    return 0


def cmd_farfield(args) -> int:
    cfg = parse(RunConfig, {
        "geometry": {"load": args.geometry},
        "scene": {"load": args.scene},
        "beamforming": {"frequencies": args.freqs, "grid": args.grid, "diagonal_removal": args.dr == "on"},
        "subarray": {"strategy": args.subarray},
        "analysis": {"roi": args.roi},
    }, "")
    mics = parse(tuple[tuple[float, float, float], ...], args.mics, "mics")
    reference = parse(tuple[float, float, float], args.reference, "reference")
    for i, mic in enumerate(mics):
        _require_finite_each(mic, f"mics[{i}]")
    _require_finite_each(reference, "reference")
    distances = [float(np.linalg.norm(np.subtract(mic, reference))) for mic in mics]
    for i, d in enumerate(distances):
        _require(d > 0, f"mics[{i}]", f"expected a position away from the reference {list(reference)!r}")
    scene = _load_scene(cfg.scene)
    for i, mic in enumerate(mics):
        for src in scene.sources:  # synthesis has no distance to propagate over
            near = math.dist(mic, src.position) < synthesis.MIN_DISTANCE
            _require(not near, f"mics[{i}]", f"expected a position away from the source at {src.position.tolist()!r}")
    geo = _load_geometry(cfg)
    out = _out_dir(args)
    maps = run_beamforming(cfg, geo, scene)
    integrated = analysis.maps_to_spectrum(maps, cfg.analysis.roi)

    mic_specs = [
        (_virtual_mic_spectrum(scene, mic, integrated.frequencies), d) for mic, d in zip(np.array(mics), distances)
    ]
    c = analysis.farfield_compare(integrated, mic_specs)
    columns = (c.frequencies, c.integrated_db, c.mic_average_db, c.delta_psd_db)
    path = _write_csv(
        os.path.join(out, "farfield_comparison.csv"), ["frequency", "integrated_db", "mic_average_db", "delta_db"],
        zip(*(v.tolist() for v in columns)),
    )
    config = {**dataclasses.asdict(cfg), "mics": mics, "reference": reference}
    write_manifest(out, "farfield", config, _run_files(cfg), [path], seed=scene.seed)
    return 0


def _virtual_mic_spectrum(scene, position, freqs) -> spectral.Spectrum:
    csm = synthesis.synthesize_csm(scene, position[None, :], freqs)
    p = np.array([c.auto_power[0] for c in csm])
    return spectral.Spectrum(frequencies=np.asarray(freqs, dtype=float), psd=p)


def cmd_pipeline(args) -> int:
    bundled = args.config.startswith("bundled:")
    try:
        if bundled:
            cfg = bundled_config(args.config.split(":", 1)[1].replace("-", "_"))
        else:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError("config", f"cannot read {args.config}: {exc}") from exc
    cfg = parse(RunConfig, cfg, "")
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    scene = _load_scene(cfg.scene)
    geo = _load_geometry(cfg)
    out = _out_dir(args)

    geo_dir = os.path.join(out, "geometry")
    os.makedirs(geo_dir, exist_ok=True)
    gpath = os.path.join(geo_dir, "geometry.json")
    geo.save_json(gpath)
    outputs = [gpath]

    maps = run_beamforming(cfg, geo, scene)
    bf_dir = os.path.join(out, "beamforming")
    os.makedirs(bf_dir, exist_ok=True)
    for bmap in maps:
        outputs += save_map(bf_dir, bmap, cfg.outputs.formats)

    if cfg.analysis.roi is not None:
        spectrum = analysis.maps_to_spectrum(maps, cfg.analysis.roi)
        if cfg.analysis.band is not None:
            spectrum = spectral.Spectrum(*spectral.band_power(spectrum.frequencies, spectrum.psd, cfg.analysis.band))
        an_dir = os.path.join(out, "analysis")
        os.makedirs(an_dir, exist_ok=True)
        rows = zip(spectrum.frequencies.tolist(), spectrum.db().tolist())
        outputs.append(_write_csv(os.path.join(an_dir, "roi_spectrum.csv"), ["frequency", "psd_db"], rows))

    files = _run_files(cfg) if bundled else {"config_file": args.config, **_run_files(cfg)}
    write_manifest(out, "pipeline", dataclasses.asdict(cfg), files, outputs, seed=scene.seed)
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
    g.add_argument("--format", type=_flag_list, default="json,csv")
    g.add_argument("--out", default="run")
    g.set_defaults(func=cmd_geometry)

    # an untyped flag is left out of the namespace: its default is SimulateConfig's, and a typed one can be seen
    s = sub.add_parser("simulate", help="synthesize time series or exact CSMs", argument_default=argparse.SUPPRESS)
    s.add_argument("--scene", required=True)
    s.add_argument("--geometry", required=True)
    s.add_argument("--mode", choices=["timeseries", "csm"])
    s.add_argument("--rate", type=float, help="timeseries mode only")
    s.add_argument("--duration", type=float, help="timeseries mode only")
    s.add_argument("--freqs", dest="frequencies", type=_flag_list, help="csm mode only")
    s.add_argument("--channels", type=int)
    s.add_argument("--out", default="run")
    s.set_defaults(func=cmd_simulate)

    a = sub.add_parser("acquire", help="simulate the PDM/packet/PCM chain")
    a.add_argument("--tone", type=float, default=AcquireConfig.tone)
    a.add_argument("--amplitude", type=float, default=AcquireConfig.amplitude)
    a.add_argument("--duration", type=float, default=AcquireConfig.duration)
    a.add_argument("--fpga-id", type=int, default=AcquireConfig.fpga_id)
    a.add_argument("--drop", type=_flag_list, default=list(AcquireConfig.drop), help="sequence numbers to drop")
    a.add_argument("--shuffle", action="store_true", default=AcquireConfig.shuffle, help="randomize packet order")
    a.add_argument("--seed", type=int, default=AcquireConfig.seed)
    a.add_argument("--out", default="run")
    a.set_defaults(func=cmd_acquire)

    b = sub.add_parser("beamform", help="beamforming maps from a scene")
    b.add_argument("--scene", required=True)
    b.add_argument("--geometry", required=True)
    b.add_argument("--subarray", dest="strategy", default=DnwLikeSubarray.strategy, choices=list(_SPIRALS))
    # flags given SUPPRESS are in the namespace only when typed, so cmd_beamform can reject one its run does not read
    b.add_argument("--epsilon", type=float, default=argparse.SUPPRESS)
    b.add_argument("--freqs", type=_flag_list, default=argparse.SUPPRESS, help="default 4000; not with --band")
    b.add_argument("--band", choices=["third_octave", "octave"], default=None,
                   help="run at standard band centers instead of --freqs")
    b.add_argument("--band-range", type=_flag_list, default=argparse.SUPPRESS, help="default 1000,8000; --band only")
    b.add_argument("--grid", type=_grid_flag, default={}, help="x0,x1,z0,z1,spacing (default: the config's grid)")
    b.add_argument("--dr", choices=["on", "off"], default="on")
    b.add_argument("--clean-sc", action="store_true")
    b.add_argument("--loop-gain", type=float, default=argparse.SUPPRESS, help="--clean-sc only")
    b.add_argument("--max-iter", dest="max_iterations", type=int, default=argparse.SUPPRESS, help="--clean-sc only")
    b.add_argument("--estimator", choices=["exact", "welch"], default=BeamformingConfig.estimator)
    b.add_argument("--block", type=int, default=argparse.SUPPRESS, help="welch estimator only")
    b.add_argument("--overlap", type=float, default=argparse.SUPPRESS, help="welch estimator only")
    b.add_argument("--duration", type=float, default=argparse.SUPPRESS, help="welch estimator only")
    b.add_argument("--format", type=_flag_list, default=list(OutputsConfig.formats))
    b.add_argument("--out", default="run")
    b.set_defaults(func=cmd_beamform)

    d = sub.add_parser("directivity", help="pitch sub-array directivity surface")
    d.add_argument("--scene", required=True)
    d.add_argument("--geometry", required=True)
    d.add_argument("--roi", type=_roi_flag, required=True, help="x0,x1,z0,z1")
    d.add_argument("--reference", type=_flag_list, default=list(DirectivityConfig.reference))
    d.add_argument("--freqs", dest="frequencies", type=_flag_list, default=list(DirectivityConfig.frequencies))
    d.add_argument("--count", type=int, default=DirectivityConfig.count)
    d.add_argument("--aperture", type=float, default=DirectivityConfig.aperture)
    d.add_argument("--mics", type=int, default=DirectivityConfig.mics)
    d.add_argument("--epsilon", type=float, default=DirectivityConfig.epsilon)
    d.add_argument("--octave-polar", action="store_true", default=DirectivityConfig.octave_polar)
    d.add_argument("--out", default="run")
    d.set_defaults(func=cmd_directivity)

    f = sub.add_parser("farfield", help="beamforming vs far-field projection")
    f.add_argument("--scene", required=True)
    f.add_argument("--geometry", required=True)
    f.add_argument("--roi", type=_roi_flag, required=True, help="x0,x1,z0,z1")
    f.add_argument("--grid", type=_grid_flag, default={}, help="x0,x1,z0,z1,spacing (default: the config's grid)")
    f.add_argument("--freqs", type=_flag_list, default="1000,2000,4000")
    f.add_argument("--mics", type=lambda text: [_flag_list(m) for m in text.split(";")], required=True,
                   help="semicolon-separated x,y,z positions")
    f.add_argument("--reference", type=_flag_list, default=list(DirectivityConfig.reference))
    f.add_argument("--subarray", default=DnwLikeSubarray.strategy, choices=list(_SPIRALS))
    f.add_argument("--dr", choices=["on", "off"], default="on")
    f.add_argument("--out", default="run")
    f.set_defaults(func=cmd_farfield)

    pl = sub.add_parser("pipeline", help="config-driven full run")
    pl.add_argument("--config", required=True, help="path or bundled:<name>")
    pl.add_argument("--seed", type=int, default=None)
    # kept only because the benchmark's argv passes `--jobs 1`
    pl.add_argument("--jobs", type=int, choices=[1], default=1, help="1 only: beamforming runs in this process")
    pl.add_argument("--out", default="run")
    pl.set_defaults(func=cmd_pipeline)

    return p


def main(argv=None) -> int:
    """Run one subcommand. A config error exits 2 with its path; any other
    failure of the run exits 3 naming the subcommand and the exception type."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error at {exc.field or '<root>'}: {exc.message}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"numerical failure: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
