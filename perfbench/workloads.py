"""Seeded inputs, CLI arguments and output checks for the benchmark workloads.

Each workload turns the benchmark seed into input files and the argument
list of one `memsarray` CLI job. Jobs of one workload differ only in seeded
details (grid offset, source cells and levels, tone, dropped packets), never
in problem size (mics, grid, frequencies, channels), so every job costs
about the same work and no job can reuse a result of the previous one: a
user pays the full cost on every CLI run, and so does the benchmark.

Checks run after a job, outside its timed region, on the files the job wrote.
They compare against the injected scene, never against the program's own
functions, except that the pitch check reads the observation angles the
program reports.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

# Array build shared by all workloads: the paper's 3 x 3 panels, 7200 sensors.
PANELS = "3x3"
DNW_MICS = 140
DNW_APERTURE = 1.5
ARRAY_DISTANCE = 3.39  # array plane to the focus plane y = 0, metres
SPEED_OF_SOUND = 343.0


@dataclass
class Job:
    """One CLI invocation and what the benchmark injected into it."""

    argv: list[str]
    out_dir: str
    expect: dict


@dataclass
class CheckResult:
    """Outcome of the output checks of one job."""

    failures: list[str] = field(default_factory=list)
    level_err_db: float | None = None  # map workloads
    sinad_db: float | None = None  # acquire-fpga
    counts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def _rng(seed: int, name: str, *more: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, zlib.crc32(name.encode()), *more])


def _db(ratio: float) -> float:
    return 10.0 * math.log10(ratio) if ratio > 0 else -math.inf


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def output_counts(out_dir) -> dict:
    """Files and bytes a job wrote, and the CSV files that do not parse as numbers."""
    files = 0
    size = 0
    unparseable = 0
    for root, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(root, name)
            files += 1
            size += os.path.getsize(path)
            if name.endswith(".csv") and not _csv_numeric(path):
                unparseable += 1
    return {"cli.files_written": files, "cli.bytes_written": size, "cli.csv_unparseable": unparseable}


def _csv_numeric(path) -> bool:
    """True when every field below the header row parses as a float."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    try:
        for row in rows[1:]:
            for value in row:
                float(value)
    except ValueError:
        return False
    return True


def _pick_cells(rng, n_sources: int, lo: int, hi: int, spacing: float, min_sep: float):
    """Distinct grid cells (i, k) in [lo, hi] at least `min_sep` metres apart."""
    for _ in range(10_000):
        cells = [tuple(int(v) for v in rng.integers(lo, hi + 1, 2)) for _ in range(n_sources)]
        ok = all(
            math.dist(a, b) * spacing >= min_sep for i, a in enumerate(cells) for b in cells[i + 1 :]
        )
        if ok:
            return cells
    raise RuntimeError("could not place sources on the grid")


# ---------------------------------------------------------------- map workloads


class _MapWorkload:
    """`pipeline --config <generated>` on the DNW-like sub-array, CLEAN-SC maps.

    Sources sit on grid nodes. A map passes when, for every injected source,
    the strongest CLEAN-SC component within `radius(f)` cells of it lies
    within `offset(f)` cells of its node, and the component power within
    `radius(f)` cells is within `bound_db` of the injected level.
    """

    name = ""
    why = ""
    spacing = 0.0
    n_cells = 0  # grid nodes per axis
    x0 = 0.0  # nominal lower grid corner, shifted per job
    z0 = 0.0
    shift = 0.1  # per-job grid shift range, metres
    margin = 1  # cells kept free of sources along the grid edge
    min_sep = 0.0  # metres between sources
    level_spread_db = 0.0  # source levels drawn within 1e-6 Pa^2/Hz +- this
    bound_db = 0.0
    throughput = ("maps_per_s", "1/s", 1.0)  # report name, unit, per item
    freqs: list[float] = []
    medium: dict = {}
    beamforming: dict = {}  # estimator and absorption settings
    config_extra: dict = {}  # further config sections

    def setup(self, work_dir, seed: int, run_cli) -> None:
        self.work_dir = work_dir
        self.seed = seed
        self.geometry_seed = int(_rng(seed, "geometry").integers(0, 2**31))

    def scene_extra(self, rng) -> dict:
        return {}

    @property
    def items_per_job(self) -> int:
        return len(self.freqs)

    def job(self, j: int, out_dir) -> Job:
        rng = _rng(self.seed, self.name, j)
        gx0 = self.x0 + float(rng.uniform(-self.shift, self.shift))
        gz0 = self.z0 + float(rng.uniform(-self.shift, self.shift))
        span = self.spacing * (self.n_cells - 1)
        cells = self.cells(rng)
        sources = self.sources(rng, cells, gx0, gz0)
        cfg = {
            "seed": int(rng.integers(0, 2**31)),
            "geometry": {"generate": {"panels_x": 3, "panels_z": 3, "seed": self.geometry_seed}},
            "scene": {"sources": sources, "medium": self.medium, "seed": int(rng.integers(0, 2**31)), **self.scene_extra(rng)},
            "subarray": {"strategy": "dnw_like", "mics": DNW_MICS, "aperture": DNW_APERTURE, "epsilon": 0.1},
            "beamforming": {
                "frequencies": self.freqs,
                "grid": {"x_range": [gx0, gx0 + span], "z_range": [gz0, gz0 + span], "spacing": self.spacing},
                "diagonal_removal": True,
                "clean_sc": True,
                **self.beamforming,
            },
            "analysis": {"roi": {"x_range": [gx0, gx0 + span], "z_range": [gz0, gz0 + span], "label": "grid"}},
            "outputs": {"formats": ["csv", "json"]},
            **self.config_extra,
        }
        path = os.path.join(self.work_dir, f"{self.name}-job{j}.json")
        _write_json(path, cfg)
        expect = {
            "cells": [c[0] * self.n_cells + c[1] for c in cells],
            "levels": [s["spectrum"]["psd"] for s in sources],
            "shape": [self.n_cells, self.n_cells],
        }
        return Job(argv=["pipeline", "--config", path, "--jobs", "1", "--out", out_dir], out_dir=out_dir, expect=expect)

    def n_sources(self, rng) -> int:
        return 2

    def cells(self, rng):
        lo, hi = self.margin, self.n_cells - 1 - self.margin
        return _pick_cells(rng, self.n_sources(rng), lo, hi, self.spacing, self.min_sep)

    def sources(self, rng, cells, gx0, gz0) -> list[dict]:
        return [
            {
                "position": [gx0 + self.spacing * i, 0.0, gz0 + self.spacing * k],
                "kind": "monopole",
                "spectrum": {"type": "broadband", "psd": float(1e-6 * 10.0 ** (rng.uniform(-1, 1) * self.level_spread_db / 10.0))},
            }
            for i, k in cells
        ]

    def offset(self, frequency: float) -> int:
        return 0

    def radius(self, frequency: float) -> int:
        return max(1, self.offset(frequency))

    def check(self, job: Job) -> CheckResult:
        res = CheckResult()
        out_dir = job.out_dir
        bf_dir = os.path.join(out_dir, "beamforming")
        names = sorted(n for n in os.listdir(bf_dir) if n.endswith(".json")) if os.path.isdir(bf_dir) else []
        if len(names) != self.items_per_job:
            res.failures.append(f"expected {self.items_per_job} map files, found {len(names)}")
            return res
        nx, nz = job.expect["shape"]
        worst = 0.0
        for name in names:
            with open(os.path.join(bf_dir, name), encoding="utf-8") as fh:
                m = json.load(fh)
            if m["shape"] != [nx, nz] or m["kind"] != "clean_sc":
                res.failures.append(f"{name}: shape {m['shape']} kind {m['kind']}")
                continue
            comps = {int(t): float(p) for t, p in m["components"]}
            offset, radius = self.offset(m["frequency"]), self.radius(m["frequency"])
            for cell, level in zip(job.expect["cells"], job.expect["levels"]):
                ci, ck = divmod(cell, nz)

                def dist(t):
                    return max(abs(t // nz - ci), abs(t % nz - ck))

                near = {t: p for t, p in comps.items() if dist(t) <= radius}
                if not near or dist(max(near, key=near.get)) > offset:
                    res.failures.append(f"{name}: no peak component within {offset} cells of source cell {cell}")
                    continue
                err = abs(_db(sum(near.values()) / level))
                worst = max(worst, err)
                if err > self.bound_db:
                    res.failures.append(f"{name}: level error {err:.3f} dB at cell {cell} > {self.bound_db} dB")
        res.level_err_db = worst
        return res


class ShearMap(_MapWorkload):
    """Exact CSMs of 2-3 broadband monopoles seen through an Amiet shear layer.

    With exact CSMs CLEAN-SC puts each source on its own node. Its level is
    true within 0.1 dB for one source (acceptance criterion 05); with 2-3
    sources 0.6-0.9 m apart the other sources' point-spread functions bias
    it. Over about 200 seeded jobs the error reached 0.56 dB, at 2 kHz where
    the sources are about 1.3 beam widths apart; at 4 and 8 kHz it stayed
    below 0.25 dB. `bound_db` is 1 dB.
    """

    name = "shear-map"
    why = (
        "Amiet shear-layer travel times dominate and 3 frequencies share one geometry; "
        "140 mics, 17x17 grid, 3 freqs, exact CSMs of 2-3 monopoles, Mach 0.2"
    )
    spacing = 0.06
    n_cells = 17
    x0 = 2.52
    z0 = -0.98
    min_sep = 0.6
    level_spread_db = 3.0
    bound_db = 1.0
    freqs = [2000.0, 4000.0, 8000.0]
    medium = {"mach": [0.2, 0.0, 0.0], "shear_plane": {"point": [0.0, 1.5, 0.0], "normal": [0.0, 1.0, 0.0]}}
    beamforming = {"estimator": "exact", "include_absorption": True}

    def n_sources(self, rng):
        return int(rng.integers(2, 4))


class WelchMap(_MapWorkload):
    """Time series of two broadband monopoles plus incoherent noise, Welch CSMs.

    Welch estimates scatter: at 92 averages a map peak moves by up to 1 dB
    (acceptance criterion 06), at the 46 averages used here by about
    sqrt 2 more, and the CLEAN-SC peak moves off the source node by up to
    a tenth of the beam width (2 cells at 1 kHz); `offset` allows that.
    Sources sit at least 1.5 beam widths apart at 1 kHz, closer pairs pull
    both peaks off their nodes. Over 240 seeded source levels the error
    had mean -0.21 dB and standard deviation 0.66 dB; over about 200 jobs
    (4000 levels) it reached 2.49 dB. `bound_db` is 4 dB, six standard
    deviations.
    """

    name = "welch-map"
    why = (
        "measured-data path: synthesis, Welch, steering, CLEAN-SC and export; "
        "140 mics, 41x41 grid, 10 third-octaves 1-8 kHz, 0.5 s at 48 kHz, 2 monopoles + noise"
    )
    spacing = 0.05
    n_cells = 41
    x0 = 2.0
    z0 = -1.5
    margin = 4
    min_sep = 1.2  # 1.5 beam widths at 1 kHz
    level_spread_db = 2.0
    bound_db = 4.0
    freqs = [1000.0 * 2.0 ** (k / 3.0) for k in range(10)]  # third-octave centres 1-8 kHz
    medium = {"mach": [0.1, 0.0, 0.0]}
    beamforming = {"estimator": "welch", "include_absorption": True}
    config_extra = {"spectral": {"block": 1024, "overlap": 0.5, "window": "hann", "duration": 0.5, "rate": 48_000.0}}

    def offset(self, frequency):
        beam = SPEED_OF_SOUND / frequency * ARRAY_DISTANCE / DNW_APERTURE
        return max(1, math.ceil(0.1 * beam / self.spacing))

    def scene_extra(self, rng):
        # per-channel noise about as strong as one source's auto-power at the array
        return {"noise": {"psd": float(1e-7 * 10.0 ** (rng.uniform(-2, 2) / 10.0))}}


# ---------------------------------------------------------------- pitch series


class PitchDirectivity:
    """`directivity` over the 13-position pitch series of 150-mic sub-arrays.

    The scene is a dipole whose axis points at the array (y), plus a monopole
    8-12 dB weaker, both inside the ROI; the reference point is the dipole.
    Seen from pitch angle theta the dipole radiates sin^2(theta) of its
    power, so the injected pattern is 10 log10(Pd sin^2 + Pm) minus its
    angle average, and Gamma must follow it within `bound_db` at every angle
    and frequency. Each sub-array spans up to 2 m and averages the pattern
    over about +-15 deg; up to 8 kHz that costs about 0.35 dB at the edge
    positions. At 16 kHz the measured pattern is flatter than injected (up
    to 0.59 dB off over about 170 seeded jobs, peak up to 8 deg past
    broadside), so the peak-position test of acceptance criterion 08 is not
    applied. `bound_db` is 1 dB.
    """

    name = "pitch-directivity"
    why = (
        "paper's pitch series: 13 sub-array samplings x 5 freqs = 65 small CLEAN-SC maps; "
        "150 mics each, 26x26 grid (0.3 m ROI), dipole + monopole, Mach 0.1"
    )
    freqs = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0]
    count = 13
    roi_half = 0.15
    bound_db = 1.0
    items_per_job = count * len(freqs)
    throughput = ("maps_per_s", "1/s", 1.0)

    def setup(self, work_dir, seed: int, run_cli) -> None:
        self.work_dir = work_dir
        self.seed = seed
        geometry_seed = int(_rng(seed, "geometry").integers(0, 2**31))
        geo_dir = os.path.join(work_dir, "geometry")
        run_cli(["geometry", "--panels", PANELS, "--seed", str(geometry_seed), "--format", "json", "--out", geo_dir])
        self.geometry = os.path.join(geo_dir, "geometry.json")

    def job(self, j: int, out_dir) -> Job:
        rng = _rng(self.seed, self.name, j)
        cx = 2.4 + float(rng.uniform(-0.1, 0.1))
        cz = float(rng.uniform(-0.1, 0.1))
        pd = float(1e-6 * 10.0 ** (rng.uniform(-2, 2) / 10.0))
        pm = pd * 10.0 ** (-rng.uniform(8, 12) / 10.0)
        offset = rng.uniform(0.05, 0.1, 2) * rng.choice([-1.0, 1.0], 2)
        scene = {
            "sources": [
                {"position": [cx, 0.0, cz], "kind": "dipole", "axis": [0.0, 1.0, 0.0],
                 "spectrum": {"type": "broadband", "psd": pd}},
                {"position": [cx + offset[0], 0.0, cz + offset[1]], "kind": "monopole",
                 "spectrum": {"type": "broadband", "psd": pm}},
            ],
            "medium": {"mach": [0.1, 0.0, 0.0]},
            "seed": int(rng.integers(0, 2**31)),
        }
        path = os.path.join(self.work_dir, f"{self.name}-job{j}.json")
        _write_json(path, scene)
        h = self.roi_half
        argv = [
            "directivity", "--scene", path, "--geometry", self.geometry,
            "--roi", f"{cx - h!r},{cx + h!r},{cz - h!r},{cz + h!r}",
            "--reference", f"{cx!r},0.0,{cz!r}",
            "--count", str(self.count), "--mics", "150", "--aperture", "2.0",
            "--freqs", ",".join(f"{f:.0f}" for f in self.freqs), "--octave-polar", "--out", out_dir,
        ]
        return Job(argv=argv, out_dir=out_dir, expect={"pd": pd, "pm": pm})

    def check(self, job: Job) -> CheckResult:
        res = CheckResult()
        out_dir = job.out_dir
        with open(os.path.join(out_dir, "directivity_meta.json"), encoding="utf-8") as fh:
            meta = json.load(fh)
        with open(os.path.join(out_dir, "directivity.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        angles = np.array(meta["angles_deg"])
        gamma = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        if gamma.shape != (self.count, len(self.freqs)):
            res.failures.append(f"directivity surface shape {gamma.shape}")
            return res
        power = job.expect["pd"] * np.sin(np.radians(angles)) ** 2 + job.expect["pm"]
        model = 10.0 * np.log10(power)
        model -= model.mean()
        worst = 0.0
        for col, f in enumerate(self.freqs):
            g = gamma[:, col]
            if not np.isfinite(g).all():
                res.failures.append(f"{f:.0f} Hz: masked angles in Gamma")
                continue
            err = float(np.max(np.abs(g - model)))
            worst = max(worst, err)
            if err > self.bound_db:
                res.failures.append(f"{f:.0f} Hz: Gamma off the injected pattern by {err:.3f} dB")
        res.level_err_db = worst
        return res


# ---------------------------------------------------------------- acquisition


PDM_RATE = 3_072_000
PCM_RATE = 48_000
FRAMES_PER_PACKET = 512
CHANNELS = 200
PACKET_HEADER = struct.Struct("<4sHIQHHH")
# PCM samples spoiled after the stream starts or resumes: the decimation chain's
# impulse response spans about 74 output samples; keep a margin past it.
SETTLE_SAMPLES = 96
MIN_SEGMENT = 160
SINAD_BOUND_DB = 60.0


class AcquireFpga:
    """`acquire` for one FPGA: 200 channels of a seeded tone through PDM,
    packets with two dropped and the rest shuffled, a capture file, and PCM.

    Checks: gaps.json names exactly the dropped packets; the capture file
    parses with an independent reader and holds every other packet; every
    channel's PCM read back from pcm.pcm/pcm.json reaches SINAD >= 60 dB on
    each stretch away from warm-up and gaps (the lowest seen over about 130
    seeded jobs was 66.0 dB).
    """

    name = "acquire-fpga"
    why = (
        "only workload in acquisition, PDM modulation dominates; "
        "1 FPGA: 200 channels x 8 ms at 3.072 MHz (200 x 24576 bits), 2 dropped packets, shuffled"
    )
    duration = 0.008
    items_per_job = CHANNELS
    throughput = ("pdm_ch_s_per_s", "ch*s/s", duration)  # PDM channel-seconds per second

    def setup(self, work_dir, seed: int, run_cli) -> None:
        self.work_dir = work_dir
        self.seed = seed

    @property
    def n_packets(self) -> int:
        return round(self.duration * PDM_RATE) // FRAMES_PER_PACKET

    def job(self, j: int, out_dir) -> Job:
        rng = _rng(self.seed, self.name, j)
        tone = float(rng.uniform(1500.0, 6000.0))
        fpga = int(rng.integers(0, 36))
        # first gap late enough to leave a clean stretch after warm-up
        first = int(rng.integers(self.n_packets * 3 // 4, self.n_packets - 4))
        second = int(rng.integers(first + 2, self.n_packets - 1))
        argv = [
            "acquire", "--tone", repr(tone), "--amplitude", "0.5", "--duration", repr(self.duration),
            "--fpga-id", str(fpga), "--drop", f"{first},{second}", "--shuffle",
            "--seed", str(int(rng.integers(0, 2**31))), "--out", out_dir,
        ]
        return Job(argv=argv, out_dir=out_dir, expect={"tone": tone, "fpga": fpga, "dropped": [first, second]})

    def check(self, job: Job) -> CheckResult:
        res = CheckResult()
        out_dir = job.out_dir
        fpga = job.expect["fpga"]
        dropped = job.expect["dropped"]
        res.counts["acquisition.gaps_expected"] = len(dropped)

        with open(os.path.join(out_dir, "gaps.json"), encoding="utf-8") as fh:
            gaps = json.load(fh)
        want = [
            {"fpga": fpga, "sequences": [s, s], "samples": [s * FRAMES_PER_PACKET, (s + 1) * FRAMES_PER_PACKET]}
            for s in dropped
        ]
        if gaps != want:
            res.failures.append(f"gaps.json {gaps} != dropped {want}")

        seqs = self._read_capture(os.path.join(out_dir, "capture.bin"), fpga, res)
        if seqs is not None and sorted(seqs) != sorted(set(range(self.n_packets)) - set(dropped)):
            res.failures.append("capture does not hold exactly the undropped packets")

        with open(os.path.join(out_dir, "pcm.json"), encoding="utf-8") as fh:
            side = json.load(fh)
        n = side["samples"]
        if side["channels"] != CHANNELS or side["rate"] != PCM_RATE or n != round(self.duration * PCM_RATE):
            res.failures.append(f"pcm.json header {side}")
            return res
        codes = np.fromfile(os.path.join(out_dir, "pcm.pcm"), dtype="<i4")
        if codes.size != n * CHANNELS:
            res.failures.append(f"pcm.pcm holds {codes.size} values, expected {n * CHANNELS}")
            return res
        pcm = codes.reshape(n, CHANNELS).astype(np.float64) * (side["full_scale"] / (2**31 - 1))
        segments = self._clean_segments(n, dropped)
        if not segments:
            res.failures.append("no PCM stretch clear of warm-up and gaps")
            return res
        worst = min(_min_sinad(pcm[lo:hi], job.expect["tone"]) for lo, hi in segments)
        res.sinad_db = worst
        if not worst >= SINAD_BOUND_DB:
            res.failures.append(f"lowest channel SINAD {worst:.2f} dB < {SINAD_BOUND_DB} dB")
        return res

    def _read_capture(self, path, fpga, res):
        """Sequence numbers in a capture file, read without the package."""
        stride = FRAMES_PER_PACKET // 8
        seqs = []
        with open(path, "rb") as fh:
            blob = fh.read()
        pos = 0
        while pos < len(blob):
            if pos + 4 > len(blob):
                res.failures.append("capture ends inside a length prefix")
                return None
            (length,) = struct.unpack_from("<I", blob, pos)
            pos += 4
            if pos + length > len(blob) or length != PACKET_HEADER.size + CHANNELS * stride:
                res.failures.append(f"capture record of {length} bytes at offset {pos - 4}")
                return None
            magic, fid, seq, ts, _status, channels, frames = PACKET_HEADER.unpack_from(blob, pos)
            if (magic, fid, channels, frames, ts) != (b"SIAM", fpga, CHANNELS, FRAMES_PER_PACKET, seq * FRAMES_PER_PACKET):
                res.failures.append(f"capture packet header {magic!r} fpga {fid} seq {seq} ts {ts}")
                return None
            seqs.append(seq)
            pos += length
        return seqs

    def _clean_segments(self, n, dropped):
        """PCM stretches past the warm-up and clear of every gap's transient."""
        spoiled = [(0, SETTLE_SAMPLES)]
        per_packet = FRAMES_PER_PACKET * PCM_RATE // PDM_RATE
        for s in dropped:
            spoiled.append((s * per_packet - 2, (s + 1) * per_packet + SETTLE_SAMPLES))
        segments = []
        start = 0
        for lo, hi in sorted(spoiled):
            if lo - start >= MIN_SEGMENT:
                segments.append((start, lo))
            start = max(start, hi)
        if n - start >= MIN_SEGMENT:
            segments.append((start, n))
        return segments


def _min_sinad(y: np.ndarray, tone: float) -> float:
    """Lowest per-channel SINAD (dB) of a least-squares sine fit at `tone`."""
    t = np.arange(len(y)) / PCM_RATE
    basis = np.stack([np.sin(2 * np.pi * tone * t), np.cos(2 * np.pi * tone * t), np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    resid = y - basis @ coef
    signal = (coef[0] ** 2 + coef[1] ** 2) / 2.0
    noise = np.mean(resid**2, axis=0)
    return float(np.min(10.0 * np.log10(signal / noise)))


WORKLOADS = {w.name: w for w in (ShearMap, WelchMap, PitchDirectivity, AcquireFpga)}
