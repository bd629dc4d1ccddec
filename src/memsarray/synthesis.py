"""Ground-truth scene synthesis.

Generates multichannel time series (each source record passed through the
path transfer of every channel, plus seeded incoherent noise) and exact
rank-per-source cross-spectral matrices from the same transfer, so every
downstream estimator can be validated against a closed-form reference.

Source strengths are referenced to the pressure a monopole would produce at
1 m; a channel at effective distance r receives amplitude * (1 m / r) with
optional atmospheric damping and dipole directivity weighting.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import ConfigError, _require, _require_finite, _require_finite_each, _require_non_negative, parse
from .propagation import (
    REFERENCE_DISTANCE,
    MediumModel,
    atmospheric_absorption,
    path_delays,
)
from .spectral import CrossSpectralMatrix


@dataclass(frozen=True)
class PsdSpectrum:
    """A power spectral density: flat `{"psd": s}`, or `{"frequencies": [...], "psd": [...]}`
    interpolated between strictly increasing frequencies; the form of `Scene.noise`."""

    psd: float | tuple[float, ...]
    frequencies: tuple[float, ...] | None = None

    def __post_init__(self):
        freqs = self.frequencies
        if freqs is None:
            _require(not isinstance(self.psd, tuple), "psd", "a list of values needs frequencies")
            _require_non_negative(self.psd, "psd")
            return
        n = len(freqs)
        _require(n > 0, "frequencies", "expected a non-empty list")
        same_length = isinstance(self.psd, tuple) and len(self.psd) == n
        _require(same_length, "psd", f"expected a list of {n} values, one per frequency")
        for key, values in (("frequencies", freqs), ("psd", self.psd)):
            for i, v in enumerate(values):
                _require_non_negative(v, f"{key}[{i}]")
        _require(all(a < b for a, b in zip(freqs, freqs[1:])), "frequencies", "must be strictly increasing")

    def at(self, frequency):
        """The PSD at `frequency` (a scalar or an array): the flat `psd`, or
        `psd` interpolated over `frequencies`."""
        if self.frequencies is None:
            return np.full(np.shape(frequency), self.psd)
        return np.interp(frequency, self.frequencies, self.psd)

    def noise(self, rate: float, n: int, rng) -> np.ndarray:
        """`n` samples at `rate` of Gaussian noise with this PSD."""
        w = rng.standard_normal(n)
        if self.frequencies is None:
            return np.sqrt(self.psd * rate / 2.0) * w
        target = self.at(np.fft.rfftfreq(n, d=1.0 / rate))
        base_psd = 1.0 / (rate / 2.0)  # white unit-variance PSD
        return np.fft.irfft(np.fft.rfft(w) * np.sqrt(target / base_psd), n=n)


@dataclass(frozen=True)
class BroadbandSpectrum(PsdSpectrum):
    """A source's broadband spectrum: a `PsdSpectrum` in Pa^2/Hz at 1 m."""

    type: Literal["broadband"] = "broadband"


@dataclass(frozen=True)
class ToneSpectrum:
    """A source's pure tone."""

    type: Literal["tone"]
    frequency: float
    power: float  # Pa^2 at 1 m
    phase: float = 0.0  # rad

    def __post_init__(self):
        _require_non_negative(self.frequency, "frequency")
        _require_non_negative(self.power, "power")
        _require_finite(self.phase, "phase")


@dataclass(frozen=True)
class Source:
    """Point source: position, monopole/dipole kind, and a spectrum.

    The spectrum's JSON forms, parsed as `ToneSpectrum | BroadbandSpectrum`:
      {"type": "tone", "frequency": f_hz, "power": q2}        q2 in Pa^2 at 1 m; optional "phase" (rad)
      {"type": "broadband", "psd": s}                          flat Pa^2/Hz at 1 m
      {"type": "broadband", "frequencies": [...], "psd": [...]}  shaped
    Any other type or key, a missing key, a negative or non-finite value, or
    shaped lists of unequal length or non-increasing frequencies raise
    ConfigError at `spectrum.<key>`. A library caller may pass the JSON form;
    it is parsed here.
    """

    position: tuple[float, float, float]
    spectrum: ToneSpectrum | BroadbandSpectrum
    kind: Literal["monopole", "dipole"] = "monopole"
    axis: tuple[float, float, float] | None = None  # dipole axis, stored at unit length

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        _require_finite_each(self.position, "position")
        if isinstance(self.spectrum, dict):
            object.__setattr__(self, "spectrum", parse(ToneSpectrum | BroadbandSpectrum, self.spectrum, "spectrum"))
        if self.kind not in ("monopole", "dipole"):
            raise ConfigError("kind", f"unknown source kind {self.kind!r}")
        if self.kind == "dipole":
            if self.axis is None:
                raise ConfigError("axis", "dipole source needs an axis")
            a = np.asarray(self.axis, dtype=float)
            _require(np.linalg.norm(a) > 0, "axis", f"expected a non-zero vector, got {list(self.axis)!r}")
            object.__setattr__(self, "axis", a / np.linalg.norm(a))

    def directivity_gain(self, receivers: np.ndarray) -> np.ndarray:
        """Power gain toward each receiver (cos^2 of the angle to the axis)."""
        if self.kind == "monopole":
            return np.ones(len(receivers))
        d = receivers - self.position[None, :]
        cosang = (d @ self.axis) / np.linalg.norm(d, axis=1)
        return cosang**2

    def power_at(self, frequency: float) -> float:
        """Auto-power (Pa^2 at 1 m) at `frequency`: a tone's power at its own
        frequency and 0 elsewhere; a broadband source's PSD (Pa^2/Hz)."""
        spec = self.spectrum
        if isinstance(spec, ToneSpectrum):
            return spec.power if np.isclose(frequency, spec.frequency) else 0.0
        return float(spec.at(frequency))


@dataclass(frozen=True)
class Scene:
    """Sources, medium, per-channel noise, and the master seed. A library
    caller may pass `noise` in its JSON form; it is parsed here."""

    sources: tuple[Source, ...] = ()
    medium: MediumModel = field(default_factory=MediumModel)
    noise: PsdSpectrum | None = None
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.noise, dict):
            object.__setattr__(self, "noise", parse(PsdSpectrum, self.noise, "noise"))

    @classmethod
    def load_json(cls, path) -> "Scene":
        """Scene from a JSON file; errors name the entry, e.g. `scene.sources[0].kind`."""
        try:
            with open(path, encoding="utf-8") as fh:
                d = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError("scene", f"cannot read {path}: {exc}") from exc
        return parse(cls, d, "scene")


MIN_DISTANCE = 1e-9  # m; a receiver nearer to a source than this coincides with it


def _path_gains(source: Source, positions: np.ndarray, medium: MediumModel):
    """Travel times, effective distances and amplitude gains (1 m reference,
    dipole weighting) from a source to each receiver."""
    delays = path_delays(source.position[None, :], positions, medium)
    r_eff = medium.speed_of_sound * delays
    if (r_eff < MIN_DISTANCE).any():
        i = int(np.argmin(r_eff))
        raise ValueError(
            f"receiver {i} at {positions[i].tolist()} coincides with the source at {source.position.tolist()}"
        )
    gains = (REFERENCE_DISTANCE / r_eff) * np.sqrt(source.directivity_gain(positions))
    return delays, r_eff, gains


def _amplitude(r_eff, gains, alpha):
    """Path amplitude `gains * 10**(-alpha r_eff / 20)`: the amplitude gain and
    atmospheric absorption (`alpha` in dB/m, 0.0 without absorption).
    Arguments broadcast."""
    return gains * 10.0 ** (-alpha * r_eff / 20.0)


def _transfer(delays, r_eff, gains, frequency, alpha):
    """Path transfer `gains * 10**(-alpha r_eff / 20) * exp(-2 pi i f delays)`:
    the `_amplitude` and travel-time phase at `frequency`. Arguments
    broadcast, so one frequency over all channels and one channel over all
    frequencies both work."""
    return _amplitude(r_eff, gains, alpha) * np.exp(-2j * np.pi * frequency * delays)


def _phase_ramp(delays, step, nb):
    """`exp(-2 pi i k step delays)` for bins k < `nb`, one row per delay.

    With k = a B + b and B = ceil(sqrt(nb)) the ramp is the outer product of
    an A-long coarse and a B-long fine `exp` per row, so only about
    2 sqrt(nb) complex exponentials are evaluated per row. Each factor's
    angle is its step times an integer, so no rounding accumulates along
    the ramp."""
    fine_n = math.isqrt(nb - 1) + 1
    coarse_n = -(-nb // fine_n)
    w = -2.0 * np.pi * step * delays[:, None]
    fine = np.exp(1j * (w * np.arange(fine_n)))
    coarse = np.exp(1j * ((w * fine_n) * np.arange(coarse_n)))
    ramp = coarse[:, :, None] * fine[:, None, :]
    return ramp.reshape(len(delays), coarse_n * fine_n)[:, :nb]


def _source_signal(source: Source, rate: float, n: int, rng) -> np.ndarray:
    """Time signal of the source as heard at the 1 m reference distance."""
    spec = source.spectrum
    if isinstance(spec, ToneSpectrum):
        t = np.arange(n) / rate
        amp = np.sqrt(2.0 * spec.power)  # power = amp^2 / 2
        return amp * np.sin(2.0 * np.pi * spec.frequency * t + spec.phase)
    return spec.noise(rate, n, rng)


CHANNEL_BLOCK = 16  # channels whose spectra are summed and inverse-transformed together


def _block_records(paths, blk, rate, n, alpha, noise, noise_streams):
    """The (channels, n) records of the channels in `blk`: per bin, the sum
    over sources of the record spectrum times the path amplitude and phase
    ramp; one inverse FFT per channel; then each channel's noise from its
    stream in `noise_streams`."""
    nb = n // 2 + 1
    spectra = np.zeros((blk.stop - blk.start, nb), dtype=complex)
    for spectrum, delays, r_eff, gains in paths:
        term = _phase_ramp(delays[blk], rate / n, nb)
        term *= _amplitude(r_eff[blk, None], gains[blk, None], alpha)
        term *= spectrum
        spectra += term
    block = np.fft.irfft(spectra, n=n, axis=1)
    for row, stream in zip(block, noise_streams):
        row += noise.noise(rate, n, np.random.default_rng(stream))
    return block


def record_blocks(
    scene: Scene,
    positions: np.ndarray,
    rate: float = 48_000.0,
    duration: float = 1.0,
    include_absorption: bool = True,
) -> Iterator[np.ndarray]:
    """The scene's channel records, `CHANNEL_BLOCK` channels at a time.

    `positions` is (M, 3) receiver coordinates. Yields the channel-major
    (c, n) float64 records of channels 0..M-1 in order, c <= CHANNEL_BLOCK,
    so only one block of records exists at a time; `synthesize_timeseries`
    is these blocks side by side.

    Each channel is `irfft(sum_s rfft(s) * g_s(f_k), n)` over the source
    records `s`, with the path transfer `g` of `synthesize_csm`: every record
    delayed on its periodic extension, one inverse FFT per channel. The
    transfer's amplitude is `_amplitude`, as in `_transfer`; its phase at bin
    k comes from the two-level ramp of `_phase_ramp`, which agrees with
    `_transfer` to rounding. Each channel then gets its noise from its own
    seeded stream. The checks run and the source records are drawn when this
    is called, before the first block: a tone at or above `rate / 2` would
    alias, so it raises ConfigError at `scene.sources[i].spectrum.frequency`;
    a `rate * duration` that rounds to no sample raises ConfigError at
    `duration`.
    """
    for si, src in enumerate(scene.sources):
        spec = src.spectrum
        if isinstance(spec, ToneSpectrum):
            _require(
                spec.frequency < rate / 2.0,
                f"scene.sources[{si}].spectrum.frequency",
                f"expected below {rate / 2.0!r} Hz (half the sample rate {rate!r}), got {spec.frequency!r}",
            )
    pos = np.asarray(positions, dtype=float)
    n = int(round(rate * duration))
    _require(n >= 1, "duration", f"expected at least one sample at rate {rate!r}, got {n!r}")
    m = len(pos)
    alpha = atmospheric_absorption(np.fft.rfftfreq(n, d=1.0 / rate), scene.medium) if include_absorption else 0.0
    root = np.random.SeedSequence([scene.seed & 0xFFFFFFFF, 0x515E])
    src_seeds, noise_seed = root.spawn(2)
    src_streams = src_seeds.spawn(max(len(scene.sources), 1))
    noise_streams = noise_seed.spawn(m) if scene.noise is not None else []

    paths = []  # per source: record spectrum, travel times, effective distances, gains
    for si, src in enumerate(scene.sources):
        rng = np.random.default_rng(src_streams[si])
        paths.append((np.fft.rfft(_source_signal(src, rate, n, rng)), *_path_gains(src, pos, scene.medium)))

    blocks = (slice(c0, min(c0 + CHANNEL_BLOCK, m)) for c0 in range(0, m, CHANNEL_BLOCK))
    return (_block_records(paths, blk, rate, n, alpha, scene.noise, noise_streams[blk]) for blk in blocks)


def synthesize_timeseries(
    scene: Scene,
    positions: np.ndarray,
    rate: float = 48_000.0,
    duration: float = 1.0,
    include_absorption: bool = True,
) -> tuple[np.ndarray, dict]:
    """Multichannel pressure time series for the scene: the `record_blocks`
    of `positions` side by side, with its checks.

    `positions` is (M, 3) receiver coordinates (pass `geometry.positions` or
    `subarray.positions`). Returns (signals (n, M), metadata); the signals
    are C-contiguous float64.
    """
    m = len(positions)
    blocks = record_blocks(scene, positions, rate, duration, include_absorption)
    out = np.empty((int(round(rate * duration)), m))
    for c0, block in zip(range(0, m, CHANNEL_BLOCK), blocks):
        out[:, c0 : c0 + len(block)] = block.T
    meta = {"rate": rate, "duration": duration, "channels": m}
    return out, meta


def synthesize_csm(
    scene: Scene,
    positions: np.ndarray,
    frequencies,
    include_absorption: bool = True,
) -> list[CrossSpectralMatrix]:
    """Exact CSMs: sum over sources of q^2 g g^H plus a diagonal noise term,
    each built from its factor.

    At each frequency the factor F holds one column sqrt(q^2) g per source
    with power there (none, an (M, 0) factor, when no source has), and the
    diagonal holds the noise PSD per channel (zeros without noise); the CSM
    is F F^H + diag(d) and keeps F and d for `clean_sc`. Each source's
    travel times and gains are computed once, when it first contributes;
    per frequency only the absorption and the phase of the path transfer are
    applied.
    """
    pos = np.asarray(positions, dtype=float)
    m = len(pos)
    paths = {}  # source index -> (delays, effective distances, gains without absorption)
    out = []
    for f in np.atleast_1d(np.asarray(frequencies, dtype=float)):
        if f <= 0:
            raise ValueError("CSM frequencies must be > 0")
        columns = []
        units = "Pa^2/Hz"
        alpha = atmospheric_absorption(f, scene.medium) if include_absorption else 0.0
        for i, src in enumerate(scene.sources):
            q2 = src.power_at(f)
            if isinstance(src.spectrum, ToneSpectrum):
                units = "Pa^2"
            if q2 == 0.0:
                continue
            if i not in paths:
                paths[i] = _path_gains(src, pos, scene.medium)
            columns.append(np.sqrt(q2) * _transfer(*paths[i], f, alpha))
        factor = np.stack(columns, axis=1) if columns else np.zeros((m, 0), dtype=complex)
        noise = 0.0 if scene.noise is None else scene.noise.at(f)
        out.append(
            CrossSpectralMatrix(
                frequency=float(f),
                factor=factor,
                diagonal=np.full(m, noise, dtype=float),
                n_averages=1,
                window="exact",
                units=units,
            )
        )
    return out
