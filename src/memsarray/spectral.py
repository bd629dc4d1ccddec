"""Cross-spectral estimation and spectrum bookkeeping.

Welch-averaged cross-spectral matrices (one-sided PSD scaling with window
power compensation), formed one channel block at a time from an array or a
stream of blocks, with each segment's spectrum taken at the requested bins
only; and third-octave/octave band powers.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ProtocolError

P_REF = 20e-6  # Pa
P_REF_SQ = P_REF * P_REF
DB_FLOOR = -400.0


def to_db(values, reference: float = P_REF_SQ) -> np.ndarray:
    """Power quantity to dB re `reference`, floored at DB_FLOOR (zeros included)."""
    v = np.asarray(values, dtype=float)
    out = np.full(v.shape, DB_FLOOR)
    pos = v > 0
    out[pos] = 10.0 * np.log10(v[pos] / reference)
    return np.maximum(out, DB_FLOOR)


@dataclass(frozen=True)
class CrossSpectralMatrix:
    """Hermitian cross-power matrix at one frequency, C = F F^H + diag(d).

    The factor F (M, K) holds one column per coherent part (a source of an
    exact CSM, a Welch block of a measured one) and the real diagonal d (M,)
    the incoherent auto-power per channel. The matrix itself is never
    formed: maps are formed from F and d in O(KMN), and only CLEAN-SC builds
    the dense (M, M) copy it degrades. The constructor checks the shapes,
    d >= 0 and that every `auto_power` is finite; by Cauchy-Schwarz,
    |C_ij| <= sqrt(C_ii C_jj), so that bounds every entry of C.
    """

    frequency: float
    factor: np.ndarray  # (M, K) complex
    diagonal: np.ndarray  # (M,) real
    n_averages: int = 1
    window: str = "exact"
    block_size: int = 0
    overlap: float = 0.0
    units: str = "Pa^2/Hz"

    def __post_init__(self):
        f, d = self.factor, self.diagonal
        if np.ndim(f) != 2 or np.ndim(d) != 1 or len(f) != len(d) or np.iscomplexobj(d):
            raise ValueError(
                f"factor {np.shape(f)} and diagonal {np.shape(d)} are not an (M, K) array and a real (M,) array"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(self.auto_power).all()
        if not finite:
            raise ValueError("CSM contains non-finite entries")
        if (d < 0).any():
            raise ValueError("CSM diagonal must be non-negative")

    @property
    def n_channels(self) -> int:
        return len(self.diagonal)

    @property
    def auto_power(self) -> np.ndarray:
        """(M,) diagonal of C, sum_k |F_mk|^2 + d_m, formed in O(MK)."""
        return _factor_power(self.factor) + self.diagonal


def _factor_power(factor: np.ndarray) -> np.ndarray:
    """(M,) coherent auto-power sum_k |F_mk|^2 of a CSM factor, the diagonal of
    F F^H. Each row's sum is its own product F_m F_m^H, so it rounds as F F^H
    of that one channel does."""
    return (factor[:, None, :] @ factor[:, :, None].conj())[:, 0, 0].real


@dataclass(frozen=True)
class Spectrum:
    """Frequency series of a linear power quantity, one value per frequency."""

    frequencies: np.ndarray
    psd: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        if len(f) > 1 and not (np.diff(f) > 0).all():
            raise ValueError("frequencies must be strictly increasing")

    def db(self) -> np.ndarray:
        return to_db(self.psd)


def welch_bins(frequencies, rate: float, block: int) -> np.ndarray:
    """rFFT bin index nearest to each requested frequency, in request order
    (a frequency half-way between two bins takes the lower one).

    A frequency outside (rate / (2 block), rate / 2], where the nearest bin
    is above DC, raises ConfigError at `frequencies[i]`; two frequencies
    nearest to one bin raise ConfigError at `frequencies`.
    """
    freqs = [float(f) for f in frequencies]
    lo, hi = rate / (2 * block), rate / 2  # half a bin above DC, up to Nyquist
    for i, f in enumerate(freqs):
        if not lo < f <= hi:
            raise ConfigError(
                f"frequencies[{i}]", f"expected > {lo!r} and <= {hi!r} Hz (a Welch bin above DC), got {f!r}"
            )
    bins = np.fft.rfftfreq(block, d=1.0 / rate)
    idx = np.abs(bins[None, :] - np.array(freqs)[:, None]).argmin(axis=1)
    first = {}  # bin index -> the first frequency requested there
    for f, k in zip(freqs, idx.tolist()):
        if k in first:
            raise ConfigError("frequencies", f"{first[k]!r} Hz and {f!r} Hz share the {float(bins[k])!r} Hz Welch bin")
        first[k] = f
    return idx


def welch_csm(
    signals,
    rate: float,
    block: int = 1024,
    overlap: float = 0.5,
    window: str = "hann",
    frequencies=None,
) -> list[CrossSpectralMatrix]:
    """Welch-averaged CSMs at the selected rFFT bins (all bins up to Nyquist by default).

    `signals` is an (n_samples, n_channels) array, or an iterable of
    channel-major (c, n_samples) blocks in channel order, such as
    `synthesis.record_blocks`; one block at a time is read and then dropped,
    so a record streamed that way is never whole in memory. Each channel's
    mean is removed over its full record; segments are not detrended
    individually. One-sided PSD normalization: 2 / (fs * sum(w**2)), halved
    at DC and Nyquist.
    `frequencies` gives one CSM per requested frequency, in request order, at
    its nearest bin (`welch_bins` checks the requests); each CSM's `frequency`
    is its bin's. The spectra of a block's segments are taken at those bins
    only: its strided (c, n_averages, block) segment view times one real
    (block, 2 bins) basis, the window times the cos and sin of each bin, in
    one matmul, O(block) per channel, segment and bin. A bin's CSM is its
    scaled segment spectra as the factor F (M, n_averages), with a zero
    diagonal. No channel blocks, blocks of unequal length or a record shorter
    than one block raise ValueError.
    """
    if not 0.0 <= overlap < 1.0:
        raise ValueError("overlap must be in [0, 1)")
    hop = int(round(block * (1.0 - overlap)))
    if hop < 1:
        raise ValueError("overlap leaves an empty hop")
    from scipy.signal import get_window  # slow to load, so imported only where it is used

    w = get_window(window, block, fftbins=True)
    freqs = np.fft.rfftfreq(block, d=1.0 / rate)
    idx = np.arange(len(freqs)) if frequencies is None else welch_bins(frequencies, rate, block)
    fsel = freqs[idx]
    # j k is reduced mod block before the angle is formed, so cos and sin see angles below 2 pi, not up to pi block
    angle = (2.0 * np.pi / block) * ((np.arange(block)[:, None] * idx[None, :]) % block)
    # each bin's windowed cos and -sin side by side, so a product row read as complex is the segment's spectrum
    basis = (w[:, None, None] * np.stack([np.cos(angle), -np.sin(angle)], axis=-1)).reshape(block, 2 * len(idx))

    spectra = []  # per channel block: (bins, c, n_averages)
    n = None
    for x in [signals.T] if isinstance(signals, np.ndarray) else signals:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"channel block of shape {x.shape} is not (channels, samples)")
        if n is None:
            n = x.shape[1]
            if n < block:
                raise ValueError(f"signal of {n} samples is shorter than one block ({block})")
        elif x.shape[1] != n:
            raise ValueError(f"channel block of {x.shape[1]} samples, after blocks of {n}")
        x = np.subtract(x, x.mean(axis=1, keepdims=True), order="C")  # an array's (M, n) view becomes rows
        segments = sliding_window_view(x, block, axis=-1)[..., ::hop, :]  # (c, n_averages, block), no copy
        spectra.append((segments @ basis).view(complex).transpose(2, 0, 1))
    if n is None:
        raise ValueError("no channel blocks")
    spec = np.concatenate(spectra, axis=1)  # (bins, M, n_averages)
    n_avg = spec.shape[2]
    # each bin's factor is its segment spectra, so F F^H is the sum over segments of X X^H times the PSD scale;
    # DC and Nyquist carry no one-sided doubling
    scale = np.full(len(idx), np.sqrt(2.0 / (rate * np.sum(w * w) * n_avg)))
    scale[(fsel == 0.0) | np.isclose(fsel, rate / 2.0)] *= np.sqrt(0.5)
    spec *= scale[:, None, None]

    m = spec.shape[1]
    return [
        CrossSpectralMatrix(
            frequency=float(f),
            factor=factor,
            diagonal=np.zeros(m),
            n_averages=n_avg,
            window=window,
            block_size=block,
            overlap=overlap,
        )
        for f, factor in zip(fsel, spec)
    ]


def _band_step(band_type: str) -> float:
    """log2 spacing of the base-2 standard band centers."""
    if band_type == "third_octave":
        return 1.0 / 3.0
    if band_type == "octave":
        return 1.0
    raise ValueError(f"unknown band type {band_type!r}")


def band_centers(band_type: str, f_min: float, f_max: float) -> np.ndarray:
    """Base-2 standard band centers covering [f_min, f_max]."""
    step = _band_step(band_type)
    n_lo = int(np.floor(np.log2(f_min / 1000.0) / step))
    n_hi = int(np.ceil(np.log2(f_max / 1000.0) / step))
    centers = 1000.0 * 2.0 ** (step * np.arange(n_lo, n_hi + 1))
    return centers[(centers >= f_min) & (centers <= f_max)]


def band_edges(center, band_type: str) -> tuple:
    ratio = 2.0 ** (_band_step(band_type) / 2.0)
    return center / ratio, center * ratio


def band_power(frequencies, power, band_type: str) -> tuple[np.ndarray, np.ndarray]:
    """(centers (B,), band powers (..., B)) of `power` (..., F) at `frequencies` (F,).

    The base-2 standard bands [lo, hi) tile the positive axis, so every positive
    frequency lies in exactly one band; bands that hold none are dropped. A
    band's power is the mean of its frequencies' entries times hi - lo, exact
    for one frequency per band and for a PSD flat within the band (a dense PSD
    gets its sum times the bin spacing to within one bin). NaN entries are
    left out of the mean, and a band whose entries are all NaN is NaN.
    """
    step = _band_step(band_type)
    f = np.asarray(frequencies, dtype=float)
    pos = f > 0
    p = np.asarray(power, dtype=float)[..., pos]
    # band k spans [1000 * 2^(step (k - 1/2)), 1000 * 2^(step (k + 1/2))) Hz
    bands, which = np.unique(np.floor(np.log2(f[pos] / 1000.0) / step + 0.5), return_inverse=True)
    member = (which[:, None] == np.arange(len(bands))).astype(float)  # (F, B)
    kept = ~np.isnan(p)
    with np.errstate(invalid="ignore"):  # 0 / 0: every entry of the band is NaN
        mean = (np.where(kept, p, 0.0) @ member) / (kept @ member)
    centers = 1000.0 * 2.0 ** (step * bands)
    lo, hi = band_edges(centers, band_type)
    return centers, mean * (hi - lo)


def save_csm_set(path, csms: list[CrossSpectralMatrix], geometry_hash: str = ""):
    """Binary CSM container: JSON header, then each CSM's factor F (`<c16`,
    row-major) and diagonal d (`<f8`); the header's `ranks` holds each K."""
    header = {
        "frequencies": [c.frequency for c in csms],
        "ranks": [c.factor.shape[1] for c in csms],
        "n_channels": csms[0].n_channels,
        "n_averages": csms[0].n_averages,
        "window": csms[0].window,
        "block_size": csms[0].block_size,
        "overlap": csms[0].overlap,
        "units": csms[0].units,
        "geometry_hash": geometry_hash,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"CSMF")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for c in csms:
            fh.write(np.ascontiguousarray(c.factor, dtype="<c16").tobytes())
            fh.write(np.ascontiguousarray(c.diagonal, dtype="<f8").tobytes())


def load_csm_set(path) -> list[CrossSpectralMatrix]:
    """CSMs of a `save_csm_set` file; a truncated or corrupt file raises ProtocolError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"CSMF":
        raise ProtocolError("not a CSM container")
    if len(data) < 8:
        raise ProtocolError("CSM container ends inside its header length")
    (hlen,) = struct.unpack_from("<I", data, 4)
    try:
        header = json.loads(data[8 : 8 + hlen])
        m = header["n_channels"]
        freqs = [float(f) for f in header["frequencies"]]
        ranks = list(header["ranks"])
        meta = {k: header[k] for k in ("n_averages", "window", "block_size", "overlap", "units")}
    except (ValueError, KeyError, TypeError) as exc:
        raise ProtocolError(f"corrupt CSM header: {exc}") from exc
    if type(m) is not int or m < 1:
        raise ProtocolError(f"corrupt CSM header: n_channels {m!r}")
    if len(ranks) != len(freqs) or any(type(k) is not int or k < 0 for k in ranks):
        raise ProtocolError(f"corrupt CSM header: ranks {ranks!r} for {len(freqs)} frequencies")
    if len(data) != 8 + hlen + sum(16 * m * k + 8 * m for k in ranks):
        raise ProtocolError(
            f"CSM container of {len(data)} bytes does not hold {len(freqs)} matrices of {m} channels and ranks {ranks}"
        )
    out = []
    offset = 8 + hlen
    for f, k in zip(freqs, ranks):
        factor = np.frombuffer(data, dtype="<c16", count=m * k, offset=offset).reshape(m, k)
        diagonal = np.frombuffer(data, dtype="<f8", count=m, offset=offset + 16 * m * k)
        offset += 16 * m * k + 8 * m
        try:
            out.append(CrossSpectralMatrix(frequency=f, factor=factor, diagonal=diagonal, **meta))
        except ValueError as exc:
            raise ProtocolError(f"corrupt CSM at {f} Hz: {exc}") from exc
    return out
