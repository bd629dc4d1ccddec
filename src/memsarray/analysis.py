"""Map integration, directivity surfaces, and far-field projection.

Directivity follows the subtract-the-angle-average convention: for each
frequency, Gamma(theta, f) = PSD(theta, f) - <PSD(theta, f)>_theta in dB, so
Gamma = 0 means the source radiates its angle-average power toward that
angle. Because beamforming maps are referenced to the 1 m source power, the
spherical-spreading difference between sub-array positions is already
removed before Gamma is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamforming import BeamformingMap
from .errors import _require_range
from .spectral import Spectrum, band_power, to_db


@dataclass(frozen=True)
class RegionOfInterest:
    """Box in the focus grid's in-plane coordinates; `analysis.roi` of a run config."""

    x_range: tuple[float, float]
    z_range: tuple[float, float]
    label: str = "roi"

    def __post_init__(self):
        _require_range(self.x_range, "x_range", strict=True)
        _require_range(self.z_range, "z_range", strict=True)

    def contains(self, local_points: np.ndarray) -> np.ndarray:
        pts = np.asarray(local_points, dtype=float)
        (x0, x1), (z0, z1) = self.x_range, self.z_range
        return (pts[:, 0] >= x0) & (pts[:, 0] <= x1) & (pts[:, 1] >= z0) & (pts[:, 1] <= z1)


@dataclass(frozen=True)
class DirectivitySurface:
    """PSD(theta, f) and Gamma(theta, f) over observation angles."""

    angles: np.ndarray  # (A,) degrees, geometric-mean based
    angle_spreads: np.ndarray  # (A,)
    frequencies: np.ndarray  # (F,)
    psd_db: np.ndarray  # (A, F), NaN where masked
    gamma_db: np.ndarray  # (A, F)


@dataclass(frozen=True)
class FarFieldComparison:
    """Distance-normalized mic average against ROI-integrated beamforming."""

    frequencies: np.ndarray
    integrated_db: np.ndarray
    mic_average_db: np.ndarray
    delta_psd_db: np.ndarray  # integrated - mic average


def integrate_map(map_: BeamformingMap, roi: RegionOfInterest) -> float:
    """ROI power: CLEAN-SC sums component powers, conventional sums map cells.

    Conventional integration carries the point-spread-function bias and is
    reported as-is.
    """
    mask = roi.contains(map_.grid.local)
    if not mask.any():
        raise ValueError("ROI does not overlap the focus grid")
    if map_.kind == "clean_sc":
        return float(sum(p for t, p in map_.components if mask[t]))
    return float(map_.values[mask].sum())


def maps_to_spectrum(maps: list[BeamformingMap], roi: RegionOfInterest) -> Spectrum:
    """ROI-integrated power (Pa^2) per map frequency."""
    maps = sorted(maps, key=lambda m: m.frequency)
    f = np.array([m.frequency for m in maps])
    p = np.array([integrate_map(m, roi) for m in maps])
    return Spectrum(frequencies=f, psd=p)


def directivity(spectra: list[tuple]) -> DirectivitySurface:
    """Build a directivity surface from per-angle spectra.

    `spectra` is a list of (ObservationAngles, Spectrum) pairs. All spectra
    must share one frequency axis; missing bins (NaN or non-positive power)
    stay masked. The angle average is taken over dB values.
    """
    if len(spectra) < 2:
        raise ValueError("directivity needs spectra from at least 2 angles")
    thetas = []
    spreads = []
    rows = []
    freqs = None
    for ang, spec in spectra:
        thetas.append(ang.theta)
        spreads.append(ang.theta_std)
        if freqs is None:
            freqs = np.asarray(spec.frequencies, dtype=float)
        elif len(spec.frequencies) != len(freqs) or not np.allclose(spec.frequencies, freqs):
            raise ValueError("all spectra must share one frequency axis")
        p = np.asarray(spec.psd, dtype=float)
        row = np.where(p > 0, p, np.nan)
        rows.append(row)
    order = np.argsort(thetas)
    power = np.array(rows)[order]
    psd_db = np.full(power.shape, np.nan)
    ok = np.isfinite(power)
    psd_db[ok] = to_db(power[ok])
    gamma = psd_db - np.nanmean(psd_db, axis=0, keepdims=True)
    return DirectivitySurface(
        angles=np.array(thetas)[order],
        angle_spreads=np.array(spreads)[order],
        frequencies=freqs,
        psd_db=psd_db,
        gamma_db=gamma,
    )


def octave_polar(surface: DirectivitySurface, band_type: str = "octave") -> dict:
    """Band powers of the surface per angle (`band_power`), then Gamma re-centred
    per band over the angles, as `directivity` does. A masked (NaN) cell is left
    out of its band's power; a band all of whose cells at an angle are masked is
    NaN there.

    Returns {"centers": [...], "angles": [...], "gamma_db": (A, B) array}.
    """
    centers, power = band_power(surface.frequencies, 10.0 ** (surface.psd_db / 10.0), band_type)
    band_db = 10.0 * np.log10(power)  # (A, B), relative units
    gamma = band_db - np.nanmean(band_db, axis=0, keepdims=True)
    return {"centers": centers, "angles": surface.angles, "gamma_db": gamma}


def distance_normalize(spectrum: Spectrum, distance: float, reference: float = 1.0) -> Spectrum:
    """Project a spectrum measured at `distance` to the reference distance.

    Monopole spreading: +20 log10(d / d0) in dB, i.e. (d / d0)^2 in power.
    """
    if distance <= 0 or reference <= 0:
        raise ValueError("distances must be > 0")
    return Spectrum(frequencies=spectrum.frequencies, psd=spectrum.psd * (distance / reference) ** 2)


def farfield_compare(integrated: Spectrum, mics: list[tuple[Spectrum, float]]) -> FarFieldComparison:
    """Compare ROI-integrated beamforming against far-field microphones.

    Every mic spectrum is normalized to 1 m, averaged in linear power, and
    subtracted from the integrated spectrum in dB. All spectra must share one
    frequency axis.
    """
    if not mics:
        raise ValueError("need at least one far-field microphone")
    f = np.asarray(integrated.frequencies, dtype=float)
    normalized = [distance_normalize(s, d, 1.0) for s, d in mics]
    if not all(len(s.frequencies) == len(f) and np.allclose(s.frequencies, f) for s in normalized):
        raise ValueError("all spectra must share one frequency axis")
    integ_db = to_db(integrated.psd)
    mic_db = to_db(np.mean([s.psd for s in normalized], axis=0))
    return FarFieldComparison(
        frequencies=f,
        integrated_db=integ_db,
        mic_average_db=mic_db,
        delta_psd_db=integ_db - mic_db,
    )

