"""Propagation models shared by synthesis and steering.

Covers the closed-form monopole Green's function in uniform flow, pure-tone
atmospheric absorption after ISO 9613-1, and the Amiet planar shear-layer
refraction correction (Fermat path through the layer, found by damped Newton
iteration on the in-plane crossing coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, check_keys

REFERENCE_DISTANCE = 1.0  # m, level reference for source strengths


@dataclass(frozen=True)
class ShearLayerPlane:
    """Plane separating the flow region (model side) from quiescent air.

    The normal points from the flow side toward the quiescent (array) side.
    """

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "normal", n / np.linalg.norm(n))

    def side(self, x) -> float:
        return float(np.dot(np.asarray(x, dtype=float) - self.point, self.normal))


@dataclass(frozen=True)
class MediumModel:
    """Uniform medium: speed of sound, convection, and damping parameters."""

    speed_of_sound: float = 343.0
    mach_vector: np.ndarray = field(default_factory=lambda: np.zeros(3))
    temperature: float = 20.0  # deg C
    relative_humidity: float = 70.0  # percent
    pressure: float = 101.325  # kPa
    shear_layer: ShearLayerPlane | None = None

    def __post_init__(self):
        m = np.asarray(self.mach_vector, dtype=float)
        object.__setattr__(self, "mach_vector", m)
        if self.speed_of_sound <= 0:
            raise ConfigError("speed_of_sound", "speed of sound must be > 0")
        if np.dot(m, m) >= 1.0:
            raise ConfigError("mach", "|mach_vector| must be < 1")
        if not 0.0 <= self.relative_humidity <= 100.0:
            raise ConfigError("relative_humidity", "relative humidity must be within 0..100 %")

    def to_dict(self) -> dict:
        d = {
            "speed_of_sound": self.speed_of_sound,
            "mach": [float(v) for v in self.mach_vector],
            "temperature": self.temperature,
            "relative_humidity": self.relative_humidity,
            "pressure": self.pressure,
        }
        if self.shear_layer is not None:
            d["shear_plane"] = {
                "point": [float(v) for v in self.shear_layer.point],
                "normal": [float(v) for v in self.shear_layer.normal],
            }
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MediumModel":
        check_keys(d, ("speed_of_sound", "mach", "temperature", "relative_humidity", "pressure", "shear_plane"))
        shear = None
        if d.get("shear_plane") is not None:
            check_keys(d["shear_plane"], ("point", "normal"), "shear_plane")
            shear = ShearLayerPlane(**d["shear_plane"])
        return cls(
            speed_of_sound=float(d.get("speed_of_sound", 343.0)),
            mach_vector=np.array(d.get("mach", [0.0, 0.0, 0.0]), dtype=float),
            temperature=float(d.get("temperature", 20.0)),
            relative_humidity=float(d.get("relative_humidity", 70.0)),
            pressure=float(d.get("pressure", 101.325)),
            shear_layer=shear,
        )


@dataclass(frozen=True)
class PathResult:
    """Travel quantities for one source-receiver path."""

    delay: float  # s
    amplitude: float  # 1/m, free-field 1/(4 pi r) convention
    effective_distance: float  # m, c0 * delay


def convected_delays(sources, receivers, medium: MediumModel) -> np.ndarray:
    """Travel times source -> receiver in uniform flow (broadcasting shapes).

    With d the separation vector, M the Mach vector and beta^2 = 1 - M.M:
    c * tau = (-M.d + sqrt((M.d)^2 + beta^2 |d|^2)) / beta^2,
    the positive root of the retarded-time equation |d - c M tau| = c tau.
    """
    src = np.asarray(sources, dtype=float)
    rcv = np.asarray(receivers, dtype=float)
    d = rcv - src
    m = medium.mach_vector
    beta2 = 1.0 - float(np.dot(m, m))
    md = d @ m
    rr = np.sqrt(md * md + beta2 * np.sum(d * d, axis=-1))
    return (-md + rr) / (medium.speed_of_sound * beta2)


def green_convected(source, receiver, medium: MediumModel) -> PathResult:
    """Monopole Green's function quantities for uniform subsonic flow."""
    source = np.asarray(source, dtype=float)
    receiver = np.asarray(receiver, dtype=float)
    d = receiver - source
    if np.dot(d, d) == 0.0:
        raise ValueError("source and receiver coincide")
    m = medium.mach_vector
    beta2 = 1.0 - float(np.dot(m, m))
    md = float(np.dot(m, d))
    rr = float(np.sqrt(md * md + beta2 * np.dot(d, d)))
    delay = (-md + rr) / (medium.speed_of_sound * beta2)
    return PathResult(
        delay=delay,
        amplitude=1.0 / (4.0 * np.pi * rr),
        effective_distance=medium.speed_of_sound * delay,
    )


def atmospheric_absorption(frequency, medium: MediumModel) -> np.ndarray | float:
    """Pure-tone atmospheric absorption in dB/m per ISO 9613-1.

    Amplitude application convention: a path of length d is attenuated by
    10**(-alpha * d / 20).
    """
    f = np.asarray(frequency, dtype=float)
    if (f < 0).any():
        raise ValueError("frequency must be >= 0")
    T = medium.temperature + 273.15
    T0 = 293.15
    T01 = 273.16
    p = medium.pressure / 101.325
    c_exp = -6.8346 * (T01 / T) ** 1.261 + 4.6151
    h = medium.relative_humidity * (10.0 ** c_exp) / p
    fro = p * (24.0 + 4.04e4 * h * (0.02 + h) / (0.391 + h))
    frn = p * (T / T0) ** -0.5 * (9.0 + 280.0 * h * np.exp(-4.17 * ((T / T0) ** (-1.0 / 3.0) - 1.0)))
    f2 = f * f
    alpha = 8.686 * f2 * (
        1.84e-11 * (1.0 / p) * np.sqrt(T / T0)
        + (T / T0) ** -2.5
        * (
            0.01275 * np.exp(-2239.1 / T) / (fro + f2 / fro)
            + 0.1068 * np.exp(-3352.0 / T) / (frn + f2 / frn)
        )
    )
    return alpha if alpha.ndim else float(alpha)


def _plane_basis(normal: np.ndarray):
    ref = np.array([1.0, 0.0, 0.0])
    if abs(float(np.dot(ref, normal))) > 0.9:
        ref = np.array([0.0, 0.0, 1.0])
    e1 = ref - np.dot(ref, normal) * normal
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    return e1, e2


def shear_crossing_delays(
    sources,
    receivers,
    medium: MediumModel,
    tolerance: float = 1e-10,
    max_iterations: int = 80,
):
    """Vectorized Amiet travel times: convected leg to the shear plane, then a
    straight leg to the receiver, crossing point chosen by Fermat's principle.

    Returns (delays, crossing_points) with leading broadcast shape (K,).
    Receivers lying on the plane get the convected leg only.
    """
    if medium.shear_layer is None:
        raise ValueError("medium has no shear layer")
    plane = medium.shear_layer
    c0 = medium.speed_of_sound
    m = medium.mach_vector
    beta2 = 1.0 - float(np.dot(m, m))
    src = np.atleast_2d(np.asarray(sources, dtype=float))
    rcv = np.atleast_2d(np.asarray(receivers, dtype=float))
    src, rcv = np.broadcast_arrays(src, rcv)
    lead_shape = src.shape[:-1]
    src = src.reshape(-1, 3)
    rcv = rcv.reshape(-1, 3)
    k = len(src)

    s_side = (src - plane.point) @ plane.normal
    r_side = (rcv - plane.point) @ plane.normal
    if (s_side >= -1e-12).any():
        raise ValueError("source must lie strictly on the flow side of the shear plane")
    if (r_side < -1e-12).any():
        raise ValueError("receiver must lie on the quiescent side of the shear plane")

    e1, e2 = _plane_basis(plane.normal)

    def conv_grad(p):
        d = p - src
        md = (d @ m)[:, None]
        rr = np.sqrt(md[:, 0] ** 2 + beta2 * np.sum(d * d, axis=-1))[:, None]
        return (-m[None, :] + (md * m[None, :] + beta2 * d) / rr) / (c0 * beta2)

    on_plane = np.abs(r_side) <= 1e-12

    def total_time(uv):
        p = plane.point + uv[:, :1] * e1 + uv[:, 1:] * e2
        seg = np.linalg.norm(rcv - p, axis=-1)
        return convected_delays(src, p, medium) + seg / c0

    def grad(uv):
        p = plane.point + uv[:, :1] * e1 + uv[:, 1:] * e2
        dr = rcv - p
        seg = np.linalg.norm(dr, axis=-1)[:, None]
        seg = np.where(seg > 1e-15, seg, 1.0)
        g3 = conv_grad(p) - dr / (c0 * seg)
        return np.stack([g3 @ e1, g3 @ e2], axis=1)

    # init at the straight-line plane intersection
    denom = (rcv - src) @ plane.normal
    t = -s_side / np.where(np.abs(denom) > 1e-15, denom, 1.0)
    p0 = src + t[:, None] * (rcv - src)
    uv = np.stack([(p0 - plane.point) @ e1, (p0 - plane.point) @ e2], axis=1)

    active = ~on_plane
    f_cur = total_time(uv)
    h = 1e-7
    for _ in range(max_iterations):
        if not active.any():
            break
        g = grad(uv)
        gpu = grad(uv + np.array([h, 0.0]))
        gmu = grad(uv - np.array([h, 0.0]))
        gpv = grad(uv + np.array([0.0, h]))
        gmv = grad(uv - np.array([0.0, h]))
        h11 = (gpu[:, 0] - gmu[:, 0]) / (2 * h)
        h12 = (gpv[:, 0] - gmv[:, 0]) / (2 * h)
        h21 = (gpu[:, 1] - gmu[:, 1]) / (2 * h)
        h22 = (gpv[:, 1] - gmv[:, 1]) / (2 * h)
        det = h11 * h22 - h12 * h21
        ok = np.abs(det) > 1e-300
        inv_det = np.where(ok, det, 1.0)
        step = np.empty_like(uv)
        step[:, 0] = -(h22 * g[:, 0] - h12 * g[:, 1]) / inv_det
        step[:, 1] = -(-h21 * g[:, 0] + h11 * g[:, 1]) / inv_det
        # gradient fallback where the Hessian is degenerate
        step[~ok] = -g[~ok] * 1e3
        step[~active] = 0.0
        # damped: halve until the travel time does not increase
        lam = np.ones(k)
        for _ in range(40):
            trial = total_time(uv + lam[:, None] * step)
            bad = active & (trial > f_cur + 1e-18)
            if not bad.any():
                break
            lam[bad] *= 0.5
        uv = uv + lam[:, None] * step
        f_new = total_time(uv)
        moved = np.abs(lam[:, None] * step).max(axis=1)
        converged = moved < tolerance
        active = active & ~converged
        f_cur = f_new
    else:
        if active.any():
            j = int(np.argmax(active))
            raise NumericalError(
                f"shear crossing did not converge for pair {j}: "
                f"source {src[j]}, receiver {rcv[j]}, residual step {moved[j]:.3e} m"
            )

    crossing = plane.point + uv[:, :1] * e1 + uv[:, 1:] * e2
    delays = total_time(uv)
    if on_plane.any():
        delays = np.where(on_plane, convected_delays(src, rcv, medium), delays)
        crossing[on_plane] = rcv[on_plane]
    return delays.reshape(lead_shape), crossing.reshape(lead_shape + (3,))


def amiet_correction(source, receiver, medium: MediumModel) -> PathResult:
    """Shear-layer corrected path from an in-flow source to an out-of-flow receiver.

    The amplitude keeps the spherical-spreading form over the effective
    (delay-consistent) total distance, so it reduces exactly to the straight
    ray at M = 0.
    """
    delays, _ = shear_crossing_delays(
        np.asarray(source, dtype=float)[None, :],
        np.asarray(receiver, dtype=float)[None, :],
        medium,
    )
    delay = float(delays[0])
    r_eff = medium.speed_of_sound * delay
    return PathResult(delay=delay, amplitude=1.0 / (4.0 * np.pi * r_eff), effective_distance=r_eff)


def path_delays(sources, receivers, medium: MediumModel) -> np.ndarray:
    """Travel times using the shear-layer path when the medium has one."""
    if medium.shear_layer is not None:
        delays, _ = shear_crossing_delays(sources, receivers, medium)
        return delays
    return convected_delays(sources, receivers, medium)
