"""Propagation models shared by synthesis and steering.

Covers closed-form travel times in uniform flow, pure-tone
atmospheric absorption after ISO 9613-1, and the Amiet planar shear-layer
refraction correction (Fermat path through the layer, found by damped Newton
iteration on the in-plane crossing coordinates with the closed-form Hessian).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, NumericalError, _require, _require_finite, _require_finite_each, _require_positive

REFERENCE_DISTANCE = 1.0  # m, level reference for source strengths


@dataclass(frozen=True)
class ShearLayerPlane:
    """Plane separating the flow region (model side) from quiescent air.

    The normal points from the flow side toward the quiescent (array) side.
    """

    point: tuple[float, float, float]
    normal: tuple[float, float, float]

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        _require(np.linalg.norm(n) > 0, "normal", f"expected a non-zero vector, got {list(self.normal)!r}")
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        _require_finite_each(self.point, "point")
        object.__setattr__(self, "normal", n / np.linalg.norm(n))


@dataclass(frozen=True)
class MediumModel:
    """Uniform medium: speed of sound, convection, and damping parameters.

    The scene's JSON names `mach_vector` "mach" and `shear_layer` "shear_plane"."""

    speed_of_sound: float = 343.0
    mach_vector: tuple[float, float, float] = field(default_factory=lambda: np.zeros(3), metadata={"key": "mach"})
    temperature: float = 20.0  # deg C
    relative_humidity: float = 70.0  # percent
    pressure: float = 101.325  # kPa
    shear_layer: ShearLayerPlane | None = field(default=None, metadata={"key": "shear_plane"})

    def __post_init__(self):
        m = np.asarray(self.mach_vector, dtype=float)
        object.__setattr__(self, "mach_vector", m)
        _require_positive(self.speed_of_sound, "speed_of_sound")
        _require(float(m @ m) < 1.0, "mach", "|mach_vector| must be < 1")
        _require_finite(self.temperature, "temperature")
        if not 0.0 <= self.relative_humidity <= 100.0:
            raise ConfigError("relative_humidity", "relative humidity must be within 0..100 %")
        _require_positive(self.pressure, "pressure")


def convected_delays(sources, receivers, medium: MediumModel) -> np.ndarray:
    """Uniform-flow travel times from `sources` to `receivers` (..., 3), broadcast.

    With d = (x, y, z) = receiver - source, M the Mach vector and
    beta^2 = 1 - M.M: c * tau = (-M.d + R) / beta^2 with
    R = sqrt((M.d)^2 + beta^2 |d|^2), the positive root of the retarded-time
    equation |d - c M tau| = c tau. M.d and |d|^2 are summed in place from
    x, y and z, each of the broadcast shape; no (..., 3) array is formed.
    """
    sources, receivers = np.asarray(sources, dtype=float), np.asarray(receivers, dtype=float)
    m = medium.mach_vector
    beta2 = 1.0 - float(np.dot(m, m))
    x, y, z = (np.asarray(receivers[..., i] - sources[..., i]) for i in range(3))
    md = m[0] * x
    md += m[1] * y
    md += m[2] * z
    # x becomes beta^2 |d|^2 + (M.d)^2 = R^2, then R, then tau = (R - M.d) / (c beta^2)
    x *= x
    x += y * y
    x += z * z
    x *= beta2
    x += md * md
    np.sqrt(x, out=x)
    x -= md
    x /= medium.speed_of_sound * beta2
    return x


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


# pairs solved together; bounds the solver's temporaries whatever the batch size
_CROSSING_BLOCK = 8192
# Newton stops once no crossing coordinate moves more than this (m)
CROSSING_TOLERANCE = 1e-10


def _crossing_derivatives(uv, sources, receivers, medium: MediumModel):
    """Gradient and Hessian of the two-leg travel time over the crossing
    coordinates (u, v), one pair per row, in the plane frame: the plane is
    z = 0, `sources` (K, 3) lie below it and `medium.mach_vector` is given
    in the same frame.

    With d = p - source, g = (M.d) M + beta^2 d and
    R = sqrt((M.d)^2 + beta^2 |d|^2), the convected leg has gradient
    (g/R - M)/(c beta^2) and Hessian ((M M^T + beta^2 I)/R - g g^T/R^3)/(c beta^2);
    with u the unit vector from p to the receiver at distance seg, the
    straight leg has gradient -u/c and Hessian (I - u u^T)/(c seg). Only the
    in-plane (x, y) block enters. Returns (g1, g2), (h11, h12, h22) as (K,)
    arrays.
    """
    c0 = medium.speed_of_sound
    m1, m2, mn = medium.mach_vector
    beta2 = 1.0 - float(medium.mach_vector @ medium.mach_vector)
    cb = c0 * beta2
    d1 = uv[:, 0] - sources[:, 0]
    d2 = uv[:, 1] - sources[:, 1]
    dn = -sources[:, 2]
    md = m1 * d1 + m2 * d2 + mn * dn
    r = np.sqrt(md * md + beta2 * (d1 * d1 + d2 * d2 + dn * dn))
    k1 = md * m1 + beta2 * d1
    k2 = md * m2 + beta2 * d2
    q1 = receivers[:, 0] - uv[:, 0]
    q2 = receivers[:, 1] - uv[:, 1]
    seg = np.sqrt(q1 * q1 + q2 * q2 + receivers[:, 2] ** 2)
    seg = np.where(seg > 1e-15, seg, 1.0)
    u1 = q1 / seg
    u2 = q2 / seg
    cs = c0 * seg
    r3 = r**3
    g1 = (-m1 + k1 / r) / cb - u1 / c0
    g2 = (-m2 + k2 / r) / cb - u2 / c0
    h11 = ((m1 * m1 + beta2) / r - k1 * k1 / r3) / cb + (1.0 - u1 * u1) / cs
    h12 = (m1 * m2 / r - k1 * k2 / r3) / cb - u1 * u2 / cs
    h22 = ((m2 * m2 + beta2) / r - k2 * k2 / r3) / cb + (1.0 - u2 * u2) / cs
    return (g1, g2), (h11, h12, h22)


def _solve_crossings(sources, receivers, medium: MediumModel, max_iterations: int):
    """Damped Newton search for the crossing coordinates of pairs given in the
    plane frame of `_crossing_derivatives`, iterating only on the pairs not
    yet converged.

    Returns (uv (K, 2), travel times (K,), stalled), where `stalled` is None
    or (row, last step in m) of the first pair that did not converge.
    """
    k = len(sources)

    def total_time(uv, s, r):
        p = np.concatenate([uv, np.zeros((len(uv), 1))], axis=1)
        return convected_delays(s, p, medium) + np.linalg.norm(r - p, axis=-1) / medium.speed_of_sound

    # init at the straight-line plane intersection
    denom = receivers[:, 2] - sources[:, 2]
    t = -sources[:, 2] / np.where(np.abs(denom) > 1e-15, denom, 1.0)
    uv = sources[:, :2] + t[:, None] * (receivers[:, :2] - sources[:, :2])
    times = total_time(uv, sources, receivers)

    # the pairs still iterating: rows into the block and their own copies
    idx = np.arange(k)
    s_a, r_a, uv_a, f_cur = sources, receivers, uv, times
    moved = np.full(k, np.inf)
    for _ in range(max_iterations):
        if not len(idx):
            return uv, times, None
        (g1, g2), (h11, h12, h22) = _crossing_derivatives(uv_a, s_a, r_a, medium)
        det = h11 * h22 - h12 * h12
        ok = np.abs(det) > 1e-300
        det = np.where(ok, det, 1.0)
        # Newton step, or a gradient step where the Hessian is degenerate
        step = np.stack(
            [
                np.where(ok, -(h22 * g1 - h12 * g2) / det, -g1 * 1e3),
                np.where(ok, -(h11 * g2 - h12 * g1) / det, -g2 * 1e3),
            ],
            axis=1,
        )
        # damped: halve until the travel time does not increase; a pair whose
        # trial is accepted keeps that step and its travel time
        lam = np.ones(len(idx))
        f_new = np.empty(len(idx))
        todo = np.arange(len(idx))
        for _ in range(40):
            trial = total_time(uv_a[todo] + lam[todo, None] * step[todo], s_a[todo], r_a[todo])
            f_new[todo] = trial
            bad = trial > f_cur[todo] + 1e-18
            if not bad.any():
                break
            todo = todo[bad]
            lam[todo] *= 0.5
        else:
            f_new[todo] = total_time(uv_a[todo] + lam[todo, None] * step[todo], s_a[todo], r_a[todo])
        step *= lam[:, None]
        uv_a = uv_a + step
        f_cur = f_new
        uv[idx] = uv_a
        times[idx] = f_cur
        moved = np.abs(step).max(axis=1)
        keep = ~(moved < CROSSING_TOLERANCE)
        if not keep.all():
            idx, moved = idx[keep], moved[keep]
            s_a, r_a, uv_a, f_cur = s_a[keep], r_a[keep], uv_a[keep], f_cur[keep]
    stalled = (int(idx[0]), float(moved[0])) if len(idx) else None
    return uv, times, stalled


def shear_crossing_delays(
    sources,
    receivers,
    medium: MediumModel,
    max_iterations: int = 80,
):
    """Vectorized Amiet travel times: convected leg to the shear plane, then a
    straight leg to the receiver, crossing point chosen by Fermat's principle.

    Pairs are solved in blocks of `_CROSSING_BLOCK` by `_solve_crossings`.
    Returns (delays, crossing_points) with leading broadcast shape (K,).
    Receivers lying on the plane get the convected leg only.
    """
    if medium.shear_layer is None:
        raise ValueError("medium has no shear layer")
    plane = medium.shear_layer
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

    # plane frame: in-plane axes e1, e2 and the normal, origin at the plane point
    frame = np.stack([*_plane_basis(plane.normal), plane.normal])
    local = replace(medium, mach_vector=frame @ medium.mach_vector, shear_layer=None)
    on_plane = np.abs(r_side) <= 1e-12
    delays = np.empty(k)
    crossing = np.empty((k, 3))
    for start in range(0, k, _CROSSING_BLOCK):
        rows = np.arange(start, min(start + _CROSSING_BLOCK, k))
        rows = rows[~on_plane[rows]]
        uv, delays[rows], stalled = _solve_crossings(
            (src[rows] - plane.point) @ frame.T,
            (rcv[rows] - plane.point) @ frame.T,
            local,
            max_iterations,
        )
        if stalled is not None:
            j = int(rows[stalled[0]])
            raise NumericalError(
                f"shear crossing did not converge for pair {j}: "
                f"source {src[j]}, receiver {rcv[j]}, residual step {stalled[1]:.3e} m"
            )
        crossing[rows] = plane.point + uv @ frame[:2]
    if on_plane.any():
        delays[on_plane] = convected_delays(src[on_plane], rcv[on_plane], medium)
        crossing[on_plane] = rcv[on_plane]
    return delays.reshape(lead_shape), crossing.reshape(lead_shape + (3,))


def path_delays(sources, receivers, medium: MediumModel) -> np.ndarray:
    """Travel times using the shear-layer path when the medium has one."""
    if medium.shear_layer is not None:
        delays, _ = shear_crossing_delays(sources, receivers, medium)
        return delays
    return convected_delays(sources, receivers, medium)
