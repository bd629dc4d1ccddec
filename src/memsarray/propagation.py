"""Propagation models shared by synthesis and steering.

Covers closed-form travel times in uniform flow, pure-tone
atmospheric absorption after ISO 9613-1, and the Amiet planar shear-layer
refraction correction (Fermat path through the layer, found by damped Newton
iteration on the in-plane crossing coordinates with the closed-form Hessian).
Each Newton step evaluates the travel time, gradient and Hessian together, once,
at its trial point, and the line search takes a trial as no increase unless it
exceeds the current time by more than a few ulps of it. A pair converges, with
no further trial, once its Newton step is shorter than the tolerance.
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

    With d = receiver - source, M the Mach vector and beta^2 = 1 - M.M,
    c * tau = (R - M.d) / beta^2 is the positive root of the retarded-time
    equation |d - c M tau| = c tau, with R from `_convected_root`. No (..., 3)
    array is formed.
    """
    sources, receivers = np.asarray(sources, dtype=float), np.asarray(receivers, dtype=float)
    m = medium.mach_vector
    beta2 = 1.0 - float(np.dot(m, m))
    x, y, z = (np.asarray(receivers[..., i] - sources[..., i]) for i in range(3))
    md, r = _convected_root(x, y, z, m, beta2)
    r -= md
    r /= medium.speed_of_sound * beta2
    return r


def _convected_root(x, y, z, m, beta2):
    """(M.d, R) with R = sqrt((M.d)^2 + beta^2 |d|^2), for d = (x, y, z) given
    as three arrays of one broadcast shape. The only implementation of the
    convected leg's root: `convected_delays` and the Amiet solver read it.
    M.d and |d|^2 are summed in place from x, y and z; R is formed in `x`,
    which is overwritten."""
    md = m[0] * x
    md += m[1] * y
    md += m[2] * z
    # x becomes beta^2 |d|^2 + (M.d)^2 = R^2, then R
    x *= x
    x += y * y
    x += z * z
    x *= beta2
    x += md * md
    np.sqrt(x, out=x)
    return md, x


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
# Newton stops once its step would move no crossing coordinate more than this (m)
CROSSING_TOLERANCE = 1e-10
# the line search accepts a trial whose travel time exceeds the current one by
# at most this many ulps of it: rounding noise, not an increase
_ACCEPT_ULPS = 4


def _crossing_terms(p1, p2, pairs, medium: MediumModel) -> np.ndarray:
    """Two-leg travel time through the crossing point (p1, p2, 0), with its
    gradient and Hessian over (p1, p2), one pair per column, in the plane
    frame: the plane is z = 0, `pairs` (6, K) holds each source (below the
    plane) and receiver as rows sx, sy, sz, rx, ry, rz, and
    `medium.mach_vector` is given in the same frame.

    With d = p - source and (M.d, R) from `_convected_root`, the convected leg
    takes (R - M.d)/(c beta^2), with k = (M.d) M + beta^2 d its gradient is
    (k/R - M)/(c beta^2) and its Hessian ((M M^T + beta^2 I)/R - k k^T/R^3)/(c beta^2).
    With u the unit vector from p to the receiver at distance seg, the
    straight leg takes seg/c, with gradient -u/c and Hessian (I - u u^T)/(c seg).
    Only the in-plane (x, y) block enters. Returns the (6, K) rows
    time, g1, g2, h11, h12, h22.
    """
    sx, sy, sz, rx, ry, rz = pairs
    c0 = medium.speed_of_sound
    m = medium.mach_vector
    m1, m2 = m[0], m[1]
    beta2 = 1.0 - float(m @ m)
    cb = c0 * beta2
    out = np.empty((6, len(p1)))
    time, g1, g2, h11, h12, h22 = out
    # d = p - source; `_convected_root` overwrites its own copy of d1 with R
    k1 = p1 - sx
    k2 = p2 - sy
    md, r = _convected_root(p1 - sx, k2, -sz, m, beta2)
    np.subtract(r, md, out=time)
    time /= cb
    # straight leg: q = receiver - p becomes u, seg becomes c seg
    q1 = rx - p1
    q2 = ry - p2
    seg = q1 * q1
    seg += q2 * q2
    seg += rz * rz
    np.sqrt(seg, out=seg)
    time += seg / c0
    seg = np.where(seg > 1e-15, seg, 1.0)
    q1 /= seg
    q2 /= seg
    seg *= c0
    # d becomes k = (M.d) M + beta^2 d
    k1 *= beta2
    k1 += md * m1
    k2 *= beta2
    k2 += md * m2
    r3 = r**3
    w = md  # M.d is spent: its buffer holds each product below
    # the convected leg's gradient and Hessian
    for g, h, k, mi in ((g1, h11, k1, m1), (g2, h22, k2, m2)):
        np.divide(k, r, out=g)
        g += -mi
        g /= cb
        np.divide(mi * mi + beta2, r, out=h)
        np.multiply(k, k, out=w)
        w /= r3
        h -= w
        h /= cb
    np.divide(m1 * m2, r, out=h12)
    np.multiply(k1, k2, out=w)
    w /= r3
    h12 -= w
    h12 /= cb
    # plus the straight leg's
    for g, h, u in ((g1, h11, q1), (g2, h22, q2)):
        np.divide(u, c0, out=w)
        g -= w
        np.multiply(u, u, out=w)
        np.subtract(1.0, w, out=w)
        w /= seg
        h += w
    np.multiply(q1, q2, out=w)
    w /= seg
    h12 -= w
    return out


def _solve_crossings(pairs, medium: MediumModel, max_iterations: int):
    """Damped Newton search for the crossing coordinates of `pairs` (6, K)
    given in the plane frame of `_crossing_terms`, iterating only on the pairs
    not yet converged. Each step makes one `_crossing_terms` evaluation at its
    trial point, and more only for the pairs whose line search halves the
    step; the accepted trial's terms serve the next step. A pair whose Newton
    step is shorter than `CROSSING_TOLERANCE` has converged at its current
    point and terms, so no trial is spent on certifying it.

    Returns (uv (K, 2), travel times (K,), stalled), where `stalled` is None
    or (column, Newton step in m) of the first pair that did not converge
    within `max_iterations` steps.
    """
    k = pairs.shape[1]
    sx, sy, sz, rx, ry, rz = pairs

    # init at the straight-line plane intersection
    denom = rz - sz
    t = -sz / np.where(np.abs(denom) > 1e-15, denom, 1.0)
    p1 = sx + t * (rx - sx)
    p2 = sy + t * (ry - sy)
    uv = np.empty((k, 2))
    times = np.empty(k)

    # the pairs still iterating: rows into the block, their crossings and terms
    idx = np.arange(k)
    terms = _crossing_terms(p1, p2, pairs, medium)
    for step in range(max_iterations + 1):
        f, g1, g2, h11, h12, h22 = terms
        det = h11 * h22 - h12 * h12
        ok = np.abs(det) > 1e-300
        det = np.where(ok, det, 1.0)
        # Newton step, or a gradient step where the Hessian is degenerate
        s1 = np.where(ok, -(h22 * g1 - h12 * g2) / det, -g1 * 1e3)
        s2 = np.where(ok, -(h11 * g2 - h12 * g1) / det, -g2 * 1e3)
        moved = np.maximum(np.abs(s1), np.abs(s2))
        done = moved < CROSSING_TOLERANCE
        if done.any():
            rows = idx[done]
            uv[rows, 0], uv[rows, 1], times[rows] = p1[done], p2[done], f[done]
            keep = ~done
            idx, moved, p1, p2, s1, s2 = idx[keep], moved[keep], p1[keep], p2[keep], s1[keep], s2[keep]
            pairs, terms = np.compress(keep, pairs, axis=1), np.compress(keep, terms, axis=1)
        if not len(idx) or step == max_iterations:
            break
        # damped: halve until the travel time does not increase beyond
        # rounding; a pair whose trial is accepted keeps that step and terms
        t1, t2 = p1 + s1, p2 + s2
        trial = _crossing_terms(t1, t2, pairs, medium)
        bound = terms[0] + _ACCEPT_ULPS * np.spacing(terms[0])
        todo = np.flatnonzero(trial[0] > bound)
        lam = np.ones(len(idx))
        for _ in range(40):
            if not len(todo):
                break
            lam[todo] *= 0.5
            t1[todo] = p1[todo] + lam[todo] * s1[todo]
            t2[todo] = p2[todo] + lam[todo] * s2[todo]
            retry = _crossing_terms(t1[todo], t2[todo], np.take(pairs, todo, axis=1), medium)
            trial[:, todo] = retry
            todo = todo[retry[0] > bound[todo]]
        p1, p2, terms = t1, t2, trial
    # pairs that did not converge keep their last iterate
    uv[idx, 0], uv[idx, 1], times[idx] = p1, p2, terms[0]
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
        # each pair a column of sx, sy, sz, rx, ry, rz in the plane frame
        pairs = np.concatenate([frame @ (src[rows] - plane.point).T, frame @ (rcv[rows] - plane.point).T])
        uv, delays[rows], stalled = _solve_crossings(pairs, local, max_iterations)
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
