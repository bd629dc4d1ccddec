"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own code paths: travel times come from
bisection on the retarded-time equation or from a (..., 3) difference array,
air absorption from the Bass formula, shear-layer crossings from a shrinking
grid search or from a damped Newton search with a finite-difference Hessian,
tone levels from least-squares sine fits, PDM bits from the delta-sigma loop
run one numpy element at a time, PCM codes from a CIC of five cumsums and
five diffs run on one channel at a time, sub-array matches from a scan over
every sensor or from one x-strip search per target, conventional maps from the
dense M x M matrix, CLEAN-SC from a loop that forms the dirty map again from
the whole degraded CSM after every component, Welch
CSMs from a sum of per-block outer products over every bin in range, time
series from one direct path transfer and one inverse FFT per channel and
source, PCB layouts from a radical inverse taken one index at a time and a
spacing test against one accepted sensor at a time, the panel tiling from
nested loops over every PCB, and the geometry and map files from per-element
numpy scalars and the pure-Python JSON encoder.
"""

import io
import json

import numpy as np
from scipy.signal import get_window, lfilter

from memsarray import acquisition as acq
from memsarray import geometry as geo
from memsarray import synthesis as syn
from memsarray.propagation import atmospheric_absorption
from memsarray.spectral import to_db


def emission_time_oracle(source, receiver, mach, c0=343.0):
    """Bisection on |rcv - src - c M tau| = c tau."""
    source = np.asarray(source, dtype=float)
    receiver = np.asarray(receiver, dtype=float)
    mach = np.asarray(mach, dtype=float)

    def resid(tau):
        return np.linalg.norm(receiver - source - c0 * mach * tau) - c0 * tau

    lo, hi = 1e-9, 10.0
    assert resid(lo) > 0 and resid(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def convected_delays_oracle(sources, receivers, medium):
    """Uniform-flow travel times from the (..., 3) difference array d, with
    M.d as the product `d @ M` and |d|^2 as a last-axis sum."""
    d = np.asarray(receivers, dtype=float) - np.asarray(sources, dtype=float)
    m = medium.mach_vector
    beta2 = 1.0 - float(np.dot(m, m))
    md = d @ m
    rr = np.sqrt(md * md + beta2 * np.sum(d * d, axis=-1))
    return (-md + rr) / (medium.speed_of_sound * beta2)


def bass_absorption_oracle(f, temp_c=20.0, rh=70.0, ps=1.0):
    """Pure-tone air absorption in dB/m after Bass et al. (1995)."""
    T = 273.15 + temp_c
    T01 = 273.16
    T0 = 293.15
    psat = 10 ** (
        10.79586 * (1 - T01 / T)
        - 5.02808 * np.log10(T / T01)
        + 1.50474e-4 * (1 - 10 ** (-8.29692 * (T / T01 - 1)))
        - 4.2873e-4 * (1 - 10 ** (-4.76955 * (T01 / T - 1)))
        - 2.2195983
    )
    h = rh * psat / ps
    fr0 = 24 + 4.04e4 * h * (0.02 + h) / (0.391 + h)
    frn = (T0 / T) ** 0.5 * (9 + 280 * h * np.exp(-4.17 * ((T0 / T) ** (1 / 3) - 1)))
    F = f / ps
    return (
        20
        * np.log10(np.e)
        * ps
        * F**2
        * (
            1.84e-11 * (T / T0) ** 0.5
            + (T / T0) ** (-5 / 2)
            * (
                0.01275 * np.exp(-2239.1 / T) / (fr0 + F**2 / fr0)
                + 0.1068 * np.exp(-3352 / T) / (frn + F**2 / frn)
            )
        )
    )


def fermat_grid_oracle(source, receiver, medium, half=8.0, stages=14):
    """Shrinking 2D grid search for the stationary shear-plane crossing time."""
    plane = medium.shear_layer
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.cross(plane.normal, e1)
    m = medium.mach_vector
    beta2 = 1.0 - float(m @ m)
    c = np.zeros(2)
    best_t = None
    for _ in range(stages):
        g = np.linspace(-half, half, 41)
        uu, vv = np.meshgrid(c[0] + g, c[1] + g, indexing="ij")
        p = plane.point[None, None, :] + uu[..., None] * e1 + vv[..., None] * e2
        d = p - np.asarray(source)[None, None, :]
        md = d @ m
        rr = np.sqrt(md**2 + beta2 * np.sum(d * d, axis=-1))
        t_conv = (-md + rr) / (medium.speed_of_sound * beta2)
        t_str = np.linalg.norm(np.asarray(receiver)[None, None, :] - p, axis=-1) / medium.speed_of_sound
        tt = t_conv + t_str
        i, j = np.unravel_index(np.argmin(tt), tt.shape)
        best_t = tt[i, j]
        c = np.array([uu[i, j], vv[i, j]])
        half *= 2.2 / 40
    return best_t


def fd_newton_shear_oracle(sources, receivers, medium, tolerance=1e-10, max_iterations=80):
    """Amiet travel times by damped Newton iteration on the crossing
    coordinates, all pairs every step, with the Hessian from central
    differences (step 1e-7 m) of the analytic gradient. The library's solver
    before it used the closed-form Hessian; receivers are off the plane."""
    plane = medium.shear_layer
    c0 = medium.speed_of_sound
    m = medium.mach_vector
    beta2 = 1.0 - float(m @ m)
    src, rcv = np.broadcast_arrays(np.asarray(sources, dtype=float), np.asarray(receivers, dtype=float))
    lead_shape = src.shape[:-1]
    src = src.reshape(-1, 3)
    rcv = rcv.reshape(-1, 3)
    ref = np.array([1.0, 0.0, 0.0]) if abs(plane.normal[0]) <= 0.9 else np.array([0.0, 0.0, 1.0])
    e1 = ref - (ref @ plane.normal) * plane.normal
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(plane.normal, e1)

    def point(uv):
        return plane.point + uv[:, :1] * e1 + uv[:, 1:] * e2

    def total_time(uv):
        p = point(uv)
        d = p - src
        md = d @ m
        t_conv = (-md + np.sqrt(md * md + beta2 * np.sum(d * d, axis=-1))) / (c0 * beta2)
        return t_conv + np.linalg.norm(rcv - p, axis=-1) / c0

    def grad(uv):
        p = point(uv)
        d = p - src
        md = (d @ m)[:, None]
        rr = np.sqrt(md[:, 0] ** 2 + beta2 * np.sum(d * d, axis=-1))[:, None]
        dr = rcv - p
        seg = np.linalg.norm(dr, axis=-1)[:, None]
        g3 = (-m[None, :] + (md * m[None, :] + beta2 * d) / rr) / (c0 * beta2) - dr / (c0 * seg)
        return np.stack([g3 @ e1, g3 @ e2], axis=1)

    t = -((src - plane.point) @ plane.normal) / ((rcv - src) @ plane.normal)
    p0 = src + t[:, None] * (rcv - src)
    uv = np.stack([(p0 - plane.point) @ e1, (p0 - plane.point) @ e2], axis=1)
    active = np.ones(len(src), dtype=bool)
    f_cur = total_time(uv)
    h = 1e-7
    for _ in range(max_iterations):
        if not active.any():
            break
        g = grad(uv)
        gpu, gmu = grad(uv + [h, 0.0]), grad(uv - [h, 0.0])
        gpv, gmv = grad(uv + [0.0, h]), grad(uv - [0.0, h])
        h11 = (gpu[:, 0] - gmu[:, 0]) / (2 * h)
        h12 = (gpv[:, 0] - gmv[:, 0]) / (2 * h)
        h21 = (gpu[:, 1] - gmu[:, 1]) / (2 * h)
        h22 = (gpv[:, 1] - gmv[:, 1]) / (2 * h)
        det = h11 * h22 - h12 * h21
        step = np.stack([-(h22 * g[:, 0] - h12 * g[:, 1]) / det, -(-h21 * g[:, 0] + h11 * g[:, 1]) / det], axis=1)
        step[~active] = 0.0
        lam = np.ones(len(src))
        for _ in range(40):
            bad = active & (total_time(uv + lam[:, None] * step) > f_cur + 1e-18)
            if not bad.any():
                break
            lam[bad] *= 0.5
        uv = uv + lam[:, None] * step
        f_cur = total_time(uv)
        active &= ~(np.abs(lam[:, None] * step).max(axis=1) < tolerance)
    assert not active.any(), "finite-difference Newton did not converge"
    return f_cur.reshape(lead_shape)


def sine_fit(y, f0, rate):
    """Least-squares single-tone fit; returns (amplitude, residual)."""
    n = np.arange(len(y))
    a = np.stack(
        [np.cos(2 * np.pi * f0 * n / rate), np.sin(2 * np.pi * f0 * n / rate), np.ones(len(y))],
        axis=1,
    )
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    amp = float(np.hypot(coef[0], coef[1]))
    return amp, y - a @ coef


def pdm_modulate_oracle(waveform):
    """2nd-order CIFB delta-sigma loop on numpy float64 elements; returns
    (unpacked bits as uint8, whether any |sample| > 1 was clipped)."""
    x = np.asarray(waveform, dtype=np.float64)
    clipped = bool((np.abs(x) > 1.0).any())
    if clipped:
        x = np.clip(x, -1.0, 1.0)
    bits = np.empty(len(x), dtype=np.uint8)
    s1 = 0.0
    s2 = 0.0
    y = 1.0
    for i in range(len(x)):
        s1 += x[i] - y
        s2 += s1 - 2.0 * y
        y = 1.0 if s2 >= 0.0 else -1.0
        bits[i] = 1 if y > 0.0 else 0
    return bits, clipped


def pdm_decimate_oracle(bits):
    """One channel's (n,) PDM bits as int32 PCM codes: the CIC as five
    cumsums at the input rate (integrators, which wrap exactly in int64),
    every 16th sample, and five diffs (combs), then the library's three FIR
    stages, one `lfilter` call each."""
    _, hb1, hb2, comp = acq.decimation_design()
    x = np.asarray(bits).astype(np.int64) * 2 - 1
    for _ in range(acq.CIC_ORDER):
        x = np.cumsum(x)
    x = x[acq.CIC_R - 1 :: acq.CIC_R]
    for _ in range(acq.CIC_ORDER):
        x = np.diff(x, prepend=np.int64(0))
    y = x.astype(np.float64) / float(acq.CIC_R**acq.CIC_ORDER)
    y = lfilter(hb1, 1.0, y)[::2]
    y = lfilter(hb2, 1.0, y)[::2]
    y = lfilter(comp, 1.0, y)
    codes = np.clip(np.rint(y * acq.PCM_FULL_SCALE_CODE), -(2**31), acq.PCM_FULL_SCALE_CODE)
    return codes.astype(np.int32)


def sample_subarray_oracle(positions, targets, epsilon):
    """Greedy nearest-unused-sensor matching of (T, 3) targets by a distance
    scan over every sensor; returns (indices, match distances)."""
    pos = np.asarray(positions, dtype=float)
    available = np.ones(len(pos), dtype=bool)
    indices, dists = [], []
    for t in np.asarray(targets, dtype=float):
        d = np.linalg.norm(pos - t[None, :], axis=1)
        d[~available] = np.inf
        j = int(np.argmin(d))
        if d[j] <= epsilon:
            indices.append(j)
            dists.append(float(d[j]))
            available[j] = False
    return np.array(indices, dtype=int), np.array(dists)


def sample_subarray_strip_oracle(geometry, targets, epsilon):
    """Greedy matching of (T, 3) targets with one x-strip search per target:
    the strip's unused sensors in ascending index order, their distances, and
    the first nearest one kept if within `epsilon`; returns (indices,
    discarded)."""
    pos = geometry.positions
    targets = np.asarray(targets, dtype=float)
    order = np.argsort(pos[:, 0], kind="stable")
    xs = pos[order, 0]
    reach = epsilon * (1.0 + 1e-9)
    lo = np.searchsorted(xs, targets[:, 0] - reach, side="left")
    hi = np.searchsorted(xs, targets[:, 0] + reach, side="right")
    hi = np.where(np.isfinite(targets).all(axis=1), hi, lo)
    available = np.ones(len(pos), dtype=bool)
    indices = []
    for t, a, b in zip(targets, lo.tolist(), hi.tolist()):
        candidates = order[a:b]
        candidates = np.sort(candidates[available[candidates]])
        if not len(candidates):
            continue
        d = np.linalg.norm(pos[candidates] - t[None, :], axis=1)
        k = int(np.argmin(d))
        if d[k] <= epsilon:
            j = int(candidates[k])
            indices.append(j)
            available[j] = False
    return np.array(indices, dtype=int), len(targets) - len(indices)


def dense_values(csm):
    """The CSM as a dense (M, M) matrix, F F^H + diag(d), without mirroring."""
    return csm.factor @ csm.factor.conj().T + np.diag(csm.diagonal)


def dense_map_oracle(csm_values, h, diagonal_removal=False):
    """b_t = h_t^H C h_t for all columns at once, from the dense (M, M)
    matrix C with its diagonal zeroed under diagonal removal; before
    reference scaling."""
    c = np.array(csm_values, dtype=complex)
    if diagonal_removal:
        np.fill_diagonal(c, 0.0)
    return (h.conj() * (c @ h)).sum(axis=0).real


def clean_sc_oracle(csm_values, h, loop_gain=1.0, max_iterations=100, stop_threshold=1e-3,
                    diagonal_removal=True, inner_iterations=20):
    """CLEAN-SC with the dirty map b_n = h_n^H D h_n formed again from the whole
    degraded CSM D after every component; returns ({grid index: power before
    reference scaling}, iterations, initial dirty map, residual dirty map)."""

    degraded = np.array(csm_values, dtype=complex)
    if diagonal_removal:
        np.fill_diagonal(degraded, 0.0)
    dirty = initial = dense_map_oracle(degraded, h)
    initial_peak = dirty.max()
    prev_norm = np.abs(degraded).sum(axis=0).max()
    components = {}
    iterations = 0
    if initial_peak > 0.0:
        for _ in range(max_iterations):
            t = int(np.argmax(dirty))
            peak = dirty[t]
            if peak <= 0.0 or peak <= stop_threshold * initial_peak:
                break
            w = h[:, t]
            comp = degraded @ w / peak
            if diagonal_removal:
                base = comp
                for _ in range(inner_iterations):
                    diag = np.abs(comp) ** 2
                    comp = (base + diag * w) / np.sqrt(1.0 + np.real(np.vdot(w, diag * w)))
            induced = peak * np.outer(comp, comp.conj())
            if diagonal_removal:
                np.fill_diagonal(induced, 0.0)
            trial = degraded - loop_gain * induced
            norm = np.abs(trial).sum(axis=0).max()
            if norm > prev_norm:
                break
            degraded = trial
            prev_norm = norm
            components[t] = components.get(t, 0.0) + loop_gain * peak
            dirty = dense_map_oracle(degraded, h)
            iterations += 1
    return components, iterations, initial, dirty


def welch_csm_oracle(signals, rate, block=1024, overlap=0.5, window="hann"):
    """Welch CSMs of (n_samples, n_channels) `signals` at every rFFT bin,
    summing each block's (bins, M, M) outer product; returns
    [(bin frequency, (M, M) values, n_averages)]."""
    x = np.asarray(signals, dtype=float)
    n, m = x.shape
    hop = int(round(block * (1.0 - overlap)))
    n_avg = (n - block) // hop + 1
    w = get_window(window, block, fftbins=True)
    x = x - x.mean(axis=0, keepdims=True)
    freqs = np.fft.rfftfreq(block, d=1.0 / rate)
    acc = np.zeros((len(freqs), m, m), dtype=complex)
    for b in range(n_avg):
        seg = x[b * hop : b * hop + block] * w[:, None]
        spec = np.fft.rfft(seg, axis=0)
        acc += spec[:, :, None] * spec.conj()[:, None, :]
    acc *= 2.0 / (rate * np.sum(w * w) * n_avg)
    edge = (freqs == 0.0) | np.isclose(freqs, rate / 2.0)  # no one-sided doubling at DC and Nyquist
    acc[edge] *= 0.5
    return [(float(f), 0.5 * (v + v.conj().T), n_avg) for f, v in zip(freqs, acc)]


def synthesize_timeseries_oracle(scene, positions, rate, duration, include_absorption=True):
    """`synthesis.synthesize_timeseries` one channel and one source at a time:
    each source record's spectrum times the full `_transfer` at every bin,
    inverse-transformed and added to its column, then each channel's noise."""
    pos = np.asarray(positions, dtype=float)
    n = int(round(rate * duration))
    m = len(pos)
    out = np.zeros((n, m))
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    alpha = atmospheric_absorption(freqs, scene.medium) if include_absorption else 0.0
    root = np.random.SeedSequence([scene.seed & 0xFFFFFFFF, 0x515E])
    src_seeds, noise_seed = root.spawn(2)
    src_streams = src_seeds.spawn(max(len(scene.sources), 1))
    for si, src in enumerate(scene.sources):
        rng = np.random.default_rng(src_streams[si])
        spectrum = np.fft.rfft(syn._source_signal(src, rate, n, rng))
        delays, r_eff, gains = syn._path_gains(src, pos, scene.medium)
        for mi in range(m):
            g = syn._transfer(delays[mi], r_eff[mi], gains[mi], freqs, alpha)
            out[:, mi] += np.fft.irfft(spectrum * g, n=n)
    if scene.noise is not None:
        for mi, stream in enumerate(noise_seed.spawn(m)):
            out[:, mi] += scene.noise.noise(rate, n, np.random.default_rng(stream))
    return out


def halton_oracle(start, count, base):
    """Radical inverse of indices start+1 .. start+count, one index at a time."""
    out = np.empty(count)
    for i in range(count):
        f = 1.0
        r = 0.0
        k = start + i + 1
        while k > 0:
            f /= base
            r += f * (k % base)
            k //= base
        out[i] = r
    return out


def pcb_positions_oracle(design, seed):
    """(50, 2) sensor positions of one PCB design: shifted Halton candidates,
    each kept when it lies at least the minimum spacing from every sensor
    accepted before it, tested one sensor at a time."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, design, 0x9CB]))
    shift = rng.random(2)
    span_u = geo.PCB_SHORT - 2 * geo.EDGE_CLEARANCE
    span_v = geo.PCB_LONG - 2 * geo.EDGE_CLEARANCE
    accepted = []
    offset = 0
    while len(accepted) < geo.SENSORS_PER_PCB:
        u = (halton_oracle(offset, 2000, 2) + shift[0]) % 1.0
        v = (halton_oracle(offset, 2000, 3) + shift[1]) % 1.0
        offset += 2000
        for cu, cv in zip(geo.EDGE_CLEARANCE + u * span_u, geo.EDGE_CLEARANCE + v * span_v):
            cand = np.array([cu, cv])
            if all(np.hypot(*(cand - q)) >= geo.MIN_SENSOR_SPACING for q in accepted):
                accepted.append(cand)
                if len(accepted) == geo.SENSORS_PER_PCB:
                    break
    return np.array(accepted)


def assemble_full_array_oracle(panels_x, panels_z, seed):
    """(N, 3) sensor positions of the panel tiling, one PCB at a time in nested
    loops over panel z, panel x, block z, block x, PCB z and PCB x."""
    layouts = [geo.generate_pcb_layout(d, seed) for d in range(4)]
    positions = np.empty((geo.SENSORS_PER_PCB * 16 * panels_x * panels_z, 3))
    array_x0 = geo.CENTER_X - panels_x * geo.PANEL_X / 2.0
    array_z0 = geo.CENTER_Z - panels_z * geo.PANEL_Z / 2.0
    i = 0
    for pz in range(panels_z):
        for px in range(panels_x):
            panel_x0 = array_x0 + px * geo.PANEL_X
            panel_z0 = array_z0 + pz * geo.PANEL_Z
            for bz in range(2):
                for bx in range(2):
                    for dz in range(2):
                        for dx in range(2):
                            ox = panel_x0 + bx * 1.0 + dx * geo.PCB_LONG
                            oz = panel_z0 + bz * 0.5 + dz * geo.PCB_SHORT
                            pts = layouts[dz * 2 + dx]
                            n = len(pts)
                            positions[i : i + n, 0] = ox + pts[:, 1]
                            positions[i : i + n, 1] = geo.PLANE_DISTANCE
                            positions[i : i + n, 2] = oz + pts[:, 0]
                            i += n
    return positions


def geometry_json_oracle(geometry):
    """`geometry.json` text: position rows from per-element numpy scalars,
    written by `json.dump` to a file, which runs the pure-Python encoder."""
    data = {
        "positions": [[float(v) for v in row] for row in geometry.positions],
        "origin": [float(v) for v in geometry.origin],
        "extent": list(geometry.extent),
        "seed": geometry.seed,
    }
    text = io.StringIO()
    json.dump(data, text, sort_keys=True)
    return text.getvalue()


def map_csv_oracle(bmap):
    """Text of a map's CSV, one row written per grid node."""
    rows = ["x,z,psd_db\n"]
    for (x, z), v in zip(bmap.grid.local, to_db(bmap.values)):
        rows.append(f"{float(x)!r},{float(z)!r},{float(v)!r}\n")
    return "".join(rows)
