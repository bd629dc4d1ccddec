"""Frequency-domain beamforming on planar focus grids.

Steering vectors follow the level-true normalization of Sarradj's
formulation III,

    h_m = exp(-j 2 pi f (tau_m - tau_0)) / (r_m * r_0 * sum_l r_l^-2),

with travel times from the propagation module (uniform-flow convection,
optionally the Amiet shear-layer path), r = c0 * tau the effective
distances and r_0 measured to the array centre, the mean of the sensor
positions. Travel times do not depend on frequency: `steering_geometry`
solves them once per grid, sub-array and medium, directly in the (M, N)
layout of the steering matrix, and `steering_vectors` computes phase and
amplitude per frequency. It builds the phasor from one `tan` of the phase's
remainder in half turns, which numpy runs in SIMD lanes, where `cos` and
`sin` are per-element libm calls. Map values are re-referenced to the
source power a monopole would show at 1 m, so a matched rank-1 CSM
reproduces its injected power exactly.

CLEAN-SC deconvolution follows Sijtsma's formulation: per iteration the CSM
component spatially coherent with the dirty-map peak is estimated (with a
fixed-point inner iteration when the diagonal is removed) and subtracted.
The dirty map is formed once and then updated by the map of each subtracted
rank-1 component, O(MN) per iteration instead of the O(M^2 N) of forming it
again from the degraded CSM. Every CSM is F F^H + diag(d) (see
`CrossSpectralMatrix`): K columns per source for an exact CSM, one per block
for a Welch one. Conventional maps and CLEAN-SC's first map are formed from
F and d in O(KMN). The diagonal-removed map does not read d, so it is
bit-identical for any diagonal added. The CSM is never held as a dense
(M, M) matrix except by CLEAN-SC, which builds one (`_dense_csm`) to
degrade.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .propagation import REFERENCE_DISTANCE, MediumModel, atmospheric_absorption, path_delays
from .spectral import CrossSpectralMatrix, _factor_power

CLEAN_SC_INNER_ITERATIONS = 20  # fixed-point steps per component under diagonal removal
MIRROR_BLOCK = 256  # rows of CLEAN-SC's CSM product mirrored onto its lower triangle at a time
LOBE_DROP_DB = 3.0  # `lobe_width_db` measures the main lobe this far below its peak


@dataclass(frozen=True)
class FocusGrid:
    """Planar focus grid, optionally rotated in space.

    `local` holds the in-plane (x, z) coordinates the grid was built from;
    ROIs are defined in these coordinates so rotations do not affect them.
    """

    points: np.ndarray  # (N, 3) world coordinates
    local: np.ndarray  # (N, 2) in-plane coordinates before rotation
    shape: tuple[int, int]  # (nx, nz)
    spacing: float

    @property
    def size(self) -> int:
        return len(self.points)

    def index_of(self, point) -> int:
        """Grid index nearest to a world point."""
        d = np.linalg.norm(self.points - np.asarray(point, dtype=float)[None, :], axis=1)
        return int(np.argmin(d))


@dataclass(frozen=True)
class SteeringSet:
    """Formulation III steering vectors for one frequency over a grid."""

    frequency: float
    matrix: np.ndarray  # (M, N) complex, columns are grid points
    power: np.ndarray  # (M, N) squared amplitude, |h|^2 to 8 eps (|h| is the amplitude to 4 ulp)
    reference_distance: np.ndarray  # (N,) r_0 per grid point (to the array reference)
    grid: FocusGrid

    @property
    def n_channels(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_points(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class BeamformingMap:
    """Source auto-powers over a grid, referenced to 1 m from the source."""

    frequency: float
    values: np.ndarray  # (N,) clamped at 0 for display/integration
    grid: FocusGrid
    kind: str = "conventional"  # conventional | clean_sc
    raw_values: np.ndarray | None = None  # signed values before clamping
    components: tuple[tuple[int, float], ...] = ()  # CLEAN-SC (grid index, power)
    diagonal_removed: bool = False
    n_negative: int = 0
    iterations: int = 0
    stop_reason: str | None = None  # CLEAN-SC: threshold | norm_increase | max_iterations
    n_channels: int = 0  # sub-array size the map was formed with

    def peak(self) -> tuple[int, float]:
        i = int(np.argmax(self.values))
        return i, float(self.values[i])

    def component_power(self) -> float:
        return float(sum(p for _, p in self.components))


def _rotation_y(angle_deg: float) -> np.ndarray:
    a = np.radians(angle_deg)
    return np.array([[np.cos(a), 0.0, np.sin(a)], [0.0, 1.0, 0.0], [-np.sin(a), 0.0, np.cos(a)]])


def _rotation_x(angle_deg: float) -> np.ndarray:
    a = np.radians(angle_deg)
    return np.array([[1.0, 0.0, 0.0], [0.0, np.cos(a), -np.sin(a)], [0.0, np.sin(a), np.cos(a)]])


def make_focus_grid(
    x_range: tuple[float, float],
    z_range: tuple[float, float],
    spacing: float,
    y_plane: float = 0.0,
    delta_angle: float = 0.0,
    aoa: float = 0.0,
) -> FocusGrid:
    """Regular planar grid in y = y_plane, rotated about y (wing delta angle)
    then x (angle of attack) around the grid centre.

    Endpoints are inclusive: n = round(span / spacing) + 1 per axis.
    """
    if spacing <= 0:
        raise ValueError("spacing must be > 0")
    if x_range[1] < x_range[0] or z_range[1] < z_range[0]:
        raise ValueError("ranges must be increasing")
    nx = int(round((x_range[1] - x_range[0]) / spacing)) + 1
    nz = int(round((z_range[1] - z_range[0]) / spacing)) + 1
    xs = x_range[0] + spacing * np.arange(nx)
    zs = z_range[0] + spacing * np.arange(nz)
    gx, gz = np.meshgrid(xs, zs, indexing="ij")
    local = np.stack([gx.ravel(), gz.ravel()], axis=1)
    pts = np.stack([gx.ravel(), np.full(gx.size, float(y_plane)), gz.ravel()], axis=1)
    if delta_angle != 0.0 or aoa != 0.0:
        pivot = np.array([(x_range[0] + x_range[1]) / 2.0, y_plane, (z_range[0] + z_range[1]) / 2.0])
        rot = _rotation_x(aoa) @ _rotation_y(delta_angle)
        pts = (pts - pivot) @ rot.T + pivot
    return FocusGrid(points=pts, local=local, shape=(nx, nz), spacing=float(spacing))


@dataclass(frozen=True)
class SteeringGeometry:
    """The frequency-independent part of formulation III steering over a grid,
    built once per (grid, sub-array, medium): relative travel times, effective
    distances r = c0 tau to each sensor and r_0 to the array reference."""

    grid: FocusGrid
    delay: np.ndarray  # (M, N) s, tau_m - tau_0 per sensor and focus point
    r: np.ndarray  # (M, N) m, focus point -> sensor
    r0: np.ndarray  # (N,) m, focus point -> array reference
    medium: MediumModel

    @functools.cached_property
    def amplitude(self) -> np.ndarray:
        """(M, N) steering amplitude without absorption, which does not depend
        on frequency: formed on first use and kept."""
        return _amplitude(self.r, self.r0)

    @functools.cached_property
    def power(self) -> np.ndarray:
        """(M, N) squared `amplitude`, |h|^2 of every frequency's steering
        matrix without absorption: formed on first use and kept."""
        return self.amplitude**2


def _amplitude(r: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Formulation III amplitude 1 / (r_m r_0 sum_l r_l^-2) per sensor and focus point."""
    inv_sq_sum = np.sum(r**-2.0, axis=0)  # (N,)
    return 1.0 / (r * r0 * inv_sq_sum)


def steering_geometry(grid: FocusGrid, positions: np.ndarray, medium: MediumModel | None = None) -> SteeringGeometry:
    """Travel times for `steering_vectors` from every grid point to the (M, 3)
    sensor `positions`, solved as an (M, N) broadcast, and to the array
    reference, their mean."""
    medium = medium or MediumModel()
    mics = np.asarray(positions, dtype=float)
    ref = mics.mean(axis=0)
    tau = path_delays(grid.points[None, :, :], mics[:, None, :], medium)
    tau0 = path_delays(grid.points, ref[None, :], medium)
    r, r0 = medium.speed_of_sound * tau, medium.speed_of_sound * tau0
    if (r < 1e-9).any() or (r0 < 1e-9).any():
        raise ValueError("focus point coincides with a sensor or the array reference")
    return SteeringGeometry(grid=grid, delay=tau - tau0, r=r, r0=r0, medium=medium)


def steering_vectors(geometry: SteeringGeometry, frequency: float, include_absorption: bool = False) -> SteeringSet:
    """Level-true steering vectors at one frequency from precomputed travel times.

    With `include_absorption` the per-channel effective distances are inflated
    by the atmospheric damping, r exp(alpha ln10/20 r) = r 10^(alpha r/20),
    which keeps the level-true property when the synthesized field carries
    absorption too; without it the amplitude is the geometry's cached one.
    `power` is the amplitude squared: |h| is the amplitude to 4 ulp, so
    maps read |h|^2 from it, not from a complex `hypot` over (M, N) per map.

    The phase is taken in half turns, u = -2 f (tau_m - tau_0), and split
    exactly into u = q + e with q = rint(u) and |e| <= 1/2. With
    t = tan(pi e / 2), |t| <= 1, the half-angle identities give
    exp(j pi u) = (-1)^q ((1 - t^2) + 2j t) / (1 + t^2), with (-1)^q taken
    from floor(q / 2). numpy's float64 `tan` and `floor` run in SIMD lanes,
    where `cos`, `sin` and `fmod` call libm per element: on a 150 x 676
    delay array `tan` took 0.2 ms, `cos` and `sin` 0.5-2.5 ms each, growing
    with the argument (numpy 2.4, AVX-512 Xeon). The work arrays are reused
    in place, as each fresh (M, N) temporary costs its page faults again.
    """
    if frequency <= 0:
        raise ValueError("frequency must be > 0")
    r0 = geometry.r0
    if include_absorption:
        neper = atmospheric_absorption(frequency, geometry.medium) * (np.log(10.0) / 20.0)
        r0 = r0 * np.exp(neper * r0)
        amp = _amplitude(geometry.r * np.exp(neper * geometry.r), r0)
        power = amp**2
    else:
        amp, power = geometry.amplitude, geometry.power
    u = geometry.delay * (-2.0 * frequency)
    q = np.rint(u)
    u -= q
    u *= np.pi / 2.0
    t = np.tan(u, out=u)
    # q becomes (-1)^q = 1 - 4 (q/2 - floor(q/2)), then the scale amp (-1)^q / (1 + t^2)
    q *= 0.5
    t2 = np.floor(q)
    q -= t2
    q *= -4.0
    q += 1.0
    np.multiply(t, t, out=t2)
    q *= amp
    q /= t2 + 1.0
    h = np.empty(t.shape, dtype=complex)
    np.subtract(1.0, t2, out=t2)
    np.multiply(q, t2, out=h.real)
    q *= 2.0
    np.multiply(q, t, out=h.imag)
    return SteeringSet(frequency=float(frequency), matrix=h, power=power, reference_distance=r0, grid=geometry.grid)


def _factored_map(csm: CrossSpectralMatrix, h: np.ndarray, h_sq: np.ndarray, diagonal_removal: bool) -> np.ndarray:
    """b_t = h_t^H C h_t for all columns at once, C = F F^H + diag(d) with
    its diagonal removed or not, from F and d in O(KMN): sum_k |F_k^H h_t|^2
    minus (sum_k |F_mk|^2)^T |h|^2 (`_factor_power`), or plus d^T |h|^2.
    `h_sq` is |h|^2."""
    f = csm.factor
    coherent = np.abs(f.conj().T @ h) ** 2
    if diagonal_removal:
        return coherent.sum(axis=0) - _factor_power(f) @ h_sq
    return coherent.sum(axis=0) + csm.diagonal @ h_sq


def conventional_beamform(
    csm: CrossSpectralMatrix, steering: SteeringSet, diagonal_removal: bool = False
) -> BeamformingMap:
    """Delay-and-sum map; values referenced to the source power at 1 m.

    With diagonal removal the CSM diagonal is left out, which makes the
    output exactly invariant to any per-channel (incoherent) auto-power.
    Negative values are clamped for display but kept in `raw_values`.
    """
    if csm.n_channels != steering.n_channels:
        raise ValueError(f"CSM has {csm.n_channels} channels but steering expects {steering.n_channels}")
    raw = _factored_map(csm, steering.matrix, steering.power, diagonal_removal)
    ref_scale = (steering.reference_distance / REFERENCE_DISTANCE) ** 2
    raw = raw * ref_scale
    clamped = np.maximum(raw, 0.0)
    return BeamformingMap(
        frequency=float(csm.frequency),
        values=clamped,
        grid=steering.grid,
        kind="conventional",
        raw_values=raw,
        diagonal_removed=diagonal_removal,
        n_negative=int((raw < 0).sum()),
        n_channels=steering.n_channels,
    )


def _dense_csm(csm: CrossSpectralMatrix) -> np.ndarray:
    """F F^H + diag(d) as a dense (M, M) array: CLEAN-SC's degraded CSM
    before its first component, and the only dense CSM formed.

    The BLAS product is Hermitian only to rounding (its kernel need not
    round F_i F_j^* and F_j F_i^* alike), so its upper triangle is mirrored
    onto the lower one, `MIRROR_BLOCK` rows at a time, and its diagonal is
    made real: the matrix is then Hermitian exactly, as a CSM is."""
    factor, m = csm.factor, csm.n_channels
    v = factor @ factor.conj().T
    for i in range(0, m, MIRROR_BLOCK):
        j = min(i + MIRROR_BLOCK, m)
        np.copyto(v[i:j, :j], v[:j, i:j].conj().T, where=np.tri(j - i, j, i - 1, dtype=bool))  # columns < row
    v.flat[:: m + 1] = v.flat[:: m + 1].real + csm.diagonal
    return v


def clean_sc(
    csm: CrossSpectralMatrix,
    steering: SteeringSet,
    loop_gain: float = 1.0,
    max_iterations: int = 100,
    stop_threshold: float = 1e-3,
    diagonal_removal: bool = True,
) -> BeamformingMap:
    """CLEAN-SC deconvolution.

    Per iteration: find the dirty-map peak, estimate the source component
    vector c from the degraded CSM column space at the peak (fixed-point inner
    iterations when the diagonal is removed), subtract loop_gain times the
    induced CSM peak c c^H, and accumulate the clean component. The degraded
    CSM starts as the dense copy `_dense_csm` builds, the one (M, M) array
    formed. The first dirty map comes from the CSM's factor (`_factored_map`,
    O(KMN)). It is not formed again from the degraded CSM; it loses the map
    of the subtracted component, loop_gain peak (|h^H c|^2 - (|h|^2)^T |c|^2),
    where the second term applies only when the diagonal is removed.

    Stops, and records why in `stop_reason`, when the peak drops to
    stop_threshold times the initial peak or below (`threshold`), when the
    degraded CSM 1-norm would increase (`norm_increase`), or after
    max_iterations components (`max_iterations`).
    """
    if not 0.0 < loop_gain <= 1.0:
        raise ValueError("loop gain must be in (0, 1]")
    if csm.n_channels != steering.n_channels:
        raise ValueError(f"CSM has {csm.n_channels} channels but steering expects {steering.n_channels}")
    h, h_sq = steering.matrix, steering.power
    ref_scale = (steering.reference_distance / REFERENCE_DISTANCE) ** 2

    degraded = _dense_csm(csm)
    if diagonal_removal:
        np.fill_diagonal(degraded, 0.0)
    dirty = _factored_map(csm, h, h_sq, diagonal_removal)
    initial_peak = dirty.max() if dirty.size else 0.0
    prev_norm = np.linalg.norm(degraded, 1)
    components: dict[int, float] = {}
    iterations = 0
    stop_reason = "threshold"

    if initial_peak > 0.0:
        for _ in range(max_iterations):
            t = int(np.argmax(dirty))
            peak = float(dirty[t])
            if peak <= 0.0 or peak <= stop_threshold * initial_peak:
                break
            w = h[:, t]
            comp = degraded @ w / peak
            if diagonal_removal:
                base = comp
                for _ in range(CLEAN_SC_INNER_ITERATIONS):
                    diag = np.abs(comp) ** 2
                    comp = (base + diag * w) / np.sqrt(1.0 + np.real(np.vdot(w, diag * w)))
            induced = peak * np.outer(comp, comp.conj())
            if diagonal_removal:
                np.fill_diagonal(induced, 0.0)
            trial = degraded - loop_gain * induced
            norm = np.linalg.norm(trial, 1)
            if norm > prev_norm:
                stop_reason = "norm_increase"
                break
            degraded = trial
            prev_norm = norm
            components[t] = components.get(t, 0.0) + loop_gain * peak
            induced_map = np.abs(comp.conj() @ h) ** 2
            if diagonal_removal:
                induced_map -= np.abs(comp) ** 2 @ h_sq
            dirty -= loop_gain * peak * induced_map
            iterations += 1
        else:
            stop_reason = "max_iterations"

    comp_list = tuple((t, p * float(ref_scale[t])) for t, p in sorted(components.items()))
    clean_map = np.zeros(steering.n_points)
    for t, p in comp_list:
        clean_map[t] += p
    residual = dirty * ref_scale
    return BeamformingMap(
        frequency=float(csm.frequency),
        values=clean_map,
        grid=steering.grid,
        kind="clean_sc",
        raw_values=residual,
        components=comp_list,
        diagonal_removed=diagonal_removal,
        iterations=iterations,
        n_channels=steering.n_channels,
        stop_reason=stop_reason,
    )


def lobe_width_db(map_values: np.ndarray, coords: np.ndarray) -> float:
    """Width of the main lobe `LOBE_DROP_DB` below the peak along a 1D cut."""
    v = np.asarray(map_values, dtype=float)
    peak = int(np.argmax(v))
    level = 10.0 * np.log10(np.maximum(v / v[peak], 1e-300))
    target = -LOBE_DROP_DB

    def crossing(direction: int) -> float:
        i = peak
        while 0 <= i + direction < len(v):
            j = i + direction
            if level[j] < target:
                # linear interpolation in dB
                frac = (target - level[i]) / (level[j] - level[i])
                return coords[i] + frac * (coords[j] - coords[i])
            i = j
        return coords[i]

    return crossing(+1) - crossing(-1)
