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
`sin` are per-element libm calls. Every (M, N) steering array, the phasor,
the amplitude and its square, is formed in blocks of whole sensor rows of
at most `STEERING_BLOCK` elements, written straight into the result: the
temporaries stay cache-sized, and the output does not depend on the block
size. Map values are re-referenced to the
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
(M, M) matrix: CLEAN-SC keeps its degraded CSM as the factor, the
subtracted components and a diagonal (`_DegradedCsm`). Its stop test
reads the change a component makes to the Frobenius norm, which that
low-rank form gives from the Gram products G^H c in O(M r).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .propagation import REFERENCE_DISTANCE, MediumModel, atmospheric_absorption, path_delays
from .spectral import CrossSpectralMatrix, _factor_power

CLEAN_SC_INNER_ITERATIONS = 20  # fixed-point steps per component under diagonal removal
CLEAN_SC_ROOM = 16  # components CLEAN-SC's degraded CSM has room for before it doubles its columns
CLEAN_SC_ROUNDING = 32  # CLEAN-SC stops at a peak at most this many eps times the magnitude of its terms
STEERING_BLOCK = 16_000  # elements per row block of the (M, N) steering arrays (125 kB of float64)
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
        return _squared(self.amplitude)


def _row_blocks(shape: tuple[int, int]) -> list[slice]:
    """Slices of whole rows of an (M, N) array, at most `STEERING_BLOCK`
    elements each (one row if N is wider): contiguous in C order."""
    m, n = shape
    step = max(1, STEERING_BLOCK // n)
    return [slice(i, min(i + step, m)) for i in range(0, m, step)]


def _amplitude(r: np.ndarray, r0: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Formulation III amplitude 1 / (r_m r_0 sum_l r_l^-2) per sensor and
    focus point, into `out` (which may be `r`) in row blocks.

    sum_l r_l^-2 carries from block to block in the first row of the next,
    and numpy's axis-0 sum of a C-ordered block of two or more columns adds
    its rows in order, so the sum is the whole array's `np.sum(axis=0)` for
    any block size. A single column is one block of up to `STEERING_BLOCK`
    rows, summed pairwise as `np.sum` sums it."""
    inv_sq_sum = 0.0
    for rows in _row_blocks(r.shape):
        block = r[rows] ** -2.0
        block[0] += inv_sq_sum
        inv_sq_sum = block.sum(axis=0)
    amp = np.empty_like(r) if out is None else out
    for rows in _row_blocks(r.shape):
        block = np.multiply(r[rows], r0, out=amp[rows])
        block *= inv_sq_sum
        np.divide(1.0, block, out=block)
    return amp


def _squared(amp: np.ndarray) -> np.ndarray:
    """amp**2 as a new array, in row blocks."""
    power = np.empty_like(amp)
    for rows in _row_blocks(amp.shape):
        np.square(amp[rows], out=power[rows])
    return power


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
    with the argument (numpy 2.4, AVX-512 Xeon).

    Every (M, N) array is formed in blocks of whole sensor rows,
    `STEERING_BLOCK` elements at most (`_row_blocks`), and each block is
    written straight into the result. A block's float64 temporaries, 125 kB
    each, stay in L2 and under glibc's 128 KiB mmap threshold, so they come
    back from the heap instead of costing fresh pages on every call. Each
    element sees the same operations as over the whole array, so the
    output does not depend on the block size. With absorption the absorbed
    distances are one (M, N) array, turned into the amplitude in place,
    since every amplitude needs the sum over all rows.
    """
    if not 0.0 < frequency < np.inf:
        raise ValueError("frequency must be finite and > 0")
    r0 = geometry.r0
    if include_absorption:
        neper = atmospheric_absorption(frequency, geometry.medium) * (np.log(10.0) / 20.0)
        r0 = r0 * np.exp(neper * r0)
        amp = np.empty_like(geometry.r)
        for rows in _row_blocks(amp.shape):
            r = geometry.r[rows]
            np.multiply(r, np.exp(neper * r), out=amp[rows])
        amp = _amplitude(amp, r0, out=amp)
        power = _squared(amp)
    else:
        amp, power = geometry.amplitude, geometry.power
    h = np.empty(geometry.delay.shape, dtype=complex)
    for rows in _row_blocks(h.shape):
        _phasor(geometry.delay[rows], frequency, amp[rows], out=h[rows])
    return SteeringSet(frequency=float(frequency), matrix=h, power=power, reference_distance=r0, grid=geometry.grid)


def _phasor(delay: np.ndarray, frequency: float, amp: np.ndarray, out: np.ndarray) -> None:
    """amp exp(-j 2 pi f delay) into the complex `out`, from one `tan` of the
    phase's remainder in half turns (see `steering_vectors`)."""
    u = delay * (-2.0 * frequency)
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
    np.subtract(1.0, t2, out=t2)
    np.multiply(q, t2, out=out.real)
    q *= 2.0
    np.multiply(q, t, out=out.imag)


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


class _DegradedCsm:
    """CLEAN-SC's degraded CSM, D = G S G^H + diag(e), never formed densely.

    G = [F, c_1, c_2, ...] holds the CSM's factor and then each subtracted
    component vector, S = diag(1, ..., 1, -g p_1, -g p_2, ...) their weights
    (g the loop gain, p a component's peak), and e the diagonal: d, or under
    diagonal removal -q, where q = sum_j S_j |G_mj|^2 is the diagonal of
    G S G^H, so that D's own diagonal is zero. G is kept transposed, one row
    per column, with room for `CLEAN_SC_ROOM` components, doubled when full:
    `max_iterations` may be far more than a map takes.

    ‖D‖_F^2 = tr((S Γ)^2) + 2 e.q + e.e with Γ = G^H G (Golub & Van Loan).
    A component c of weight s adds 2 s sum_j S_j |γ_j|^2 + s^2 (c^H c)^2 to
    tr((S Γ)^2), γ = G^H c, and s |c|^2 to q, so the change of ‖D‖_F^2 costs
    O(M r), r the columns so far, as does a product D w. The stop test reads
    that change, not the difference of two running norms, whose rounding
    (about eps ‖F F^H‖_F^2) would swamp a small change late in a run."""

    def __init__(self, csm: CrossSpectralMatrix, diagonal_removal: bool):
        f = csm.factor
        self.rows = np.empty((f.shape[1] + CLEAN_SC_ROOM, f.shape[0]), dtype=complex)
        self.rows[: f.shape[1]] = f.T
        self.weights = np.ones(len(self.rows))
        self.rank = f.shape[1]
        self.diagonal_removal = diagonal_removal
        self.coherent = _factor_power(f)
        self.diagonal = -self.coherent if diagonal_removal else csm.diagonal

    def column(self, w: np.ndarray) -> tuple[np.ndarray, float, float]:
        """D w = G (S (G^H w)) + e w; its peak w^H D w, read as the sum of
        the terms sum_j S_j |(G^H w)_j|^2 + e.|w|^2; and the sum of those
        terms' magnitudes, which bounds the peak's rounding."""
        g, weights = self.rows[: self.rank], self.weights[: self.rank]
        beta = (g @ w.conj()).conj()  # G^H w
        beta_sq, w_sq = beta.real**2 + beta.imag**2, w.real**2 + w.imag**2
        peak = float(weights @ beta_sq + self.diagonal @ w_sq)
        magnitude = float(np.abs(weights) @ beta_sq + np.abs(self.diagonal) @ w_sq)
        return g.T @ (weights * beta) + self.diagonal * w, peak, magnitude

    def growth(self, comp: np.ndarray, weight: float) -> float:
        """The change of ‖D‖_F^2 that adding weight c c^H, its diagonal
        removed under diagonal removal, would make."""
        gamma = self.rows[: self.rank] @ comp.conj()  # conj(G^H c): only |γ| is read
        power = comp.real**2 + comp.imag**2
        total = float(power.sum())
        change = weight * (2.0 * (self.weights[: self.rank] @ (gamma.real**2 + gamma.imag**2)) + weight * total * total)
        if self.diagonal_removal:  # e = -q: ‖D‖^2 = tr((S Γ)^2) - q.q
            return change - weight * (power @ (2.0 * self.coherent + weight * power))
        return change + 2.0 * weight * (self.diagonal @ power)  # e = d: 2 d.q grows by 2 s d.|c|^2

    def subtract(self, comp: np.ndarray, weight: float) -> bool:
        """Add weight c c^H to D, its diagonal removed under diagonal removal,
        unless that would raise ‖D‖_F; returns whether it was added."""
        if self.growth(comp, weight) > 0.0:
            return False
        if self.rank == len(self.rows):
            self.rows = np.concatenate([self.rows, np.empty_like(self.rows)])
            self.weights = np.concatenate([self.weights, np.empty_like(self.weights)])
        self.rows[self.rank] = comp
        self.weights[self.rank] = weight
        self.rank += 1
        self.coherent += weight * (comp.real**2 + comp.imag**2)
        if self.diagonal_removal:
            self.diagonal = -self.coherent
        return True


def clean_sc(
    csm: CrossSpectralMatrix,
    steering: SteeringSet,
    loop_gain: float = 1.0,
    max_iterations: int = 100,
    stop_threshold: float = 1e-3,
    diagonal_removal: bool = True,
) -> BeamformingMap:
    """CLEAN-SC deconvolution.

    Per iteration: find the dirty-map peak cell, read its peak p = w^H D w
    from the degraded CSM D, estimate the source component vector c from D's
    column D w / p (fixed-point inner iterations when the diagonal is
    removed), subtract loop_gain p c c^H, and accumulate the clean component
    loop_gain p. The degraded CSM is kept in low-rank form (`_DegradedCsm`):
    the CSM's factor, the subtracted components and a diagonal, so no (M, M)
    array is formed and an iteration costs O(M (K + iterations)) besides the
    map update. The first dirty map comes from the CSM's factor
    (`_factored_map`, O(KMN)). It is not formed again from the degraded CSM;
    it loses the map of the subtracted component, loop_gain p (|h^H c|^2 -
    (|h|^2)^T |c|^2), where the second term applies only when the diagonal
    is removed. So the map picks the cell, but p is read from D: the map's
    rounding is about eps times the initial peak, which late in a run can be
    the size of the peak itself.

    Stops, and records why in `stop_reason`, when the dirty-map peak drops to
    stop_threshold times the initial peak or below (`threshold`); when the
    component would raise the degraded CSM's Frobenius norm, or p is within
    its rounding, at most `CLEAN_SC_ROUNDING` eps times the sum of its terms'
    magnitudes, so that the component would be rounding and whether it
    lowers the norm would be chance (`norm_increase`); or after
    max_iterations components (`max_iterations`). Without diagonal removal D
    stays positive semi-definite and a component cannot raise its norm, so
    there `norm_increase` means D is spent at the peak cell.
    """
    if not 0.0 < loop_gain <= 1.0:
        raise ValueError("loop gain must be in (0, 1]")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if not 0.0 <= stop_threshold < 1.0:
        raise ValueError("stop threshold must be in [0, 1)")
    if csm.n_channels != steering.n_channels:
        raise ValueError(f"CSM has {csm.n_channels} channels but steering expects {steering.n_channels}")
    h, h_sq = steering.matrix, steering.power
    ref_scale = (steering.reference_distance / REFERENCE_DISTANCE) ** 2

    degraded = _DegradedCsm(csm, diagonal_removal)
    dirty = _factored_map(csm, h, h_sq, diagonal_removal)
    initial_peak = dirty.max() if dirty.size else 0.0
    components: dict[int, float] = {}
    iterations = 0
    stop_reason = "threshold"

    if initial_peak > 0.0:
        for _ in range(max_iterations):
            t = int(np.argmax(dirty))
            if dirty[t] <= 0.0 or dirty[t] <= stop_threshold * initial_peak:
                break
            w = h[:, t]
            column, peak, magnitude = degraded.column(w)
            if peak <= CLEAN_SC_ROUNDING * np.finfo(float).eps * magnitude:
                stop_reason = "norm_increase"
                break
            comp = column / peak
            if diagonal_removal:
                base = comp
                for _ in range(CLEAN_SC_INNER_ITERATIONS):
                    diag_w = np.abs(comp) ** 2 * w
                    comp = (base + diag_w) / np.sqrt(1.0 + np.real(np.vdot(w, diag_w)))
            if not degraded.subtract(comp, -loop_gain * peak):
                stop_reason = "norm_increase"
                break
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
