"""Modular microphone array geometry.

The full array is a gap-free tiling of identical panels. Each panel tiles a
fixed four-board pattern (four unique PCB designs of 0.25 m x 0.5 m, 50
sensors each) twice in both directions, giving 16 PCBs / 800 sensors per
2 m x 1 m panel. Sub-arrays are sampled from the full sensor pool by greedy
nearest-sensor matching against an optimal target layout (Fermat spiral).

Coordinate frame: x downstream, y from the model toward the array plane,
z vertical. The array plane sits at y = 3.39 m, centred on (x, z) = (3.0, -0.5).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConstraintError

# PCB geometry (meters)
PCB_SHORT = 0.250
PCB_LONG = 0.500
SENSORS_PER_PCB = 50
EDGE_CLEARANCE = 0.005  # each sensor centers a 5 mm free circle
MIN_SENSOR_SPACING = 0.010

PANEL_X = 2.0  # panel extent along x (two blocks of the 1.0 m pattern)
PANEL_Z = 1.0

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))  # ~137.5078 deg

PLANE_DISTANCE = 3.39  # y of the array plane
CENTER_X = 3.0  # array centre in the plane
CENTER_Z = -0.5
MAX_CANDIDATES = 50_000  # Halton candidates tried per PCB before giving up
F_MAX = 16_000.0  # frequency-dependent apertures stop shrinking above this


@dataclass(frozen=True)
class ArrayGeometry:
    """Full sensor layout in the tunnel frame; a sensor's id is its row index."""

    positions: np.ndarray  # (N, 3)
    origin: np.ndarray  # (3,) centre of the array plane
    extent: tuple[float, float]  # (x width, z height) of the panel tiling
    seed: int | None = None

    @property
    def sensor_count(self) -> int:
        return len(self.positions)

    def bounding_box(self):
        return self.positions.min(axis=0), self.positions.max(axis=0)

    def to_dict(self) -> dict:
        return {
            "positions": self.positions.tolist(),
            "origin": self.origin.tolist(),
            "extent": list(self.extent),
            "seed": self.seed,
        }

    def save_json(self, path):
        # json.dump with a file runs the pure-Python encoder; dumps uses the C one, same bytes
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True))

    @classmethod
    def from_dict(cls, data: dict) -> "ArrayGeometry":
        """Geometry of a `to_dict` object. ConfigError at `geometry` unless the
        object has exactly the keys `to_dict` writes; `positions` is a non-empty
        list of rows of 3 finite JSON numbers, no two rows alike; `origin` is 3
        finite numbers, `extent` 2, and `seed` an integer or null."""
        if type(data) is not dict:
            raise ConfigError("geometry", f"the file is {type(data).__name__}, expected an object")
        missing, unknown = sorted(_FILE_KEYS - data.keys()), sorted(data.keys() - _FILE_KEYS)
        if missing:
            raise ConfigError("geometry", f"the file has no key {missing[0]!r}")
        if unknown:
            raise ConfigError("geometry", f"the file has unknown key {unknown[0]!r}")
        rows = data["positions"]
        if type(rows) is not list or not rows:
            raise ConfigError("geometry", "expected one or more sensors in positions")
        for i, row in enumerate(rows):
            if type(row) is not list or len(row) != 3 or not _NUMBERS.issuperset(map(type, row)):
                raise ConfigError("geometry", f"sensor {i} is {row!r}, expected 3 numbers")
        pos = np.array(rows, dtype=float)
        bad = ~np.isfinite(pos).all(axis=1)
        if bad.any():
            raise ConfigError("geometry", f"sensor {int(np.argmax(bad))} has a non-finite coordinate")
        order = np.lexsort(pos.T)
        same = (pos[order[1:]] == pos[order[:-1]]).all(axis=1)
        if same.any():
            k = int(np.argmax(same))
            a, b = sorted(order[k : k + 2].tolist())
            raise ConfigError("geometry", f"sensors {a} and {b} share one position")
        origin = _finite_vector(data["origin"], 3, "origin")
        extent = tuple(_finite_vector(data["extent"], 2, "extent").tolist())
        if data["seed"] is not None and type(data["seed"]) is not int:
            raise ConfigError("geometry", f"seed is {data['seed']!r}, expected an integer or null")
        return cls(positions=pos, origin=origin, extent=extent, seed=data["seed"])

    @classmethod
    def load_json(cls, path) -> "ArrayGeometry":
        """Geometry of a `save_json` file; an unreadable or malformed file raises ConfigError."""
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except ConfigError as exc:
            raise ConfigError(exc.field, f"{path}: {exc.message}") from exc
        except (OSError, ValueError, OverflowError) as exc:  # OverflowError: an integer beyond float range
            raise ConfigError("geometry", f"cannot read {path}: {exc}") from exc


_FILE_KEYS = frozenset({"positions", "origin", "extent", "seed"})
_NUMBERS = frozenset({int, float})  # JSON numbers; bool and str are other types


def _finite_vector(value, n: int, where: str) -> np.ndarray:
    """`value` as an array of `n` finite numbers, or ConfigError at `geometry`."""
    if type(value) is not list or len(value) != n or not _NUMBERS.issuperset(map(type, value)):
        raise ConfigError("geometry", f"{where} is {value!r}, expected {n} numbers")
    out = np.array(value, dtype=float)
    if not np.isfinite(out).all():
        raise ConfigError("geometry", f"{where} is {value!r}, expected finite numbers")
    return out


@dataclass(frozen=True)
class SubArray:
    """Index subset of an ArrayGeometry."""

    parent: ArrayGeometry
    indices: np.ndarray  # (K,) unique sensor indices
    discarded: int = 0  # targets without a sensor within epsilon

    def __post_init__(self):
        if len(np.unique(self.indices)) != len(self.indices):
            raise ValueError("sub-array reuses a sensor index")

    @property
    def positions(self) -> np.ndarray:
        return self.parent.positions[self.indices]

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ObservationAngles:
    """Pitch observation angle (degrees) with its angular spread."""

    theta: float
    theta_std: float = 0.0


def generate_pcb_layout(design: int, seed: int) -> np.ndarray:
    """(50, 2) sensor positions of one of the four PCB designs, in meters
    local to the board origin as (short-side, long-side) coordinates.

    Placement uses a seeded Cranley-Patterson shift of a 2D Halton sequence,
    greedily filtered so every sensor keeps a 5 mm free radius (10 mm pairwise
    spacing, 5 mm edge clearance). Identical (design, seed) pairs always
    produce identical layouts.
    """
    if design not in (0, 1, 2, 3):
        raise ValueError(f"design must be 0..3, got {design}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, design, 0x9CB]))
    shift = rng.random(2)
    span_u = PCB_SHORT - 2 * EDGE_CLEARANCE
    span_v = PCB_LONG - 2 * EDGE_CLEARANCE
    placed = np.empty((SENSORS_PER_PCB, 2))  # rows :n are the accepted sensors
    n = 0
    batch = 2_000
    offset = 0
    while n < SENSORS_PER_PCB:
        if offset >= MAX_CANDIDATES:
            raise ConstraintError(
                f"could not place {SENSORS_PER_PCB} sensors after {offset} candidates"
            )
        u = (_halton_range(offset, batch, 2) + shift[0]) % 1.0
        v = (_halton_range(offset, batch, 3) + shift[1]) % 1.0
        offset += batch
        for cu, cv in zip((EDGE_CLEARANCE + u * span_u).tolist(), (EDGE_CLEARANCE + v * span_v).tolist()):
            if (np.hypot(cu - placed[:n, 0], cv - placed[:n, 1]) >= MIN_SENSOR_SPACING).all():
                placed[n] = cu, cv
                n += 1
                if n == SENSORS_PER_PCB:
                    break
    _check_pcb_layout(placed)
    return placed


def _check_pcb_layout(p: np.ndarray):
    """ConstraintError unless `p` holds 50 sensors inside the board's edge
    clearance, each at least the minimum spacing from every other."""
    if p.shape != (SENSORS_PER_PCB, 2):
        raise ConstraintError(f"expected {SENSORS_PER_PCB} sensor positions, got {p.shape}")
    lo = EDGE_CLEARANCE - 1e-12
    hi_u = PCB_SHORT - EDGE_CLEARANCE + 1e-12
    hi_v = PCB_LONG - EDGE_CLEARANCE + 1e-12
    if (p[:, 0] < lo).any() or (p[:, 0] > hi_u).any() or (p[:, 1] < lo).any() or (p[:, 1] > hi_v).any():
        raise ConstraintError("sensor outside PCB clearance region")
    d = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    if d.min() < MIN_SENSOR_SPACING - 1e-12:
        raise ConstraintError(f"sensor spacing {d.min():.4f} m below {MIN_SENSOR_SPACING} m")


def _halton_range(start: int, count: int, base: int) -> np.ndarray:
    """Radical-inverse (van der Corput) values for indices start+1 .. start+count.

    All indices take their digits in lockstep, least significant first; an
    index out of digits adds f * 0 = 0.0, so each value sees the same
    floating-point operations in the same order as a scalar loop would."""
    k = np.arange(start + 1, start + count + 1)
    r = np.zeros(count)
    f = 1.0
    while k.any():
        f /= base
        r += f * (k % base)
        k //= base
    return r


def assemble_full_array(panels_x: int, panels_z: int, seed: int) -> ArrayGeometry:
    """Tile panels into the full array.

    Each panel is a 2 x 2 repetition of the fixed four-PCB pattern (designs
    laid out [[0, 1], [2, 3]] over 1.0 m x 0.5 m), so a panel spans
    2 m x 1 m with 800 sensors. Panels tile gap-free around
    (CENTER_X, CENTER_Z) in the plane y = PLANE_DISTANCE.
    """
    if panels_x < 1 or panels_z < 1:
        raise ValueError("panel counts must be >= 1")
    pts = np.stack([generate_pcb_layout(d, seed) for d in range(4)]).reshape(2, 2, SENSORS_PER_PCB, 2)
    # index grid (panel z, panel x, block z, block x, PCB z, PCB x): two pattern
    # blocks per direction, 2 x 2 PCBs per block, design dz * 2 + dx, long side along x
    pz, px, bz, bx, dz, dx = np.ix_(range(panels_z), range(panels_x), range(2), range(2), range(2), range(2))
    ox = (CENTER_X - panels_x * PANEL_X / 2.0) + px * PANEL_X + bx * 1.0 + dx * PCB_LONG
    oz = (CENTER_Z - panels_z * PANEL_Z / 2.0) + pz * PANEL_Z + bz * 0.5 + dz * PCB_SHORT
    positions = np.empty((panels_z, panels_x, 2, 2, 2, 2, SENSORS_PER_PCB, 3))
    positions[..., 0] = ox[..., None] + pts[..., 1]
    positions[..., 1] = PLANE_DISTANCE
    positions[..., 2] = oz[..., None] + pts[..., 0]
    return ArrayGeometry(
        positions=positions.reshape(-1, 3),
        origin=np.array([CENTER_X, PLANE_DISTANCE, CENTER_Z]),
        extent=(panels_x * PANEL_X, panels_z * PANEL_Z),
        seed=int(seed),
    )


def fermat_spiral(count: int, aperture: float, center=(0.0, 0.0)) -> np.ndarray:
    """Fermat (sunflower) spiral of `count` points within `aperture` diameter.

    Point n sits at radius (aperture/2) * sqrt(n / (count - 1)) and azimuth
    n * golden angle; point 0 is the center.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if aperture <= 0:
        raise ValueError("aperture must be > 0")
    n = np.arange(count, dtype=float)
    if count == 1:
        radius = np.zeros(1)
    else:
        radius = (aperture / 2.0) * np.sqrt(n / (count - 1))
    angle = n * GOLDEN_ANGLE
    return np.stack(
        [center[0] + radius * np.cos(angle), center[1] + radius * np.sin(angle)], axis=1
    )


def _lift_targets(geometry: ArrayGeometry, targets: np.ndarray) -> np.ndarray:
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2 or targets.shape[1] not in (2, 3):
        raise ValueError("targets must be (N, 2) in-plane or (N, 3) points")
    if targets.shape[1] == 2:
        return np.stack([targets[:, 0], np.full(len(targets), float(geometry.origin[1])), targets[:, 1]], axis=1)
    return targets


def sample_subarray(
    geometry: ArrayGeometry,
    targets: np.ndarray,
    epsilon: float,
) -> SubArray:
    """Greedily match targets to the nearest unused sensors.

    Targets are visited in order; a target is discarded when no unused sensor
    lies within `epsilon` (ties broken by lowest sensor index). 2D targets are
    interpreted as (x, z) in the array plane; a non-finite target matches no
    sensor.

    Each target's candidates come from a strip search: the sensors sorted once
    by x, and two `searchsorted` calls give every target the slice of sensors
    whose x lies within a hair above `epsilon` of its own. The strip holds
    every sensor of the target's epsilon-ball. All strips are gathered into
    one array and cut to the sensors within that hair in z too; their
    distances are computed in one call and tested against `epsilon`, and each
    target's sensors within it are ranked by (distance, sensor index). The
    greedy pass takes each target's first unused sensor from that short list.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    lifted = _lift_targets(geometry, targets)
    pos = geometry.positions
    order = np.argsort(pos[:, 0], kind="stable")
    xs = pos[order, 0]
    reach = epsilon * (1.0 + 1e-9)
    lo = np.searchsorted(xs, lifted[:, 0] - reach, side="left")
    hi = np.searchsorted(xs, lifted[:, 0] + reach, side="right")
    counts = np.where(np.isfinite(lifted).all(axis=1), hi - lo, 0)  # a non-finite target gets an empty strip
    owner = np.repeat(np.arange(len(lifted)), counts)
    # strip k's i-th sensor is order[lo[k] + i]; its row in the gathered array is starts[k] + i
    starts = np.cumsum(counts) - counts
    candidate = order[np.arange(len(owner)) + np.repeat(lo - starts, counts)]
    # a sensor more than `reach` away in z lies outside the epsilon-ball too
    inside = np.abs(pos[candidate, 2] - lifted[owner, 2]) <= reach
    owner, candidate = owner[inside], candidate[inside]
    d = np.linalg.norm(pos[candidate] - lifted[owner], axis=1)
    near = d <= epsilon
    owner, candidate, d = owner[near], candidate[near], d[near]
    ranked = np.lexsort((candidate, d, owner))
    bounds = np.searchsorted(owner[ranked], np.arange(len(lifted) + 1)).tolist()
    ranked_candidates = candidate[ranked].tolist()
    taken: set[int] = set()
    indices: list[int] = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        j = next((j for j in ranked_candidates[a:b] if j not in taken), None)
        if j is not None:
            indices.append(j)
            taken.add(j)
    return SubArray(parent=geometry, indices=np.array(indices, dtype=int), discarded=len(lifted) - len(indices))


def spiral_subarray(geometry: ArrayGeometry, mics: int, aperture: float, epsilon: float, center=None) -> SubArray:
    """The sensors nearest a Fermat spiral of `mics` targets and `aperture`
    diameter (`sample_subarray` within `epsilon`), centred on the in-plane
    point `center` (x, z), by default the array plane's origin."""
    if center is None:
        center = (geometry.origin[0], geometry.origin[2])
    return sample_subarray(geometry, fermat_spiral(mics, aperture, center=center), epsilon)


def subarray_stats(sub: SubArray):
    """Geometric mean (average sensor location) and per-axis population std."""
    if sub.size < 1:
        raise ValueError("sub-array is empty")
    p = sub.positions
    return p.mean(axis=0), p.std(axis=0)


def observation_angles(observer, reference, spread=None) -> ObservationAngles:
    """Pitch angle of an observer relative to a reference point.

    theta = 90 deg + atan(dx / d_perp) (90 deg is broadside, x downstream),
    with d_perp the distance along y. An optional positional spread (3-vector
    of stds) is mapped through the same relation.
    """
    observer = np.asarray(observer, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if np.allclose(observer, reference):
        raise ValueError("observer coincides with reference")
    d_perp = abs(observer[1] - reference[1])
    if d_perp <= 0:
        raise ValueError("zero perpendicular distance between observer and reference")
    dx = observer[0] - reference[0]
    theta = 90.0 + math.degrees(math.atan(dx / d_perp))
    theta_std = 0.0
    if spread is not None:
        spread = np.asarray(spread, dtype=float)
        if (spread < 0).any():
            raise ValueError("spread components must be >= 0")
        th_hi = math.degrees(math.atan((dx + spread[0]) / d_perp))
        th_lo = math.degrees(math.atan((dx - spread[0]) / d_perp))
        theta_std = (th_hi - th_lo) / 2.0
    return ObservationAngles(theta=theta, theta_std=theta_std)


def subarray_observation(sub: SubArray, reference) -> ObservationAngles:
    """Observation angle of a sub-array's geometric mean, with its spread."""
    mean, std = subarray_stats(sub)
    return observation_angles(mean, reference, spread=std)


def pitch_subarray_series(
    geometry: ArrayGeometry,
    count: int,
    aperture: float,
    mics: int,
    epsilon: float,
) -> list[SubArray]:
    """Sub-arrays at spiral centers equally spaced along the array's long axis.

    Edge sub-arrays lose the targets that fall outside the sensor pool, so
    they contain fewer sensors than `mics`.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = geometry.bounding_box()
    z_center = geometry.origin[2]
    if count == 1:
        centers = np.array([geometry.origin[0]])
    else:
        centers = np.linspace(lo[0], hi[0], count)
    return [spiral_subarray(geometry, mics, aperture, epsilon, center=(cx, z_center)) for cx in centers]


def frequency_dependent_aperture(frequency: float, d_ref: float, f_ref: float) -> float:
    """Aperture scaled as d_ref * f_ref / f, clamped below f_ref and above F_MAX."""
    f = min(max(float(frequency), f_ref), F_MAX)
    return d_ref * f_ref / f
