"""Layer spans and counters recorded from outside the program.

`Tracer.install()` replaces every public function of each layer module with a
wrapper, wherever the package binds it: in its own module and under the names
other modules imported (`beamforming.path_delays`, the imports in `analysis`,
the package root). A wrapper records a span (name, layer, start, end, parent
span, job id) and, for a few functions, counts taken from the call's
arguments and result. `uninstall()` puts the original functions back. Spans
stay in memory until the run writes them out.

A layer's self time is the summed duration of its spans minus the part their
direct child spans cover. The benchmark opens a root span per job in the
`cli` layer, so `cli.self_s` is the job time no other layer covers.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import math
import time

import numpy as np

LAYERS = ("geometry", "propagation", "synthesis", "spectral", "beamforming", "analysis", "acquisition", "cli")

# Stage times reported on their own: metric name -> functions whose spans it sums.
STAGES = {
    "propagation.amiet_s": ("shear_crossing_delays",),
    "propagation.convected_s": ("convected_delays",),
    "beamforming.steering_s": ("steering_formulation_iii",),
    "beamforming.clean_sc_s": ("clean_sc",),
    "acquisition.modulate_s": ("pdm_modulate",),
    "acquisition.decimate_s": ("pdm_decimate",),
    "acquisition.packet_s": ("packetize", "depacketize", "write_capture", "read_capture"),
}
_STAGE_OF = {fn: metric for metric, names in STAGES.items() for fn in names}

# Per-layer metrics of a traced run and their units, each a mean per traced
# job, plus the traced median job time and the tracing overhead.
PER_LAYER = [
    ("geometry.self_s", "s"), ("geometry.calls", "count"), ("geometry.targets", "count"),
    ("geometry.discard_frac", "ratio"),
    ("propagation.self_s", "s"), ("propagation.calls", "count"), ("propagation.amiet_pairs", "count"),
    ("propagation.amiet_s", "s"), ("propagation.convected_pairs", "count"), ("propagation.convected_s", "s"),
    ("propagation.resolve_ratio", "ratio"),
    ("synthesis.self_s", "s"), ("synthesis.calls", "count"), ("synthesis.channel_samples", "count"),
    ("synthesis.csms", "count"),
    ("spectral.self_s", "s"), ("spectral.calls", "count"), ("spectral.bins_computed", "count"),
    ("spectral.bins_used", "count"), ("spectral.bin_use_ratio", "ratio"),
    ("beamforming.self_s", "s"), ("beamforming.calls", "count"), ("beamforming.steering_s", "s"),
    ("beamforming.steering_elements", "count"), ("beamforming.clean_sc_s", "s"),
    ("beamforming.clean_sc_iterations", "count"), ("beamforming.clean_sc_s_per_iter", "s"),
    ("beamforming.clean_sc_useful_frac", "ratio"),
    ("analysis.self_s", "s"), ("analysis.calls", "count"), ("analysis.bands_dropped", "count"),
    ("acquisition.self_s", "s"), ("acquisition.calls", "count"), ("acquisition.modulate_s", "s"),
    ("acquisition.bits_modulated", "count"), ("acquisition.decimate_s", "s"), ("acquisition.packet_s", "s"),
    ("acquisition.packets", "count"), ("acquisition.gaps_reported", "count"),
    ("acquisition.gaps_expected", "count"),
    ("cli.self_s", "s"), ("cli.files_written", "count"), ("cli.bytes_written", "B"),
    ("cli.csv_unparseable", "count"),
    ("trace.job_s_p50", "s"), ("trace.overhead_s", "s"),
]


def _pairs(sources, receivers) -> int:
    """Source-receiver pairs a travel-time call solves (broadcast shape)."""
    s = np.shape(sources)[:-1]
    r = np.shape(receivers)[:-1]
    return math.prod(np.broadcast_shapes(s, r))


def _propagation_key(sources, receivers, medium) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in (sources, receivers, medium.mach_vector):
        a = np.ascontiguousarray(a, dtype=float)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    plane = medium.shear_layer
    h.update(repr((medium.speed_of_sound, None if plane is None else (plane.point.tolist(), plane.normal.tolist()))).encode())
    return h.digest()


def _octave_centers(f_lo: float, f_hi: float) -> list[float]:
    """Standard base-2 octave centres within [f_lo, f_hi]."""
    k_lo = math.floor(math.log2(f_lo / 1000.0))
    k_hi = math.ceil(math.log2(f_hi / 1000.0))
    return [c for c in (1000.0 * 2.0**k for k in range(k_lo, k_hi + 1)) if f_lo <= c <= f_hi]


class _Job:
    """Counters of one traced job."""

    def __init__(self):
        self.counts: dict[str, float] = {}
        self.propagation_keys: dict[bytes, int] = {}
        self.welch_bins: set[float] = set()
        self.beamformed: set[float] = set()
        self.component_cells = 0
        self.first_span = 0
        self.end_span = 0

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []  # [name, layer, start, end, parent, job]
        self.stack: list[int] = []
        self.jobs: dict[int, _Job] = {}
        self.job_id: int | None = None
        self._bindings: list[tuple] = []  # (module, attribute, original)
        self._counters = {
            "sample_subarray": self._count_sample_subarray,
            "shear_crossing_delays": self._count_propagation("amiet_pairs"),
            "convected_delays": self._count_propagation("convected_pairs"),
            "synthesize_timeseries": self._count_timeseries,
            "synthesize_csm": self._count_csm,
            "welch_csm": self._count_welch,
            "steering_formulation_iii": self._count_steering,
            "clean_sc": self._count_map,
            "conventional_beamform": self._count_map,
            "octave_polar": self._count_octave_polar,
            "pdm_modulate": self._count_modulate,
            "packetize": self._count_packetize,
            "depacketize": self._count_depacketize,
        }

    # ------------------------------------------------------------ wrapping

    def install(self):
        modules = {layer: importlib.import_module(f"{self.package}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[fn] = self._wrap(fn, layer)
        for mod in [importlib.import_module(self.package), *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._bindings.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def _wrap(self, fn, layer):
        name = fn.__name__
        counter = self._counters.get(name)
        signature = inspect.signature(fn)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job_id is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, layer, clock(), None, stack[-1] if stack else None, self.job_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.jobs[self.job_id], bound.arguments, result)
            return result

        return wrapper

    # ------------------------------------------------------------ jobs

    def begin_job(self, job_id: int):
        """Open the job's root span; layer spans recorded until `end_job` nest under it."""
        job = self.jobs[job_id] = _Job()
        job.first_span = len(self.spans)
        self.job_id = job_id
        self.stack.append(len(self.spans))
        self.spans.append(["job", "cli", time.perf_counter(), None, None, job_id])

    def end_job(self):
        self.spans[self.stack.pop()][3] = time.perf_counter()
        self.jobs[self.job_id].end_span = len(self.spans)
        self.job_id = None

    def job_metrics(self, job_id: int) -> dict:
        """Per-layer metrics of one traced job."""
        job = self.jobs[job_id]
        spans = range(job.first_span, job.end_span)
        child_time: dict[int, float] = {}
        for i in spans:
            name, layer, start, end, parent, _ = self.spans[i]
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({f"{layer}.calls": 0 for layer in LAYERS if layer != "cli"})
        out.update({metric: 0.0 for metric in STAGES})
        for i in spans:
            name, layer, start, end, parent, _ = self.spans[i]
            out[f"{layer}.self_s"] += (end - start) - child_time.get(i, 0.0)
            if layer != "cli" and (parent is None or self.spans[parent][1] != layer):
                out[f"{layer}.calls"] += 1
            if name in _STAGE_OF:
                out[_STAGE_OF[name]] += end - start

        c = dict(job.counts)
        targets = c.pop("geometry.targets", 0)
        out["geometry.targets"] = targets
        out["geometry.discard_frac"] = c.pop("geometry.discarded", 0) / targets if targets else 0.0
        pairs = c.get("propagation.amiet_pairs", 0) + c.get("propagation.convected_pairs", 0)
        distinct = sum(job.propagation_keys.values())
        out["propagation.resolve_ratio"] = pairs / distinct if distinct else 0.0
        out["spectral.bins_used"] = len(job.welch_bins & job.beamformed)
        bins = c.get("spectral.bins_computed", 0)
        out["spectral.bin_use_ratio"] = out["spectral.bins_used"] / bins if bins else 0.0
        iters = c.get("beamforming.clean_sc_iterations", 0)
        out["beamforming.clean_sc_s_per_iter"] = out["beamforming.clean_sc_s"] / iters if iters else 0.0
        out["beamforming.clean_sc_useful_frac"] = job.component_cells / iters if iters else 0.0
        out.update(c)
        return out

    def dump_spans(self) -> list[dict]:
        return [
            {"name": n, "layer": layer, "start": s, "end": e, "parent": p, "job": j}
            for n, layer, s, e, p, j in self.spans
        ]

    # ------------------------------------------------------------ counters

    @staticmethod
    def _count_sample_subarray(job, a, sub):
        job.add("geometry.targets", len(a["targets"]))
        job.add("geometry.discarded", sub.discarded)

    @staticmethod
    def _count_propagation(metric):
        def count(job, a, result):
            n = _pairs(a["sources"], a["receivers"])
            job.add(f"propagation.{metric}", n)
            job.propagation_keys[_propagation_key(a["sources"], a["receivers"], a["medium"])] = n

        return count

    @staticmethod
    def _count_timeseries(job, a, result):
        job.add("synthesis.channel_samples", result[0].size)

    @staticmethod
    def _count_csm(job, a, result):
        job.add("synthesis.csms", len(result))

    @staticmethod
    def _count_welch(job, a, result):
        job.add("spectral.bins_computed", len(result))
        job.welch_bins.update(c.frequency for c in result)

    @staticmethod
    def _count_steering(job, a, result):
        job.add("beamforming.steering_elements", result.matrix.size)

    @staticmethod
    def _count_map(job, a, result):
        job.beamformed.add(result.frequency)
        job.add("beamforming.clean_sc_iterations", result.iterations)
        job.component_cells += len(result.components)

    @staticmethod
    def _count_octave_polar(job, a, result):
        f = a["surface"].frequencies
        if a["band_type"] == "octave":
            job.add("analysis.bands_dropped", len(_octave_centers(f[0], f[-1])) - len(result["centers"]))

    @staticmethod
    def _count_modulate(job, a, result):
        job.add("acquisition.bits_modulated", result.n_bits)

    @staticmethod
    def _count_packetize(job, a, result):
        job.add("acquisition.packets", len(result))

    @staticmethod
    def _count_depacketize(job, a, result):
        job.add("acquisition.gaps_reported", len(result[1]))
