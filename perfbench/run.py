"""memsarray benchmark: CLI jobs timed end to end, with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` of that checkout, never from an installed copy. Each workload
(see `workloads.py`) generates its inputs from the seed and calls the public
CLI entry point `memsarray.cli.main([...])` in this process, one job at a
time (closed loop, one client, `--jobs 1`), until the next job would end
after `--seconds`. The process is pinned to one CPU and BLAS runs one
thread, so a job's speed depends on that CPU alone.

Times are given at the host's nominal speed. A shared host runs the same job
up to 1.7 times slower from one minute to the next; between jobs the
benchmark times the fixed kernels of `hostspeed.py` and divides each job's
wall time by the mean of their slowdowns before and after it (set-up by the
slowdown right after it). Wall times are in the report line.

The last line of standard output is the result:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones:

  setup_s       median of three set-ups, this process's own and two in fresh
                interpreters: imports and input generation, from the top of
                this script to the first job's inputs being ready
  job_s.p50     median time of one job
  items_per_s   checked outputs per second of job time: CLEAN-SC maps on the
                map workloads, PCM channels on acquire-fpga
  peak_rss_mb   peak resident memory of this process

With `--trace 1`, jobs alternate between untraced and traced (`tracer.py`);
the metrics are per-layer figures per traced job (times at nominal speed),
the traced median job time and the tracing overhead (traced minus untraced
median). Spans, in wall time, are written to
`.perfbench_work/spans-<workload>-<seed>.json`.

The line before the result is a report: the environment, every job time
(at nominal speed and wall), the host slowdowns, the figures the checks
measured (`level_err_db`, `sinad_db`), `failed_frac`, `maps_per_s` or
`pdm_ch_s_per_s`, and the output defect counts. A job that
raises, exits non-zero or fails a check counts as failed. The tail
percentile of job time is not reported: a run holds about eight jobs, too few
for ten samples beyond any percentile.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
NPROC = len(os.sched_getaffinity(0))
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# numpy is imported only now, after the BLAS thread count is fixed.
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

from hostspeed import slowdown  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckResult, output_counts  # noqa: E402

# Extra set-ups made in fresh interpreters; with this run's own, setup_s is
# the median of three.
EXTRA_SETUPS = 2
SETUP_TIMEOUT_S = 60


def _import_package():
    """Import memsarray from this checkout's src/, or fail."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import memsarray
    import memsarray.cli

    if not os.path.abspath(memsarray.__file__).startswith(src + os.sep):
        raise ImportError(f"memsarray imported from {memsarray.__file__}, not from {src}")
    return memsarray


def _parse(argv):
    p = argparse.ArgumentParser(description="memsarray benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _call_cli(cli, argv):
    """Run one CLI command with its console output captured; (ok, message)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a job that crashes is a failed job
        return False, "".join(traceback.format_exception_only(type(exc), exc)) + sink.getvalue()
    return rc == 0, f"exit code {rc}: {sink.getvalue()}"


def _extra_setup(args) -> float:
    """One set-up in a fresh interpreter; its setup_s."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _environment(memsarray) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": NPROC,
        "pinned_cpu": CPU,
        "cpu": _cpu_model(),
        "cli_jobs": 1,
        "memsarray": memsarray.__version__,
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for root, dirs, names in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(names):
            if name.endswith((".py", ".json")):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def run(args, memsarray) -> int:
    cli = memsarray.cli
    wl = WORKLOADS[args.workload]()
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        def setup_cli(argv):
            ok, message = _call_cli(cli, argv)
            if not ok:
                raise RuntimeError(f"set-up command {argv[0]} failed: {message}")

        wl.setup(work, args.seed, setup_cli)
        job = wl.job(0, os.path.join(work, "job0"))
        setup_wall = time.perf_counter() - T_START
        factor = slowdown()
        setup_s = setup_wall / factor
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall, "slowdown": factor}))
            return 0
        return _measure(args, memsarray, wl, work, job, setup_s, factor)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, memsarray, wl, work, job, setup_s, factor) -> int:
    cli = memsarray.cli
    units = dict(PER_LAYER)
    tracer = Tracer(memsarray.__name__) if args.trace else None
    times, walls, factors = [], [], [factor]
    traced, untraced = [], []
    layer_rows = []
    failures = []
    levels, sinads = [], []
    output = {}
    passed = 0
    start = time.perf_counter()
    j = 0
    while True:
        out = job.out_dir
        tracing = tracer is not None and j % 2 == 0
        gc.collect()
        if tracing:
            tracer.install()
            tracer.begin_job(j)
        t0 = time.perf_counter()
        ok, message = _call_cli(cli, job.argv)
        wall = time.perf_counter() - t0
        if tracing:
            tracer.end_job()
            tracer.uninstall()
        factor = slowdown()
        job_factor = (factors[-1] + factor) / 2.0
        factors.append(factor)
        dt = wall / job_factor

        walls.append(wall)
        times.append(dt)
        (traced if tracing else untraced).append(dt)
        counts = output_counts(out) if os.path.isdir(out) else {}
        if ok:
            try:
                result = wl.check(job)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                result = CheckResult(failures=[f"output unreadable: {exc!r}"])
            ok = result.ok
            message = "; ".join(result.failures)
            counts.update(result.counts)
            if result.level_err_db is not None:
                levels.append(result.level_err_db)
            if result.sinad_db is not None:
                sinads.append(result.sinad_db)
        if ok:
            passed += 1
        else:
            failures.append(f"job {j}: {message.strip()[:400]}")
        for k, v in counts.items():
            output[k] = output.get(k, 0) + v
        if tracing:
            row = tracer.job_metrics(j)
            row = {k: v / job_factor if units.get(k) == "s" else v for k, v in row.items()}
            row.update(counts)
            layer_rows.append(row)
        shutil.rmtree(out, ignore_errors=True)

        j += 1
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
        job = wl.job(j, os.path.join(work, f"job{j}"))

    attempted = len(times)
    failed = attempted - passed
    env = _environment(memsarray)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "why": wl.why,
        "environment": env,
        "job_s": times,
        "job_s.p50": {"value": statistics.median(times), "unit": "s", "samples": attempted},
        "job_wall_s": walls,
        "job_wall_s.p50": {"value": statistics.median(walls), "unit": "s"},
        "slowdown": factors,
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "output_counts_per_job": {k: v / attempted for k, v in output.items()},
    }
    if levels:
        report["level_err_db"] = {"value": max(levels), "unit": "dB"}
    if sinads:
        report["sinad_db"] = {"value": min(sinads), "unit": "dB"}
    throughput = wl.items_per_job * passed / sum(times)
    name, unit, scale = wl.throughput
    report[name] = {"value": throughput * scale, "unit": unit}
    for failure in failures[:5]:
        print(f"perfbench: {failure}", file=sys.stderr)

    if tracer is None:
        setups = [setup_s] + [_extra_setup(args) for _ in range(EXTRA_SETUPS)]
        report["setup_s"] = setups
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "job_s.p50": {"value": statistics.median(times), "unit": "s"},
            "items_per_s": {"value": throughput, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    else:
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.job_s_p50":
                value = statistics.median(traced)
            elif name == "trace.overhead_s":
                value = statistics.median(traced) - statistics.median(untraced) if untraced else 0.0
            else:
                value = sum(row.get(name, 0) for row in layer_rows) / len(layer_rows)
            metrics[name] = {"value": value, "unit": unit}
        spans_path = os.path.join(WORK_ROOT, f"spans-{wl.name}-{args.seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "workload": wl.name, "seed": args.seed, "spans": tracer.dump_spans()}, fh)
        report["spans"] = os.path.relpath(spans_path, ROOT)

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        memsarray = _import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import memsarray from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    return run(args, memsarray)


if __name__ == "__main__":
    sys.exit(main())
