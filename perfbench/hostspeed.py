"""How fast the host runs right now, from three fixed reference kernels.

On a shared virtual machine the same job can take 1.7 times longer from one
minute to the next: the vCPU keeps running (no steal time shows) but other
tenants slow it. The benchmark therefore times these kernels between jobs
and divides each job's wall time by the mean slowdown they show, which
gives the job's time at the host's nominal speed.

The kernels cover the three kinds of work the program does: an interpreted
scalar loop (the shape of `pdm_modulate`), a complex matrix product (BLAS,
as in steering and CSMs) and an elementwise complex exponential over a
large array (as in steering vectors and spectra). Their code and inputs are
fixed here and never depend on the program, so a change to the program
moves job times and leaves the kernels alone.

`NOMINAL_S` are about the kernels' fastest times seen on an Intel Xeon
(family 6, model 143) KVM guest, one vCPU, one BLAS thread; a kernel that
takes twice its nominal time means the host runs at half speed.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = {"loop": 0.065, "matmul": 0.078, "exp": 0.086}

# Inputs are made inside each kernel and freed after it, so the kernels add
# a few MB at most to the process's peak memory, between jobs.
_LOOP_N = 150_000
_MAT_N = 400
_PHASE_N = 250_000


def _loop():
    """A 2nd-order delta-sigma loop over fixed samples, one element at a time."""
    x = np.random.default_rng(0).standard_normal(_LOOP_N)
    bits = np.empty(len(x), dtype=np.uint8)
    s1 = s2 = 0.0
    y = 1.0
    for i in range(len(x)):
        s1 += x[i] - y
        s2 += s1 - 2.0 * y
        y = 1.0 if s2 >= 0.0 else -1.0
        bits[i] = 1 if y > 0.0 else 0
    return bits


def _matmul():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((_MAT_N, _MAT_N)) + 1j * rng.standard_normal((_MAT_N, _MAT_N))
    for _ in range(10):
        a @ a


def _exp():
    phase = np.random.default_rng(2).standard_normal(_PHASE_N)
    for _ in range(8):
        np.exp(1j * phase).sum()


_KERNELS = {"loop": _loop, "matmul": _matmul, "exp": _exp}


def slowdown() -> float:
    """Mean over the kernels of their time divided by their nominal time."""
    ratios = []
    for name, kernel in _KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        ratios.append((time.perf_counter() - t0) / NOMINAL_S[name])
    return sum(ratios) / len(ratios)
