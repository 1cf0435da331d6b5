"""Host-speed calibration for a shared, noisy machine.

On the 2-core host the benchmark was built on, the speed of the machine
drifts by up to 2x over seconds to minutes, because other tenants share the
physical cores: a fixed pure-Python loop ranged from 13 to 20 ms within one
minute, and the median eval latency of 20-second runs ranged from 10.5 to
14.7 ms. Wall time and CPU time drift alike, so medians inside a run cannot
remove it.

While a run measures, a timer signal runs a fixed calibration kernel every
PERIOD_S seconds of wall time. The kernel is the benchmark's own code, with
the instruction mix of the program: small-object Python arithmetic on numpy
4-vectors, two 4x4x4x4 einsum contractions and a JSON round trip. It never
calls the program, so a change to the program cannot change it. Kernel time
is subtracted from the operation it interrupted. An operation's time at
reference speed is

    seconds x (KERNEL_REF_S / median kernel time within WINDOW_S of it) ** elasticity,

the time it would have taken on a host where the kernel takes KERNEL_REF_S.
The elasticity is how strongly a workload's time follows the kernel's as the
host speeds up or slows down; each workload states its own, measured on the
seed commit over two sets of ten runs. verify and sweep spend much of their
time in numpy's compiled loops and follow the kernel at about 0.7: when the
kernel got 1.95x to 2.1x slower, a verify got 1.55x and a sweep 1.6x slower,
and 0.7 gave IQR/median 0.03-0.08 against 0.02-0.14 with 1.0 and up to 0.3
with raw wall time. eval is argparse, JSON and small-object Python like the
kernel and follows it at 1.0 (IQR/median 0.013-0.033 against 0.075-0.11 with
0.7 and 0.26-0.42 raw). A change that alters the program's instruction mix
can move its true elasticity, so times at reference speed are close to, not
exactly, independent of the host. KERNEL_REF_S and the elasticities are
fixed; changing one rescales the reported times.
"""

import json
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 0.25
KERNEL_REF_S = 0.4e-3

_T = np.linspace(0.5, 1.5, 256).reshape(4, 4, 4, 4)
_V = np.array([0.7, 1.1, 1.3, 0.9])


class _Dual:
    __slots__ = ("v", "g")

    def __init__(self, v, g):
        self.v = v
        self.g = g

    def mul(self, o):
        return _Dual(self.v * o.v, self.v * o.g + o.v * self.g)


def kernel() -> int:
    xs = [_Dual(float(x), np.eye(4)[i]) for i, x in enumerate(_V)]
    acc = xs[0]
    for k in range(40):
        acc = acc.mul(xs[k % 4])
        acc = _Dual(acc.v / (1.0 + abs(acc.v)), acc.g * 0.5)
    a = np.einsum("ijkl,j,k,l->i", _T, _V, _V, _V)
    b = np.einsum("ijkl,k,l->ij", _T, _V, _V)
    text = json.dumps({"a": a.tolist(), "b": b.tolist(), "v": acc.v, "g": acc.g.tolist()})
    return len(json.loads(text))


class HostSpeed:
    """Samples the kernel on SIGALRM inside ``with``; converts wall times
    to reference speed for a workload of the given elasticity."""

    def __init__(self, elasticity: float):
        self.elasticity = elasticity
        self.times: list[float] = []  # sample start times
        self.samples: list[float] = []  # kernel seconds
        self.spent = 0.0  # total kernel seconds so far
        self._old = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        self.times.append(t0)
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, start: float, end: float) -> float:
        """(KERNEL_REF_S / median kernel time within WINDOW_S of [start, end],
        or of the whole run when no sample falls there) ** elasticity."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        return (KERNEL_REF_S / statistics.median(self.samples[lo:hi] or self.samples)) ** self.elasticity

    def median_kernel_s(self) -> float:
        return statistics.median(self.samples)
