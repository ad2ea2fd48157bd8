"""Host-speed probe that corrects pass times for the shared host's slow phases.

On a shared host the same code runs at very different speeds from one
second to the next: a fixed numpy kernel here takes 7 ms in one phase and
12 ms in the next, and phases last from a second to over a minute, so the
wall time of a 10 s pass moves by 40 % between runs.  While a pass runs, a
``SIGALRM`` handler times a small fixed kernel every ``interval`` seconds,
after one untimed warm-up call so that the timing reflects the core's speed
and not what the program left in the caches.  Each sample gives the host's
speed as the reference kernel time over the sample's kernel time.  The pass
time, less the time spent in the probe, is scaled by the mean speed seen
during the pass: seconds at the host's reference speed.  The mean is taken
over speeds, not kernel times, because the work done in a pass is the sum
of interval times speed, and because a sample that an interrupt stretched
a hundredfold would dominate a mean of kernel times.

Each workload uses the kernel closest to the work that dominates it, because
the slow phase slows small numpy calls, Python object work and large-array
streaming by different factors.  The probe runs benchmark code only, so a
change to softhandoff moves the raw pass time and leaves the probe alone.
"""
from __future__ import annotations

import gc
import signal
import time

import numpy as np

_X = np.linspace(0.01, 1.0, 25)
_RNG = np.random.default_rng(0)
_COV = np.eye(8)


def _numpy_kernel() -> None:
    for _ in range(4):
        y = np.log2(1 + 5 * _X / (1 + 0.2 * _X)) - np.log2(1 + _X)
        int(np.argmax(np.where(y > 0.1, y, -np.inf)))


def _objects_kernel() -> None:
    rows = [(i, "slow", i * 0.5, i % 7) for i in range(150)]
    rows.sort(key=lambda r: (r[3], r[1], r[0]))
    ",".join(f"{r[2]:.12g}" for r in rows[:40])


def _arrays_kernel() -> None:
    x = _RNG.standard_normal((4096, 8)) @ _COV
    float((x.T @ x).sum())


# kernel, sampling interval in seconds, and the kernel's duration at the
# reference speed: its 5th percentile on the 2-vCPU Xeon host where the
# benchmark was defined.  The reference only sets the scale of the result.
KERNELS = {
    "numpy": (_numpy_kernel, 0.01, 38e-6),
    "objects": (_objects_kernel, 0.01, 65e-6),
    "arrays": (_arrays_kernel, 0.05, 640e-6),
}


def burst_time(kind: str, duration: float = 0.02) -> float:
    """Mean duration of one warm call of a kernel over a burst of calls."""
    kernel = KERNELS[kind][0]
    kernel()
    calls = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < duration:
        kernel()
        calls += 1
    return (time.perf_counter() - t0) / calls


class SpeedProbe:
    """Samples one kernel's duration while started; one probe per process."""

    def __init__(self, kind: str) -> None:
        self.kernel, self.interval, self.reference_s = KERNELS[kind]
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.kernel()
            t1 = time.perf_counter()
            self.kernel()
            t2 = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(t2 - t1)
        self.busy_s += t2 - t0

    def __enter__(self) -> "SpeedProbe":
        self._mark = (len(self.samples), self.busy_s)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def correct(self, wall_s: float) -> tuple[float, float]:
        """(wall less probe time, that time at the reference speed) for the
        window since the last ``__enter__``."""
        first, busy0 = self._mark
        window = self.samples[first:] or self.samples
        own = wall_s - (self.busy_s - busy0)
        if not window:
            return own, own
        return own, own * sum(self.reference_s / k for k in window) / len(window)
