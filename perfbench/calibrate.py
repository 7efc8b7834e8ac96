"""Machine-speed calibration for hosts whose cores are shared.

On a shared host the same pass can take anywhere from one to two times its
unloaded time, and the speed changes within a second. Wall time equals CPU
time there, so the cause is a slower core, not waiting for one. Timed work is
therefore reported rescaled to a probe's reference speed:

    reported = (elapsed - time spent in probes) * reference / mean(probe time)

During a pass, a SIGALRM timer runs a ~1-4 ms probe every 50 ms, so the
probes sample the speed of the very interval being timed. Probes run between
bytecodes; they never interrupt a C call, and they change no program state.
A set-up child probes itself the same way while it imports loora, with a
pure-Python loop (numpy is not imported yet), and reports what its probes
took on its "ready" line.

Probes use only Python, numpy and scipy, never loora, so a change to the
program moves the reported times and a change in host speed largely does not.
Contention slows different code by different amounts, so each workload uses
the probe whose mix matches its own:

- "interpreter": an interpreter loop reading Python floats scattered over
  ~8 MB, small array operations and small Cholesky factorizations, the mix of
  loora's per-replicate and parsing work. The scattered reads matter: a probe
  that stays in cache slows less under contention than loora does.
- "blas": a dense 400 x 400 matrix product and elementwise passes over a
  64 x 2048 block, the mix of the exact oracle's n x n hat-matrix algebra.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from scipy.linalg import cho_factor  # bound now, so a tracer's wrapper never sees it

INTERVAL_S = 0.05

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((200, 8))
_GRAM = _X.T @ _X + np.eye(8)
_SQUARE = _rng.standard_normal((400, 400))
_BLOCK = _rng.standard_normal((64, 2048))
_ROW = _rng.standard_normal(2048)
_FLOATS = [float(i) for i in range(250_000)]  # ~8 MB, more than a core's private caches
_PICKS = _rng.integers(0, len(_FLOATS), 4_000).tolist()


def _interpreter() -> None:
    total = 0.0
    for i in _PICKS:
        total += _FLOATS[i]
    for _ in range(10):
        scaled = _X * 2.0
        cho_factor(_GRAM)
        scaled.sum(axis=0)


def _blas() -> None:
    _SQUARE @ _SQUARE
    block = _BLOCK * _ROW[None, :]
    block += _BLOCK * _BLOCK
    np.where(block > 0.0, block, 0.0) @ _ROW


# name -> (probe, its time in seconds as measured where it runs on an
# unloaded 2-core x86-64 host with Python 3.11 and single-threaded OpenBLAS,
# so reported times read roughly as seconds on such a host)
PROBES = {
    "interpreter": (_interpreter, 0.0012),
    "blas": (_blas, 0.0030),
}


def probe_seconds(kind: str) -> float:
    probe = PROBES[kind][0]
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


# Prefix for a set-up child's code. Its probe runs every 10 ms; the child
# must end with report_probes(). The loop takes about CHILD_PROBE_REFERENCE_S
# on the reference host.
CHILD_PROBE = """\
import signal, time
_probe_times = []
def _probe(signum, frame):
    start = time.perf_counter()
    total = 0
    for i in range(2000):
        total += i * i % 7
    _probe_times.append(time.perf_counter() - start)
def report_probes():
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    print("ready", sum(_probe_times), sum(_probe_times) / max(len(_probe_times), 1), flush=True)
signal.signal(signal.SIGALRM, _probe)
signal.setitimer(signal.ITIMER_REAL, 0.01, 0.01)
"""
CHILD_PROBE_REFERENCE_S = 0.00015


def child_seconds(elapsed: float, ready_line: str) -> float:
    """Calibrated set-up time from a child's wall time and its "ready" line."""
    _, spent, mean = ready_line.split()
    return (elapsed - float(spent)) * CHILD_PROBE_REFERENCE_S / float(mean)


class SpeedProbe:
    """Times work in this process with in-flight speed probes."""

    def __init__(self, kind: str):
        self.kind = kind
        self.spent = 0.0  # seconds spent inside probes, ever
        self._samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(probe_seconds(self.kind))
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        """A clock that stands still while a probe runs."""
        return time.perf_counter() - self.spent

    def time(self, fn):
        """Run fn; returns (its result, seconds of work, speed factor)."""
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = self.clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            work = self.clock() - start
            signal.signal(signal.SIGALRM, previous)
        if not self._samples:  # shorter than one interval
            self._samples.append(probe_seconds(self.kind))
        return result, work, PROBES[self.kind][1] / statistics.fmean(self._samples)
