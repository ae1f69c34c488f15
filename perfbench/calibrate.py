"""How fast the host runs right now, from a fixed reference computation.

The host this benchmark runs on shares its cores with other machines, and
its speed drifts by up to 1.5x over seconds to minutes.  A fixed kernel
measures that drift: sampled every 0.1 s inside each timed operation, and
in blocks around each set-up.  The end-to-end metrics are scaled by it to a
nominal host speed.

The kernel imitates the kind of work emastate does: a Python loop over a
2x2 Kalman filter with small numpy and LAPACK calls, and log-sum-exp over
particle-sized vectors.  It never calls emastate, so a change to the
program cannot move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.special import logsumexp

# Seconds one kernel call takes at the nominal host speed (the median over
# quiet stretches of a 2-vCPU Xeon, 2.1 GHz, Python 3.11, numpy 2.4).
NOMINAL_S = 0.012

_rng = np.random.default_rng(20230503)
_Y = _rng.standard_normal((150, 2))
_W = _rng.standard_normal((40, 2000))
_A = np.array([[0.6, 0.1], [0.0, 0.7]])
_Q = 0.5 * np.eye(2)
_R = 0.4 * np.eye(2)


def kernel() -> float:
    """One call of fixed work; returns a value so nothing is optimized away."""
    x, P, total = np.zeros(2), np.eye(2), 0.0
    for y in _Y:
        x = _A @ x
        P = _A @ P @ _A.T + _Q
        S = P + _R
        L = np.linalg.cholesky(S)
        v = y - x
        z = np.linalg.solve(L, v)
        K = np.linalg.solve(S, P).T
        x = x + K @ v
        P = P - K @ S @ K.T
        total -= 0.5 * (z @ z) + np.log(np.diag(L)).sum()
    for w in _W:
        total += logsumexp(w)
    return total


class Calibration:
    """Kernel calls and the seconds they took, over a whole run."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0

    def run(self, seconds: float) -> float:
        """Whole kernel calls for at least ``seconds``; returns this block's
        seconds per call."""
        n, t0 = 0, time.perf_counter()
        while True:
            kernel()
            n += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                break
        self.calls += n
        self.seconds += elapsed
        return elapsed / n

    @staticmethod
    def between(per_call: list) -> list:
        """Slowdown of each interval between calibration blocks: the mean
        seconds per call of the blocks on either side over the nominal."""
        return [0.5 * (a + b) / NOMINAL_S for a, b in zip(per_call, per_call[1:])]

    def sampling(self, interval: float) -> "Sampler":
        """A context in which one kernel call runs every ``interval`` seconds."""
        return Sampler(self, interval)

    def slowdown(self) -> float:
        """The host's time per unit of work over the nominal one, for the
        whole run: 1.25 means everything ran 25 % slower than nominal."""
        return self.seconds / self.calls / NOMINAL_S


class Sampler:
    """Inside ``with``, one kernel call every ``interval`` seconds of wall
    time, run from a SIGALRM handler in the main thread between bytecodes.
    ``seconds`` and ``calls`` are what the samples took; subtract
    ``seconds`` from the wall time of the code they interrupted."""

    def __init__(self, cal: Calibration, interval: float):
        self.cal = cal
        self.interval = interval
        self.calls = 0
        self.seconds = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.calls += 1
        self.seconds += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.cal.calls += self.calls
        self.cal.seconds += self.seconds

    def slowdown(self) -> float | None:
        """The host's slowdown while sampling; None without a sample."""
        return self.seconds / self.calls / NOMINAL_S if self.calls else None
