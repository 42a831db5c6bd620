"""Host-speed reference for wall times measured on a shared CPU.

Where other tenants share the CPU, the same code can take twice as long
from one minute to the next, and the process's CPU time grows with its wall
time, so neither is steady.  A fixed NumPy kernel (`probe`) is timed
alongside every measurement, and a wall time is reported scaled to the host
speed at which the kernel takes REF_PROBE_S:

    scaled = wall * REF_PROBE_S / mean(probe times taken during the wall time)

A program change cannot move the probe, which touches no expstab code.
"""
import signal
import statistics
import time

import numpy as np

REF_PROBE_S = 1e-3        # about the probe's time on an idle core here
SAMPLE_EVERY_S = 0.2
_N = 192
_ROUNDS = 40


def probe() -> float:
    """Seconds taken by a fixed loop of small FFT round trips."""
    x = np.linspace(0.0, 1.0, _N).astype(np.complex128)
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        x = np.fft.ifft(np.fft.fft(x) * 0.5) * 2.0
    return time.perf_counter() - t0


def scale(wall: float, probes) -> float:
    return wall * REF_PROBE_S / statistics.fmean(probes)


class Sampler:
    """Context manager timing `probe()` every SAMPLE_EVERY_S seconds from a
    SIGALRM handler while its block runs.  `wall` is the block's wall time
    without the probes; `scaled` is `wall` scaled to the reference speed."""

    def __enter__(self):
        self.samples = []
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self._spent += time.perf_counter() - t0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = time.perf_counter() - self._start - self._spent
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(probe())
        self.scaled = scale(self.wall, self.samples)
        return False
