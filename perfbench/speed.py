"""Host speed sampled through a timed pass.

On a shared host the speed of the CPU a process runs on changes by about
25% in phases of a second or two, and two CPUs change independently, so
the wall time of one pass says as much about the host as about khss.  A
``SpeedSampler`` interrupts the main thread every ``PERIOD_S`` seconds
of wall time (``SIGALRM``) and runs a fixed burst of interpreter work:
integer arithmetic, large-integer xor and dict updates, the operations
khss's GF(2) bitmask code is made of.  The thread CPU seconds one burst
takes give the speed at that moment; thread CPU rather than wall, so
that a wait for the interpreter lock inside a burst is not read as a
slow host.

``rescale(t0, t1)`` turns a span of wall time into seconds at the
reference speed, at which one burst takes ``REF_BURST_S``: the span's
wall seconds, less the bursts' own wall seconds, times the mean of
``REF_BURST_S / burst`` over the bursts inside the span.  Bursts are
taken at even steps of wall time, so that mean is the mean speed over
the span.  A span too short to hold a burst uses the nearest one.
``REF_BURST_S`` is about the median burst on the 2-vCPU host the
benchmark was tuned on, so rescaled seconds there read close to wall
seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1
REF_BURST_S = 0.0009
BURST_STEPS = 1500
_MASK = (1 << 64) - 1


def burst(steps: int = BURST_STEPS) -> int:
    """A fixed amount of interpreter work."""
    x = 0x9E3779B97F4A7C15
    row = (1 << 900) | 12345
    table: dict[int, int] = {}
    for i in range(steps):
        x = (x * 6364136223846793005 + i) & _MASK
        table[x & 255] = row ^ (x << (i & 511))
        row = table.get((x >> 9) & 255, row)
    return row


class SpeedSampler:
    """Bursts taken on a wall-clock timer while the sampler runs."""

    def __init__(self):
        self.bursts: list[tuple[float, float, float]] = []  # start, wall, cpu
        self._saved = None

    def _sample(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        burst()
        c1, w1 = time.thread_time(), time.perf_counter()
        self.bursts.append((w0, w1 - w0, c1 - c0))

    def __enter__(self) -> "SpeedSampler":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def rescale(self, t0: float, t1: float) -> float:
        """Seconds of the span [t0, t1) at the reference speed."""
        if not self.bursts:
            raise RuntimeError("no speed sample was taken")
        inside = [b for b in self.bursts if t0 <= b[0] < t1]
        busy = sum(b[1] for b in inside)
        near = inside or [min(self.bursts, key=lambda b: abs(b[0] - t0))]
        speed = statistics.fmean(REF_BURST_S / max(b[2], 1e-9) for b in near)
        return (t1 - t0 - busy) * speed


def speed_now(samples: int = 30) -> float:
    """Speed right now relative to the reference: the mean of
    ``REF_BURST_S / burst`` over back-to-back bursts."""
    ratios = []
    for _ in range(samples):
        c0 = time.thread_time()
        burst()
        ratios.append(REF_BURST_S / max(time.thread_time() - c0, 1e-9))
    return statistics.fmean(ratios)
