"""A clock that counts seconds at a fixed reference speed of the machine.

On a shared host the speed of a core drifts: a fixed pure-Python loop takes
anything from 1x to 1.7x its best time, in phases that last from a few
seconds to minutes.  Wall time of a fixed workload follows, so on its own it
cannot tell a 10% change in the program from a change in the neighbours.

`SpeedClock` samples the machine's speed while the program runs.  A timer
signal interrupts the process `interval` seconds after the last sample
ended, and the handler times `kernel()`, a fixed piece of big-integer work
that runs in the interpreter the way mpmath's pure-Python backend does.  A
sample's speed is REFERENCE_S / (kernel time), taken as the median over the
WINDOW samples around it: now and then a single sample runs at half speed
while its neighbours do not, most often while a process imports its
modules.  Each stretch of wall time between two samples is scaled by the
mean speed at its two ends, and the samples themselves are cut out.  After `stop()`,
`elapsed(t0, t1)` gives the seconds [t0, t1] would have taken at the speed
where the kernel takes REFERENCE_S.  On an unloaded core of the machine
that set REFERENCE_S, that is close to the wall time.

Only the main thread runs the handler.  It touches no state of the program:
the kernel uses plain integers, not mpmath or numpy.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_S = 0.0016  # kernel seconds that count as speed 1 (best time on a 2-core x86-64 VM)
INTERVAL_S = 0.1  # seconds between samples
WINDOW = 5  # samples in the running median of the speed


def kernel(rounds: int = 5000) -> int:
    """Fixed interpreter work: 256-bit multiply and normalise, as mpf arithmetic does."""
    man = (1 << 255) | 0x9E3779B97F4A7C15F39CC0605CEDC834
    x, exp, acc = man, 0, 0
    for _ in range(rounds):
        p = x * man
        shift = p.bit_length() - 256
        x = (p >> shift) | 1
        exp += shift
        acc ^= x & 0xFFFF
    return acc + exp


class SpeedClock:
    """Normalised time of this process, from speed samples taken on SIGALRM."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.pauses: list[tuple[float, float]] = []  # (start, end) of each sample
        self._started = 0.0
        self._running = False
        self._t: list[float] = []  # knot times: start, then both ends of each sample
        self._n: list[float] = []  # normalised time at each knot
        self._speed: list[float] = []  # smoothed speed of each sample

    def start(self) -> None:
        self._started = time.perf_counter()
        self._running = True
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def stop(self) -> None:
        """Stop sampling; one last sample closes the final stretch."""
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        raw = [REFERENCE_S / (b - a) for a, b in self.pauses]
        half = WINDOW // 2
        self._speed = [statistics.median(raw[max(0, k - half):k + half + 1]) for k in range(len(raw))]
        self._t, self._n = [self._started], [0.0]
        for k, (a, b) in enumerate(self.pauses):
            mean = 0.5 * (self._speed[k] + self._speed[max(k - 1, 0)])
            n = self._n[-1] + (a - self._t[-1]) * mean
            self._t += [a, b]
            self._n += [n, n]

    def _on_alarm(self, signum, frame) -> None:
        # One-shot timer, armed again only once this sample is over: a slow
        # sample never has another one nested inside it.
        self._sample()
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def _sample(self) -> None:
        a = time.perf_counter()
        kernel()
        self.pauses.append((a, time.perf_counter()))

    def at(self, t: float) -> float:
        """Normalised time at wall time t; outside the samples, at the nearest sample's speed."""
        ts, ns = self._t, self._n
        if t <= ts[0]:
            return ns[0] - (ts[0] - t) * self._speed[0]
        if t >= ts[-1]:
            return ns[-1] + (t - ts[-1]) * self._speed[-1]
        i = bisect.bisect_right(ts, t)
        return ns[i - 1] + (ns[i] - ns[i - 1]) * (t - ts[i - 1]) / (ts[i] - ts[i - 1])

    def elapsed(self, t0: float, t1: float) -> float:
        """Normalised seconds from wall time t0 to t1, samples excluded."""
        return self.at(t1) - self.at(t0)

    def paused(self, t0: float, t1: float) -> float:
        """Wall seconds within [t0, t1] spent in samples."""
        return sum(min(b, t1) - max(a, t0) for a, b in self.pauses if b > t0 and a < t1)
