"""Elapsed time rescaled to a reference host speed.

The host this benchmark was written on switches, every few seconds, between
a fast state and a state about 1.4 to 1.7 times slower, whatever the
process does.  Raw times of one deterministic job then spread by 30 % from
run to run.  A SpeedClock therefore interrupts the measured code every
INTERVAL_S with SIGALRM and times a fixed reference kernel of exact
rational arithmetic.  Each slice of work since the previous probe is
rescaled by REFERENCE_S / (the probe's time), so time spent in the slow
state counts as the time it would have taken in the fast state.  The
kernel's own time is left out of both the raw and the rescaled figure.

The kernel uses only the standard library, so no change to semiramsey
changes the kernel.  The rescaling is exact only for code that the slow
state slows as much as it slows the kernel; on this benchmark's jobs it cut
the run-to-run spread of bnb-base's pass time from 0.37 to 0.02 (IQR over
median, five seeds).
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.01
# The kernel's time, probed inside a running job, in the fast state of the
# reference host: an Intel Xeon (Sapphire Rapids family) KVM guest with
# 2 vCPUs and Python 3.11.7, where probes take 380-410 us fast and
# 550-700 us slow.
REFERENCE_S = 400e-6


def kernel() -> None:
    """A fixed piece of interpreter-bound Fraction and dict work."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 80):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
        table[(i, i & 3)] = acc.denominator & 7


class SpeedClock:
    """Raw and rescaled seconds since start(), probing the host's speed.

    read() probes at once and returns (raw, rescaled); stop() also removes
    the timer.  Only one SpeedClock may run at a time in a process.
    `on_probe`, if given, is called with each probe's own duration.
    """

    def __init__(self, on_probe=None):
        self._on_probe = on_probe
        self._raw = 0.0
        self._scaled = 0.0
        self._last = 0.0
        self._running = False
        self._probing = False
        self.probes: list[float] = []  # kernel seconds, one per probe

    def _probe(self, *_) -> None:
        if self._probing:  # the timer fired during a probe
            return
        self._probing = True
        clock = time.perf_counter
        begin = clock()
        enabled = gc.isenabled()
        gc.disable()  # a collection here would hide the program's own
        try:
            kernel()
        finally:
            if enabled:
                gc.enable()
        end = clock()
        self.probes.append(end - begin)
        if self._on_probe is not None:
            self._on_probe(end - begin)
        work = begin - self._last
        self._raw += work
        self._scaled += work * REFERENCE_S / (end - begin)
        self._last = end
        self._probing = False

    def start(self) -> "SpeedClock":
        if self._running:
            raise RuntimeError("SpeedClock already running")
        self._raw = self._scaled = 0.0
        self._running = True
        signal.signal(signal.SIGALRM, self._probe)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def read(self) -> tuple[float, float]:
        self._probe()
        return self._raw, self._scaled

    def stop(self) -> tuple[float, float]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._running = False
        self._probe()
        return self._raw, self._scaled
