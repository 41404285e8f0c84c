"""Host-speed probe that makes timings comparable across a shared host.

On a small shared machine the interpreter's speed swings by up to about
1.6x, flipping within a second and drifting over minutes, as other tenants
load the cores; a run cannot choose its regime.  The probe times a fixed
stdlib-only kernel every `INTERVAL_S` from a SIGALRM handler, which runs in
the main thread between bytecodes, so one long sweep is sampled as densely
as many short calls.  Timings divide by the run's mean slowdown against
`REFERENCE_S`, and `clock` leaves out the time spent in the probe itself.
The kernel never touches the program, so a change to the program cannot
move it; normalized figures read as wall-clock figures on a host where the
kernel takes `REFERENCE_S`.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

#: kernel time that defines the reference speed (about the uncontended time
#: on the 2-CPU host the bounds were measured on)
REFERENCE_S = 0.0014
INTERVAL_S = 0.1


def _kernel():
    # Rational arithmetic, small tuples and dict traffic, like the program's.
    acc = Fraction(0)
    seen = {}
    for i in range(1, 600):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        key = (i % 13, i * 3 % 11)
        seen[key] = seen.get(key, 0) + 1
    return acc, len(seen)


class SpeedProbe:
    """Samples the kernel on a timer while entered, or when called."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous_handler = None

    def __call__(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedProbe":
        self._previous_handler = signal.signal(signal.SIGALRM, self)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def clock(self) -> float:
        """perf_counter() minus the time spent sampling."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent

    def slowdown(self) -> float:
        """Mean kernel time over the reference: 1.25 means 25% slower."""
        return statistics.mean(self.samples) / REFERENCE_S
