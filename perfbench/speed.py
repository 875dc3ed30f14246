"""Machine-speed probe: the benchmark's timings in reference-machine seconds.

On a shared host the speed of one core drifts by up to a third within
seconds, whatever runs on it, so raw times of the same code spread more
than a regression bound.  ``probe()`` times a fixed bundle of the kernels
the workloads spend their time in (complex ``eig``, ``qr``, complex
matrix products, ``eigvalsh``, streaming array updates) plus some
pure-Python work.  ``Stopwatch`` probes
before and after a timed call and, from a ``SIGALRM`` handler, every
``INTERVAL_S`` during it; each stretch between two probes is scaled by
``REF_S`` over their mean, and the probes' own time is left out.  A
scaled time reads what the call would have taken at the reference speed.
The bundle touches no code of the package, so a change to the program
moves the scaled times as much as the raw ones.  Raw times are kept beside
the scaled ones in the result file.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# median probe time (s) on the reference machine: a 2-core Xeon KVM guest,
# OpenBLAS 0.3.31, one BLAS thread
REF_S = 0.0100
REPS = 2
INTERVAL_S = 0.25  # probe period during a timed call

# bound now, before a tracer can wrap them, so probes never show in spans
_eig, _qr, _eigvalsh = np.linalg.eig, np.linalg.qr, np.linalg.eigvalsh

_rng = np.random.default_rng(20230612)
_C = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_R = _rng.standard_normal((300, 150))
_M = _rng.standard_normal((200, 200))
_H = _M + _M.T
_Z = _M + 1j * _M.T
_V = _rng.standard_normal(80000).view(complex)


def _bundle() -> None:
    _eig(_C)
    _qr(_R)
    _Z @ _Z @ _Z
    _eigvalsh(_H)
    w = _V
    for _ in range(8):
        w = w + 0.5 * _V
    acc = 0.0
    for i in range(8000):
        acc += (i & 7) * 0.5


def probe() -> float:
    """Shortest of a few timings of the bundle, in seconds."""
    best = float("inf")
    for _ in range(REPS):
        t0 = perf_counter()
        _bundle()
        best = min(best, perf_counter() - t0)
    return best


class Stopwatch:
    """Times calls one at a time, raw and at the reference speed.

    ``with sw: ...`` times its body; afterwards ``raw`` and ``scaled`` hold
    the seconds it took, probes excluded.  The probe after one call serves
    as the probe before the next.  With ``sample`` false only the probes
    around the call are made.
    """

    def __init__(self):
        self.sample = True
        self.raw = self.scaled = 0.0
        self._last: float | None = None
        self._active = False

    def _cut(self) -> None:
        """End the current stretch with a probe and start the next."""
        now = perf_counter()
        p = probe()
        self.raw += now - self._start
        self.scaled += (now - self._start) * REF_S / (0.5 * (self._last + p))
        self._last = p
        self._start = perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            self._active = False  # no nested cut if the next alarm comes early
            self._cut()
            self._active = True

    def __enter__(self):
        if self._last is None:
            self._last = probe()
        self.raw = self.scaled = 0.0
        if self.sample:
            self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._active = True
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._active = False
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._saved)
        self._cut()
        return False
