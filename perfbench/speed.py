"""How fast the CPU ran while a child was timed, and times corrected for it.

The CPUs of a shared machine change speed by up to about 1.8x from one
second to the next, as the load of other tenants comes and goes, and CPU
time changes with wall time.  So a raw wall time reports the neighbours as
much as the program.  To take them out, a child runs a small, fixed piece of
pure-Python work, the probe, every ``INTERVAL_S`` seconds from a SIGALRM
handler, and records how long each probe took.  The probe does what
dickson's kernels do (small dicts keyed by exponent tuples, products mod p,
a graded sort) but calls nothing of dickson, so no change to the program
changes it.

A span is then reported in reference seconds: the time it would have taken
on a CPU that runs one probe in ``REFERENCE_PROBE_S``.  Between two ticks
the program did ``(gap - probe time) * REFERENCE_PROBE_S / probe time``
reference seconds of work.  Each probe time is first replaced by the median
of the ``SMOOTH`` probes around it, so that one probe hit by an interrupt
does not count as a slow CPU.

This module imports no more than ``bisect``, ``signal`` and ``time``, so
that a child can start probing before it imports ``dickson`` without
importing, ahead of the timed import, anything that ``dickson`` would
import.
"""
from __future__ import annotations

import signal
import time
from bisect import bisect_left

INTERVAL_S = 0.05
# One probe takes about this long on a shared 2-vCPU Xeon VM with both CPUs
# busy, so reference seconds read close to wall seconds there.
REFERENCE_PROBE_S = 0.003
SMOOTH = 5

_SMALL_F = {(a, b, c): (a + 2 * b + 3 * c) % 5 + 1
            for a in range(3) for b in range(2) for c in range(2)}
_SMALL_G = {(a, b, c): (3 * a + b + c) % 5 + 1
            for a in range(2) for b in range(3) for c in range(2)}
_WIDE_F = {(7 * k % 11, 3 * k % 13 * 9, k * k % 17, 27 * (k % 5)): k % 6 + 1
           for k in range(24)}
_WIDE_G = {(k % 9 * 3, 5 * k % 7, 81 * (k % 3), k % 19): k % 4 + 1
           for k in range(24)}


def _median(values: list) -> float:
    ordered = sorted(values)
    half = len(ordered) // 2
    return ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2


def _product(f: dict, g: dict, p: int) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            v = (out.get(m, 0) + c1 * c2) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def probe() -> int:
    """The fixed reference work: products of small and of wide sparse
    polynomials, and a graded sort of a dict of 600 monomials."""
    size = 0
    for _ in range(8):
        size += len(_product(_SMALL_F, _SMALL_G, 5))
    size += len(_product(_WIDE_F, _WIDE_G, 7))
    terms = {(k % 7, k % 11, k % 13, k): k % 5 + 1 for k in range(600)}
    for m in sorted(terms, key=lambda m: (sum(m), m[::-1])):
        size = (size + terms[m] * (m[0] + 1)) % 7
    return size


class SpeedProbe:
    """Runs ``probe`` every ``interval`` seconds of wall time, from a
    SIGALRM handler, between ``start`` and ``stop``.  ``ticks`` holds each
    probe's start (``time.monotonic``) and duration."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.ticks: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        began = time.monotonic()
        probe()
        self.ticks.append((began, time.monotonic() - began))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def spans(self, spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
        # A copy, since the handler may append a tick while this runs.
        return reference_spans(list(self.ticks), spans)


def reference_spans(ticks: list[tuple[float, float]],
                    spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """(busy, reference) seconds of each span (start, end).

    ``busy`` is the span's wall time less the probes that ran inside it.
    ``reference`` is ``busy`` times the mean speed of those probes, each
    smoothed over its neighbours, relative to ``REFERENCE_PROBE_S``.  A span
    with no probe inside takes the speed of the last probe before its end.
    ``ticks`` are in time order.
    """
    starts = [t for t, _ in ticks]
    durations = [d for _, d in ticks]
    speeds = [REFERENCE_PROBE_S / _median(durations[max(0, k - SMOOTH // 2):k + SMOOTH // 2 + 1])
              for k in range(len(durations))]
    out = []
    for start, end in spans:
        first, last = bisect_left(starts, start), bisect_left(starts, end)
        busy = (end - start) - sum(durations[first:last])
        if first == last:
            if last == 0:
                raise ValueError("no probe ran before the end of the span")
            first -= 1
        out.append((busy, busy * sum(speeds[first:last]) / (last - first)))
    return out
