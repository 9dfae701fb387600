"""Timing primitives: per-op time limits, the round loop, the tail rule and
the machine-speed reference.

Everything runs in the single main thread.  A time limit is a SIGALRM timer
whose handler raises ``OpTimeout``; no helper thread or process is started.
"""

from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from statistics import median
from time import perf_counter

OK = "ok"
FAILED = "failed"
TIMEOUT = "timeout"


class OpTimeout(BaseException):
    """An op ran past its time limit.

    Derived from BaseException so that no ``except Exception`` inside the
    library can swallow it.
    """


class CheckFailed(Exception):
    """An op produced a value that its workload's check rejects."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the main thread once ``seconds`` of wall time pass."""

    def on_alarm(signum, frame):
        raise OpTimeout(f"time limit of {seconds:.1f} s reached")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    """Result of one op: its status, latency (None for a timeout) and why it failed."""

    label: str
    status: str
    seconds: float | None
    detail: str = ""
    slot: float = 0.0  # wall time of the collection before the op and the op
    mark: int | None = None  # index of the Reference sample taken right after it


def run_op(label: str, fn, limit: float) -> tuple[Outcome, object]:
    """Run one op under a time limit; returns its outcome and fn's return value.

    A wrong value (CheckFailed) or a library error is a failed op with a
    latency; a timeout is recorded as a timeout, never as a latency.
    """
    # Start every op from a collected heap.  Without this a full collection
    # of the previous ops' garbage lands inside whichever op happens to cross
    # the allocation threshold, which moved carrier latencies by up to 30%.
    # The collection stays in the op's slot (and so in the throughput), not
    # in its latency.
    collect = perf_counter()
    gc.collect()
    start = perf_counter()
    try:
        with time_limit(limit):
            value = fn()
    except OpTimeout as exc:
        outcome, value = Outcome(label, TIMEOUT, None, str(exc)), None
    except Exception as exc:  # a failed op is reported, and the run goes on
        outcome = Outcome(label, FAILED, perf_counter() - start, f"{type(exc).__name__}: {exc}")
        value = None
    else:
        outcome = Outcome(label, OK, perf_counter() - start)
    outcome.slot = perf_counter() - collect
    return outcome, value


# The reference: fixed work owned by the benchmark, which no change to
# treecap can speed up or slow down.  Timed between ops, it says how fast the
# machine was just then; see Reference.  It mixes the kinds of work the
# workloads do, in about equal shares of time: an integer loop, small-object
# allocation, Fraction arithmetic and numpy stencil sweeps on 1.6 MB arrays.
# In two four-minute traces with 20 s windows, its time followed the ops'
# times with correlations of 0.7 to 0.99, where a plain integer loop reached
# 0.5 to 0.9.
REFERENCE_NOMINAL_S = 0.010  # the reference's time on the nominal machine
_reference_arrays = []


def reference_seconds() -> float:
    """Wall time of one pass of the reference work.

    The garbage collector is off while it runs: a collection would cost time
    that follows the size of the heap the caller keeps, not the machine.
    """
    import numpy

    if not _reference_arrays:
        grid = numpy.random.default_rng(0).random((200, 1024))
        _reference_arrays[:] = [grid, numpy.empty_like(grid)]
    a, b = _reference_arrays
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _reference_pass(a, b)
    finally:
        if collecting:
            gc.enable()


def _reference_pass(a, b) -> float:
    import numpy

    start = perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    objects = [(i, [i], str(i)) for i in range(4_000)]
    del objects
    x = Fraction(0)
    for i in range(1, 1_000):
        x += Fraction(1, i * (i + 1))
    for _ in range(8):
        numpy.add(a[1:], a[:-1], out=b[1:])
        numpy.multiply(b, 0.5, out=b)
    return perf_counter() - start


def reference_scale(samples) -> float:
    """Factor that turns times measured alongside ``samples`` into nominal time.

    Multiplying a measured time by ``REFERENCE_NOMINAL_S / median(samples)``
    reports it as it would read on a machine where the reference takes
    exactly ``REFERENCE_NOMINAL_S``.
    """
    return REFERENCE_NOMINAL_S / median(samples)


class Reference:
    """The reference samples of a run, one after each timed stretch.

    Single-thread speed on a shared machine drifts by up to 2x over seconds
    to hours, and it moves the reference and treecap's work together.  A
    stretch (an op, a CLI run) is scaled by the median of the WINDOW samples
    before it and the WINDOW samples after it, so it is reported at the speed
    the machine had around the time it ran.  One sample on each side was too
    noisy for the few CLI runs, and one median for the whole run missed the
    speed switches within it: over ten runs per workload, windows of 3 to 6
    gave the narrowest spread of the run's figures.  A change to treecap
    still moves the scaled times in full, since the reference runs none of
    treecap's code.
    """

    WINDOW = 4

    def __init__(self):
        self.samples = [reference_seconds()]

    def mark(self) -> int:
        """Take the sample after a stretch; returns its index, for ``scale``."""
        self.samples.append(reference_seconds())
        return len(self.samples) - 1

    def scale(self, mark: int) -> float:
        """Factor to nominal time for the stretch that ``mark`` ends."""
        return reference_scale(self.samples[max(0, mark - self.WINDOW) : mark + self.WINDOW])


def run_round(ops, stop_at: float, op_limit: float, wrap=None, after=None, reference=None):
    """Run one round of ``(label, fn)`` ops; stop early once ``stop_at`` passes.

    ``wrap``, if given, is a context manager factory entered around each op
    (the traced run uses it for the op's root span).  ``after``, if given, is
    called with each op's return value; its time is left out of the round's
    wall time.  Return values are not kept, so a round's garbage does not pile
    up.  ``reference``, if given, is a Reference that marks each outcome;
    its samples are also left out of the wall time.  Returns
    the outcomes and the round's wall time.
    """
    outcomes = []
    start = perf_counter()
    excluded = 0.0
    for label, fn in ops:
        remaining = stop_at - perf_counter()
        if remaining <= 0:
            break
        if wrap is None:
            outcome, value = run_op(label, fn, min(op_limit, remaining))
        else:
            with wrap(label):
                outcome, value = run_op(label, fn, min(op_limit, remaining))
        outcomes.append(outcome)
        if after is not None:
            paused = perf_counter()
            after(value)
            excluded += perf_counter() - paused
        if reference is not None:
            paused = perf_counter()
            outcome.mark = reference.mark()
            excluded += perf_counter() - paused
        del value
    return outcomes, perf_counter() - start - excluded


def tail_percentile(samples, beyond: int = 10) -> tuple[float, float, int]:
    """Latency at the highest percentile that still has ``beyond`` samples above it.

    Returns ``(value, percentile, n)``.  With ``n`` sorted samples that is the
    sample of rank ``n - beyond`` (1-based), the ``100 (n - beyond) / n``
    percentile.  With ``beyond`` samples or fewer no such percentile exists;
    the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n

