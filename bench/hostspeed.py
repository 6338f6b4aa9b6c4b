"""Host-speed probe: rescale measured times to a fixed reference speed.

On a small shared virtual machine the single-thread speed can swing by up
to 2x within seconds as other tenants load the same physical cores; on a
2-vCPU KVM guest (Xeon, 2.1 GHz) neither CPU time nor pinning removed it,
and medians over a whole 30-60 s run moved by 12-21% between runs.  So
every pass also runs a fixed pure-Python probe from an interval timer
(SIGALRM every ``INTERVAL_S``, about 1.5% of the pass), inside the same
process and interleaved with the work it measures.  A time T over which
the probe took durations p_1..p_n is reported as T * REF_S / H, where H is
the harmonic mean of the p_i: the time the interval's work would take at
the speed at which the probe takes REF_S.  REF_S only sets the unit; it
cancels in any comparison of two commits measured with the same benchmark.
The raw times are reported as well.

The factor does not depend on how much CPU work the program does, but a
program's memory traffic slows the probe a little: with an added loop of
random reads over a 64 MB buffer, switched on in alternate 100 ms slices of
a premises32 pass, the probe ran 3.3% slower in the "on" slices (the same
loop over a 32 KB buffer: 0.1%; no loop: -0.3%).  A probe in a separate
process on the other vCPU slowed by the same 3.2%, so the coupling goes
through the shared hardware and moving the probe out of the process would
not remove it; probing only between passes does not track the host's
swings.  A strongly memory-bound regression therefore shows a few percent
smaller in the rescaled times than in the raw ones.

The probe code must never change, or times before and after the change are
in different units.
"""

import signal
from time import perf_counter

INTERVAL_S = 0.002
REF_S = 25e-6

_TABLE = tuple(tuple((i * 7 + j) % 32 for j in range(32)) for i in range(32))
_samples: list[float] = []


def _probe(signum, frame) -> None:
    # Indexing, integer arithmetic, small allocations and builtin calls:
    # of the probes tried, the one whose slowdown tracked the workloads'
    # most closely (per-pass spread 2-3% after rescaling, 5-20% before).
    start = perf_counter()
    acc = 0
    for i in range(100):
        row = _TABLE[i & 31]
        acc += row[(i * 7) & 31] + len(str(i))
    _samples.append(perf_counter() - start)


def start() -> None:
    signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def mark() -> int:
    """Index of the next probe sample, to delimit an interval."""
    return len(_samples)


def scale(first: int, last: int) -> float:
    """REF_S / H over the samples [first, last); 1.0 when there are none."""
    window = _samples[first:last]
    if not window:
        return 1.0
    return REF_S * sum(1.0 / p for p in window) / len(window)
