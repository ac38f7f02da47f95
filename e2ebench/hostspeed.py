"""Host-speed probe and the scaling of host timings to a reference speed.

On a shared 2-vCPU host the speed of pure-Python code flips between two
levels a factor of two apart within seconds (another tenant's load on the
same physical core), so an operation's wall time says as much about the
host as about the program.  The runner therefore pins itself and its
worker to one CPU and, while the worker runs, wakes every
``PROBE_INTERVAL_S`` to time :func:`probe` -- a fixed unit of pure-Python
work -- in its own *CPU* time.  Sharing the CPU with the worker does not
lengthen that CPU time; a slow host does.  The samples taken during a
step therefore measure the speed the step itself ran at, and
:func:`scale` reports the step at the reference speed.

Probes taken only *between* operations do not work here: the speed
during an operation is not the speed a few seconds before or after it,
and scaling by a run-level median of such probes made the run-to-run
spread of ``run_s`` larger (0.12 -> 0.29 of the median on
``paper-validation``, five seeds).  Probing during each step brought a
fixed 4-s job from 0.16 to 0.03.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

#: Seconds between probes while a worker runs (about 3% of its CPU).
PROBE_INTERVAL_S = 0.05
#: Probe CPU time that defines the reference host speed.  A fixed
#: constant, not a measurement: changing it rescales every reported time.
REFERENCE_PROBE_S = 0.0015

_PROBE_ROUNDS = 3000


def _probe_body(rounds: int) -> float:
    # Dict/list/float traffic like the simulators' event loops, not one
    # tight arithmetic loop.
    table = {}
    queue: List[float] = []
    acc = 0.0
    for i in range(rounds):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0.0) + i * 0.5
        queue.append(acc)
        if len(queue) > 64:
            acc += queue.pop(0) * 1e-9
        acc += (i % 13) / 7.0
    return acc + len(table)


def probe() -> float:
    """CPU seconds this thread spends on one fixed unit of work."""
    start = time.thread_time()
    _probe_body(_PROBE_ROUNDS)
    return time.thread_time() - start


def scale(raw_s: float, probes: Sequence[float]) -> float:
    """A step's ``raw_s`` wall seconds at the reference host speed.

    ``probes`` are the probe CPU times sampled while the step ran; their
    sum is CPU the step did not get, so it is taken off first.
    """
    if not probes or min(probes) <= 0:
        raise ValueError("scaling needs positive probe samples")
    busy = raw_s - sum(probes)
    return busy * REFERENCE_PROBE_S / statistics.fmean(probes)
