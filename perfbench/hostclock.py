"""Host time with the hypervisor's CPU steal taken out.

On a shared VM the hypervisor now and then runs another tenant on the
physical core behind a busy virtual CPU.  That *steal* time passes on the
wall clock although the program could not run, and on the reference host
it comes in episodes that slow a whole run by up to half.  The guest
kernel counts it per virtual CPU (the eighth number of a ``cpuN`` line in
``/proc/stat``, in 1/100 s), and a halted, idle virtual CPU accrues none.

:class:`HostClock` pins the process to one CPU, so that every thread and
child process the program starts runs there, and reads that CPU's steal
alongside the wall clock: ``now()`` is wall time minus steal so far.  An
interval of it is the wall time the work would take on an unshared core,
including the time it sleeps or waits for I/O.  Where ``/proc/stat`` is
missing the steal reads 0 and ``now()`` is the wall clock.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Set

STAT = "/proc/stat"
#: Units of the ``/proc/stat`` counters per second.
TICKS_PER_S = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


class HostClock:
    """Wall clock minus the steal of the one CPU the process is pinned to."""

    def __init__(self) -> None:
        self._saved: Optional[Set[int]] = None
        self.cpu: Optional[int] = None
        self._prefix = ""
        if hasattr(os, "sched_setaffinity"):
            self._saved = os.sched_getaffinity(0)
            self.cpu = max(self._saved)
            os.sched_setaffinity(0, {self.cpu})
            self._prefix = f"cpu{self.cpu} "

    def steal_s(self) -> float:
        """Steal time of the pinned CPU since boot, in seconds."""
        if not self._prefix:
            return 0.0
        try:
            with open(STAT) as handle:
                for line in handle:
                    if line.startswith(self._prefix):
                        return int(line.split()[8]) / TICKS_PER_S
        except (OSError, IndexError, ValueError):
            pass
        return 0.0

    def now(self) -> float:
        """Seconds on the wall clock, less the steal so far."""
        steal = self.steal_s()
        return time.perf_counter() - steal

    def release(self) -> None:
        """Give the process back the CPUs it had before."""
        if self._saved is not None:
            os.sched_setaffinity(0, self._saved)
            self._saved = None
