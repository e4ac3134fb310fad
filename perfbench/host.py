"""Host interference: CPU pinning and steal time.

The benchmark runs inside a virtual machine whose host also runs other
guests.  When the host deschedules one of our virtual CPUs, the guest
counts the lost time as *steal* (``/proc/stat``, per CPU).  On the
reference machine it ranged from 0 to over 40% of a 0.6 s window, and
it moves wall-clock figures by far more than the program does, so each
repeated sample records the steal its CPUs suffered and the run
reports the median of its *host-quiet* samples: those whose steal is
at most the median steal.  Without steal (bare metal, or a quiet host)
every sample qualifies and this is the plain median.
"""

from __future__ import annotations

import os
import statistics


def usable_cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return list(range(os.cpu_count() or 1))


class HostSteal:
    """Cumulative steal seconds of ``cpus`` (0.0 where ``/proc/stat``
    is unavailable)."""

    def __init__(self, cpus):
        self.names = {f"cpu{cpu}" for cpu in cpus}
        self.tick = 1.0 / os.sysconf("SC_CLK_TCK")

    def __call__(self) -> float:
        total = 0
        try:
            with open("/proc/stat") as handle:
                for line in handle:
                    if not line.startswith("cpu"):
                        break
                    fields = line.split()
                    if fields[0] in self.names and len(fields) > 8:
                        total += int(fields[8])
        except OSError:
            return 0.0
        return total * self.tick


def quiet_median(samples) -> float:
    """Median value of the ``(value, steal)`` samples whose steal is at
    most the median steal."""
    samples = list(samples)
    cut = statistics.median(steal for _, steal in samples)
    return statistics.median(
        value for value, steal in samples if steal <= cut
    )
