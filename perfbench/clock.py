"""Time the hypervisor took from this machine, to take out of wall times.

On a shared virtual machine the host runs other guests on our CPUs; the
guest kernel counts that time as ``steal`` in /proc/stat. On a 2-vCPU test
machine a 2.3 s command took up to 4.3 s while 0.2 to 3.9 CPU-seconds were
stolen during it, and its wall time less the stolen time per CPU stayed
within 2.2 to 2.4 s. Each timing is therefore taken as wall time minus the
steal counted during it, divided by the CPU count. Where /proc/stat is
missing or has no steal field, nothing is taken out.
"""

from __future__ import annotations

import os

_TICKS = os.sysconf("SC_CLK_TCK")
_CPUS = os.cpu_count() or 1


def stolen_s() -> float:
    """Machine-wide steal so far, in seconds per CPU."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if fields[:1] != ["cpu"] or len(fields) < 9:
        return 0.0
    return int(fields[8]) / _TICKS / _CPUS
