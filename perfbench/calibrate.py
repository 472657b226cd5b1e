"""Machine-speed calibration for timings taken on a shared machine.

On a virtual machine that shares its host, the same pure-Python loop can
take anywhere from 24 to 53 ms from one second to the next, and the drift
persists over minutes.  The benchmark therefore times a fixed kernel, with
no part of ``nakamura`` in it, next to its own work, and scales its timings
to the speed at which that kernel takes ``REFERENCE_S``.  A change to the
library moves the scaled timings; a change in how busy the host is moves
the kernel and the work alike, and cancels.

The kernel is plain integer arithmetic, timed with the garbage collector
off, so that it measures the machine and not the size of the heap the
library has built up.

Set-up time is mostly module loading in a fresh interpreter (numpy alone
is most of it), which the kernel does not track: scaled by the kernel, ten
runs of it still spread by 12 to 34% between quartiles.  It is scaled
instead by ``IMPORT_CHILD``, a fixed set of standard-library imports timed
in a fresh interpreter started next to each set-up interpreter; over eight
runs that brought the spread of set-up time from 20% to 6%.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# Median kernel time on a 2-CPU Xeon virtual machine with Python 3.11.
REFERENCE_S = 0.0012
# Median ``IMPORT_CHILD`` time on the same machine.
IMPORT_REFERENCE_S = 0.085

# Run as ``python3 -c IMPORT_CHILD``; prints the seconds its imports took.
IMPORT_CHILD = """
import time
t0 = time.perf_counter()
import argparse, asyncio, csv, ctypes, decimal, email.mime.multipart, fractions
import http.client, sqlite3, statistics, unittest, xml.etree.ElementTree
print(time.perf_counter() - t0)
"""


def kernel():
    """Fixed integer arithmetic; it allocates nothing the collector tracks."""
    total = 0
    for i in range(15000):
        total += i * i % 7
    return total


def measure():
    """Seconds the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(samples):
    """Factor that scales timings taken alongside ``samples`` to the
    reference speed: ``REFERENCE_S`` over the median kernel time."""
    return REFERENCE_S / statistics.median(samples)
