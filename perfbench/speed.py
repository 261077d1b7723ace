"""A fixed slice of interpreter work that tracks the machine's speed.

On a shared host the speed at which Python runs varies by tens of percent
over seconds.  The benchmark times ``probe()`` next to every measurement
and rescales the measurement to the speed at which the probe takes
``REFERENCE_S`` (about the fastest probe seen on the 2-vCPU sandbox the
benchmark was built on).  This module imports nothing but ``time``, so a
fresh interpreter can load it without warming up anything kadlab uses.
"""

import time

REFERENCE_S = 100e-6
ROUNDS = 2000
_TABLE = tuple(tuple((3 * i + 5 * j) % 8 for j in range(8)) for i in range(8))
_MAP = {i: (5 * i + 1) % 8 for i in range(8)}


def probe() -> float:
    """Seconds taken by the fixed work (about 0.1-0.2 ms)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(ROUNDS):
        acc = _TABLE[acc][_MAP[i & 7]]
    return time.perf_counter() - t0


def rescale(seconds: float, local_probe_s: float) -> float:
    """A duration measured while the probe took ``local_probe_s``,
    expressed at the reference speed."""
    return seconds * REFERENCE_S / local_probe_s
