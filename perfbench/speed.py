"""Machine-speed reference shared by the runner and the worker.

On a shared machine (measured on a 2-vCPU virtual machine) the speed of
pure-Python code drifts by tens of percent over tens of seconds as other
tenants load the host.  Every end-to-end time is therefore scaled by
``REFERENCE_S`` / the time of this fixed loop measured next to it, i.e.
reported at the speed where the loop takes exactly ``REFERENCE_S``.  The
loop is shaped like the library's modular inner loops, calls no library
code and allocates no garbage-collected objects, so a change to
``sbuntwist`` moves the scaled times exactly as it moves the raw ones.
"""

import time

REFERENCE_S = 100e-6
_BUFFER = [0] * 11


def reference_kernel():
    buf = _BUFFER
    for _ in range(24):
        for i in range(6):
            a = i + 1
            for j in range(6):
                buf[i + j] = (buf[i + j] + a * (j + 3)) % 13


def kernel_seconds():
    """Mean time of one reference loop over 20 back-to-back runs."""
    t0 = time.perf_counter()
    for _ in range(20):
        reference_kernel()
    return (time.perf_counter() - t0) / 20
