"""A fixed pure-Python kernel that rates how fast the host runs right now.

On a shared host the speed of one core drifts by tens of percent over
minutes, so two runs of the same code can differ more than any bound
worth setting.  The workload process runs this kernel before its first
call and after every call; each call's wall time is scaled by
``REF_S / t_ref``, where ``t_ref`` is the geometric mean of the kernel's
times on either side of the call.  Host drift that slows the kernel and
the call alike cancels out.  The result is in seconds on a host where
the kernel takes ``REF_S``.

The kernel is an interpreter loop of integer arithmetic.  On a shared
2-vCPU host its time tracked the workloads' call times more closely than
kernels of float arithmetic and function calls, dict updates, small
numpy operations or BLAS did.  It never changes, so a scaled time moves
only when the program does.
"""

import time

REF_S = 0.02  # nominal kernel time, about its time on an idle 2-vCPU Xeon (Sapphire Rapids) VM


def reference() -> float:
    """Run the kernel once; return its wall time in seconds."""
    started = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * 7) % 13
    if acc != 1_800_000:
        raise RuntimeError("reference kernel computed the wrong result")
    return time.perf_counter() - started
