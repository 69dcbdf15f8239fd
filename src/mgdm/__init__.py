"""Mixture-guided diffusion posterior sampling over analytic priors.

The package pairs a guided Gibbs sampler for Bayesian linear inverse
problems (with Gaussian or Gaussian-mixture diffusion priors) with exact
verification oracles: a closed-form moment recursion for the Gaussian
case and a 1-D quadrature engine for the extended target.

Importing the package sets the process's allocator policy once: where
glibc's ``mallopt`` is found, the heap trim threshold and the mmap
threshold go to 4 MiB (both start at 128 KiB; an explicit setting also
stops glibc moving them at run time).  Every VI step of a sweep frees
and reallocates the same state-sized temporaries; at the defaults their
pages went back to the kernel and were faulted in again, about 450 minor
faults per call of the d = 80, 96-chain GMM VI-MH batch, and now under
one.  A process keeps up to 4 MiB of freed heap.  Off glibc nothing is
set.  No arithmetic changes.
"""

import ctypes

__version__ = "0.1.0"

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc <malloc.h>
_HEAP_KEEP_BYTES = 4 << 20

try:
    _mallopt = ctypes.CDLL(None).mallopt
except (OSError, AttributeError, TypeError):  # no C library to load (TypeError: Windows), or no mallopt
    pass
else:
    _mallopt.argtypes, _mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    _mallopt(_M_TRIM_THRESHOLD, _HEAP_KEEP_BYTES)
    _mallopt(_M_MMAP_THRESHOLD, _HEAP_KEEP_BYTES)
