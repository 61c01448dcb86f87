"""Numerical laboratory for truncated Eisenstein series on the modular surface.

Subpackages and modules:

- ``specfun``    complex special functions (log-gamma, zeta, completed zeta,
                 scattering quantities, Bessel kernels with imaginary order)
- ``arith``      divisor sums, Kloosterman sums, the Hecke-relation check
- ``eisenstein`` the Eisenstein series and its truncation, as Fourier rows
- ``moments``    quadrature over the fundamental domain, Maass-Selberg closed
                 forms, second and fourth moments
- ``weights``    smoothing bumps, gamma-ratio and contour-integral weight
                 functions, Mellin pairs
- ``spectral``   Maass-form data handling, approximate functional equations,
                 trace-formula diagnostics, diagonal main-term assembly
- ``cli``        batch driver with CSV emission and the acceptance suite

Importing the package fixes glibc's malloc thresholds (``_pin_malloc_thresholds``).
"""

import ctypes
import os

from eislab.errors import (
    DomainError,
    PoleError,
    ToleranceError,
    DegenerateParameterError,
    ValidationError,
    MissingEigenvalueError,
)
from eislab.specfun import PrecisionPolicy

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # the mallopt parameters of glibc's <malloc.h>
_MMAP_THRESHOLD = 32 << 20  # the largest mmap threshold glibc takes on a 64-bit system


def _glibc() -> bool:
    """Whether the process runs on glibc."""
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _pin_malloc_thresholds() -> None:
    """Keep arrays up to 32 MiB on the heap, for the whole process, under glibc.

    glibc maps each block over its mmap threshold afresh, one page fault per
    4 KiB page it touches, and raises the threshold, at first 128 KiB, to the
    size of each larger mapped block freed.  Whether the 0.1-32 MiB arrays of
    a quadrature pass are mapped thus hangs on everything the process freed
    before: the same fourth-moment pass made 2,100 page faults in one process
    and 15,700 in another, 0.05 s against 0.07 s (2-core x86-64, glibc 2.36).
    Setting the thresholds turns that adjustment off; with the mmap threshold
    at 32 MiB and the trim threshold at 64 MiB a repeated pass makes none.
    The heap then keeps up to 64 MiB of freed memory.
    """
    if not _glibc():
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


_pin_malloc_thresholds()

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PoleError",
    "ToleranceError",
    "DegenerateParameterError",
    "ValidationError",
    "MissingEigenvalueError",
    "PrecisionPolicy",
    "__version__",
]
