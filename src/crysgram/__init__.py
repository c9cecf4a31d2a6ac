"""crysgram: coordinate-free crystal tokenization, transformer regression,
and grid-based porosity analysis."""

import ctypes
import os

__version__ = "0.1.0"

# glibc mallopt parameters (name, number, value): serve blocks below 32 MiB
# (glibc's own dynamic ceiling on 64-bit) from the heap, and trim the heap
# back to the OS only once 2 GiB of it sits free at the top
_HEAP_SETTINGS = (("M_MMAP_THRESHOLD", -3, 32 * 2**20),
                  ("M_TRIM_THRESHOLD", -1, 2**31 - 1))


def _keep_freed_heap():
    """Keep freed heap memory for reuse instead of returning it to the OS.

    A training step frees its activations and gradients and the next one
    allocates them again; with glibc's defaults the freed top of the heap
    is trimmed and then faulted back in one page at a time. Returns the
    settings applied, or None on any other libc or if a call fails. Any
    mallopt call freezes the dynamic mmap threshold, so both are set.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for _, number, value in _HEAP_SETTINGS:
        if mallopt(number, value) != 1:
            return None
    return {name: value for name, _, value in _HEAP_SETTINGS}


# the mallopt settings in force in this process, or None where not applied
HEAP_POLICY = _keep_freed_heap()
