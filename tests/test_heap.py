"""Heap policy: freed memory is reused instead of faulted back in."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import crysgram


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


pytestmark = pytest.mark.skipif(not _glibc(), reason="glibc heap policy")

# 32 arrays of 2 MiB written and freed twice; prints the minor page
# faults of the second pass, which reuses what the first pass freed
CHILD = """
import resource
{setup}
import numpy as np

def one_pass():
    arrays = [np.full(2**18, 1.0) for _ in range(32)]
    del arrays

one_pass()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
one_pass()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def second_pass_faults(setup):
    env = dict(os.environ,
               PYTHONPATH=str(Path(crysgram.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", CHILD.format(setup=setup)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=60)
    return int(out.stdout.strip().splitlines()[-1])


def test_import_keeps_freed_heap():
    assert crysgram.HEAP_POLICY == {"M_MMAP_THRESHOLD": 32 * 2**20,
                                    "M_TRIM_THRESHOLD": 2**31 - 1}
    assert second_pass_faults("import crysgram") < 1_000


def test_default_heap_faults_freed_memory_back_in():
    # the contrast that makes the test above mean something: glibc's
    # defaults hand the 64 MiB back and fault it in again page by page
    assert second_pass_faults("") > 8_000
