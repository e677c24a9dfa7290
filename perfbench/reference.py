"""A fixed reference kernel that tracks the speed of the host.

On a shared host the same single-threaded work can take 1.6 times as
long in one minute as in the next, and a state often covers a whole
run, so raw wall times of two runs of the same code differ by more than
any useful regression bound.  The benchmark therefore times this kernel
right after every case and scales the case's wall time by
``REFERENCE_S / kernel time``: a case time in seconds at the speed the
host has when the kernel takes ``REFERENCE_S``.

The kernel mixes what cmvkit's cases do, small complex matrix products
through numpy's Python-level call path and LAPACK on a 16 x 16 matrix.
It uses numpy only, never cmvkit, so no change to the library changes
the yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's typical time on the machine perfbench/README.md records.
# It only sets the scale of the reported times; any constant would do.
REFERENCE_S = 0.6e-3

_rng = np.random.default_rng(20140503)
_SMALL = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_LARGE = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_HERMITIAN = _LARGE + _LARGE.conj().T


def kernel() -> None:
    x = _SMALL
    for _ in range(40):
        # |0.1 * SMALL| < 1, so x stays bounded
        x = (x @ _SMALL) * 0.1 + _SMALL.conj().T
        np.abs(x).max()
    np.linalg.eigh(_HERMITIAN)
    np.linalg.svd(_LARGE)
    np.linalg.solve(_LARGE, _HERMITIAN)


def seconds() -> float:
    """Wall time of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def median_seconds(repeats: int) -> float:
    return statistics.median(seconds() for _ in range(repeats))


def warm_up() -> None:
    """Run the kernel until numpy and LAPACK have loaded what it uses."""
    for _ in range(20):
        kernel()


def scaled(wall_s: float, reference_s: float) -> float:
    """wall_s at the host speed where the kernel takes REFERENCE_S."""
    return wall_s * REFERENCE_S / reference_s
