"""Host-speed calibration: a fixed slice of work timed beside the ops.

On a shared machine the speed of one core drifts by up to ~1.7x, in phases
that last from under a second to minutes, and no choice of estimator over
the ops alone removes that.  The benchmark therefore times this slice
between segments of ops and rescales each op's wall time by
REFERENCE_S / (slice time around its segment): a time in seconds as if the
host ran the slice in REFERENCE_S.  The slice mixes what conekit spends its
time on (small complex LAPACK calls, numpy scalar indexing, formatting and
parsing JSON text in the interpreter) and calls no conekit code, so a change
to conekit cannot move it.

The solvers are bound here at import, before the tracer wraps
numpy.linalg, so the slice costs the same traced and untraced.
"""

import json
import time

import numpy as np
from numpy.linalg import eigh, qr, svd

# Slice time on the reference host speed: the fast phase of a 2-vCPU
# Intel Xeon VM with OpenBLAS 0.3.31 and one BLAS thread.
REFERENCE_S = 0.010

_rng = np.random.default_rng(20251205)


def _hermitian(dim):
    g = _rng.standard_normal((dim, dim)) + 1j * _rng.standard_normal((dim, dim))
    return g + g.conj().T


_SMALL = [_hermitian(dim) for dim in (4, 6, 9, 16)]
_LARGE = _hermitian(48)
_GRID = np.zeros((8, 8), dtype=complex)
_FLOATS = _rng.standard_normal((20, 20)).tolist()
_REPEATS = 7


def _emit(obj, pieces):
    if isinstance(obj, list):
        pieces.append("[")
        for i, item in enumerate(obj):
            if i:
                pieces.append(", ")
            _emit(item, pieces)
        pieces.append("]")
    else:
        pieces.append(format(obj, ".17g"))


def _work():
    for a in _SMALL:
        eigh(a)
        svd(a)
        qr(a)
    eigh(_LARGE)
    grid, src = _GRID, _SMALL[3]
    for i in range(400):
        grid[i % 8, (i * 3) % 8] = src[i % 16, (i * 5) % 16]
    pieces = []
    _emit(_FLOATS, pieces)
    return json.loads("".join(pieces))


def slice_seconds():
    """Wall time of one calibration slice."""
    start = time.perf_counter()
    for _ in range(_REPEATS):
        _work()
    return time.perf_counter() - start
