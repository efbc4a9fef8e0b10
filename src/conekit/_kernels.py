"""Hot inner loop of the product/low-Schmidt-rank expectation minimizer.

The kernel alternates two constrained eigen-solves over the tensor factors
of v = sum_t x_t (x) y_t.  It runs a whole stack of R starts at once:
starting frames come in as an (R, n, k) array, every half-step is one
matmul pair, one batched `np.linalg.eigh` and, when k > 1, one batched
`np.linalg.qr` over the starts still running (numpy's linalg broadcasts
over leading axes), and a start leaves the running set when it stops.  At
k = 1 the bottom eigenvector is already a unit frame: QR would only
multiply it by a unit phase, which the next contraction F* W F cancels.
numpy and LAPACK solve each matrix of a stack exactly as they would solve
it alone, so every start's result is bit-identical to a run of that start
by itself, cut at the earliest of three iterations: the one where the stack
reached the spectral floor, the one where the start's frame met the frame
of an earlier start that ran the same iteration, and the one where the
start could no longer catch up, in the iterations left, with the least
value at which a start of the stack has stalled (tests/test_kernels.py
pins this against a looped reference).  A see-saw level stacks at most 34
starts (32 random frames, the ground frame and the warm frame), which
bounds the (R, k, m*m*n) contraction intermediates.  The five stopping
rules (decrease, one start per basin, catch-up, spectral floor, iteration
cap) and their evidence are stated once, in `seesaw_minimize`'s docstring.
"""

import numpy as np

from .bipartite import _largest_part

# Every start runs for at most SEESAW_ITERS iterations.  SEESAW_FTOL is the
# tolerance of both the decrease stop and the floor stop, relative to the
# largest |Re| or |Im| entry of W (`_largest_part`, which unlike a norm
# cannot overflow).  SEESAW_MEET bounds k - ||Y_a* Y_b||_F^2, the summed
# squared sines of the principal angles between two k-column frames, below
# which two starts are taken to lie in one basin.
SEESAW_ITERS = 200
SEESAW_FTOL = 1e-13
SEESAW_MEET = 1e-2


def _layouts(w: np.ndarray, m: int, n: int):
    """Pre-permuted copies of w consumed by the kernel's 2-d contractions.

    wx[j, (i*m+i2)*n+l] = W[(i,j),(i2,l)] feeds the x-step, and
    wy[i, (j*n+l)*m+i2] = W[(i,j),(i2,l)] feeds the y-step.
    """
    w4 = w.reshape(m, n, m, n)
    wx = np.ascontiguousarray(w4.transpose(1, 0, 2, 3)).reshape(n, m * m * n)
    wy = np.ascontiguousarray(w4.transpose(0, 1, 3, 2)).reshape(m, n * n * m)
    return wx, wy


def _bottom_block_vectors(layout, frames, k, m, n):
    """Bottom eigenpair of each (k*m) Hermitian contraction of W with a frame.

    layout is wx (m, n as given) or wy (roles of m and n swapped); frames is
    an (R, n, k) stack of orthonormal frames of the factor held fixed.
    Returns the R bottom eigenvalues and the R eigenvectors unpacked as an
    (R, m, k) stack of factor matrices.
    """
    r = frames.shape[0]
    a = (frames.conj().transpose(0, 2, 1) @ layout).reshape(r, k * m * m, n) @ frames
    h = a.reshape(r, k, m, m, k).transpose(0, 1, 2, 4, 3).reshape(r, k * m, k * m)
    evals, evecs = np.linalg.eigh((h + h.conj().transpose(0, 2, 1)) * 0.5)
    return evals[:, 0], evecs[:, :, 0].reshape(r, k, m).transpose(0, 2, 1)


def at_floor(values, floor, tol):
    """Whether the least of values lies within tol of floor.

    floor is lambda_min of W, a lower bound on every value, so a value that
    reaches it is the constrained minimum to that tolerance.  A floor of
    -inf is never reached.
    """
    return floor > -np.inf and np.min(values) <= floor + tol


def seesaw_minimize(m, n, k, w, y0, floor):
    """Minimize v* W v over unit v = sum_{t<k} x_t (x) y_t from each start.

    With the k-column frame y held orthonormal, the optimal stacked x is the
    bottom eigenvector of a (k*m) Hermitian contraction of W, and symmetrically
    for y; each half-step minimizes over a superset of the current iterate, so
    the value is nonincreasing.

    y0 is an (R, n, k) stack of starting frames, run as one stack.  Both
    tolerances below are absolute, tol = SEESAW_FTOL * s with s the largest
    |Re| or |Im| entry of W, taken once per call, so the stops scale with W:
    c W gets c times W's values, bit for bit and with the same vectors at
    c = 2^+-40, and to 1e-14 * ||W||_2 at 1e+-200.  Five rules stop the work:
      * a start stops at the first iteration whose decrease is at most tol
        (W = 0 too, where tol = 0);
      * a start stops at the first iteration where its y-frame comes within
        SEESAW_MEET of the subspace of an earlier start that ran that
        iteration with a value at most its own + tol (see _meets_earlier);
      * catch-up: a start stops at the first iteration, before the last,
        where it could not get within tol of `settled`, the least value at
        which a start has stalled (stopped on its decrease), even if it kept
        its latest decrease for every iteration left:
        val - (prev - val) * left > settled + tol;
      * the stack stops at the first iteration where its least value
        reaches the spectral floor (see at_floor);
      * a start stops after SEESAW_ITERS iterations.
    The x-step depends on the y-frame only through its span, so a start
    whose frame spans an earlier start's subspace exactly has that start's
    future, and the earlier one runs it.  Within SEESAW_MEET = 1e-2 the
    spans only nearly coincide, and the later start is retired as one more
    start in the earlier start's basin, but only into a start that is no
    higher in it: in a flat basin, where starts run to the iteration cap,
    the start furthest down runs on.  That tolerance rests on a sweep, not
    on a proof: over 2280 level values (2x2 to 8x8, four input classes) no
    level value rose by more than 1e-12 * ||W||_2 over a run in which no
    start can meet (BENCH_seesaw_basin_meet.json); without the value test,
    six rose by up to 1.6e-7 * ||W||_2.  Row 0 (the ground frame of a
    see-saw level) has no earlier start, so it is never retired by meeting,
    and an earlier init still wins a tie.
    Catch-up assumes that a start's decrease per iteration never grows; a
    start it retires then could not have ended within tol of a minimum
    some start has found, so the level's answer stays the same.  A start
    slowly descending a shallow slope far above the best start would
    otherwise set the stack's length.  The assumption fails near a saddle,
    where a start can crawl a plateau for tens of iterations and then fall
    below every other start: measured against the least value of every
    start, running ones included, the rule cut such starts, and three of
    the sweep's level values rose, by up to 3.7e-3 * ||W||_2 (8x8 shifted
    Wishart inputs at k = 2).  Measured against `settled` it cuts only once
    a start has found a minimum.  That, too, rests on a sweep, not on a
    proof: over the same 2280 level values no level value rose by more than
    1e-12 * ||W||_2 (the worst by 9.8e-15 * ||W||_2; 73 differ in their
    bits), and the eigh matrices solved fell from 2.14 to 1.48 million
    (BENCH_seesaw_catch_up.json).
    Each start's value and frames are those of the iteration where it
    stopped.  floor must be lambda_min of W (or -inf, which is never
    reached), so a floor stop proves the least value optimal to within tol.
    Returns (values, x, y, reached): values, x and y of shapes (R,),
    (R, m, k) and (R, n, k), with v = sum_t x[r, :, t] (x) y[r, :, t] of
    unit norm for each start r, and reached, whether the stack stopped at
    the floor (equal to at_floor(values, floor, tol)).
    """
    wx, wy = _layouts(w, m, n)
    tol = SEESAW_FTOL * _largest_part(w)
    # `active` lists the starts still running; the other rows of values,
    # x_out and y_out stay frozen.
    rows = y0.shape[0]
    values = np.full(rows, np.inf)
    x_out = np.zeros((rows, m, k), dtype=np.complex128)
    y_out = np.zeros((rows, n, k), dtype=np.complex128)
    active = np.arange(rows)
    earlier = ~np.tri(rows, dtype=bool)
    y_frame, _ = np.linalg.qr(y0)
    prev = np.full(rows, np.inf)
    settled = np.inf
    for it in range(SEESAW_ITERS):
        _, x_stack = _bottom_block_vectors(wx, y_frame, k, m, n)
        x_pair = _unit_frames(x_stack, k)
        val, y_pair = _bottom_block_vectors(wy, x_pair, k, n, m)
        y_frame = _unit_frames(y_pair, k)
        values[active] = val
        x_out[active] = x_pair
        y_out[active] = y_pair
        if at_floor(val, floor, tol):
            return values, x_out, y_out, True
        stalled = prev - val <= tol
        settled = np.min(val, where=stalled, initial=settled)
        running = ~stalled
        running &= ~_meets_earlier(y_frame, val, tol, earlier[: active.size, : active.size])
        left = SEESAW_ITERS - 1 - it
        if left:
            # Catch-up.  Until a start has stalled, and on the first
            # iteration, where prev is inf, nothing is cut; skipping the last
            # iteration, which cuts nothing either, keeps inf * 0 out at
            # SEESAW_ITERS = 1.
            running &= ~(val - (prev - val) * left > settled + tol)
        if not running.all():
            active = active[running]
            if active.size == 0:
                break
            y_frame = y_frame[running]
            val = val[running]
        prev = val
    return values, x_out, y_out, False


def _meets_earlier(frames, values, tol, earlier):
    """Which of an (R, n, k) stack of orthonormal frames meet an earlier frame.

    Frame b meets frame a when earlier[a, b] (a comes first), a's value is
    at most b's value + tol, and k - ||Y_a* Y_b||_F^2 <= SEESAW_MEET: that
    difference is the summed squared sines of their principal angles, 0
    exactly when the two frames span one subspace.  The value test keeps a
    start that is further down its basin than every earlier start near it.
    The norm is tr(P_a P_b) for the projectors P = Y Y*, so every pair
    comes from one real Gram matrix of the flattened projectors.
    """
    r, n, k = frames.shape
    proj = (frames @ frames.conj().transpose(0, 2, 1)).reshape(r, n * n).view(np.float64)
    near = k - proj @ proj.T <= SEESAW_MEET
    return (near & earlier & (values[:, None] <= values[None, :] + tol)).any(axis=0)


def _unit_frames(stack, k):
    # Orthonormal frames spanning each (n, k) slice of stack; a unit
    # eigenvector (k = 1) is one already.
    return np.linalg.qr(stack)[0] if k > 1 else stack
