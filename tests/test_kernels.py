import functools

import numpy as np
import pytest

from conekit import _kernels
from conekit.bipartite import BipartiteDims, partial_transpose
from conekit.membership import _frame_from_vector
from conekit.sampling import ginibre, random_vector_with_sr

from conftest import DESK_DIMS, hermitian


def reaches_floor(val, floor, tol):
    """The reference's spectral-floor test; a floor of -inf is never reached."""
    return floor > -np.inf and val <= floor + tol


def stop_tol(w):
    """The kernel's absolute stopping tolerance for w.

    SEESAW_FTOL times the largest |Re| or |Im| entry of w, so that both
    stops scale with w.
    """
    return _kernels.SEESAW_FTOL * max(np.abs(w.real).max(), np.abs(w.imag).max())


@functools.cache
def block_entries(k, m):
    """Where each entry of the (k*m) block and of its factor matrix comes from.

    Built entry by entry: h[t*m+i, s*m+i2] = a[(t*m+i)*m+i2, s] for the
    (k*m*m, k) contraction a, and vec[i, t] = evec[t*m+i].  Returns flat
    indices into a and into evec.
    """
    h_at = np.empty((k * m, k * m), dtype=np.intp)
    for t in range(k):
        for i in range(m):
            for s in range(k):
                for i2 in range(m):
                    h_at[t * m + i, s * m + i2] = ((t * m + i) * m + i2) * k + s
    vec_at = np.empty((m, k), dtype=np.intp)
    for t in range(k):
        for i in range(m):
            vec_at[i, t] = t * m + i
    return h_at, vec_at


def looped_seesaw(m, n, k, wx, wy, y0, iters, tol, floor):
    """Reference kernel for one (n, k) start, assembling blocks entry by entry.

    Returns one (value, x, y, frame) per iteration run, frame being the
    orthonormal y-frame the next iteration starts from.
    """

    def block_vector(layout, frame, m, n):
        a = (frame.conj().T @ layout).reshape(k * m * m, n) @ frame
        h_at, vec_at = block_entries(k, m)
        h = a.reshape(-1)[h_at]
        evals, evecs = np.linalg.eigh((h + h.conj().T) * 0.5)
        return evals[0], evecs[:, 0][vec_at]

    def orthonormal(a):
        # A unit eigenvector is its own one-column frame.
        return np.linalg.qr(a)[0] if k > 1 else a

    y_frame = np.linalg.qr(y0)[0]
    prev = np.inf
    history = []
    for _ in range(iters):
        x = orthonormal(block_vector(wx, y_frame, m, n)[1])
        val, y = block_vector(wy, x, n, m)
        y_frame = orthonormal(y)
        history.append((val, x, y, y_frame))
        if reaches_floor(val, floor, tol) or prev - val <= tol:
            break
        prev = val
    return history


def frames_meet(a, b, k, meet):
    """Whether two orthonormal (n, k) frames span one subspace to within meet."""
    return k - np.sum(np.abs(a.conj().T @ b) ** 2) <= meet


def looped_stack(m, n, k, wx, wy, y0, iters, tol, floor, meet):
    """Reference for a stacked call: every start run alone, then cut.

    Iteration by iteration, the starts that run it are those whose own run
    lasts that long and that no earlier cut has stopped.  A start whose
    frame then meets the frame of an earlier such start, with a value at
    most its own + tol, is cut at that iteration, and once one of them
    reaches the floor, all of them are.
    Returns one (value, x, y, iterations run) per start.
    """
    runs = [looped_seesaw(m, n, k, wx, wy, s, iters, tol, floor) for s in y0]
    stops = [len(run) for run in runs]
    for it in range(1, max(stops) + 1):
        ran = [r for r, stop in enumerate(stops) if stop >= it]
        if any(reaches_floor(runs[r][it - 1][0], floor, tol) for r in ran):
            for r in ran:
                stops[r] = it
            break
        for later, b in enumerate(ran):
            if any(
                frames_meet(runs[a][it - 1][3], runs[b][it - 1][3], k, meet)
                and runs[a][it - 1][0] <= runs[b][it - 1][0] + tol
                for a in ran[:later]
            ):
                stops[b] = it
    return [run[stop - 1][:3] + (stop,) for run, stop in zip(runs, stops)]


def run_kernel(m, n, k, w, y0, floor):
    """The kernel's result; its `reached` must say whether the stack got to the floor."""
    values, xs, ys, reached = _kernels.seesaw_minimize(m, n, k, w, y0, floor)
    assert reached == _kernels.at_floor(values, floor, stop_tol(w))
    return values, xs, ys, reached


def kernel_reference(m, n, k, w, y0, floor):
    """looped_stack at the kernel's current constants."""
    wx, wy = _kernels._layouts(w, m, n)
    return looped_stack(
        m, n, k, wx, wy, y0, _kernels.SEESAW_ITERS, stop_tol(w), floor,
        _kernels.SEESAW_MEET,
    )


def assert_rows_match_looped(m, n, k, w, y0, floor):
    """Every row of a stacked run is bit-equal to the reference run alone.

    The reference runs at the kernel's current SEESAW_ITERS, SEESAW_FTOL
    (scaled as stop_tol scales it) and SEESAW_MEET.  Returns the reference's
    iteration counts, one per start.
    """
    values, xs, ys, _ = run_kernel(m, n, k, w, y0, floor)
    runs = kernel_reference(m, n, k, w, y0, floor)
    assert values.shape == (len(runs),)
    assert xs.shape == (len(runs), m, k) and ys.shape == (len(runs), n, k)
    for row, (val, x, y, _) in enumerate(runs):
        assert values[row] == val, row
        assert np.array_equal(xs[row], x), row
        assert np.array_equal(ys[row], y), row
    return [run[3] for run in runs]


def expectation(w, m, n, x, y):
    v = (x @ y.T).reshape(m * n)
    v = v / np.linalg.norm(v)
    return float(np.real(np.vdot(v, w @ v)))


class TestLayouts:
    def test_contractions_match_einsum(self, dims, rng):
        m, n = dims.m, dims.n
        w = hermitian(rng, dims.total)
        wx, wy = _kernels._layouts(w, m, n)
        w4 = w.reshape(m, n, m, n)
        k = dims.d
        y = np.linalg.qr(ginibre(rng, n, k))[0]
        x = np.linalg.qr(ginibre(rng, m, k))[0]
        # x-step contraction
        got = (y.conj().T @ wx).reshape(k * m * m, n) @ y
        want = np.einsum("jt,ijkl,ls->tiks", y.conj(), w4, y).reshape(k * m * m, k)
        assert np.allclose(got, want)
        # y-step contraction
        got = (x.conj().T @ wy).reshape(k * n * n, m) @ x
        want = np.einsum("it,ijkl,ks->tjls", x.conj(), w4, x).reshape(k * n * n, k)
        assert np.allclose(got, want)


class TestKernel:
    # (3, 2) puts the larger factor first, so a swapped m/n in the kernel's
    # block reshapes cannot pass.
    @pytest.fixture(params=DESK_DIMS + [(3, 2)], ids=lambda p: f"{p[0]}x{p[1]}")
    def dims(self, request):
        return BipartiteDims(*request.param)

    def test_value_is_attained_and_bounded(self, dims, rng, monkeypatch):
        monkeypatch.setattr(_kernels, "SEESAW_ITERS", 100)
        m, n = dims.m, dims.n
        w = hermitian(rng, dims.total)
        lam_min = np.linalg.eigvalsh(w)[0]
        for k in range(1, dims.d + 1):
            y0 = np.stack([ginibre(rng, n, k) for _ in range(3)])
            values, xs, ys, _ = run_kernel(m, n, k, w, y0, lam_min)
            for val, x, y in zip(values, xs, ys):
                assert abs(val - expectation(w, m, n, x, y)) <= 1e-10
                assert val >= lam_min - 1e-10

    def test_matches_looped_reference(self, dims, rng, monkeypatch):
        # Same arithmetic, so the results must agree bit for bit.  Below
        # k = d the floor is out of reach; at k = d it stops the block.
        monkeypatch.setattr(_kernels, "SEESAW_ITERS", 100)
        m, n = dims.m, dims.n
        w = hermitian(rng, dims.total)
        lam_min = np.linalg.eigvalsh(w)[0]
        for k in range(1, dims.d + 1):
            y0 = np.stack([ginibre(rng, n, k) for _ in range(3)])
            assert_rows_match_looped(m, n, k, w, y0, lam_min)

    def test_full_rank_reaches_ground_state(self, dims, rng, monkeypatch):
        monkeypatch.setattr(_kernels, "SEESAW_ITERS", 100)
        m, n = dims.m, dims.n
        w = hermitian(rng, dims.total)
        y0 = ginibre(rng, n, dims.d)[None]
        values, _, _, reached = run_kernel(m, n, dims.d, w, y0, -np.inf)
        assert abs(values[0] - np.linalg.eigvalsh(w)[0]) <= 1e-9
        assert not reached

    def test_stack_matches_looped_rows(self, rng, monkeypatch):
        # A stack as large as a see-saw level's (34 starts), whose rows leave
        # the running set at different iterations (a settled start almost at
        # once, some only at the cap); each row must still equal its own run
        # alone.
        dims = BipartiteDims(3, 3)
        m, n, k = dims.m, dims.n, 2
        w = hermitian(rng, dims.total)
        cap = 40
        lam_min = np.linalg.eigvalsh(w)[0]
        settled = run_kernel(m, n, k, w, ginibre(rng, n, k)[None], lam_min)[2]
        fresh = [ginibre(rng, n, k) for _ in range(33)]
        y0 = np.concatenate([settled, np.stack(fresh)])
        monkeypatch.setattr(_kernels, "SEESAW_ITERS", cap)
        counts = assert_rows_match_looped(m, n, k, w, y0, lam_min)
        assert len(counts) == 34
        assert counts[0] < 10
        assert cap in counts
        assert len(set(counts)) >= 5

    def test_floor_stops_whole_stack(self, rng):
        # The partial transpose of a Schmidt-rank-3 state has a Schmidt-rank-2
        # ground state, so at k = 2 random starts reach lambda_min, each
        # after its own number of iterations.  The stack stops at the
        # iteration where its first start gets there, and its other starts
        # are cut at that iteration.
        dims = BipartiteDims(3, 3)
        m, n, k = dims.m, dims.n, 2
        v = random_vector_with_sr(rng, dims, 3)
        w = partial_transpose(np.outer(v, v.conj()), dims)
        lam_min = np.linalg.eigvalsh(w)[0]
        tol = stop_tol(w)
        y0 = np.stack([ginibre(rng, n, k) for _ in range(34)])
        counts = assert_rows_match_looped(m, n, k, w, y0, lam_min)
        assert len(counts) == len(y0)
        values, _, _, reached = run_kernel(m, n, k, w, y0, lam_min)
        assert reached
        assert not all(reaches_floor(val, lam_min, tol) for val in values)
        cut = min(c for c, val in zip(counts, values) if reaches_floor(val, lam_min, tol))
        assert max(counts) == cut
        free = kernel_reference(m, n, k, w, y0, -np.inf)
        assert max(counts) < max(run[3] for run in free)


class TestMeeting:
    """A start whose frame spans an earlier running start's subspace stops."""

    @staticmethod
    def alone(m, n, k, w, start, iters=None):
        # One start's own run: its per-iteration history, with no floor.
        wx, wy = _kernels._layouts(w, m, n)
        iters = _kernels.SEESAW_ITERS if iters is None else iters
        return looped_seesaw(m, n, k, wx, wy, start, iters, stop_tol(w), -np.inf)

    @staticmethod
    def assert_row_is(result, row, state):
        values, xs, ys, _ = result
        val, x, y, _ = state
        assert values[row] == val
        assert np.array_equal(xs[row], x) and np.array_equal(ys[row], y)

    @pytest.mark.parametrize("k,rotated", [(1, False), (2, False), (2, True)],
                             ids=["k1-twice", "k2-twice", "k2-rotated"])
    def test_same_span_stops_after_one_iteration(self, rng, k, rotated):
        # The x-step sees the y-frame only through its span, so a frame
        # repeated, or times a k x k unitary, has the earlier frame's
        # future: the later row stops at iteration 1 and the earlier row
        # runs on as if alone.
        m, n = 3, 3
        w = hermitian(rng, m * n)
        frame = ginibre(rng, n, k)
        twin = frame @ np.linalg.qr(ginibre(rng, k, k))[0] if rotated else frame
        result = run_kernel(m, n, k, w, np.stack([frame, twin]), -np.inf)
        first = self.alone(m, n, k, w, frame)
        assert len(first) > 1
        self.assert_row_is(result, 0, first[-1])
        self.assert_row_is(result, 1, self.alone(m, n, k, w, twin, iters=1)[0])

    def test_start_ahead_runs_on(self, rng):
        # A later start whose frame lies near an earlier start's, but further
        # down the basin, is not retired into the start behind it.
        m, n, k = 3, 3, 1
        w = hermitian(rng, m * n)
        settled = self.alone(m, n, k, w, ginibre(rng, n, k))[-1][3]
        behind = settled + 0.1 * ginibre(rng, n, k)
        counts = assert_rows_match_looped(m, n, k, w, np.stack([behind, settled]), -np.inf)
        first = self.alone(m, n, k, w, behind, iters=1)[0]
        second = self.alone(m, n, k, w, settled, iters=1)[0]
        # At iteration 1 the frames meet, and only the value test keeps the
        # later start running.
        assert frames_meet(first[3], second[3], k, _kernels.SEESAW_MEET)
        assert first[0] > second[0] + stop_tol(w)
        assert counts[1] > 1

    def test_first_row_never_retired(self, dims, rng):
        # Row 0 of a see-saw level is the ground frame: random frames that
        # land in its basin stop, and it runs as if no start could meet.
        m, n = dims.m, dims.n
        retired = 0
        for _ in range(3):
            w = hermitian(rng, dims.total)
            wx, wy = _kernels._layouts(w, m, n)
            ground = np.linalg.eigh(w)[1][:, 0]
            for k in range(1, dims.d):
                y0 = np.concatenate(
                    [_frame_from_vector(ground, dims, k)[None]]
                    + [ginibre(rng, n, k)[None] for _ in range(33)]
                )
                result = run_kernel(m, n, k, w, y0, -np.inf)
                free = looped_stack(
                    m, n, k, wx, wy, y0, _kernels.SEESAW_ITERS, stop_tol(w), -np.inf,
                    -1.0,
                )
                self.assert_row_is(result, 0, free[0])
                cut = kernel_reference(m, n, k, w, y0, -np.inf)
                retired += sum(c[3] < f[3] for c, f in zip(cut, free))
        assert retired > 0

    def test_values_nonincreasing_per_row(self, rng, monkeypatch):
        # Capping the stack at one more iteration never raises a row's value:
        # a row that met an earlier one stays frozen where it stopped.
        m, n, k = 3, 3, 2
        w = hermitian(rng, m * n)
        y0 = np.stack([ginibre(rng, n, k) for _ in range(34)])
        prev = None
        for cap in range(1, 31):
            monkeypatch.setattr(_kernels, "SEESAW_ITERS", cap)
            values = run_kernel(m, n, k, w, y0, -np.inf)[0]
            if prev is not None:
                assert np.all(values <= prev + _kernels.SEESAW_FTOL * (1.0 + np.abs(prev)))
            prev = values
