import numpy as np
import pytest

import checks
import conekit
import workloads


@pytest.mark.parametrize("dim", [4, 9, 16, 64])
def test_near_psd_matrix_has_one_fixed_negative_eigenvalue(dim):
    rng = np.random.default_rng(dim)
    for norm in (1.0, 1e6):
        evals = np.linalg.eigvalsh(workloads.near_psd_matrix(rng, dim, norm))
        dip = workloads.NEAR_PSD_DIP * norm
        assert evals[-1] == pytest.approx(norm, rel=1e-12)
        assert evals[0] == pytest.approx(-dip, rel=1e-2)
        # The rest of the spectrum is PSD up to roundoff.
        assert evals[1] >= -checks.roundoff_floor(np.diag(evals))


@pytest.mark.parametrize("m", [2, 3, 8])
def test_near_psd_verdict_depends_only_on_norm(m):
    rng = np.random.default_rng(m)
    dims = conekit.BipartiteDims(m, m)
    for _ in range(20):
        small = workloads.near_psd_matrix(rng, m * m, 1.0)
        large = workloads.near_psd_matrix(rng, m * m, 1e6)
        assert conekit.is_psd(small, dims).verdict.value == "in"
        assert conekit.is_psd(large, dims).verdict.value == "out"


def test_cli_round_fails_the_same_ops_at_every_seed(tmp_path):
    def failed_labels(seed):
        workload = workloads.make("cli-io", seed, str(tmp_path))
        try:
            # The conjugated-witness input is written by an earlier construct op.
            ops = [op for op in workload.round(0)
                   if op.label.startswith("check psd") and "witness" not in op.label]
            return sorted((op.dims, op.label) for op in ops
                          if op.outcome(op.run(), None) is not None)
        finally:
            workload.close()

    expected = sorted((dims, "check psd near norm=1e+06")
                      for dims, blocks in
                      (("2x2", 12), ("3x3", 8), ("4x4", 3), ("8x8", 1))
                      for _ in range(blocks))
    assert failed_labels(3) == failed_labels(11) == expected
