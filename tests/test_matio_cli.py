import json

import numpy as np
import pytest

from conekit import (
    BipartiteDims,
    KrausFamily,
    Mode,
    basis_vec,
    max_entangled_vector,
    product_vec,
    random_family,
    swap_operator,
)
from conekit import matio
from conekit.cli import main
from conekit.errors import MatrixFileError
from conekit.suites import suite_lemma_srank


def write_matrix(path, m, n, arr, meta=None):
    matio.save_array(str(path), BipartiteDims(m, n), arr, meta)
    return str(path)


class TestMatrixFiles:
    def test_round_trip_is_byte_identical(self, tmp_path, rng):
        path = tmp_path / "x.json"
        arr = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        write_matrix(path, 2, 3, arr, meta={"name": "random"})
        first = path.read_bytes()
        dims, loaded, meta = matio.load_array(str(path))
        assert dims == BipartiteDims(2, 3)
        assert np.array_equal(loaded, arr)
        assert meta == {"name": "random"}
        matio.save_array(str(path), dims, loaded, meta)
        assert path.read_bytes() == first

    def test_vector_files(self, tmp_path):
        path = tmp_path / "v.json"
        v = max_entangled_vector(BipartiteDims(2, 2))
        write_matrix(path, 2, 2, v)
        _, loaded, _ = matio.load_array(str(path))
        assert loaded.ndim == 1
        assert np.array_equal(loaded, v)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(MatrixFileError):
            matio.load_array(str(path))

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 2, "n": 2, "re": [[1]]}')
        with pytest.raises(MatrixFileError):
            matio.load_array(str(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"m": 1, "n": 1, "re": [[null]], "im": [[0]]}'
        )
        with pytest.raises(MatrixFileError):
            matio.load_array(str(path))

    def test_shape_mismatch(self, tmp_path):
        from conekit import DimError

        path = tmp_path / "bad.json"
        path.write_text(
            '{"m": 2, "n": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}'
        )
        with pytest.raises(DimError):
            matio.load_array(str(path))

    def test_kraus_family_round_trip(self, tmp_path):
        d = BipartiteDims(2, 2)
        fam = random_family(d, 3, 1, Mode.EXACT, seed=4)
        path = tmp_path / "fam.json"
        matio.save_kraus_family(str(path), fam)
        loaded = matio.load_kraus_family(str(path))
        assert loaded.mode is fam.mode
        assert loaded.osr_bound == fam.osr_bound
        assert loaded.locality is fam.locality
        assert loaded.seed == fam.seed
        for a, b in zip(loaded.ops, fam.ops):
            assert np.allclose(a, b, atol=1e-16)

    def test_canonical_float_formatting(self):
        text = matio.canonical_dumps({"x": 0.1, "y": 1.0, "z": -0.0})
        assert text == '{"x": 0.10000000000000001, "y": 1, "z": -0}'

    def test_sorted_keys(self):
        assert matio.canonical_dumps({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'


class TestCsvSummary:
    def test_header_and_rows(self, tmp_path):
        d = BipartiteDims(2, 2)
        report = suite_lemma_srank(d, 10, 3)
        path = tmp_path / "summary.csv"
        matio.append_csv_summary(str(path), report)
        matio.append_csv_summary(str(path), report)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "suite_id,m,n,trials,passes,max_residual,seed"
        assert len(lines) == 3
        assert lines[1].startswith("srank,2,2,10,10,")


@pytest.fixture
def bell_file(tmp_path):
    d = BipartiteDims(2, 2)
    b = max_entangled_vector(d)
    return write_matrix(tmp_path / "bell_proj.json", 2, 2, np.outer(b, b.conj()))


@pytest.fixture
def bell_vec_file(tmp_path):
    d = BipartiteDims(2, 2)
    return write_matrix(tmp_path / "bell.json", 2, 2, max_entangled_vector(d))


class TestCliCheck:
    def test_psd_identity(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "i.json", 2, 2, np.eye(4))
        assert main(["check", "psd", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "in"

    def test_ppt_bell_exits_out(self, bell_file, capsys):
        assert main(["check", "ppt", bell_file]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["certificate"]["side"] == "partial_transpose"
        assert abs(out["min_eig"] + 0.5) <= 1e-9

    def test_sep_rank_one_sr2_3x3(self, tmp_path, rng):
        from conekit.sampling import random_vector_with_sr

        d = BipartiteDims(3, 3)
        w = random_vector_with_sr(rng, d, 2)
        path = write_matrix(tmp_path / "w.json", 3, 3, np.outer(w, w.conj()))
        assert main(["check", "sep", path]) == 1

    def test_sep_indeterminate_exit(self, tmp_path, rng):
        from conekit.sampling import random_ppt

        d = BipartiteDims(3, 3)
        path = write_matrix(tmp_path / "x.json", 3, 3, random_ppt(rng, d))
        assert main(["check", "sep", path]) == 2

    def test_blockpos_echoes_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONEKIT_SEED", "123")
        path = write_matrix(tmp_path / "i.json", 2, 2, np.eye(4))
        assert main(["check", "blockpos", path, "--restarts", "2", "--iters", "20"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["seed"] == 123

    def test_malformed_file_exit_11(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("nope")
        assert main(["check", "psd", str(path)]) == 11

    def test_vector_where_matrix_expected_exit_12(self, bell_vec_file):
        assert main(["check", "psd", bell_vec_file]) == 12


class TestCliRank:
    def test_osr_identity(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "i.json", 2, 2, np.eye(4))
        assert main(["rank", "osr", path]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_sr_product_vector(self, tmp_path, capsys):
        v = product_vec(basis_vec(2, 0), basis_vec(2, 0))
        path = write_matrix(tmp_path / "v.json", 2, 2, v)
        assert main(["rank", "sr", path]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_osr_swap(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "swap.json", 2, 2, swap_operator(BipartiteDims(2, 2)))
        assert main(["rank", "osr", path]) == 0
        assert capsys.readouterr().out.strip() == "4"


class TestCliConstruct:
    def test_collapse(self, bell_vec_file, tmp_path, capsys):
        prefix = str(tmp_path / "col")
        assert main(["construct", "collapse", "--target", bell_vec_file, "--out", prefix]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"
        assert report["normalization_residual"] <= 1e-10
        assert report["output_residual"] <= 1e-10
        fam = matio.load_kraus_family(prefix + "_family.json")
        assert fam.mode is Mode.EXACT
        assert (tmp_path / "col_inputs.json").exists()
        assert (tmp_path / "col_report.json").exists()

    def test_embed_k(self, bell_vec_file, tmp_path, capsys):
        prefix = str(tmp_path / "emb")
        assert main(
            ["construct", "embed_k", "--v", bell_vec_file, "--k", "2", "--out", prefix]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["osr"] == 2
        fam = matio.load_kraus_family(prefix + "_family.json")
        assert fam.mode is Mode.CONTRACTIVE
        assert len(fam.ops) == 1

    def test_embed_k_rank_too_high_fails(self, bell_vec_file, tmp_path):
        prefix = str(tmp_path / "emb")
        assert main(
            ["construct", "embed_k", "--v", bell_vec_file, "--k", "1", "--out", prefix]
        ) == 13

    def test_witness_break_swap(self, tmp_path, capsys):
        d = BipartiteDims(2, 2)
        path = write_matrix(tmp_path / "swap.json", 2, 2, swap_operator(d))
        prefix = str(tmp_path / "wb")
        assert main(["construct", "witness_break", "--w", path, "--out", prefix]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["product_expectation"] + 1.0) <= 1e-9

    def test_witness_break_explicit_z(self, tmp_path, capsys):
        d = BipartiteDims(2, 2)
        f = swap_operator(d)
        wpath = write_matrix(tmp_path / "swap.json", 2, 2, f)
        singlet = np.linalg.eigh(f)[1][:, 0]
        zpath = write_matrix(tmp_path / "singlet.json", 2, 2, singlet)
        prefix = str(tmp_path / "wb")
        code = main(
            ["construct", "witness_break", "--w", wpath, "--z", zpath, "--out", prefix]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["product_expectation"] + 1.0) <= 1e-9
        # The conjugated witness now fails the block-positivity check.
        assert main(
            ["check", "blockpos", prefix + "_conjugated.json", "--seed", "3",
             "--restarts", "4", "--iters", "40"]
        ) == 1

    def test_lift(self, tmp_path, capsys):
        e0 = write_matrix(tmp_path / "e0.json", 2, 1, basis_vec(2, 0))
        f0 = write_matrix(tmp_path / "f0.json", 2, 1, basis_vec(2, 0))
        bell = write_matrix(
            tmp_path / "bell.json", 2, 2, max_entangled_vector(BipartiteDims(2, 2))
        )
        prefix = str(tmp_path / "lift")
        assert main(
            ["construct", "lift", "--u", e0, "--v", f0, "--w", bell, "--out", prefix]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mapping_residual"] <= 1e-12
        assert report["unitarity_residual"] <= 1e-12

    def test_missing_required_flag(self, tmp_path):
        assert main(["construct", "collapse", "--out", str(tmp_path / "x")]) == 13


class TestCliVerify:
    def test_srank(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        code = main(
            ["verify", "srank", "--m", "2", "--n", "2", "--trials", "50",
             "--seed", "7", "--out", out]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "seed=7" in stdout
        report = json.loads(open(out).read())
        assert report["passes"] == 50
        assert "wall_time" in report

    def test_probe_with_k_and_csv(self, tmp_path):
        out = str(tmp_path / "probe.json")
        csv = str(tmp_path / "summary.csv")
        code = main(
            ["verify", "probe-intermediate", "--m", "3", "--n", "3", "--k", "2",
             "--trials", "10", "--seed", "3", "--out", out, "--csv", csv]
        )
        assert code == 0
        report = json.loads(open(out).read())
        assert report["extra"]["verdict"] == "exploratory"
        assert open(csv).read().startswith("suite_id,")

    def test_extra_inputs(self, tmp_path):
        path = write_matrix(tmp_path / "mixed.json", 2, 2, np.eye(4) / 4.0)
        out = str(tmp_path / "r.json")
        code = main(
            ["verify", "ppt-stability", "--m", "2", "--n", "2", "--trials", "10",
             "--seed", "5", "--out", out, "--extra-inputs", path]
        )
        assert code == 0

    def test_extra_inputs_dim_mismatch_exit_12(self, tmp_path):
        path = write_matrix(tmp_path / "mixed.json", 2, 2, np.eye(4) / 4.0)
        code = main(
            ["verify", "ppt-stability", "--m", "2", "--n", "3", "--trials", "5",
             "--seed", "5", "--out", str(tmp_path / "r.json"),
             "--extra-inputs", path]
        )
        assert code == 12

    def test_witness_coarse_tol_exits_0(self, tmp_path):
        out = str(tmp_path / "w.json")
        code = main(
            ["verify", "witness-not-cstar", "--m", "2", "--n", "2", "--tol", "0.7",
             "--out", out]
        )
        assert code == 0
        report = json.loads(open(out).read())
        assert report["passes"] == report["trials"] == 6
        assert 1 in report["extra"]["not_applicable_trials"]

    def test_usage_error_exits_13(self):
        assert main(["verify", "no-such-suite", "--m", "2", "--n", "2"]) == 13

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_exits_13(self, tmp_path, capsys, monkeypatch, source):
        args = ["verify", "srank", "--m", "2", "--n", "2", "--trials", "5",
                "--out", str(tmp_path / "r.json")]
        if source == "flag":
            args += ["--seed", "-1"]
        else:
            monkeypatch.setenv("CONEKIT_SEED", "-1")
        assert main(args) == 13
        assert capsys.readouterr().err.startswith("error: seed must be nonnegative")

    def test_determinism_of_report_files(self, tmp_path):
        args = ["verify", "srank", "--m", "2", "--n", "2", "--trials", "20", "--seed", "9"]
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        a = json.loads(open(out1).read())
        b = json.loads(open(out2).read())
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b
