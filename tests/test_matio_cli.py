import json
import os
import re
from collections import defaultdict

import numpy as np
import pytest

from conekit import (
    BipartiteDims,
    KrausFamily,
    Locality,
    Mode,
    PreconditionError,
    SeesawConfig,
    Verdict,
    basis_vec,
    collapse_construction,
    complete_to_identity,
    embed_schmidt_k,
    max_entangled_vector,
    product_vec,
    random_family,
    rerun_trial,
    run_suite,
    swap_operator,
)
from conekit import cli, kraus, matio
from conekit.cli import main
from conekit.errors import MatrixFileError
from conekit.sampling import random_product_vector, random_vector_with_sr
from conekit.suites import structured_exact_family, suite_lemma_srank


def write_matrix(path, m, n, arr, meta=None):
    matio.save_array(str(path), BipartiteDims(m, n), arr, meta)
    return str(path)


# JSON leaves that are not numbers, though a float64 cast reads most as one.
NON_NUMBERS = ['"1"', '"2.5"', "true", "false", "null"]


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

    @pytest.mark.parametrize("part", ["re", "im"])
    @pytest.mark.parametrize("leaf", NON_NUMBERS)
    def test_non_number_entry_refused(self, tmp_path, capsys, leaf, part):
        # Among numbers, where a float64 cast would read it as one.
        entries = {"re": "[[1.5, 0], [0, 1]]", "im": "[[0, 0], [0, 0]]"}
        entries[part] = entries[part].replace(", 0]", f", {leaf}]", 1)
        path = tmp_path / "bad.json"
        path.write_text(f'{{"m": 1, "n": 2, "re": {entries["re"]}, "im": {entries["im"]}}}')
        with pytest.raises(MatrixFileError, match="re/im entries must be numbers"):
            matio.load_array(str(path))
        assert main(["check", "psd", str(path)]) == 11
        assert capsys.readouterr().err.startswith(f"error: {path}: re/im entries must be numbers")

    @pytest.mark.parametrize("leaf", NON_NUMBERS)
    def test_non_number_op_entry_refused(self, tmp_path, leaf):
        path = tmp_path / "fam.json"
        matio.save_kraus_family(str(path), random_family(BipartiteDims(2, 2), 2, 1, Mode.EXACT, seed=4))
        obj = json.loads(path.read_text())
        obj["ops"][1]["im"][2][3] = json.loads(leaf)
        path.write_text(json.dumps(obj))
        with pytest.raises(MatrixFileError, match="op 1: re/im entries must be numbers"):
            matio.load_kraus_family(str(path))

    def test_integer_past_the_float_range_refused(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 1, "n": 1, "re": [[1' + "0" * 400 + ']], "im": [[0]]}')
        with pytest.raises(MatrixFileError, match="entries must be finite"):
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


# Pinned canonical_dumps text for each kind of value the walk converts.
_GOLDEN_DUMPS = [
    (np.bool_(True), "true"),
    (np.bool_(False), "false"),
    (np.int64(-5), "-5"),
    (np.float64(0.1), "0.10000000000000001"),
    (np.float32(0.1), "0.10000000149011612"),
    (np.complex128(1.5 - 0.25j), '{"im": -0.25, "re": 1.5}'),
    (Verdict.IN, '"in"'),
    (Mode.EXACT, '"exact"'),
    ({3: 1, 1: "a"}, '{"1": "a", "3": 1}'),
    ((1, 2.5, "x"), '[1, 2.5, "x"]'),
    ([{"a": (np.float32(0.1),)}], '[{"a": [0.10000000149011612]}]'),
    (np.array(0.1), "0.10000000000000001"),
    (np.array(1 - 1j), '{"im": -1, "re": 1}'),
    (np.arange(4), "[0, 1, 2, 3]"),
    (np.array([True, False]), "[true, false]"),
    (np.zeros(0), "[]"),
    (np.array([[1 + 2j, 0.5], [-0j, 3]]), '{"im": [[2, 0], [-0, 0]], "re": [[1, 0.5], [-0, 3]]}'),
]


class TestSingleWalk:
    @pytest.mark.parametrize("obj, text", _GOLDEN_DUMPS, ids=lambda x: repr(x)[:40])
    def test_pinned_text(self, obj, text):
        assert matio.canonical_dumps(obj) == text
        assert matio.canonical_dumps({"x": [obj]}) == '{"x": [' + text + "]}"

    @pytest.mark.parametrize("obj, name", [({1}, "set"), (1 + 2j, "complex"), (object(), "object")])
    def test_unsupported_types_raise(self, obj, name):
        with pytest.raises(MatrixFileError, match=f"^cannot serialize object of type {name}$"):
            matio.canonical_dumps({"x": obj})

    @pytest.mark.parametrize("obj", [{1: "a", "1": "b"}, {"x": [{(1, 2): 0, "(1, 2)": 1}]}])
    def test_keys_with_the_same_string_raise(self, obj):
        with pytest.raises(MatrixFileError, match=r"^cannot serialize two keys named '.*'$"):
            matio.canonical_dumps(obj)

    def test_save_json_writes_canonical_line(self, tmp_path):
        path = tmp_path / "r.json"
        matio.save_json(str(path), {"b": np.float64(0.1), "a": Mode.EXACT})
        assert path.read_text() == '{"a": "exact", "b": 0.10000000000000001}\n'


def _per_element(obj) -> str:
    """Reference text of `tolist()` output, one entry at a time."""
    if isinstance(obj, list):
        return "[" + ", ".join(_per_element(item) for item in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return repr(obj)
    return format(obj, ".17g")


_SPECIAL = np.array(
    [-0.0, 0.0, 5e-324, 2.5e-310, -1e-320, 2.2250738585072014e-308,
     1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 1.0, 1e16, -2.5]
)
_GOLDEN_ARRAYS = {
    "special": _SPECIAL,
    "special_2d": _SPECIAL[:12].reshape(3, 4),
    "special_3d": _SPECIAL[:12].reshape(2, 3, 2),
    "empty": np.zeros((0,)),
    "empty_rows": np.zeros((0, 4)),
    "empty_cols": np.zeros((4, 0)),
    "empty_middle": np.zeros((2, 0, 3)),
    "empty_last_3d": np.zeros((2, 3, 0)),
    "one_by_one": np.full((1, 1, 1), 0.1),
    "random_4d": np.random.default_rng(5).standard_normal((2, 3, 2, 5)),
    "float32": np.array([0.1, 1 / 3, -0.0, 1e-45, 3.4028235e38], dtype=np.float32),
    "float16": np.array([[0.1, 65504.0], [6e-8, -0.0]], dtype=np.float16),
    "int": np.arange(-3, 9).reshape(3, 4),
    "bool": np.array([[True, False], [False, True]]),
    "zero_d_float": np.array(0.1),
    "zero_d_int": np.array(7),
}


class TestArrayEmission:
    @pytest.mark.parametrize("name", sorted(_GOLDEN_ARRAYS))
    def test_real_arrays_match_per_element_format(self, name):
        arr = _GOLDEN_ARRAYS[name]
        assert matio.canonical_dumps(arr) == _per_element(arr.tolist())
        assert matio.canonical_dumps({"x": [arr]}) == '{"x": [' + _per_element(arr.tolist()) + "]}"

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("shape", [(11,), (0,), (0, 3), (3, 0), (2, 3, 1), ()])
    def test_complex_arrays_match_per_element_format(self, dtype, shape):
        count = int(np.prod(shape))
        parts = _SPECIAL[np.abs(_SPECIAL) < 1e38]  # finite in single precision too
        values = (parts[:count] - 1j * parts[::-1][:count]).astype(dtype)
        arr = values.reshape(shape)
        want = (
            '{"im": ' + _per_element(arr.imag.tolist())
            + ', "re": ' + _per_element(arr.real.tolist()) + "}"
        )
        assert matio.canonical_dumps(arr) == want

    # canonical_dumps formats each distinct row once per document; these
    # documents repeat rows across arrays, so the memo is hit.
    def test_row_repeated_across_arrays(self, rng):
        row = rng.standard_normal(5)
        doc = [np.stack([row, row + 1.0, row]), row[None, :], np.zeros(5), row]
        assert matio.canonical_dumps(doc) == _per_element([a.tolist() for a in doc])

    def test_signed_zero_rows_kept_apart(self):
        doc = [np.zeros(3), np.full(3, -0.0), np.zeros((2, 3)), np.full((2, 3), -0.0)]
        text = matio.canonical_dumps(doc)
        assert text == _per_element([a.tolist() for a in doc])
        assert text == "[[0, 0, 0], [-0, -0, -0], [[0, 0, 0], [0, 0, 0]], [[-0, -0, -0], [-0, -0, -0]]]"

    def test_zero_rows_of_equal_byte_size_and_other_dtype_kept_apart(self):
        # A float32 row of width 4 and a float64 row of width 2 are both 16 bytes.
        doc = [np.zeros((2, 4), dtype=np.float32), np.zeros((3, 2)), np.zeros(4, dtype=np.float32)]
        text = matio.canonical_dumps(doc)
        assert text == _per_element([a.tolist() for a in doc])
        assert text == "[[[0, 0, 0, 0], [0, 0, 0, 0]], [[0, 0], [0, 0], [0, 0]], [0, 0, 0, 0]]"

    def test_collapse_shaped_inputs_list(self, rng):
        # One shared input repeated, then zero matrices, as a collapse inputs file.
        total = 6
        shared = np.eye(total, dtype=np.complex128) / 3.0
        shared[0, 1] = rng.standard_normal() + 1j * rng.standard_normal()
        mats = [shared] * total + [np.zeros((total, total), dtype=np.complex128)] * (2 * total)
        want = "[" + ", ".join(
            '{"im": ' + _per_element(x.imag.tolist()) + ', "re": ' + _per_element(x.real.tolist()) + "}"
            for x in mats
        ) + "]"
        assert matio.canonical_dumps([matio.array_to_obj(x) for x in mats]) == want

    def test_array_to_obj_writes_what_nested_lists_would(self, rng):
        arr = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        lists = {"re": arr.real.tolist(), "im": arr.imag.tolist()}
        assert matio.canonical_dumps(matio.array_to_obj(arr)) == matio.canonical_dumps(lists)

    @pytest.mark.parametrize(
        "arr, bad",
        [
            (np.array([1.0, np.inf, np.nan]), "inf"),
            (np.array([[1.0, 2.0], [np.nan, -np.inf]]), "nan"),
            (np.array([[0.0, -np.inf], [np.nan, 0.0]], dtype=np.float32), "-inf"),
        ],
    )
    def test_non_finite_entry_names_first_bad_value(self, arr, bad):
        with pytest.raises(MatrixFileError, match=f"^non-finite value {bad} cannot"):
            matio.canonical_dumps({"x": arr})

    def test_non_finite_im_part_is_reported_before_re(self):
        re_part = np.array([1.0, np.nan])
        im_part = np.array([np.inf, 0.0])
        arr = np.empty(2, dtype=complex)
        arr.real, arr.imag = re_part, im_part
        with pytest.raises(MatrixFileError, match="^non-finite value inf cannot"):
            matio.canonical_dumps(arr)

    def test_non_finite_scalar_before_array_in_emission_order(self):
        with pytest.raises(MatrixFileError, match="^non-finite value nan cannot"):
            matio.canonical_dumps({"a": float("nan"), "b": np.array([np.inf])})


class TestAtomicWrite:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        path = tmp_path / "out.json"
        previous = os.umask(umask)
        try:
            matio.atomic_write_text(str(path), "{}\n")
            matio.save_array(str(tmp_path / "x.json"), BipartiteDims(1, 1), np.eye(1))
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == mode
        assert (tmp_path / "x.json").stat().st_mode & 0o777 == mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "x.json"]

    def test_missing_directory_refused(self, tmp_path):
        path = tmp_path / "nodir" / "out.json"
        message = f"^cannot write {re.escape(str(path))}: No such file"
        with pytest.raises(MatrixFileError, match=message):
            matio.atomic_write_text(str(path), "{}\n")

    def test_directory_target_refused_without_temp_file(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(MatrixFileError, match="^cannot write .*: Is a directory"):
            matio.save_json(str(tmp_path / "d"), {})
        assert [p.name for p in tmp_path.iterdir()] == ["d"]
        assert list((tmp_path / "d").iterdir()) == []


class TestKrausFamilyHeader:
    def _write(self, tmp_path, drop=(), **header):
        d = BipartiteDims(2, 2)
        fam = random_family(d, 2, 1, Mode.EXACT, seed=4)
        path = tmp_path / "fam.json"
        matio.save_kraus_family(str(path), fam)
        obj = json.loads(path.read_text())
        obj.update(header)
        for key in drop:
            del obj[key]
        path.write_text(json.dumps(obj))
        return str(path)

    @pytest.mark.parametrize(
        "header",
        [
            {"m": 2.9},
            {"m": 2.0},
            {"n": True},
            {"m": "2"},
            {"osr_bound": 1.7},
            {"osr_bound": 1.0},
            {"osr_bound": True},
            {"osr_bound": "1"},
            {"seed": 4.5},
            {"seed": "4"},
            {"ops": 5},
            {"ops": {"re": [[1]], "im": [[0]]}},
        ],
        ids=repr,
    )
    def test_non_integer_header_refused(self, tmp_path, header):
        with pytest.raises(MatrixFileError, match="bad Kraus family header"):
            matio.load_kraus_family(self._write(tmp_path, **header))

    @pytest.mark.parametrize("value", [None, 1, 4])
    def test_integer_or_null_bound_and_seed_load(self, tmp_path, value):
        tag = "local" if value == 1 else "global"
        path = self._write(tmp_path, osr_bound=value, seed=value, locality=tag)
        fam = matio.load_kraus_family(path)
        assert fam.osr_bound == value
        assert fam.seed == value
        assert fam.dims == BipartiteDims(2, 2)

    @pytest.mark.parametrize(
        "header",
        [
            {"osr_bound": 1, "locality": "global"},
            {"osr_bound": 2, "locality": "local"},
            {"osr_bound": None, "locality": "local"},
            {"locality": "nonlocal"},
            {"locality": "LOCAL"},
            {"locality": None},
            {"locality": 1},
        ],
        ids=repr,
    )
    def test_contradicting_or_unknown_locality_refused(self, tmp_path, header):
        with pytest.raises(MatrixFileError, match="bad Kraus family header: locality"):
            matio.load_kraus_family(self._write(tmp_path, **header))

    @pytest.mark.parametrize("bound,locality", [(1, Locality.LOCAL), (3, Locality.GLOBAL)])
    def test_missing_locality_is_derived(self, tmp_path, bound, locality):
        path = self._write(tmp_path, drop=["locality"], osr_bound=bound)
        assert matio.load_kraus_family(path).locality is locality


D22 = BipartiteDims(2, 2)


def _load_with_seed(tmp_path, seed):
    path = tmp_path / "fam.json"
    matio.save_kraus_family(str(path), KrausFamily(D22, [np.eye(4)], Mode.EXACT))
    obj = json.loads(path.read_text())
    obj["seed"] = int(seed) if isinstance(seed, np.integer) else seed
    path.write_text(json.dumps(obj))
    return matio.load_kraus_family(str(path))


# Each entry takes a seed through one entry point, called as f(tmp_path, seed).
SEED_ENTRY_POINTS = {
    "run_suite": lambda tmp_path, s: run_suite("srank", D22, s, trials=1),
    "rerun_trial": lambda tmp_path, s: rerun_trial("srank", D22, s, 0),
    "SeesawConfig": lambda tmp_path, s: SeesawConfig(seed=s),
    "random_family": lambda tmp_path, s: random_family(D22, 2, 1, Mode.EXACT, seed=s),
    "KrausFamily": lambda tmp_path, s: KrausFamily(D22, [np.eye(4)], Mode.EXACT, seed=s),
    "load_kraus_family": _load_with_seed,
}


class TestSeedRule:
    """Every entry point takes a seed by one rule: an integer in [0, 2**64)."""

    @pytest.mark.parametrize("seed", [0, np.uint64(2**63), 2**64 - 1], ids=repr)
    @pytest.mark.parametrize("call", list(SEED_ENTRY_POINTS))
    def test_seed_accepted(self, tmp_path, call, seed):
        SEED_ENTRY_POINTS[call](tmp_path, seed)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.5, True, "3"], ids=repr)
    @pytest.mark.parametrize("call", list(SEED_ENTRY_POINTS))
    def test_seed_refused(self, tmp_path, call, seed):
        error = MatrixFileError if call == "load_kraus_family" else PreconditionError
        with pytest.raises(error, match="seed must be"):
            SEED_ENTRY_POINTS[call](tmp_path, seed)


D33 = BipartiteDims(3, 3)

# Every constructor of a family, with the random_family branch it takes.
FAMILIES = {
    "random_contractive": lambda rng: random_family(D33, 3, 2, Mode.CONTRACTIVE, seed=3),
    "random_exact_k1": lambda rng: random_family(D33, 4, 1, Mode.EXACT, seed=3),
    "random_exact_kd": lambda rng: random_family(D33, 3, 3, Mode.EXACT, seed=3),
    "complete_to_identity": lambda rng: complete_to_identity(
        KrausFamily(D33, [0.5 * np.eye(9)], Mode.EXACT, seed=11)
    ),
    "collapse_construction": lambda rng: collapse_construction(
        random_vector_with_sr(rng, D33, 2), D33
    )[0],
    "embed_schmidt_k": lambda rng: embed_schmidt_k(
        random_vector_with_sr(rng, D33, 2), random_product_vector(rng, D33), D33, 2
    ),
    "structured_k1": lambda rng: structured_exact_family(rng, D33, 1),
    "structured_k2": lambda rng: structured_exact_family(rng, D33, 2),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_constructed_family_reads_back(tmp_path, rng, name):
    fam = FAMILIES[name](rng)
    path = str(tmp_path / "fam.json")
    matio.save_kraus_family(path, fam)
    loaded = matio.load_kraus_family(path)
    assert loaded.dims == fam.dims
    assert loaded.mode is fam.mode
    assert loaded.osr_bound == fam.osr_bound
    assert loaded.seed == fam.seed
    assert loaded.locality is fam.locality
    assert len(loaded.ops) == len(fam.ops)
    for a, b in zip(loaded.ops, fam.ops):
        assert np.array_equal(a, b)


class TestCsvSummary:
    def test_empty_file_gets_header(self, tmp_path):
        report = suite_lemma_srank(BipartiteDims(2, 2), 4, 3)
        path = tmp_path / "summary.csv"
        path.write_text("")
        lines = matio.csv_summary_text(str(path), report).split("\n")
        assert lines[0] == matio.SUITE_CSV_HEADER
        assert lines[1] == matio.suite_csv_row(report)
        assert lines[2:] == [""]

    @pytest.mark.parametrize("kind", ["binary", "directory"])
    def test_unreadable_file_refused(self, tmp_path, kind):
        report = suite_lemma_srank(BipartiteDims(2, 2), 2, 3)
        path = tmp_path / "summary.csv"
        if kind == "binary":
            path.write_bytes(b"\xff\xfe\x00,")
        else:
            path.mkdir()
        with pytest.raises(MatrixFileError, match=f"^cannot read {re.escape(str(path))}: "):
            matio.csv_summary_text(str(path), report)
        if kind == "binary":
            assert path.read_bytes() == b"\xff\xfe\x00,"

    def test_header_and_rows(self, tmp_path):
        d = BipartiteDims(2, 2)
        report = suite_lemma_srank(d, 10, 3)
        path = tmp_path / "summary.csv"
        first = matio.csv_summary_text(str(path), report)
        matio.atomic_write_text(str(path), first)
        second = matio.csv_summary_text(str(path), report)
        assert second == first + matio.suite_csv_row(report) + "\n"
        lines = second.strip().split("\n")
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

    @pytest.mark.parametrize("kind", ["psd", "sep", "blockpos"])
    def test_float_limit_asymmetry_is_printed(self, tmp_path, capsys, kind):
        # Every entry 1e308 + 1e308j: the asymmetry figure is 8e308, past
        # the float range, and is printed rather than read as inf.
        path = write_matrix(tmp_path / "limit.json", 2, 2, np.full((4, 4), 1e308 + 1e308j))
        seed = ["--seed", "0"] if kind == "blockpos" else []
        assert main(["check", kind, path, *seed]) == 13
        assert capsys.readouterr().err == "error: matrix is not Hermitian (asymmetry 8.000e+308)\n"

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
        assert main(["check", "blockpos", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["seed"] == 123

    @pytest.mark.parametrize("seed", ["0", "-1", str(2**64)])
    @pytest.mark.parametrize("kind", ["psd", "ppt", "sep"])
    def test_seed_on_a_kind_that_draws_nothing_exits_13(self, tmp_path, capsys, kind, seed):
        path = write_matrix(tmp_path / "i.json", 2, 2, np.eye(4))
        assert main(["check", kind, path, "--seed", seed]) == 13
        assert capsys.readouterr() == ("", f"error: check {kind} takes no seed\n")

    def test_removed_effort_flag_is_a_usage_error(self, tmp_path, capsys):
        # The see-saw's effort is fixed, so a stale --restarts or --iters
        # exits 13 like any unknown flag and writes no verdict.
        path = write_matrix(tmp_path / "f.json", 2, 2, np.eye(4))
        assert main(["check", "blockpos", path, "--restarts", "2"]) == 13
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("env", [None, "41"])
    def test_seed_does_not_leak_between_calls(self, tmp_path, capsys, monkeypatch, env):
        if env is None:
            monkeypatch.delenv("CONEKIT_SEED", raising=False)
        else:
            monkeypatch.setenv("CONEKIT_SEED", env)
        path = write_matrix(tmp_path / "i.json", 2, 2, np.eye(4))
        args = ["check", "blockpos", path]
        assert main(args + ["--seed", "7"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == int(env or 0)

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_malformed_file_exit_11(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("nope")
        assert main(["check", "psd", str(path)]) == 11

    def test_binary_file_exit_11(self, tmp_path, capsys):
        # Undecodable bytes must not escape as a traceback, whose exit 1 reads as "out".
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xbe\x00\xff")
        assert main(["check", "psd", str(path)]) == 11
        assert capsys.readouterr().err.startswith(f"error: {path} is not valid JSON: ")

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


# Each construct kind and every flag it needs, in the order errors name them.
CONSTRUCT_FLAGS = {
    "collapse": ["--target"],
    "embed_k": ["--v", "--k"],
    "witness_break": ["--w"],
    "lift": ["--u", "--v", "--w"],
}


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

    @pytest.mark.parametrize("kind", ["collapse", "embed_k"])
    def test_family_validated_once(self, bell_vec_file, tmp_path, monkeypatch, kind):
        calls = []
        validate = kraus._validate

        def counting(family, tol):
            calls.append(len(family.ops))
            return validate(family, tol)

        monkeypatch.setattr(kraus, "_validate", counting)
        flags = ["--target", bell_vec_file] if kind == "collapse" else ["--v", bell_vec_file, "--k", "2"]
        assert main(["construct", kind, *flags, "--out", str(tmp_path / "c")]) == 0
        assert len(calls) == 1

    def test_invalid_family_refused_without_outputs(self, bell_vec_file, tmp_path, monkeypatch, capsys):
        import dataclasses

        from conekit.membership import Verdict

        validate = kraus._validate

        def failing(family, tol):
            report, ops, rows = validate(family, tol)
            report.certificate["violations"] = [{"invariant": "exact_normalization"}]
            return dataclasses.replace(report, verdict=Verdict.OUT), ops, rows

        monkeypatch.setattr(kraus, "_validate", failing)
        prefix = str(tmp_path / "col")
        assert main(["construct", "collapse", "--target", bell_vec_file, "--out", prefix]) == 13
        assert capsys.readouterr().err.startswith("error: family fails validation")
        assert not any(p.name.startswith("col_") for p in tmp_path.iterdir())

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

    @pytest.mark.parametrize("k", ["0", "-1", "3", "5"])
    def test_embed_k_outside_one_to_d_exits_13(self, bell_vec_file, tmp_path, capsys, k):
        prefix = str(tmp_path / "emb")
        assert main(
            ["construct", "embed_k", "--v", bell_vec_file, "--k", k, "--out", prefix]
        ) == 13
        assert capsys.readouterr().err == f"error: k must be an integer in [1, 2], got {k}\n"
        assert not any(p.name.startswith("emb_") for p in tmp_path.iterdir())

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
            ["check", "blockpos", prefix + "_conjugated.json", "--seed", "3"]
        ) == 1

    @pytest.mark.parametrize("with_z", [False, True])
    def test_witness_break_non_hermitian_refused(self, tmp_path, capsys, with_z):
        d = BipartiteDims(2, 2)
        w = swap_operator(d).astype(np.complex128)
        w[0, 1] += 0.5
        argv = ["construct", "witness_break", "--w", write_matrix(tmp_path / "w.json", 2, 2, w)]
        if with_z:
            singlet = np.linalg.eigh(swap_operator(d))[1][:, 0]
            argv += ["--z", write_matrix(tmp_path / "z.json", 2, 2, singlet)]
        assert main([*argv, "--out", str(tmp_path / "wb")]) == 13
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix is not Hermitian (asymmetry 7.071e-01)\n"
        assert not any(p.name.startswith("wb_") for p in tmp_path.iterdir())

    def test_missing_output_directory_exit_11(self, bell_vec_file, tmp_path, capsys):
        prefix = str(tmp_path / "nodir" / "col")
        assert main(["construct", "collapse", "--target", bell_vec_file, "--out", prefix]) == 11
        assert capsys.readouterr().err == (
            f"error: cannot write {prefix}_family.json: No such file or directory\n"
        )

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

    def test_lift_checks_unit_norms_at_tol(self, tmp_path, capsys):
        # u of norm 1 + 1e-6 passes the unit-norm check at --tol 1e-3, and the
        # lift then misses w by that norm error; at the default tol it is refused.
        u = write_matrix(tmp_path / "u.json", 2, 1, (1.0 + 1e-6) * basis_vec(2, 0))
        f0 = write_matrix(tmp_path / "f0.json", 2, 1, basis_vec(2, 0))
        bell = write_matrix(
            tmp_path / "bell.json", 2, 2, max_entangled_vector(BipartiteDims(2, 2))
        )
        prefix = str(tmp_path / "lift")
        argv = ["construct", "lift", "--u", u, "--v", f0, "--w", bell, "--out", prefix]
        assert main(argv + ["--tol", "1e-3"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fail"
        assert abs(report["mapping_residual"] - 1e-6) <= 1e-9
        with open(f"{prefix}_report.json") as handle:
            assert json.load(handle) == report
        assert os.path.exists(f"{prefix}_unitary.json")
        assert main(argv) == 13
        assert capsys.readouterr().err == "error: u must be a unit vector\n"

    def test_missing_required_flag(self, tmp_path):
        assert main(["construct", "collapse", "--out", str(tmp_path / "x")]) == 13

    @pytest.mark.parametrize(
        "kind, given",
        [
            ("collapse", []),
            ("embed_k", []),
            ("embed_k", ["--v"]),
            ("embed_k", ["--k"]),
            ("witness_break", []),
            ("witness_break", ["--z"]),
            ("lift", []),
            ("lift", ["--v"]),
            ("lift", ["--u", "--w"]),
        ],
    )
    def test_missing_flags_named_without_outputs(
        self, bell_vec_file, tmp_path, capsys, kind, given
    ):
        argv = ["construct", kind, "--out", str(tmp_path / "c")]
        for flag in given:
            argv += [flag, "2" if flag == "--k" else bell_vec_file]
        assert main(argv) == 13
        missing = [flag for flag in CONSTRUCT_FLAGS[kind] if flag not in given]
        assert capsys.readouterr().err == f"error: construct {kind} needs {', '.join(missing)}\n"
        assert not any(p.name.startswith("c_") for p in tmp_path.iterdir())

    def test_construct_kinds_match_the_table(self):
        assert list(cli._CONSTRUCTS) == list(CONSTRUCT_FLAGS)

    @pytest.mark.parametrize(
        "kind, flags, message",
        [
            ("embed_k", ["--v", "bell", "--u", "other", "--k", "2"],
             "u and v must carry the same bipartite dims"),
            ("witness_break", ["--w", "swap", "--z", "other"],
             "z must carry the same bipartite dims as w"),
        ],
    )
    def test_dims_mismatch_exit_12(self, bell_vec_file, tmp_path, capsys, kind, flags, message):
        files = {
            "bell": bell_vec_file,
            "swap": write_matrix(tmp_path / "swap.json", 2, 2, swap_operator(BipartiteDims(2, 2))),
            "other": write_matrix(tmp_path / "v23.json", 2, 3, np.ones(6) / np.sqrt(6)),
        }
        argv = ["construct", kind, *[files.get(f, f) for f in flags], "--out", str(tmp_path / "c")]
        assert main(argv) == 12
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(p.name.startswith("c_") for p in tmp_path.iterdir())


def cli_inputs(tmp_path):
    """Valid input files for every subcommand, written to tmp_path/inputs."""
    d = BipartiteDims(2, 2)
    where = tmp_path / "inputs"
    where.mkdir()
    return {
        "psd": write_matrix(where / "eye.json", 2, 2, np.eye(4)),
        "swap": write_matrix(where / "swap.json", 2, 2, swap_operator(d)),
        "bell": write_matrix(where / "bell.json", 2, 2, max_entangled_vector(d)),
        "e0": write_matrix(where / "e0.json", 2, 1, basis_vec(2, 0)),
    }


def cli_commands(files, out):
    """One argv per subcommand and kind, each valid but for what is appended."""
    return {
        **{f"check {kind}": ["check", kind, files["psd"]] for kind in ("psd", "ppt", "sep")},
        "check blockpos": ["check", "blockpos", files["swap"]],
        "rank sr": ["rank", "sr", files["bell"]],
        "rank osr": ["rank", "osr", files["swap"]],
        "construct collapse": ["construct", "collapse", "--target", files["bell"], "--out", out],
        "construct embed_k": [
            "construct", "embed_k", "--v", files["bell"], "--k", "2", "--out", out
        ],
        "construct witness_break": ["construct", "witness_break", "--w", files["swap"],
                                    "--out", out],
        "construct lift": ["construct", "lift", "--u", files["e0"], "--v", files["e0"],
                           "--w", files["bell"], "--out", out],
        "verify": ["verify", "srank", "--m", "2", "--n", "2", "--trials", "2", "--out", out],
    }


COMMANDS = list(cli_commands(defaultdict(str), ""))


class TestCliRefusals:
    """Refusals the library calls make exit 13 and leave no file behind."""

    @staticmethod
    def written(tmp_path):
        return sorted(p.name for p in tmp_path.iterdir() if p.name != "inputs")

    @pytest.mark.parametrize("tol", ["0", "1", "nan"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_tol_exits_13(self, tmp_path, capsys, command, tol):
        argv = cli_commands(cli_inputs(tmp_path), str(tmp_path / "c"))[command]
        assert main(argv + ["--tol", tol]) == 13
        assert "tol must lie in (0, 1)" in capsys.readouterr().err
        assert self.written(tmp_path) == []

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_bad_trials_exit_13(self, tmp_path, capsys, trials):
        out = str(tmp_path / "r.json")
        argv = ["verify", "srank", "--m", "2", "--n", "2", "--trials", trials, "--out", out]
        assert main(argv) == 13
        assert "trials must be an integer >= 1" in capsys.readouterr().err
        assert self.written(tmp_path) == []

    @pytest.mark.parametrize("option", ["k", "extras", "no extras"])
    def test_option_the_suite_does_not_take_exits_13(self, tmp_path, capsys, option):
        # srank takes neither --k nor --extra-inputs, even with no files.
        out = str(tmp_path / "r.json")
        argv = ["verify", "srank", "--m", "2", "--n", "2", "--trials", "1", "--out", out,
                "--csv", str(tmp_path / "s.csv")]
        if option == "k":
            argv += ["--k", "99"]
            message = "srank takes no k"
        else:
            argv += ["--extra-inputs"]
            if option == "extras":
                argv.append(write_matrix(tmp_path / "I.json", 2, 2, np.eye(4) / 4.0))
            message = "srank takes no extra inputs"
        assert main(argv) == 13
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert self.written(tmp_path) == (["I.json"] if option == "extras" else [])

    def test_product_only_dims_exit_13(self, tmp_path, capsys):
        # At min(m, n) = 1 there is no entangled target to lift to.
        out = str(tmp_path / "r.json")
        assert main(["verify", "strict-enlargement", "--m", "1", "--n", "3", "--out", out]) == 13
        assert "every vector is a product" in capsys.readouterr().err
        assert self.written(tmp_path) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "psd", "MISSING"],
            ["rank", "sr", "MISSING"],
            ["construct", "collapse", "--target", "MISSING", "--out", "OUT"],
            ["verify", "srank", "--m", "2", "--n", "2", "--out", "OUT",
             "--extra-inputs", "MISSING"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_file_error_wins_over_bad_tol(self, tmp_path, capsys, argv):
        # Files are read before the library call that refuses the tolerance.
        names = {"MISSING": str(tmp_path / "missing.json"), "OUT": str(tmp_path / "c")}
        assert main([names.get(a, a) for a in argv] + ["--tol", "0"]) == 11
        assert "cannot read" in capsys.readouterr().err
        assert self.written(tmp_path) == []


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

    def test_no_extra_inputs_keep_the_report(self, tmp_path):
        argv = ["verify", "ppt-stability", "--m", "2", "--n", "2", "--trials", "3", "--out"]
        reports = []
        for name, extras in [("a.json", []), ("b.json", ["--extra-inputs"])]:
            assert main([*argv, str(tmp_path / name), *extras]) == 0
            reports.append(json.loads((tmp_path / name).read_text()))
            reports[-1].pop("wall_time")
        assert reports[0] == reports[1]

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

    def test_missing_output_directory_exit_11(self, tmp_path, capsys):
        out = str(tmp_path / "nodir" / "r.json")
        code = main(["verify", "srank", "--m", "2", "--n", "2", "--trials", "2", "--out", out])
        assert code == 11
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"

    @pytest.mark.parametrize("kind", ["binary", "directory"])
    def test_unreadable_csv_exit_11(self, tmp_path, capsys, kind):
        csv = tmp_path / "summary.csv"
        if kind == "binary":
            csv.write_bytes(b"\xff\xfe")
        else:
            csv.mkdir()
        code = main(
            ["verify", "srank", "--m", "2", "--n", "2", "--trials", "2",
             "--out", str(tmp_path / "r.json"), "--csv", str(csv)]
        )
        assert code == 11
        assert capsys.readouterr().err.startswith(f"error: cannot read {csv}: ")
        assert not (tmp_path / "r.json").exists()

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
