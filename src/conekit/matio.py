"""JSON matrix files, report serialization, and CSV summaries.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly: parsing a canonically written file and writing it again is
byte-identical.  Keys are emitted sorted, and writes go through a temp file
plus rename so readers never observe partial output; the file gets the mode
that the umask gives a newly created file.  `save_json` is the one writer of
canonical JSON files and `_read_json` the one reader, so every file error
reads the same.

`canonical_dumps` walks a document once.  Enums are written as their value,
numpy scalars as the matching Python value, dict keys as strings, tuples as
lists, and a complex scalar as {"im": ..., "re": ...}; anything else (a set,
a Python complex), and two dict keys with the same string, raise
MatrixFileError.

Float arrays are written an array at a time: one finiteness check per array,
then each innermost row through a single "%.17g" template, which for every
finite double gives the same text as formatting its entries one by one.
Each distinct row is formatted once per document: a memo that lives for one
`canonical_dumps` call maps a row's float64 bytes to its text, so the zero
rows and repeated operators of a construction's files are formatted once.
The text cannot change, because "%.17g" depends only on the bits of the
double; the bytes keep +0.0 and -0.0 apart and fix the row width, and a
float32 or float16 row is keyed by its exact float64 cast.  A
complex array is written as {"im": ..., "re": ...} with real arrays for both
parts.  Integer and bool arrays, and 0-d arrays, are written as the nested
lists or scalars of `tolist()`.
"""

import enum
import itertools
import json
import math
import os
import struct
import tempfile

import numpy as np

from .bipartite import BipartiteDims
from .errors import ConekitError, DimError, MatrixFileError
from .kraus import KrausFamily


def _float_str(x: float) -> str:
    if not math.isfinite(x):
        raise MatrixFileError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit decimals."""
    pieces = []
    _emit(obj, pieces, {})
    return "".join(pieces)


def _emit(obj, pieces, rows):
    # `rows` is the document's memo from row bytes to row text.
    # A str or int enum takes the str or int branch, which writes its value.
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(repr(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(_float_str(float(obj)))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(obj):
            if i:
                pieces.append(", ")
            _emit(item, pieces, rows)
        pieces.append("]")
    elif isinstance(obj, dict):
        keyed = {str(key): value for key, value in obj.items()}
        if len(keyed) < len(obj):
            names = [str(key) for key in obj]
            duplicate = next(name for name in names if names.count(name) > 1)
            raise MatrixFileError(f"cannot serialize two keys named {duplicate!r}")
        pieces.append("{")
        for i, key in enumerate(sorted(keyed)):
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(key))
            pieces.append(": ")
            _emit(keyed[key], pieces, rows)
        pieces.append("}")
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "c":
            _emit({"re": obj.real, "im": obj.imag}, pieces, rows)
        elif obj.dtype.kind == "f" and obj.ndim:
            pieces.append(_float_array_str(obj, rows))
        else:
            _emit(obj.tolist(), pieces, rows)
    elif isinstance(obj, np.complexfloating):
        _emit({"re": obj.real, "im": obj.imag}, pieces, rows)
    elif isinstance(obj, enum.Enum):
        _emit(obj.value, pieces, rows)
    else:
        raise MatrixFileError(f"cannot serialize object of type {type(obj).__name__}")


def _float_array_str(arr: np.ndarray, rows: dict) -> str:
    """Nested-list text of a float array of ndim >= 1, as `_emit` would write
    `arr.tolist()`, formatted one innermost row at a time.

    A row whose float64 bytes are already in `rows` reuses their text.
    """
    finite = np.isfinite(arr)
    if not finite.all():
        _float_str(float(arr[~finite][0]))  # raises, naming the first bad entry
    *lead, width = arr.shape
    flat = np.ascontiguousarray(arr.reshape(math.prod(lead), width), dtype=np.float64)
    data, step = flat.tobytes(), flat.itemsize * width
    template = "[" + ", ".join(["%.17g"] * width) + "]"
    unpack = struct.Struct(f"{width}d").unpack
    items = []
    for i in range(len(flat)):
        key = data[i * step:(i + 1) * step]
        text = rows.get(key)
        if text is None:
            text = rows[key] = template % unpack(key)
        items.append(text)
    # Close the leading axes from the innermost out.
    for axis in range(len(lead) - 1, -1, -1):
        size = lead[axis]
        items = [
            "[" + ", ".join(items[i * size:(i + 1) * size]) + "]"
            for i in range(math.prod(lead[:axis]))
        ]
    return items[0]


def _new_file_mode() -> int:
    # The mode open(path, "w") gives a new file.  Reading the umask means
    # setting it, briefly, for the whole process.
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def atomic_write_text(path: str, text: str):
    """Write via a sibling temp file and rename, so output is all-or-nothing.

    The temp file is private (0600) while it is written and gets the mode
    of a newly created file before the rename.  A write the filesystem
    refuses raises MatrixFileError.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.chmod(tmp, _new_file_mode())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise MatrixFileError(f"cannot write {path}: {exc.strerror or exc}") from exc


def save_json(path: str, obj):
    """Write `canonical_dumps(obj)` plus a newline through `atomic_write_text`."""
    atomic_write_text(path, canonical_dumps(obj) + "\n")


# JSON's names for the parsed leaves that are not numbers.
_JSON_NAMES = {str: "string", bool: "true/false", type(None): "null", dict: "object"}


def _non_numbers(part) -> set:
    # The types of the leaves of parsed JSON that are not numbers (int or
    # float; a bool is an int to Python but not a JSON number), walked one
    # nesting level at a time by map, so no Python code runs per entry.  A
    # level that mixes lists and scalars is ragged, which numpy refuses.
    level = [part]
    while True:
        kinds = set(map(type, level))
        if kinds != {list}:
            return kinds - {int, float, list}
        level = list(itertools.chain.from_iterable(level))


def _nested_to_array(re_part, im_part, what: str) -> np.ndarray:
    # float64 would cast "2.5", true and false to numbers, so every leaf is
    # checked to be a JSON number first.
    bad = _non_numbers(re_part) | _non_numbers(im_part)
    if bad:
        names = ", ".join(sorted(_JSON_NAMES.get(t, t.__name__) for t in bad))
        raise MatrixFileError(f"{what}: re/im entries must be numbers, found {names}")
    try:
        re_arr = np.asarray(re_part, dtype=np.float64)
        im_arr = np.asarray(im_part, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MatrixFileError(f"{what}: re/im are not numeric arrays") from exc
    except OverflowError as exc:  # an integer past the float range
        raise MatrixFileError(f"{what}: entries must be finite") from exc
    if re_arr.shape != im_arr.shape:
        raise MatrixFileError(f"{what}: re and im have different shapes")
    if not (np.all(np.isfinite(re_arr)) and np.all(np.isfinite(im_arr))):
        raise MatrixFileError(f"{what}: entries must be finite")
    return re_arr + 1j * im_arr


def _read_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MatrixFileError(f"{path} is not valid JSON: {exc}") from exc


def array_to_obj(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.complex128)
    return {"re": arr.real, "im": arr.imag}


def load_array(path: str):
    """Read a matrix/vector file; returns (dims, array, meta).

    The array is either a length-mn vector or an mn x mn matrix; anything
    else is malformed.
    """
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise MatrixFileError(f"{path}: top level must be an object")
    for key in ("m", "n", "re", "im"):
        if key not in obj:
            raise MatrixFileError(f"{path}: missing key {key!r}")
    try:
        dims = BipartiteDims(obj["m"], obj["n"])
    except DimError as exc:
        raise MatrixFileError(f"{path}: {exc}") from exc
    arr = _nested_to_array(obj["re"], obj["im"], path)
    total = dims.total
    if arr.shape not in ((total,), (total, total)):
        raise DimError(
            f"{path}: array shape {arr.shape} does not match m*n = {total}"
        )
    meta = obj.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise MatrixFileError(f"{path}: meta must be an object")
    return dims, arr, meta


def save_array(path: str, dims: BipartiteDims, arr, meta: dict | None = None):
    arr = np.asarray(arr, dtype=np.complex128)
    total = dims.total
    if arr.shape not in ((total,), (total, total)):
        raise DimError(f"array shape {arr.shape} does not match m*n = {total}")
    obj = {"m": dims.m, "n": dims.n}
    obj.update(array_to_obj(arr))
    if meta:
        obj["meta"] = {str(k): str(v) for k, v in meta.items()}
    save_json(path, obj)


def save_kraus_family(path: str, family: KrausFamily):
    obj = {
        "m": family.dims.m,
        "n": family.dims.n,
        "mode": family.mode.value,
        "osr_bound": family.osr_bound,
        "locality": family.locality.value,
        "seed": family.seed,
        "ops": [array_to_obj(a) for a in family.ops],
    }
    save_json(path, obj)


def load_kraus_family(path: str) -> KrausFamily:
    """Read a family file; a header that KrausFamily refuses is a bad header."""
    obj = _read_json(path)
    try:
        family = KrausFamily(
            BipartiteDims(obj["m"], obj["n"]),
            [],
            obj["mode"],
            osr_bound=obj.get("osr_bound"),
            seed=obj.get("seed"),
        )
        raw_ops = obj["ops"]
        if not isinstance(raw_ops, list):
            raise TypeError("ops must be a list")
    except (KeyError, TypeError, ConekitError) as exc:
        raise MatrixFileError(f"{path}: bad Kraus family header: {exc}") from exc
    total = family.dims.total
    for i, entry in enumerate(raw_ops):
        if not isinstance(entry, dict) or "re" not in entry or "im" not in entry:
            raise MatrixFileError(f"{path}: op {i} must have re/im arrays")
        arr = _nested_to_array(entry["re"], entry["im"], f"{path} op {i}")
        if arr.shape != (total, total):
            raise DimError(f"{path}: op {i} has shape {arr.shape}, expected {(total, total)}")
        family.ops.append(arr)
    # The tag is written for readers of the file; it follows from osr_bound,
    # so a file whose tag says otherwise is refused, and a missing tag is fine.
    implied = family.locality.value
    tag = obj.get("locality", implied)
    if tag != implied:
        raise MatrixFileError(
            f"{path}: bad Kraus family header: locality {tag!r} contradicts "
            f"osr_bound {family.osr_bound} (implies {implied!r})"
        )
    return family


def save_matrix_list(path: str, dims: BipartiteDims, mats: list):
    obj = {
        "m": dims.m,
        "n": dims.n,
        "mats": [array_to_obj(x) for x in mats],
    }
    save_json(path, obj)


SUITE_CSV_HEADER = "suite_id,m,n,trials,passes,max_residual,seed"


def suite_csv_row(report) -> str:
    return ",".join(
        [
            report.suite_id,
            str(report.dims.m),
            str(report.dims.n),
            str(report.trials),
            str(report.passes),
            _float_str(report.max_residual),
            str(report.seed),
        ]
    )


def csv_summary_text(path: str, report) -> str:
    """The text of `path` with one summary row appended, the header first
    when the file is missing or empty.  Reads `path` and writes nothing."""
    text = ""
    if os.path.exists(path):
        try:
            with open(path) as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    if not text:
        text = SUITE_CSV_HEADER + "\n"
    elif not text.endswith("\n"):
        text += "\n"
    return text + suite_csv_row(report) + "\n"
