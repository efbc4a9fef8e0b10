"""JSON matrix files, report serialization, and CSV summaries.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly: parsing a canonically written file and writing it again is
byte-identical.  Keys are emitted sorted, and writes go through a temp file
plus rename so readers never observe partial output; the file gets the mode
that the umask gives a newly created file.

Float arrays are written an array at a time: one finiteness check per array,
then each innermost row through a single "%.17g" template, which for every
finite double gives the same text as formatting its entries one by one.  A
complex array is written as {"im": ..., "re": ...} with real arrays for both
parts.  Integer and bool arrays, and 0-d arrays, are written as the nested
lists or scalars of `tolist()`.
"""

import enum
import json
import math
import os
import tempfile

import numpy as np

from .bipartite import BipartiteDims
from .errors import DimError, MatrixFileError
from .kraus import KrausFamily, Locality, Mode


def _float_str(x: float) -> str:
    if not math.isfinite(x):
        raise MatrixFileError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def jsonable(obj):
    """Convert reports/certificates into data `canonical_dumps` can emit.

    Float arrays stay arrays and complex arrays become {"re": ..., "im": ...}
    float arrays; other arrays become nested lists; numpy scalars and enums
    collapse to Python values.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.complexfloating):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": jsonable(obj.real), "im": jsonable(obj.imag)}
        if obj.dtype.kind == "f" and obj.ndim:
            return obj
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(key): jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(item) for item in obj]
    raise MatrixFileError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit decimals."""
    pieces = []
    _emit(jsonable(obj), pieces)
    return "".join(pieces)


def _emit(obj, pieces):
    if obj is None:
        pieces.append("null")
    elif obj is True:
        pieces.append("true")
    elif obj is False:
        pieces.append("false")
    elif isinstance(obj, int):
        pieces.append(repr(obj))
    elif isinstance(obj, float):
        pieces.append(_float_str(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(obj):
            if i:
                pieces.append(", ")
            _emit(item, pieces)
        pieces.append("]")
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(key))
            pieces.append(": ")
            _emit(obj[key], pieces)
        pieces.append("}")
    elif isinstance(obj, np.ndarray):
        pieces.append(_float_array_str(obj))
    else:
        raise MatrixFileError(f"cannot serialize object of type {type(obj).__name__}")


def _float_array_str(arr: np.ndarray) -> str:
    """Nested-list text of a float array of ndim >= 1, as `_emit` would write
    `arr.tolist()`, formatted one innermost row at a time."""
    finite = np.isfinite(arr)
    if not finite.all():
        _float_str(float(arr[~finite][0]))  # raises, naming the first bad entry
    *lead, width = arr.shape
    rows = arr.reshape(math.prod(lead), width).tolist()
    template = "[" + ", ".join(["%.17g"] * width) + "]"
    items = [template % tuple(row) for row in rows]
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
    of a newly created file before the rename.
    """
    directory = os.path.dirname(os.path.abspath(path))
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


def _nested_to_array(re_part, im_part, what: str) -> np.ndarray:
    try:
        re_arr = np.asarray(re_part, dtype=np.float64)
        im_arr = np.asarray(im_part, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MatrixFileError(f"{what}: re/im are not numeric arrays") from exc
    if re_arr.shape != im_arr.shape:
        raise MatrixFileError(f"{what}: re and im have different shapes")
    if not (np.all(np.isfinite(re_arr)) and np.all(np.isfinite(im_arr))):
        raise MatrixFileError(f"{what}: entries must be finite")
    return re_arr + 1j * im_arr


def array_to_obj(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=np.complex128)
    return {"re": arr.real, "im": arr.imag}


def load_array(path: str):
    """Read a matrix/vector file; returns (dims, array, meta).

    The array is either a length-mn vector or an mn x mn matrix; anything
    else is malformed.
    """
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MatrixFileError(f"{path}: top level must be an object")
    for key in ("m", "n", "re", "im"):
        if key not in obj:
            raise MatrixFileError(f"{path}: missing key {key!r}")
    if not (type(obj["m"]) is int and type(obj["n"]) is int):
        raise MatrixFileError(f"{path}: m and n must be integers")
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
    atomic_write_text(path, canonical_dumps(obj) + "\n")


def save_kraus_family(path: str, family: KrausFamily):
    obj = {
        "m": family.dims.m,
        "n": family.dims.n,
        "mode": family.mode.value,
        "osr_bound": family.osr_bound,
        "locality": family.locality.value,
        "seed": family.seed,
        "ops": [array_to_obj(np.asarray(a, dtype=np.complex128)) for a in family.ops],
    }
    atomic_write_text(path, canonical_dumps(obj) + "\n")


def load_kraus_family(path: str) -> KrausFamily:
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path} is not valid JSON: {exc}") from exc
    try:
        m, n, bound, seed = obj["m"], obj["n"], obj.get("osr_bound"), obj.get("seed")
        if not (type(m) is int and type(n) is int):
            raise TypeError("m and n must be integers")
        if not all(x is None or type(x) is int for x in (bound, seed)):
            raise TypeError("osr_bound and seed must be integers or null")
        dims = BipartiteDims(m, n)
        mode = Mode(obj["mode"])
        locality = Locality(obj.get("locality", "global"))
        raw_ops = obj["ops"]
        if not isinstance(raw_ops, list):
            raise TypeError("ops must be a list")
    except (KeyError, TypeError, ValueError, DimError) as exc:
        raise MatrixFileError(f"{path}: bad Kraus family header: {exc}") from exc
    ops = []
    total = dims.total
    for i, entry in enumerate(raw_ops):
        if not isinstance(entry, dict) or "re" not in entry or "im" not in entry:
            raise MatrixFileError(f"{path}: op {i} must have re/im arrays")
        arr = _nested_to_array(entry["re"], entry["im"], f"{path} op {i}")
        if arr.shape != (total, total):
            raise DimError(f"{path}: op {i} has shape {arr.shape}, expected {(total, total)}")
        ops.append(arr)
    return KrausFamily(
        dims,
        ops,
        mode,
        osr_bound=bound,
        locality=locality,
        seed=seed,
    )


def save_matrix_list(path: str, dims: BipartiteDims, mats: list):
    obj = {
        "m": dims.m,
        "n": dims.n,
        "mats": [array_to_obj(np.asarray(x, dtype=np.complex128)) for x in mats],
    }
    atomic_write_text(path, canonical_dumps(obj) + "\n")


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


def append_csv_summary(path: str, report):
    """Append one summary row, writing the header when the file is new or empty.

    The whole file is rewritten through a temp file so a crash mid-append
    never leaves a torn row.
    """
    text = ""
    if os.path.exists(path):
        with open(path) as handle:
            text = handle.read()
    if not text:
        text = SUITE_CSV_HEADER + "\n"
    elif not text.endswith("\n"):
        text += "\n"
    atomic_write_text(path, text + suite_csv_row(report) + "\n")
