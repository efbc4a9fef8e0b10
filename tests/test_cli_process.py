"""CLI checks as rows of one table.

Each row runs `cli.main(argv)` in-process, with every warning an error;
the rows in PROCESS_ROWS also run as a real `python -W error -m conekit`
process.  An argv names its files as {name}: a name in INPUTS is written
to tmp_path before the run, and any other name is a path in tmp_path that
the command may write.  A row that exits 11 or above must print nothing
to stdout and write nothing; its `check(files, out, err)`, if any, must
hold as well.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import conekit
from conekit import (
    BipartiteDims, Verdict, matio, max_entangled_vector, osr, swap_operator, validate,
)
from conekit.cli import main

SRC = str(Path(conekit.__file__).resolve().parents[1])


def _matrix(m, n, make):
    return lambda path: matio.save_array(path, BipartiteDims(m, n), np.asarray(make(), complex))


def _gaussian(seed, shape):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit(v):
    return v / np.linalg.norm(v)


def _planted():
    # A GUE matrix H shifted so that <p|W|p> = -0.05 ||H||_2 at p = e0 (x) e0.
    g = _gaussian(0, (64, 64)) / 2
    h = g + g.conj().T
    return h - (h[0, 0].real + 0.05 * np.linalg.norm(h, 2)) * np.eye(64)


def _block_sparse():
    # Three products E_ii (x) C_i, C_i nonzero in row i only: OSR 3.
    rng = np.random.default_rng(0)
    x = np.zeros((64, 64), complex)
    for i in range(3):
        c = np.zeros((8, 8), complex)
        c[i] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x += np.kron(np.diag(np.eye(8)[i]), c)
    return x


PHI8 = max_entangled_vector(BipartiteDims(8, 8))

INPUTS = {
    "eye": _matrix(2, 2, lambda: np.eye(4)),
    # The partial transpose of the maximally entangled state.
    "pt_phi": _matrix(3, 3, lambda: swap_operator(BipartiteDims(3, 3)) / 3),
    "violator": _matrix(2, 2, lambda: np.diag([-1.0, 1.0, 1.0, 1.0])),
    "planted": _matrix(8, 8, _planted),
    "bell": _matrix(2, 2, lambda: max_entangled_vector(BipartiteDims(2, 2))),
    "e0f0": _matrix(2, 2, lambda: np.eye(4)[0]),
    "rand23": _matrix(2, 3, lambda: _unit(_gaussian(0, 6))),
    "rand88": _matrix(8, 8, lambda: _unit(_gaussian(0, 64))),
    "sr2_44": _matrix(4, 4, lambda: _unit((_gaussian(1, (4, 2)) @ _gaussian(2, (2, 4))).ravel())),
    "rand57": _matrix(5, 7, lambda: _unit(_gaussian(0, 35))),
    "rank2": _matrix(8, 8, lambda: 0.5 * np.outer(PHI8, PHI8) + 0.5 * np.diag(np.eye(64)[1])),
    "limit": _matrix(2, 2, lambda: np.full((4, 4), 1e308 + 1e308j)),
    "real_limit": _matrix(2, 2, lambda: np.full((4, 4), 1e308)),
    "huge": _matrix(2, 2, lambda: 1e160 * _gaussian(0, (4, 4))),
    # Vectors whose norms overflow: [1e308, 1e308] in C^1 (x) C^2, and four
    # entries of 1e308 in C^2 (x) C^2.
    "u_limit": _matrix(1, 2, lambda: np.full(2, 1e308)),
    "e0_12": _matrix(1, 2, lambda: np.eye(2)[0]),
    "vec_limit": _matrix(2, 2, lambda: np.full(4, 1e308)),
    "tiny": _matrix(2, 2, lambda: 1e-150 * _gaussian(0, (4, 4))),
    # A unit target whose first entry is subnormal.
    "subnormal_w": _matrix(2, 2, lambda: [1e-320, 1, 0, 0]),
    "osr3": _matrix(8, 8, _block_sparse),
    "strings": lambda path: Path(path).write_text(
        '{"m": 1, "n": 2, "re": [["1", 0], [0, "2.5"]], "im": [[0, 0], [0, 0]]}'
    ),
}


class _Files(dict):
    def __init__(self, where):
        super().__init__()
        self.where = where

    def __missing__(self, name):
        path = self[name] = str(self.where / name)
        if name in INPUTS:
            INPUTS[name](path)
        return path


def _report(trials=None, max_residual=np.inf):
    def check(files, out, err):
        r = json.loads(Path(files["r"]).read_text())
        ok = r["passes"] == r["trials"] == (trials or r["trials"])
        return ok and r["max_residual"] <= max_residual
    return check


def _family(locality, bound):
    # The header bound is the target's Schmidt rank, and the largest OSR of
    # the operators read back.
    def check(files, out, err):
        family = matio.load_kraus_family(files["out"] + "_family.json")
        top = max(osr(a, family.dims) for a in family.ops)
        got = (validate(family).verdict, family.locality.value, family.osr_bound, top)
        return got == (Verdict.IN, locality, bound, bound)
    return check


def _planted_certificate(files, out, err):
    # The certificate's expectation is that of its own product vector, and
    # no higher than the planted one's, W[0, 0].
    _, w, _ = matio.load_array(files["planted"])
    cert = json.loads(out)["certificate"]
    z, y = (np.array(cert[key]["re"]) + 1j * np.array(cert[key]["im"]) for key in ("z", "y"))
    p = np.kron(z, y)
    value = np.vdot(p, w @ p).real / np.vdot(p, p).real
    close = abs(value - cert["expectation"]) <= 1e-12 * np.linalg.norm(w, 2)
    return cert["kind"] == "product_pair" and cert["expectation"] <= w[0, 0].real and close


def _ppt_side(files, out, err):
    report = json.loads(out)
    return report["verdict"] == "out" and report["certificate"]["kind"] == "ppt_side"


def _no_inf(files, out, err):
    return "asymmetry inf" not in err


def _finite_lift(files, out, err):
    _, unitary, _ = matio.load_array(files["out"] + "_unitary.json")
    report = json.loads(out)
    residuals = (report["mapping_residual"], report["unitarity_residual"])
    return np.isfinite(unitary).all() and max(residuals) <= 1e-12


def _prints(text):
    return lambda files, out, err: out == text


SEED_2_64 = str(2**64)

# id: (argv, exit code, check or None)
ROWS = {
    "entry point": ("verify strict-enlargement --m 2 --n 2 --out {r}", 0, None),
    # 1x1 has no rank-deficient class; 8x8 lifts onto 64 targets a trial.
    **{
        f"cone-collapse {m}x{n}": (
            f"verify cone-collapse --m {m} --n {n} --trials 3 --seed 0 --out {{r}}", 0,
            _report(max_residual=1e-9),
        )
        for m, n in [(1, 1), (2, 3), (8, 8)]
    },
    # Left to numpy, 100000x100000 would die with exit 1, the code of failed
    # trials, which only a real process shows.
    **{
        f"envelope {m}x{n}": (
            f"verify srank --m {m} --n {n} --trials 1 --out {{r}} --csv {{csv}}", 13, None
        )
        for m, n in [(100000, 100000), (9, 8)]
    },
    "seed 2**64 verify": (
        f"verify srank --m 2 --n 2 --trials 1 --out {{r}} --csv {{csv}} --seed {SEED_2_64}",
        13, None,
    ),
    "seed 2**64 blockpos": (f"check blockpos {{eye}} --seed {SEED_2_64}", 13, None),
    "blockpos pt_phi 3x3": ("check blockpos {pt_phi} --seed 0", 2, None),
    "blockpos violator 2x2": ("check blockpos {violator} --seed 0", 1, None),
    "blockpos planted 8x8": ("check blockpos {planted} --seed 0", 1, _planted_certificate),
    **{
        f"collapse {target}": (f"construct collapse --target {{{target}}} --out {{out}}", 0, check)
        for target, check in [
            ("bell", _family("global", 2)),
            ("e0f0", _family("local", 1)),
            ("rand23", _family("global", 2)),
            ("rand88", _family("global", 8)),
            ("sr2_44", _family("global", 2)),
            # Side 35 is not a multiple of 4: the Kraus passes take rows.
            ("rand57", _family("global", 5)),
        ]
    },
    # Trial 31 draws a 3x3 factor with cond(S) 1.1e7, whose normalization
    # would miss the 1e-9 exact bound; the sampler draws it again.
    "ppt-stability 3x3 seed 745788484": (
        "verify ppt-stability --m 3 --n 3 --seed 745788484 --trials 32 --out {r}", 0,
        _report(trials=32),
    ),
    "rank sr rand57": ("rank sr {rand57}", 0, _prints("5\n")),
    **{
        f"ppt-collapse {m}x{n}": (
            f"verify ppt-collapse --m {m} --n {n} --trials {t} --seed 0 --out {{r}}", 0, _report(t)
        )
        for m, n, t in [(5, 7, 3), (8, 8, 2)]
    },
    # Beyond mn = 6 the range vector decides a rank-one input before any
    # partial transpose; a rank-two input still takes the PPT test.
    **{
        f"strict-enlargement {d}x{d}": (
            f"verify strict-enlargement --m {d} --n {d} --seed 0 --out {{r}}", 0, _report()
        )
        for d in (3, 8)
    },
    "sep rank two 8x8": ("check sep {rank2}", 1, _ppt_side),
    # Norms past the float range, or below 1e-150, are answered or refused,
    # never with an asymmetry figure that overflowed.
    "psd limit": ("check psd {limit}", 13, _no_inf),
    "sep limit": ("check sep {limit}", 13, _no_inf),
    "blockpos limit": ("check blockpos {limit} --seed 0", 13, _no_inf),
    "psd real limit": ("check psd {real_limit}", 13, _no_inf),
    "psd 1e160": ("check psd {huge}", 13, _no_inf),
    "psd 1e-150": ("check psd {tiny}", 13, _no_inf),
    # A unit-norm check whose norm overflows refuses without numpy's
    # overflow warning, which would be an error here.
    "lift limit": (
        "construct lift --u {u_limit} --v {e0_12} --w {bell} --out {out}", 13,
        lambda files, out, err: "u must be a unit vector" in err,
    ),
    "lift target limit": (
        "construct lift --u {e0_12} --v {e0_12} --w {vec_limit} --out {out}", 13,
        lambda files, out, err: "w must be a unit vector" in err,
    ),
    # The phase of a subnormal first entry is taken without overflow.
    "lift subnormal": (
        "construct lift --u {e0_12} --v {e0_12} --w {subnormal_w} --out {out}", 0,
        _finite_lift,
    ),
    "collapse limit": (
        "construct collapse --target {vec_limit} --out {out}", 13,
        lambda files, out, err: "v must be a unit vector" in err,
    ),
    "embed_k limit": (
        "construct embed_k --v {vec_limit} --k 2 --out {out}", 13,
        lambda files, out, err: "v must be a unit vector" in err,
    ),
    # A flag its kind does not take is refused before any file is read:
    # {absent} is never written, and reading it would exit 11.
    **{
        f"{kind} takes no {message}": (
            f"construct {kind} {args} {flags} --out {{out}}", 13,
            lambda files, out, err, want=f"construct {kind} takes no {message}": want in err,
        )
        for kind, args, flags, message in [
            ("collapse", "--target {absent}", "--k 99", "--k"),
            ("collapse", "--target {absent}", "--z {bell} --w {eye}", "--w, --z"),
            ("embed_k", "--v {absent} --k 2", "--z {bell}", "--z"),
            ("witness_break", "--w {absent}", "--u {bell}", "--u"),
            ("lift", "--u {absent} --v {absent} --w {absent}", "--k 1", "--k"),
        ]
    },
    # An optional flag is still taken.
    "embed_k --u": ("construct embed_k --v {bell} --k 2 --u {e0f0} --out {out}", 0, None),
    "rank osr block-sparse 8x8": ("rank osr {osr3}", 0, _prints("3\n")),
    # A float cast would read "1" and "2.5" as numbers.
    "psd string entries": (
        "check psd {strings}", 11, lambda files, out, err: "re/im entries must be numbers" in err
    ),
}

# One row for each exit code 0, 1, 2, 11 and 13, the envelope's edge and a
# construct flag refused before any file is read.
PROCESS_ROWS = [
    "entry point", "blockpos violator 2x2", "blockpos pt_phi 3x3", "psd string entries",
    "seed 2**64 blockpos", "envelope 100000x100000", "lift subnormal",
    "collapse takes no --k",
]


def _argv(row, tmp_path):
    files = _Files(tmp_path)
    return [word.format_map(files) for word in ROWS[row][0].split()], files


def _check(row, tmp_path, files, code, out, err):
    _, want, check = ROWS[row]
    assert code == want, err
    if want >= 11:
        assert out == ""
        assert [p.name for p in tmp_path.iterdir() if p.name not in INPUTS] == []
    assert check is None or check(files, out, err)


@pytest.mark.parametrize("row", list(ROWS))
def test_in_process(row, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CONEKIT_SEED", raising=False)
    argv, files = _argv(row, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    _check(row, tmp_path, files, code, *capsys.readouterr())


@pytest.mark.parametrize("row", PROCESS_ROWS)
def test_real_process(row, tmp_path):
    argv, files = _argv(row, tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "CONEKIT_SEED"}
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "conekit", *argv], capture_output=True, text=True,
        env=env,
        cwd=tmp_path,
    )
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr, proc.stderr
    _check(row, tmp_path, files, proc.returncode, proc.stdout, proc.stderr)
