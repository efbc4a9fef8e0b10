"""Command-line surface: membership checks, rank queries, constructions, suites.

Exit codes: 0 = In, 1 = Out, 2 = Indeterminate for verdict commands (and
success/failure for construct/verify); 11 = malformed file, 12 = dimension
mismatch, 13 = any other toolkit error.  Every randomized command echoes the
seed it actually used; CONEKIT_SEED serves as the fallback when --seed is
not given.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import matio
from .bipartite import (
    DEFAULT_TOL,
    BipartiteDims,
    basis_vec,
    lift_product_to_target,
    osr,
    product_vec,
    sr,
)
from .errors import ConekitError, DimError, MatrixFileError
from .kraus import (
    _validated_image,
    apply,
    collapse_construction,
    embed_schmidt_k,
    witness_conjugation,
)
from .membership import (
    SeesawConfig,
    Verdict,
    hermitian_part,
    is_block_positive_heuristic,
    is_ppt,
    is_psd,
    is_separable_decidable,
)
from .suites import SUITE_IDS, run_suite

EXIT_IN = 0
EXIT_OUT = 1
EXIT_INDETERMINATE = 2
EXIT_BAD_FILE = 11
EXIT_BAD_DIMS = 12
EXIT_ERROR = 13

_VERDICT_EXIT = {
    Verdict.IN: EXIT_IN,
    Verdict.OUT: EXIT_OUT,
    Verdict.INDETERMINATE: EXIT_INDETERMINATE,
}


class _Parser(argparse.ArgumentParser):
    # Usage errors must not collide with the verdict exit codes 0/1/2.
    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("CONEKIT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConekitError(f"CONEKIT_SEED is not an integer: {env!r}") from exc
    return 0


def _load(path: str, ndim: int):
    """(dims, array) of a file that must hold a vector (ndim 1) or a matrix (2)."""
    dims, arr, _ = matio.load_array(path)
    if arr.ndim != ndim:
        want, found = ("vector", "matrix") if ndim == 1 else ("matrix", "vector")
        raise DimError(f"{path}: expected a {want}, found a {found}")
    return dims, arr


def _report_obj(kind: str, report, seed: int | None = None) -> dict:
    obj = {
        "kind": kind,
        "verdict": report.verdict.value,
        "min_eig": report.min_eig,
        "tol": report.tol,
        "certificate": report.certificate,
    }
    if seed is not None:
        obj["seed"] = seed
    return obj


def _print_json(obj):
    print(matio.canonical_dumps(obj))


_CHECKS = {"psd": is_psd, "ppt": is_ppt, "sep": is_separable_decidable}


def _cmd_check(args) -> int:
    if args.kind != "blockpos" and args.seed is not None:
        raise ConekitError(f"check {args.kind} takes no seed")
    dims, mat = _load(args.file, 2)
    seed = None
    if args.kind == "blockpos":
        seed = _resolve_seed(args.seed)
        cfg = SeesawConfig(seed=seed, tol=args.tol)
        report = is_block_positive_heuristic(mat, dims, cfg)
    else:
        report = _CHECKS[args.kind](mat, dims, args.tol)
    _print_json(_report_obj(args.kind, report, seed=seed))
    return _VERDICT_EXIT[report.verdict]


def _cmd_rank(args) -> int:
    rank, ndim = {"sr": (sr, 1), "osr": (osr, 2)}[args.kind]
    dims, arr = _load(args.file, ndim)
    print(rank(arr, dims, args.tol))
    return 0


# Each construction takes the parsed arguments and returns (ok, report
# fields, {file suffix: writer of that file}); _cmd_construct does the rest.


def _construct_collapse(args):
    dims, target = _load(args.target, 1)
    family, inputs = collapse_construction(target, dims, args.tol)
    out, validation = _validated_image(family, inputs, args.tol)
    out_residual = float(np.linalg.norm(out - np.outer(target, target.conj())))
    fields = {
        "ops": len(family.ops),
        "osr_bound": family.osr_bound,
        "normalization_residual": validation.certificate["normalization_residual"],
        "output_residual": out_residual,
    }
    outputs = {
        "family": lambda p: matio.save_kraus_family(p, family),
        "inputs": lambda p: matio.save_matrix_list(p, dims, inputs),
    }
    return out_residual <= 1e-10, fields, outputs


def _construct_embed_k(args):
    dims, target = _load(args.v, 1)
    if args.u is not None:
        u_dims, u_vec = _load(args.u, 1)
        if u_dims != dims:
            raise DimError("u and v must carry the same bipartite dims")
    else:
        u_vec = product_vec(basis_vec(dims.m, 0), basis_vec(dims.n, 0))
    family = embed_schmidt_k(target, u_vec, dims, args.k, args.tol)
    out = apply(family, [np.eye(dims.total)], args.tol)
    out_residual = float(np.linalg.norm(out - np.outer(target, target.conj())))
    fields = {"k": args.k, "osr": family.osr_bound, "output_residual": out_residual}
    outputs = {"family": lambda p: matio.save_kraus_family(p, family)}
    return out_residual <= 1e-10, fields, outputs


def _construct_witness_break(args):
    dims, witness = _load(args.w, 2)
    if args.z is not None:
        z_dims, z = _load(args.z, 1)
        if z_dims != dims:
            raise DimError("z must carry the same bipartite dims as w")
    else:
        _, evecs = np.linalg.eigh(hermitian_part(witness, dims, args.tol))
        z = evecs[:, 0]
    u = basis_vec(dims.m, 0)
    v = basis_vec(dims.n, 0)
    conjugated, product = witness_conjugation(witness, z, u, v, dims, args.tol)
    expectation = float(np.real(np.vdot(product, conjugated @ product)))
    outputs = {
        "conjugated": lambda p: matio.save_array(p, dims, conjugated),
        "violating_vector": lambda p: matio.save_array(p, dims, product),
    }
    return expectation < -args.tol, {"product_expectation": expectation}, outputs


def _construct_lift(args):
    u_dims, u = _load(args.u, 1)
    v_dims, v = _load(args.v, 1)
    dims, w = _load(args.w, 1)
    if (u_dims.total, v_dims.total) != (dims.m, dims.n):
        raise DimError("u must live in C^m and v in C^n for the dims of w")
    unitary = lift_product_to_target(u, v, w, dims, norm_tol=args.tol)
    mapping_residual = float(np.linalg.norm(unitary @ product_vec(u, v) - w))
    unitarity_residual = float(
        np.linalg.norm(unitary.conj().T @ unitary - np.eye(dims.total))
    )
    ok = mapping_residual <= 1e-12 and unitarity_residual <= 1e-12
    fields = {"mapping_residual": mapping_residual, "unitarity_residual": unitarity_residual}
    return ok, fields, {"unitary": lambda p: matio.save_array(p, dims, unitary)}


# kind -> (required flags, optional flags, construction); the parser's
# choices come from here, and a construct flag in neither tuple is refused.
_CONSTRUCTS = {
    "collapse": (("target",), (), _construct_collapse),
    "embed_k": (("v", "k"), ("u",), _construct_embed_k),
    "witness_break": (("w",), ("z",), _construct_witness_break),
    "lift": (("u", "v", "w"), (), _construct_lift),
}
_CONSTRUCT_FLAGS = dict.fromkeys(
    name for required, optional, _ in _CONSTRUCTS.values() for name in required + optional
)


def _cmd_construct(args) -> int:
    required, optional, construction = _CONSTRUCTS[args.kind]
    missing = [f"--{name}" for name in required if getattr(args, name) is None]
    if missing:
        raise ConekitError(f"construct {args.kind} needs {', '.join(missing)}")
    others = [
        f"--{name}"
        for name in _CONSTRUCT_FLAGS
        if name not in required + optional and getattr(args, name) is not None
    ]
    if others:
        raise ConekitError(f"construct {args.kind} takes no {', '.join(others)}")
    ok, fields, outputs = construction(args)
    report_obj = {"construct": args.kind, **fields, "verdict": "pass" if ok else "fail"}
    for suffix, write in outputs.items():
        write(f"{args.out}_{suffix}.json")
    matio.save_json(f"{args.out}_report.json", report_obj)
    _print_json(report_obj)
    return EXIT_IN if ok else EXIT_OUT


def _cmd_verify(args) -> int:
    dims = BipartiteDims(args.m, args.n)
    seed = _resolve_seed(args.seed)
    extra_inputs = None
    if args.extra_inputs is not None:
        extra_inputs = []
        for path in args.extra_inputs:
            in_dims, mat = _load(path, 2)
            if in_dims != dims:
                raise DimError(f"{path}: dims {in_dims} do not match --m/--n")
            extra_inputs.append(mat)
    report = run_suite(
        args.suite,
        dims,
        seed=seed,
        trials=args.trials,
        tol=args.tol,
        k=args.k,
        extra_inputs=extra_inputs,
    )
    out_path = args.out or f"{args.suite.replace('-', '_')}_report.json"
    # Read --csv first, so a file it cannot read leaves no report behind.
    csv_text = matio.csv_summary_text(args.csv, report) if args.csv else None
    matio.save_json(out_path, report.to_obj(include_wall_time=True))
    if csv_text is not None:
        matio.atomic_write_text(args.csv, csv_text)
    print(
        f"{report.suite_id} m={dims.m} n={dims.n} trials={report.trials} "
        f"passes={report.passes} failures={len(report.failures)} seed={seed} "
        f"report={out_path}"
    )
    return EXIT_IN if not report.failures else EXIT_OUT


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The conekit argument parser, built once per process.

    Parsing never changes the parser, so `main` reuses it across calls.
    """
    parser = _Parser(prog="conekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="cone membership test on a matrix file")
    check.add_argument("kind", choices=[*_CHECKS, "blockpos"])
    check.add_argument("file")
    check.add_argument("--tol", type=float, default=DEFAULT_TOL)
    check.add_argument("--seed", type=int, default=None)
    check.set_defaults(func=_cmd_check)

    rank = sub.add_parser("rank", help="Schmidt rank / operator Schmidt rank")
    rank.add_argument("kind", choices=["sr", "osr"])
    rank.add_argument("file")
    rank.add_argument("--tol", type=float, default=DEFAULT_TOL)
    rank.set_defaults(func=_cmd_rank)

    construct = sub.add_parser("construct", help="run one of the explicit constructions")
    construct.add_argument("kind", choices=list(_CONSTRUCTS))
    construct.add_argument("--target", help="target vector file (collapse)")
    construct.add_argument("--v", help="vector file (embed_k target, lift factor)")
    construct.add_argument("--u", help="vector file (embed_k product vector, lift factor)")
    construct.add_argument("--w", help="witness matrix file / lift target vector file")
    construct.add_argument("--z", help="negative-expectation vector file (witness_break)")
    construct.add_argument("--k", type=int, default=None)
    construct.add_argument("--tol", type=float, default=DEFAULT_TOL)
    construct.add_argument("--out", required=True, help="output file prefix")
    construct.set_defaults(func=_cmd_construct)

    verify = sub.add_parser("verify", help="run a theorem verification suite")
    verify.add_argument("suite", choices=list(SUITE_IDS))
    verify.add_argument("--m", type=int, required=True)
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--trials", type=int, default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    verify.add_argument("--k", type=int, default=None, help="OSR bound (probe-intermediate)")
    verify.add_argument("--out", default=None, help="report JSON path")
    verify.add_argument("--csv", default=None, help="append a summary row to this CSV")
    verify.add_argument(
        "--extra-inputs", nargs="*", default=None, help="extra PPT input matrix files"
    )
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.func(args)
    except MatrixFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except DimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DIMS
    except ConekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
