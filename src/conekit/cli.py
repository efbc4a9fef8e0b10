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
    _conjugation_sum,
    _require_valid,
    collapse_construction,
    embed_schmidt_k,
    validate,
    witness_conjugation,
)
from .membership import (
    SeesawConfig,
    Verdict,
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


def _load_matrix(path: str):
    dims, arr, _ = matio.load_array(path)
    if arr.ndim != 2:
        raise DimError(f"{path}: expected a matrix, found a vector")
    return dims, arr


def _load_vector(path: str):
    dims, arr, _ = matio.load_array(path)
    if arr.ndim != 1:
        raise DimError(f"{path}: expected a vector, found a matrix")
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


def _cmd_check(args) -> int:
    dims, mat = _load_matrix(args.file)
    if args.kind == "psd":
        report = is_psd(mat, dims, args.tol)
        _print_json(_report_obj("psd", report))
    elif args.kind == "ppt":
        report = is_ppt(mat, dims, args.tol)
        _print_json(_report_obj("ppt", report))
    elif args.kind == "sep":
        report = is_separable_decidable(mat, dims, args.tol)
        _print_json(_report_obj("sep", report))
    else:
        seed = _resolve_seed(args.seed)
        cfg = SeesawConfig(
            seed=seed, restarts=args.restarts, iters_per_restart=args.iters, tol=args.tol
        )
        report = is_block_positive_heuristic(mat, dims, cfg)
        _print_json(_report_obj("blockpos", report, seed=seed))
    return _VERDICT_EXIT[report.verdict]


def _cmd_rank(args) -> int:
    if args.kind == "sr":
        dims, vec = _load_vector(args.file)
        print(sr(vec, dims, args.tol))
    else:
        dims, mat = _load_matrix(args.file)
        print(osr(mat, dims, args.tol))
    return 0


def _default_product_vector(dims: BipartiteDims) -> np.ndarray:
    return product_vec(basis_vec(dims.m, 0), basis_vec(dims.n, 0))


def _write_construct_outputs(prefix: str, report_obj: dict, files: dict) -> None:
    for suffix, writer in files.items():
        writer(f"{prefix}_{suffix}.json")
    matio.atomic_write_text(
        f"{prefix}_report.json", matio.canonical_dumps(report_obj) + "\n"
    )
    _print_json(report_obj)


def _cmd_construct(args) -> int:
    tol = args.tol
    if args.kind == "collapse":
        dims, target = _load_vector(args.target)
        family, inputs = collapse_construction(target, dims, tol)
        validation = validate(family, tol)
        _require_valid(validation)
        out = _conjugation_sum(family, inputs)
        out_residual = float(np.linalg.norm(out - np.outer(target, target.conj())))
        norm_residual = validation.certificate["normalization_residual"]
        ok = out_residual <= 1e-10
        report_obj = {
            "construct": "collapse",
            "ops": len(family.ops),
            "osr_bound": family.osr_bound,
            "normalization_residual": norm_residual,
            "output_residual": out_residual,
            "verdict": "pass" if ok else "fail",
        }
        _write_construct_outputs(
            args.out,
            report_obj,
            {
                "family": lambda p: matio.save_kraus_family(p, family),
                "inputs": lambda p: matio.save_matrix_list(p, dims, inputs),
            },
        )
        return EXIT_IN if ok else EXIT_OUT

    if args.kind == "embed_k":
        dims, target = _load_vector(args.v)
        if args.u is not None:
            u_dims, u_vec = _load_vector(args.u)
            if u_dims != dims:
                raise DimError("u and v must carry the same bipartite dims")
        else:
            u_vec = _default_product_vector(dims)
        family = embed_schmidt_k(target, u_vec, dims, args.k, tol)
        _require_valid(validate(family, tol))
        out = _conjugation_sum(family, [np.eye(dims.total)])
        out_residual = float(np.linalg.norm(out - np.outer(target, target.conj())))
        ok = out_residual <= 1e-10
        report_obj = {
            "construct": "embed_k",
            "k": args.k,
            "osr": family.osr_bound,
            "output_residual": out_residual,
            "verdict": "pass" if ok else "fail",
        }
        _write_construct_outputs(
            args.out, report_obj, {"family": lambda p: matio.save_kraus_family(p, family)}
        )
        return EXIT_IN if ok else EXIT_OUT

    if args.kind == "witness_break":
        dims, witness = _load_matrix(args.w)
        if args.z is not None:
            z_dims, z = _load_vector(args.z)
            if z_dims != dims:
                raise DimError("z must carry the same bipartite dims as w")
        else:
            _, evecs = np.linalg.eigh((witness + witness.conj().T) / 2.0)
            z = evecs[:, 0]
        u = basis_vec(dims.m, 0)
        v = basis_vec(dims.n, 0)
        conjugated, product = witness_conjugation(witness, z, u, v, dims, tol)
        expectation = float(np.real(np.vdot(product, conjugated @ product)))
        ok = expectation < -tol
        report_obj = {
            "construct": "witness_break",
            "product_expectation": expectation,
            "verdict": "pass" if ok else "fail",
        }
        _write_construct_outputs(
            args.out,
            report_obj,
            {
                "conjugated": lambda p: matio.save_array(p, dims, conjugated),
                "violating_vector": lambda p: matio.save_array(p, dims, product),
            },
        )
        return EXIT_IN if ok else EXIT_OUT

    # lift
    u_dims, u = _load_vector(args.u)
    v_dims, v = _load_vector(args.v)
    dims, w = _load_vector(args.w)
    if (u_dims.total, v_dims.total) != (dims.m, dims.n):
        raise DimError("u must live in C^m and v in C^n for the dims of w")
    unitary = lift_product_to_target(u, v, w, dims)
    mapping_residual = float(np.linalg.norm(unitary @ product_vec(u, v) - w))
    unitarity_residual = float(
        np.linalg.norm(unitary.conj().T @ unitary - np.eye(dims.total))
    )
    ok = mapping_residual <= 1e-12 and unitarity_residual <= 1e-12
    report_obj = {
        "construct": "lift",
        "mapping_residual": mapping_residual,
        "unitarity_residual": unitarity_residual,
        "verdict": "pass" if ok else "fail",
    }
    _write_construct_outputs(
        args.out, report_obj, {"unitary": lambda p: matio.save_array(p, dims, unitary)}
    )
    return EXIT_IN if ok else EXIT_OUT


def _cmd_verify(args) -> int:
    dims = BipartiteDims(args.m, args.n)
    seed = _resolve_seed(args.seed)
    extra_inputs = None
    if args.extra_inputs:
        extra_inputs = []
        for path in args.extra_inputs:
            in_dims, mat = _load_matrix(path)
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
    matio.atomic_write_text(
        out_path, matio.canonical_dumps(report.to_obj(include_wall_time=True)) + "\n"
    )
    if args.csv:
        matio.append_csv_summary(args.csv, report)
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
    check.add_argument("kind", choices=["psd", "ppt", "sep", "blockpos"])
    check.add_argument("file")
    check.add_argument("--tol", type=float, default=DEFAULT_TOL)
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--restarts", type=int, default=32)
    check.add_argument("--iters", type=int, default=200)
    check.set_defaults(func=_cmd_check)

    rank = sub.add_parser("rank", help="Schmidt rank / operator Schmidt rank")
    rank.add_argument("kind", choices=["sr", "osr"])
    rank.add_argument("file")
    rank.add_argument("--tol", type=float, default=DEFAULT_TOL)
    rank.set_defaults(func=_cmd_rank)

    construct = sub.add_parser("construct", help="run one of the explicit constructions")
    construct.add_argument("kind", choices=["collapse", "embed_k", "witness_break", "lift"])
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


def _check_required(args) -> None:
    tol = getattr(args, "tol", None)
    if tol is not None and not (0.0 < tol < 1.0):
        raise ConekitError(f"--tol must lie in (0, 1), got {tol}")
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 1:
        raise ConekitError(f"--trials must be >= 1, got {trials}")
    required = {
        "collapse": ["target"],
        "embed_k": ["v", "k"],
        "witness_break": ["w"],
        "lift": ["u", "v", "w"],
    }
    if getattr(args, "command", None) == "construct":
        missing = [
            f"--{name}" for name in required[args.kind] if getattr(args, name) is None
        ]
        if missing:
            raise ConekitError(
                f"construct {args.kind} needs {', '.join(missing)}"
            )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        _check_required(args)
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
