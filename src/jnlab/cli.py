"""Command-line interface.

Exit codes: 0 all declared properties hold, 2 a property was violated,
3 configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .lattice import Ball, Cube, GridFunction, Window, annulus, whole_number
from .polyproj import moment_projection
from .spaces import NormParams, SearchConfig, jn_con_norm, rm_con_norm
from .czkernel import (
    apply_cz,
    apply_modified,
    apply_truncated,
    kernel_by_name,
    kernel_transpose,
)
from .hardy import (
    CertificationError,
    MoleculeRecord,
    decompose_molecule,
    make_atom,
    validate_atom,
    validate_molecule,
)
from .lab import ConfigError, ExperimentConfig, _central_correction, default_config, run_experiment, write_csv

EXIT_OK = 0
EXIT_PROPERTY = 2
EXIT_CONFIG = 3


def _parse_region(text: str):
    kind, *parts = text.split(":")
    if kind not in ("cube", "ball", "annulus"):
        raise ConfigError(f"unknown region kind {kind!r} (cube|ball|annulus)")
    try:
        center = tuple(float(v) for v in parts[0].split(","))
        if kind == "annulus":
            return annulus(center, float(parts[1]), int(parts[2]))
        return (Cube if kind == "cube" else Ball)(center, float(parts[1]))
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"bad region spec {text!r}: {exc}") from exc


def _parse_cube(text: str) -> Cube:
    region = _parse_region(text)
    if not isinstance(region, Cube):
        raise ConfigError(f"this command takes a cube region (cube:C:SIDE), got {text!r}")
    return region


def cmd_norm(args) -> int:
    f = GridFunction.load(args.function)
    params = NormParams(args.p, args.q, args.s, args.alpha)
    search = SearchConfig(policy=args.policy)
    if args.kind == "jn":
        report = jn_con_norm(f, params, search)
    else:
        report = rm_con_norm(f, params.p, params.q, params.alpha, search)
    print(json.dumps(report.csv_row()))
    if args.out:
        write_csv(Path(args.out) / f"{report.name}.csv", [report.csv_row()])
    return EXIT_OK


def cmd_project(args) -> int:
    f = GridFunction.load(args.function)
    P = moment_projection(f, _parse_region(args.region), args.s)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        P.save(args.out)
    print(json.dumps(P.to_dict()))
    return EXIT_OK


def cmd_apply_op(args) -> int:
    f = GridFunction.load(args.function)
    kernel_params = json.loads(args.kernel_params)
    if not isinstance(kernel_params, dict):
        raise ConfigError(f"kernel parameters must be a JSON object, got {args.kernel_params!r}")
    kernel = kernel_by_name(args.kernel, **kernel_params)
    if args.mode == "truncated":
        eta = f.window.h if args.eta is None else args.eta
        result = apply_truncated(kernel, f, eta)
        report = {"mode": "truncated", "eta": eta}
    else:
        if args.mode == "cz":
            res = apply_cz(kernel, f)
        else:
            res = apply_modified(kernel_transpose(kernel), _central_correction(f.window, args.s), f)
        report = {"mode": args.mode, "etas": res.etas, "converged": res.converged,
                  "max_increments": res.max_increments, "points": res.to_json()}
        result = res.result if args.mode == "cz" else res.canonical
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        result.save(outdir / "result.json")
        (outdir / "report.json").write_text(json.dumps(report, default=repr))
    print(json.dumps({k: v for k, v in report.items() if k != "points"}, default=repr))
    return EXIT_OK


def cmd_atom(args) -> int:
    params = NormParams(args.p, args.q, args.s, args.alpha)
    if args.action == "make":
        window = Window(1, (args.lower,), (args.upper,), (args.cells,))
        span = args.upper - args.lower
        cube = Cube(((args.lower + args.upper) / 2.0,), span / 4.0)
        record = make_atom(args.seed, cube, params, window)
        if args.out:
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            record.values.save(Path(args.out))
        print(json.dumps({"norm_ratio": record.certification.norm_ratio,
                          "passed": record.certification.passed}))
        return EXIT_OK
    if args.function is None or args.region is None:
        raise ValueError(f"atom check needs {'--region' if args.function else '--function'}")
    f = GridFunction.load(args.function)
    cube = _parse_cube(args.region)
    cert = validate_atom(f, cube, params)
    print(json.dumps({"passed": cert.passed, "norm_ratio": cert.norm_ratio,
                      "failures": cert.failures}))
    return EXIT_OK if cert.passed else EXIT_PROPERTY


def cmd_molecule(args) -> int:
    params = NormParams(args.p, args.q, args.s, args.alpha)
    f = GridFunction.load(args.function)
    cube = _parse_cube(args.region)
    j_max = whole_number(args.j_max, "j_max")
    if args.action == "check":
        cert = validate_molecule(f, cube, params, args.epsilon, j_max)
        print(json.dumps({"passed": cert.passed, "constant_needed": cert.constant_needed,
                          "failures": cert.failures}))
        return EXIT_OK if cert.passed else EXIT_PROPERTY
    # decompose_molecule certifies the molecule before it decomposes it
    report = decompose_molecule(MoleculeRecord(cube, params, args.epsilon, f), j_max)
    payload = report.to_json()
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "decomposition.json").write_text(json.dumps(payload, default=repr))
        report.tail_term.save(outdir / "tail_term.json")
    print(json.dumps({"atoms": len(report.atoms), "max_residual": max(report.residuals),
                      "coef_p_sum": report.coef_p_sum_core}))
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(args.config) if args.config else default_config(args.name)
    config.check()  # the flags below write into the config's objects
    if args.seed is not None:
        config.family["seed"] = args.seed
    if args.cells is not None:
        config.window["cells"] = [args.cells] * len(config.window["cells"])
    if args.padding is not None:
        config.padding = args.padding
    for key, flag in (("residual", args.tol_residual), ("pairing_mismatch", args.tol_pairing),
                      ("refine_factor", args.tol_refine)):
        if flag is not None:
            config.tolerances[key] = flag
    result = run_experiment(args.name, config)
    out = Path(args.out) if args.out else Path("results")
    csv_path, json_path = result.write(out)
    print(json.dumps({"experiment": result.name, "passed": result.passed,
                      "violations": result.violations, "csv": str(csv_path),
                      "json": str(json_path), "summary": result.summary}, default=repr))
    return EXIT_OK if result.passed else EXIT_PROPERTY


class _Parser(argparse.ArgumentParser):
    """Usage errors (a bad value, a missing option, an unknown command) exit
    EXIT_CONFIG, not argparse's 2, which here means a violated property."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jnlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--p", default="2")
        p.add_argument("--q", default="2")
        p.add_argument("--s", type=int, default=0)
        p.add_argument("--alpha", type=float, default=0.0)

    p_norm = sub.add_parser("norm", help="cube norm of a grid-function file")
    p_norm.add_argument("--kind", choices=["jn", "rm"], default="jn")
    p_norm.add_argument("--function", required=True)
    p_norm.add_argument("--policy", choices=["restrict", "zero-extend"], default="restrict")
    p_norm.add_argument("--out")
    add_params(p_norm)
    p_norm.set_defaults(func=cmd_norm)

    p_proj = sub.add_parser("project", help="moment projection over a region")
    p_proj.add_argument("--function", required=True)
    p_proj.add_argument("--region", required=True, help="cube:C:SIDE | ball:C:R | annulus:C:R:J")
    p_proj.add_argument("--s", type=int, default=0)
    p_proj.add_argument("--out")
    p_proj.set_defaults(func=cmd_project)

    p_op = sub.add_parser("apply-op", help="apply a singular integral operator")
    p_op.add_argument("--kernel", required=True)
    p_op.add_argument("--kernel-params", default="{}")
    p_op.add_argument("--function", required=True)
    p_op.add_argument("--mode", choices=["truncated", "cz", "modified"], default="cz")
    p_op.add_argument("--eta", type=float)
    p_op.add_argument("--s", type=int, default=0)
    p_op.add_argument("--out")
    p_op.set_defaults(func=cmd_apply_op)

    p_atom = sub.add_parser("atom", help="make or check atoms")
    p_atom.add_argument("action", choices=["make", "check"])
    p_atom.add_argument("--function")
    p_atom.add_argument("--region")
    p_atom.add_argument("--seed", type=int, default=0)
    p_atom.add_argument("--lower", type=float, default=-1.0)
    p_atom.add_argument("--upper", type=float, default=1.0)
    p_atom.add_argument("--cells", type=int, default=256)
    p_atom.add_argument("--out")
    add_params(p_atom)
    p_atom.set_defaults(func=cmd_atom)

    p_mol = sub.add_parser("molecule", help="check or decompose molecules")
    p_mol.add_argument("action", choices=["check", "decompose"])
    p_mol.add_argument("--function", required=True)
    p_mol.add_argument("--region", required=True)
    p_mol.add_argument("--epsilon", type=float, required=True)
    p_mol.add_argument("--j-max", type=int, default=3)
    p_mol.add_argument("--out")
    add_params(p_mol)
    p_mol.set_defaults(func=cmd_molecule)

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    p_exp.add_argument("name")
    p_exp.add_argument("--config")
    p_exp.add_argument("--out")
    p_exp.add_argument("--seed", type=int)
    p_exp.add_argument("--cells", type=int)
    p_exp.add_argument("--padding", type=float)
    p_exp.add_argument("--tol-residual", type=float)
    p_exp.add_argument("--tol-pairing", type=float)
    p_exp.add_argument("--tol-refine", type=float)
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except (ValueError, KeyError, OSError) as exc:
        # every library error type (lattice, projection, parameter, config,
        # malformed JSON) is a ValueError subclass
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
