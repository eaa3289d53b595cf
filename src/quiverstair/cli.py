"""Command-line front end.

Subcommands: ``canon`` (chain canonical form), ``regularize`` (cycle
regularizing decomposition), ``gen`` (write a planted instance plus ground
truth), ``verify`` (decompose and compare against ground truth).  Each
report is one dict, a header plus the library's report, written as JSON or
rendered as text.  Exit codes: 0 success, 1 verification mismatch, 2
input/validation error, 3 numeric/internal error.  The default tolerances of
``DEFAULT_TOL`` can be overridden by the environment variables
``QUIVERSTAIR_TOL_ABS`` / ``QUIVERSTAIR_TOL_REL`` (lowest precedence) or the
``--tol-abs`` / ``--tol-rel`` flags; a value that is not a finite
nonnegative number exits with code 2.  Every report echoes the values used.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .chain import canon_chain
from .cycle import regularize
from .errors import InconsistencyError, NumericError, ValidationError
from .files import (
    FORMAT_VERSION,
    load_plant_spec,
    load_representation,
    plant_spec_from_dict,
    save_plant_spec,
    save_representation,
)
from .linalg import DEFAULT_TOL, TolerancePolicy
from .oracle import REPORT_VERSION, _check_truth, plant, report, verify
from .quiver import CHAIN, CYCLE

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3

ENV_TOL_ABS = "QUIVERSTAIR_TOL_ABS"
ENV_TOL_REL = "QUIVERSTAIR_TOL_REL"


def _env_float(name: str, default: float) -> float:
    text = os.environ.get(name)
    if not text:
        return default
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{name}={text!r} is not a number") from None


def _tolerance(args) -> TolerancePolicy:
    abs_floor = _env_float(ENV_TOL_ABS, DEFAULT_TOL.abs_floor)
    rel_factor = _env_float(ENV_TOL_REL, DEFAULT_TOL.rel_factor)
    if args.tol_abs is not None:
        abs_floor = args.tol_abs
    if args.tol_rel is not None:
        rel_factor = args.tol_rel
    return TolerancePolicy(abs_floor=abs_floor, rel_factor=rel_factor)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--tol-abs", type=float, default=None, help="absolute rank threshold floor")
    p.add_argument("--tol-rel", type=float, default=None, help="relative rank threshold factor")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="as_json", action="store_true", help="machine-readable output")
    fmt.add_argument("--text", dest="as_json", action="store_false", help="human-readable output")
    p.set_defaults(as_json=False)
    p.add_argument("--output", default=None, help="write the report here instead of stdout")


def _header(command: str, tol: TolerancePolicy) -> dict:
    tolerance = {"abs_floor": tol.abs_floor, "rel_factor": tol.rel_factor}
    return {"report_version": REPORT_VERSION, "command": command, "tolerance": tolerance}


def _emit(args, payload):
    if args.as_json:
        out = json.dumps(payload, indent=1, allow_nan=False) + "\n"
    else:
        out = "\n".join(_render(payload)) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            fp.write(out)
    else:
        sys.stdout.write(out)


def _fmt(x) -> str:
    # every number a report prints is a nonnegative magnitude, so a null is an overflow to inf
    return "inf" if x is None else f"{x:.3e}"


def _render(payload: dict) -> list[str]:
    """The text report: the lines of ``payload``, the dict that ``--json`` writes."""
    if payload["command"] == "verify":
        checked = payload["report"]
        return [f"verification {'PASS' if checked['passed'] else 'FAIL'}"] + [
            f"  {'pass' if c['passed'] else 'FAIL'} {c['name']}: measured {_fmt(c['measured'])}"
            f" threshold {_fmt(c['threshold'])}"
            for c in checked["checks"]
        ]
    where = f"(t={payload['t']}, orientations {payload['orientations']})"
    dims_ok = f"dimension check: {'ok' if payload['dimension_check'] else 'FAILED'}"
    rows = payload["labels"]
    if payload["command"] == "canon":
        tol = payload["tolerance"]
        return [
            f"chain canonical form {where}",
            *(f"  L({row['low']},{row['high']}) x {row['count']}" for row in rows),
            dims_ok,
            f"residual: {_fmt(payload['residual'])}",
            f"threshold: {_fmt(payload['threshold'])}"
            f" (abs {tol['abs_floor']:g}, rel {tol['rel_factor']:g})",
        ]
    lines = [f"regularizing decomposition {where}"] + ([] if rows else ["  no singular summands"])
    lines += [
        f"  G({row['low']},{row['high']}) x {row['count']} dims={tuple(row['dims'])}"
        f" passes={row['pass_counts']}"
        for row in rows
    ]
    lines.append(f"regular dimension: {payload['regular_dimension']}")
    eigs = np.sort_complex([complex(re, im) for re, im in payload["monodromy_eigenvalues"]])
    if eigs.size:
        shown = ", ".join(f"{z.real:.12g}{z.imag:+.12g}j" for z in eigs)
        lines.append(f"monodromy eigenvalues: {shown}")
    residual = f"residual: {_fmt(payload['residual'])} (threshold {_fmt(payload['threshold'])})"
    return lines + [dims_ok, residual]


def _solve(rep, tol: TolerancePolicy, as_chain: bool):
    """A chain's ``(canonical form, trace)``, or a cycle's ``(decomposition, None)``."""
    return canon_chain(rep, tol) if as_chain else (regularize(rep, tol), None)


def _cmd_decompose(args) -> int:
    tol = _tolerance(args)
    rep = load_representation(args.input)
    result, trace = _solve(rep, tol, args.command == "canon")
    payload = {**_header(args.command, tol), **report(rep, result, trace=trace)}
    _emit(args, payload)
    return EXIT_OK if payload["dimension_check"] else EXIT_NUMERIC


def _parse_labels(text: str):
    """``KIND:low:high[:count]`` labels as the ``[KIND, low, high, count]`` rows of a spec file."""
    out = []
    for piece in text.split(",") if text else ():
        fields = piece.strip().split(":")
        if len(fields) not in (3, 4):
            raise ValidationError(f"label {piece!r}: expected KIND:low:high[:count]")
        try:
            lo, hi = int(fields[1]), int(fields[2])
            count = int(fields[3]) if len(fields) == 4 else 1
        except ValueError:
            raise ValidationError(f"label {piece!r}: low, high, count must be integers") from None
        out.append([fields[0], lo, hi, count])
    return out


def _parse_eigs(text: str):
    out = []
    for piece in text.split(",") if text else ():
        p = piece.strip()
        try:  # '1+1i' is complex('1+1j'); 'inf' keeps its own 'i'
            out.append(complex(p[:-1] + "j" if p.endswith("i") else p))
        except ValueError:
            raise ValidationError(f"regular eigenvalue {piece!r} is not a number") from None
    return tuple(out)


# the plant-spec fields a spec file fixes, each set by the flag of its name; only --seed
# may override a spec file
_SPEC_FIELDS = ("kind", "t", "orientations", "labels", "regular_eigs", "scramble")


def _cmd_gen(args) -> int:
    if args.spec:
        given = [f"--{f.replace('_', '-')}" for f in _SPEC_FIELDS if getattr(args, f) is not None]
        if given:
            raise ValidationError(f"{', '.join(given)} cannot be combined with --spec")
        spec = load_plant_spec(args.spec)
    else:
        if not (args.kind and args.t is not None and args.orientations is not None):
            raise ValidationError("gen needs --spec or all of --kind/--t/--orientations")
        # the flags as a spec file holds them; one left out takes PlantSpec's default
        args.labels = _parse_labels(args.labels)
        args.regular_eigs = [[z.real, z.imag] for z in _parse_eigs(args.regular_eigs)]
        fields = {f: getattr(args, f) for f in _SPEC_FIELDS if getattr(args, f) is not None}
        spec = plant_spec_from_dict({"version": FORMAT_VERSION, **fields})
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    rep, truth = plant(spec)
    save_representation(args.output_path, rep)
    truth_path = args.truth or args.output_path + ".truth.json"
    save_plant_spec(truth_path, truth)
    sys.stdout.write(f"wrote {args.output_path} and {truth_path}\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    tol = _tolerance(args)
    rep = load_representation(args.input)
    truth = load_plant_spec(args.truth)
    _check_truth(rep, truth)  # before the solve, which a truth of another shape would waste
    result, trace = _solve(rep, tol, rep.shape.kind == CHAIN)
    checked = verify(rep, result, truth, trace=trace)
    _emit(args, {**_header("verify", tol), "report": checked.to_dict()})
    return EXIT_OK if checked.passed else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverstair",
        description="Unitary staircase decompositions of chain and cycle quiver representations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, what in (("canon", "canonical form"), ("regularize", "regularizing decomposition")):
        kind = "chain" if name == "canon" else "cycle"
        p = sub.add_parser(name, help=f"{what} of a {kind} representation")
        p.add_argument("input", help="representation file (JSON)")
        _add_common(p)
        p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("gen", help="generate a planted instance plus ground truth")
    p.add_argument("output_path", help="where to write the representation file")
    p.add_argument("--spec", default=None, help="plant-spec JSON file (only --seed may join it)")
    p.add_argument("--kind", choices=(CHAIN, CYCLE), default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--orientations", default=None, help="string of '>'/'<' flags")
    p.add_argument("--labels", help="e.g. 'G:2:5,G:1:1:2' or 'L:1:3'")
    p.add_argument(
        "--regular-eigs",
        help="e.g. '2,-3,1+1i'; write --regular-eigs=-2,3 when the list starts with '-'",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scramble", choices=("unitary", "invertible"))
    p.add_argument("--truth", default=None, help="ground-truth path (default: OUTPUT.truth.json)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="decompose and compare against ground truth")
    p.add_argument("input", help="representation file (JSON)")
    p.add_argument("truth", help="ground-truth file (JSON)")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except (NumericError, InconsistencyError) as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
