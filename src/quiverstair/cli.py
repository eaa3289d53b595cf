"""Command-line front end.

Subcommands: ``canon`` (chain canonical form), ``regularize`` (cycle
regularizing decomposition), ``gen`` (write a planted instance plus ground
truth), ``verify`` (decompose and compare against ground truth).

Exit codes: 0 success, 1 verification mismatch, 2 input/validation error,
3 numeric/internal error.  The default tolerances of ``DEFAULT_TOL`` can be
overridden by the environment variables ``QUIVERSTAIR_TOL_ABS`` /
``QUIVERSTAIR_TOL_REL`` (lowest precedence) or the ``--tol-abs`` /
``--tol-rel`` flags; a value that is not a finite nonnegative number exits
with code 2.  Every report echoes the values used; ``canon`` and
``regularize`` also report the one rank threshold they gave for the input.
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
    load_plant_spec,
    load_representation,
    save_plant_spec,
    save_representation,
)
from .linalg import DEFAULT_TOL, TolerancePolicy
from .oracle import PlantSpec, plant, verify
from .quiver import CHAIN, CYCLE, LABEL_TAG, QuiverShape, g_label_dims

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_NUMERIC = 3

ENV_TOL_ABS = "QUIVERSTAIR_TOL_ABS"
ENV_TOL_REL = "QUIVERSTAIR_TOL_REL"

REPORT_VERSION = 3


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


def _emit(args, text_lines, payload):
    out = json.dumps(payload, indent=1) + "\n" if args.as_json else "\n".join(text_lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fp:
            fp.write(out)
    else:
        sys.stdout.write(out)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _cmd_canon(args) -> int:
    tol = _tolerance(args)
    rep = load_representation(args.input)
    form, trace = canon_chain(rep, tol)
    dims_ok = form.dims() == rep.dims
    payload = {
        "report_version": REPORT_VERSION,
        "command": "canon",
        "tolerance": {"abs_floor": tol.abs_floor, "rel_factor": tol.rel_factor},
        "t": rep.shape.t,
        "orientations": rep.shape.orientations,
        "labels": [{"kind": "L", "low": i, "high": j, "count": m} for (i, j), m in form.sorted_labels()],
        "dimension_check": dims_ok,
        "residual": trace.residual,
        "threshold": trace.threshold,
    }
    lines = [f"chain canonical form (t={rep.shape.t}, orientations {rep.shape.orientations})"]
    for (i, j), m in form.sorted_labels():
        lines.append(f"  L({i},{j}) x {m}")
    lines.append(f"dimension check: {'ok' if dims_ok else 'FAILED'}")
    lines.append(f"residual: {trace.residual:.3e}")
    lines.append(
        f"threshold: {trace.threshold:.3e} (abs {tol.abs_floor:g}, rel {tol.rel_factor:g})"
    )
    _emit(args, lines, payload)
    return EXIT_OK if dims_ok else EXIT_NUMERIC


def _cmd_regularize(args) -> int:
    tol = _tolerance(args)
    rep = load_representation(args.input)
    dec = regularize(rep, tol)
    dims_ok = dec.dims() == rep.dims
    label_rows = []
    for (l, r), m in sorted(dec.summands.items()):
        provenance = [int(dec.summands_by_pass[k].get((l, r), 0)) for k in (0, 1)]
        label_rows.append(
            {
                "kind": "G",
                "low": l,
                "high": r,
                "count": m,
                "dims": list(g_label_dims(rep.shape, l, r)),
                "pass_counts": provenance,
            }
        )
    payload = {
        "report_version": REPORT_VERSION,
        "command": "regularize",
        "tolerance": {"abs_floor": tol.abs_floor, "rel_factor": tol.rel_factor},
        "t": rep.shape.t,
        "orientations": rep.shape.orientations,
        "labels": label_rows,
        "regular_dimension": dec.regular_dim(),
        "monodromy_eigenvalues": [[z.real, z.imag] for z in dec.monodromy_eigenvalues],
        "dimension_check": dims_ok,
        "residual": dec.residual,
        "threshold": dec.threshold,
    }
    lines = [f"regularizing decomposition (t={rep.shape.t}, orientations {rep.shape.orientations})"]
    if not label_rows:
        lines.append("  no singular summands")
    for row in label_rows:
        lines.append(
            f"  G({row['low']},{row['high']}) x {row['count']} dims={tuple(row['dims'])}"
            f" passes={row['pass_counts']}"
        )
    lines.append(f"regular dimension: {dec.regular_dim()}")
    if dec.monodromy_eigenvalues.size:
        eigs = ", ".join(_fmt_complex(z) for z in np.sort_complex(dec.monodromy_eigenvalues))
        lines.append(f"monodromy eigenvalues: {eigs}")
    lines.append(f"dimension check: {'ok' if dims_ok else 'FAILED'}")
    lines.append(f"residual: {dec.residual:.3e} (threshold {dec.threshold:.3e})")
    _emit(args, lines, payload)
    return EXIT_OK if dims_ok else EXIT_NUMERIC


def _parse_labels(text: str, kind: str):
    """``KIND:low:high[:count]`` labels; KIND is ``L`` for a chain, ``G`` for a cycle."""
    out = []
    if not text:
        return out
    want = LABEL_TAG[kind]
    for piece in text.split(","):
        fields = piece.strip().split(":")
        if len(fields) not in (3, 4):
            raise ValidationError(f"label {piece!r}: expected KIND:low:high[:count]")
        if fields[0] != want:
            raise ValidationError(f"label {piece!r}: a {kind} takes {want} labels")
        try:
            lo, hi = int(fields[1]), int(fields[2])
            count = int(fields[3]) if len(fields) == 4 else 1
        except ValueError:
            raise ValidationError(f"label {piece!r}: low, high, count must be integers") from None
        out.append(((lo, hi), count))
    return out


def _parse_eigs(text: str):
    if not text:
        return ()
    out = []
    for piece in text.split(","):
        p = piece.strip()
        try:  # '1+1i' is complex('1+1j'); 'inf' keeps its own 'i'
            out.append(complex(p[:-1] + "j" if p.endswith("i") else p))
        except ValueError:
            raise ValidationError(f"regular eigenvalue {piece!r} is not a number") from None
    return tuple(out)


def _cmd_gen(args) -> int:
    if args.spec:
        spec = load_plant_spec(args.spec)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
    else:
        if not (args.kind and args.t is not None and args.orientations is not None):
            raise ValidationError("gen needs --spec or all of --kind/--t/--orientations")
        shape = QuiverShape(args.kind, args.t, args.orientations)
        spec = PlantSpec(
            shape=shape,
            labels=tuple(_parse_labels(args.labels, args.kind)),
            regular_eigs=_parse_eigs(args.regular_eigs),
            seed=args.seed if args.seed is not None else 0,
            scramble=args.scramble,
        )
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
    if rep.shape != truth.shape:
        raise ValidationError("representation and ground truth have different shapes")
    if rep.shape.kind == CHAIN:
        form, trace = canon_chain(rep, tol)
        report = verify(rep, form, truth, trace=trace)
    else:
        dec = regularize(rep, tol)
        report = verify(rep, dec, truth)
    payload = {
        "report_version": REPORT_VERSION,
        "command": "verify",
        "tolerance": {"abs_floor": tol.abs_floor, "rel_factor": tol.rel_factor},
        "report": report.to_dict(),
    }
    lines = [f"verification {'PASS' if report.passed else 'FAIL'}"]
    for c in report.checks:
        lines.append(
            f"  {'pass' if c.passed else 'FAIL'} {c.name}: measured {c.measured:.3e}"
            f" threshold {c.threshold:.3e}"
        )
    _emit(args, lines, payload)
    return EXIT_OK if report.passed else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverstair",
        description="Unitary staircase decompositions of chain and cycle quiver representations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonical form of a chain representation")
    p.add_argument("input", help="representation file (JSON)")
    _add_common(p)
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("regularize", help="regularizing decomposition of a cycle representation")
    p.add_argument("input", help="representation file (JSON)")
    _add_common(p)
    p.set_defaults(func=_cmd_regularize)

    p = sub.add_parser("gen", help="generate a planted instance plus ground truth")
    p.add_argument("output_path", help="where to write the representation file")
    p.add_argument("--spec", default=None, help="plant-spec JSON file")
    p.add_argument("--kind", choices=(CHAIN, CYCLE), default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--orientations", default=None, help="string of '>'/'<' flags")
    p.add_argument("--labels", default="", help="e.g. 'G:2:5,G:1:1:2' or 'L:1:3'")
    p.add_argument(
        "--regular-eigs",
        default="",
        help="e.g. '2,-3,1+1i'; write --regular-eigs=-2,3 when the list starts with '-'",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scramble", choices=("unitary", "invertible"), default="unitary")
    p.add_argument("--truth", default=None, help="ground-truth path (default: OUTPUT.truth.json)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="decompose and compare against ground truth")
    p.add_argument("input", help="representation file (JSON)")
    p.add_argument("truth", help="ground-truth file (JSON)")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
