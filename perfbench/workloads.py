"""Seeded planted workloads for the quiverstair benchmark.

Every workload draws its instances from ``numpy.random.default_rng(seed)``
and hands the package only the generated instances.  Instance *sizes* are
fixed per workload (label lengths are a fixed multiset, orientations a
shuffle of a balanced string); the seed moves only where the labels sit, the
arrow directions and the scrambling unitaries.  That keeps the cost of a
solve comparable across seeds, so run-to-run spread measures the program
and the machine rather than the draw.

Each op is one full user action including its correctness check: the op
fails if the package raises a ``QuiverError``, if ``verify`` reports a
failed check, if a CLI exit code is not 0, or if the labels differ from the
planted truth.
"""

import contextlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import quiverstair as qs
from quiverstair import cli

CHAIN_T = 128
CYCLE_WALK_T = 48
WIDE_T = 4
CLI_T = 4
# Instances per pool.  cycle-walk needs the most: its solve cost varies about
# 10% between instances of one size, with the shaved chains' lengths.
CHAIN_POOL = 4
WALK_POOL = 32
WIDE_POOL = 2
CLI_POOL = 4


@dataclass
class Instance:
    """One planted input.  ``rep`` is ``None`` for ``cli-file``, whose op plants it."""

    truth: qs.PlantSpec
    want: tuple
    dims: tuple[int, ...]
    rep: qs.Representation | None = None
    argv: list[str] = field(default_factory=list)

    @property
    def entries(self) -> int:
        """Input matrix entries: one matrix of ``d_i x d_{i+1}`` per arrow."""
        d = self.dims
        pairs = zip(d, d[1:] + d[:1]) if self.truth.shape.kind == qs.CYCLE else zip(d, d[1:])
        return sum(a * b for a, b in pairs)


@dataclass
class Outcome:
    ok: bool
    labels: tuple
    file_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    make_pool: Callable[[int], list[Instance]]
    run_op: Callable[[Instance, str], Outcome]
    # spans the traced run must record at least once in its first pass
    expected_spans: tuple[str, ...]


def _orientations(rng, arrows: int) -> str:
    flags = np.array([">"] * ((arrows + 1) // 2) + ["<"] * (arrows // 2))
    rng.shuffle(flags)
    return "".join(flags)


def _walk_labels(rng, t: int, lengths) -> Counter:
    return Counter((int(s), int(s) + ln - 1) for s, ln in zip(rng.integers(1, t + 1, len(lengths)), lengths))


def _eigenvalues(rng, n: int, min_gap: float) -> tuple[complex, ...]:
    """``n`` points with modulus in [0.5, 2], pairwise at least ``min_gap`` apart."""
    out: list[complex] = []
    while len(out) < n:
        z = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        z = complex(round(z.real, 6), round(z.imag, 6))
        if all(abs(z - w) >= min_gap for w in out):
            out.append(z)
    return tuple(out)


def _cycle_dims(t: int, labels: Counter, regular: int) -> tuple[int, ...]:
    d = [regular] * t
    for (l, r), m in labels.items():
        for q in range(l, r + 1):
            d[(q - 1) % t] += m
    return tuple(d)


def _chain_dims(t: int, labels: Counter) -> tuple[int, ...]:
    d = [0] * t
    for (i, j), m in labels.items():
        for v in range(i, j + 1):
            d[v - 1] += m
    return tuple(d)


def _cycle_want(labels: Counter, regular: int) -> tuple:
    return (tuple(sorted(labels.items())), regular)


def _labels_of(counts) -> tuple:
    return tuple(sorted((lab, m) for lab, m in counts.items() if m))


# --- chain-sweep ------------------------------------------------------------

def _chain_pool(seed: int) -> list[Instance]:
    rng = np.random.default_rng(seed)
    lengths = [ln for ln in range(1, 9) for _ in range(CHAIN_T // 8)]
    pool = []
    for _ in range(CHAIN_POOL):
        starts = [int(rng.integers(1, CHAIN_T - ln + 2)) for ln in lengths]
        labels = Counter((s, s + ln - 1) for s, ln in zip(starts, lengths))
        spec = qs.PlantSpec(
            shape=qs.chain_shape(CHAIN_T, _orientations(rng, CHAIN_T - 1)),
            labels=tuple(labels.items()),
            seed=int(rng.integers(2**31)),
        )
        rep, truth = qs.plant(spec)
        pool.append(Instance(truth, _labels_of(labels), _chain_dims(CHAIN_T, labels), rep))
    return pool


def _chain_op(inst: Instance, workdir: str) -> Outcome:
    try:
        form, trace = qs.canon_chain(inst.rep)
        report = qs.verify(inst.rep, form, inst.truth, trace=trace)
    except qs.QuiverError:
        return Outcome(False, ())
    labels = _labels_of(form.counts)
    return Outcome(report.passed and labels == inst.want, labels)


# --- cycle-walk and cycle-wide ---------------------------------------------

def _cycle_pool(seed, t, lengths, n_eigs, eig_gap, size) -> list[Instance]:
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(size):
        labels = _walk_labels(rng, t, lengths)
        eigs = _eigenvalues(rng, n_eigs, eig_gap)
        spec = qs.PlantSpec(
            shape=qs.cycle_shape(t, _orientations(rng, t)),
            labels=tuple(labels.items()),
            regular_eigs=eigs,
            seed=int(rng.integers(2**31)),
        )
        rep, truth = qs.plant(spec)
        pool.append(Instance(truth, _cycle_want(labels, n_eigs), _cycle_dims(t, labels, n_eigs), rep))
    return pool


def _walk_pool(seed: int) -> list[Instance]:
    # t/2 walks whose lengths run up to 2t, so most wrap the cycle at least once
    lengths = [4 * k for k in range(1, CYCLE_WALK_T // 2 + 1)]
    return _cycle_pool(seed, CYCLE_WALK_T, lengths, 3, 0.2, WALK_POOL)


def _wide_pool(seed: int) -> list[Instance]:
    lengths = [ln for ln in range(1, 9) for _ in range(3)]
    return _cycle_pool(seed, WIDE_T, lengths, 160, 0.02, WIDE_POOL)


def _cycle_op(inst: Instance, workdir: str) -> Outcome:
    try:
        dec = qs.regularize(inst.rep)
        report = qs.verify(inst.rep, dec, inst.truth)
    except qs.QuiverError:
        return Outcome(False, ())
    labels = (_labels_of(dec.summands), dec.regular_dim())
    return Outcome(report.passed and labels == inst.want, labels)


# --- cli-file ----------------------------------------------------------------

def _cli_pool(seed: int) -> list[Instance]:
    rng = np.random.default_rng(seed)
    lengths = [ln for ln in range(1, 9) for _ in range(2)]
    n_eigs = 75
    pool = []
    for _ in range(CLI_POOL):
        labels = _walk_labels(rng, CLI_T, lengths)
        eigs = _eigenvalues(rng, n_eigs, 0.04)
        orient = _orientations(rng, CLI_T)
        plant_seed = int(rng.integers(2**31))
        argv = [  # `gen` arguments after the output path
            "--kind", "cycle", "--t", str(CLI_T), "--orientations", orient,
            "--labels", ",".join(f"G:{l}:{r}:{m}" for (l, r), m in sorted(labels.items())),
            "--regular-eigs=" + ",".join(f"{z.real:.6f}{z.imag:+.6f}i" for z in eigs),
            "--seed", str(plant_seed),
        ]
        spec = qs.PlantSpec(
            shape=qs.cycle_shape(CLI_T, orient),
            labels=tuple(labels.items()),
            regular_eigs=eigs,
            seed=plant_seed,
        )
        pool.append(Instance(spec, _cycle_want(labels, n_eigs), _cycle_dims(CLI_T, labels, n_eigs), argv=argv))
    return pool


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_op(inst: Instance, workdir: str) -> Outcome:
    path = os.path.join(workdir, "instance.json")
    truth_path = path + ".truth.json"
    codes = [_cli(["gen", path, *inst.argv])[0]]
    code, report = _cli(["regularize", path, "--json"])
    codes.append(code)
    codes.append(_cli(["verify", path, truth_path])[0])
    if any(codes):
        return Outcome(False, ())
    with open(truth_path, encoding="utf-8") as fp:
        sidecar = json.load(fp)
    got = json.loads(report)
    labels = (
        tuple(sorted(((r["low"], r["high"]), r["count"]) for r in got["labels"])),
        got["regular_dimension"],
    )
    truth = (
        tuple(sorted(((a, b), m) for _, a, b, m in sidecar["labels"])),
        len(sidecar["regular_eigs"]),
    )
    ok = labels == truth == inst.want
    return Outcome(ok, labels, os.path.getsize(path))


_KERNEL = ("linalg.lapack_svd", "linalg.two_sided_reduce", "linalg.staircase_reduce",
           "linalg.singular_values", "chain.canon_chain", "oracle.verify",
           "quiver.representation_scale")
_CYCLE = _KERNEL + ("linalg.row_compress", "linalg.col_compress", "linalg.svd_inverse",
                    "cycle.shave", "cycle.regularize", "cycle.monodromy",
                    "quiver.Representation", "quiver.transpose_rep")
_FILES = ("files.save_representation", "files.load_representation", "oracle.plant",
          "quiver.apply_isomorphism", "cli.gen", "cli.regularize", "cli.verify")

# Why each workload exists, and which layers it loads and bypasses: WORKLOADS.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("chain-sweep", _chain_pool, _chain_op, _KERNEL),
        Workload("cycle-walk", _walk_pool, _cycle_op, _CYCLE),
        Workload("cycle-wide", _wide_pool, _cycle_op, _CYCLE),
        Workload("cli-file", _cli_pool, _cli_op, _CYCLE + _FILES),
    )
}
