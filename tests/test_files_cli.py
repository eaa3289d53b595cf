import base64
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import quiverstair as qs
from quiverstair import cli, files
from quiverstair.errors import ValidationError

from conftest import noise_arrow_chain, random_complex, random_cycle_spec


def make_rep(seed=0):
    rng = np.random.default_rng(seed)
    shape = qs.cycle_shape(3, "><>")
    dims = (2, 1, 0)
    mats = []
    for i in range(1, 4):
        u, v = shape.arrow_ends(i)
        mats.append(random_complex(rng, dims[v - 1], dims[u - 1]))
    return qs.Representation(shape, dims, tuple(mats))


def v1_dict(rep):
    """``rep`` in format version 1: row-major ``[re, im]`` pairs under ``entries``."""
    d = files.representation_to_dict(rep)
    d["version"] = 1
    for md, m in zip(d["matrices"], rep.matrices):
        md.pop("data", None)
        md["entries"] = [[z.real, z.imag] for z in m.ravel()]
    return d


def write_json(path, d):
    path.write_text(json.dumps(d, indent=1))
    return path


def payload(md):
    return np.frombuffer(base64.b64decode(md["data"]), "<c16").copy()


def set_payload(md, entries):
    md["data"] = base64.b64encode(np.asarray(entries, "<c16").tobytes()).decode("ascii")


def bits(m):
    """The raw float64 bit patterns of a complex matrix (``-0.0`` differs from ``0.0``)."""
    return np.ascontiguousarray(m).view(np.uint64)


MAX = 1.7976931348623157e308

CHAIN_SPEC = qs.PlantSpec(qs.chain_shape(4, "><>"), (((1, 3), 2), ((2, 4), 1)), seed=5)

# Plant-spec fields that must be JSON integers, each replaced by a look-alike,
# with the message naming the field.
SPEC_NON_INTEGERS = [
    (lambda d: d.update(t=3.7), "'t' must be an integer"),
    (lambda d: d.update(t="4"), "'t' must be an integer"),
    (lambda d: d.update(seed=2.5), "'seed' must be a nonnegative integer"),
    (lambda d: d["labels"][0].__setitem__(1, 1.9), "must be integers"),
    (lambda d: d["labels"][0].__setitem__(2, "3"), "must be integers"),
    (lambda d: d["labels"][0].__setitem__(3, True), "must be integers"),
]
SPEC_NON_INTEGER_IDS = ["t-float", "t-string", "seed-float", "low-float", "high-string", "count-bool"]

CYCLE_SPEC = qs.PlantSpec(qs.cycle_shape(3, "><<"), (((1, 4), 1),), regular_eigs=(2, -1j), seed=1)

# Plant-spec fields that must be JSON numbers, each replaced by a look-alike,
# with the field the error must name.
SPEC_NON_NUMBERS = [
    (lambda d: d.update(max_condition="50"), "max_condition"),
    (lambda d: d.update(max_condition=True), "max_condition"),
    (lambda d: d.update(max_condition=None), "max_condition"),
    (lambda d: d.update(max_condition=float("inf")), "max_condition"),
    (lambda d: d.update(max_condition=float("nan")), "max_condition"),
    (lambda d: d["regular_eigs"].__setitem__(0, [True, False]), r"regular_eigs\[0\]"),
    (lambda d: d["regular_eigs"].__setitem__(1, [2, 0, 99]), r"regular_eigs\[1\]"),
    (lambda d: d["regular_eigs"].__setitem__(0, ["1", 0]), r"regular_eigs\[0\]"),
    (lambda d: d["regular_eigs"].__setitem__(1, 2.0), r"regular_eigs\[1\]"),
]
SPEC_NON_NUMBER_IDS = ["max-condition-string", "max-condition-bool", "max-condition-null",
                       "max-condition-inf", "max-condition-nan", "eig-bool-pair", "eig-triple", "eig-string", "eig-scalar"]

# A version 1 file exactly as json.dump(..., indent=1) wrote it.
V1_FIXTURE = """{
 "version": 1,
 "kind": "chain",
 "t": 2,
 "orientations": ">",
 "dims": [
  2,
  2
 ],
 "matrices": [
  {
   "rows": 2,
   "cols": 2,
   "entries": [
    [
     -0.0,
     5e-324
    ],
    [
     0.1,
     -0.0
    ],
    [
     1.7976931348623157e+308,
     -1.7976931348623157e+308
    ],
    [
     -2.5e-310,
     3.0
    ]
   ]
  }
 ]
}
"""


class TestFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rep = make_rep()
        path = tmp_path / "rep.json"
        files.save_representation(path, rep)
        back = files.load_representation(path)
        assert back.shape == rep.shape
        assert back.dims == rep.dims
        for x, y in zip(back.matrices, rep.matrices):
            assert np.array_equal(x, y)  # bit-exact, not approximate

    def test_degenerate_shapes_roundtrip(self, tmp_path):
        shape = qs.chain_shape(2, "<")
        rep = qs.Representation(shape, (0, 3), (np.zeros((0, 3)),))
        path = tmp_path / "deg.json"
        files.save_representation(path, rep)
        back = files.load_representation(path)
        assert back.matrices[0].shape == (0, 3)

    def test_plant_spec_roundtrip(self, tmp_path):
        spec = random_cycle_spec(4)
        path = tmp_path / "truth.json"
        files.save_plant_spec(path, spec)
        back = files.load_plant_spec(path)
        assert back.shape == spec.shape
        assert back.label_counts() == spec.label_counts()
        assert back.regular_eigs == spec.regular_eigs

    def test_malformed_entry_count(self, tmp_path):
        rep = make_rep()
        d = files.representation_to_dict(rep)
        set_payload(d["matrices"][0], payload(d["matrices"][0])[:-1])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValidationError, match="matrices\\[0\\]"):
            files.load_representation(path)

    def test_malformed_entry_count_v1(self, tmp_path):
        d = v1_dict(make_rep())
        d["matrices"][0]["entries"] = d["matrices"][0]["entries"][:-1]
        path = write_json(tmp_path / "bad.json", d)
        with pytest.raises(ValidationError, match="matrices\\[0\\]"):
            files.load_representation(path)

    def test_non_finite_rejected(self, tmp_path):
        rep = make_rep()
        d = files.representation_to_dict(rep)
        entries = payload(d["matrices"][0])
        entries[0] = complex(float("nan"), 0.0)
        set_payload(d["matrices"][0], entries)
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValidationError, match="non-finite"):
            files.load_representation(path)

    def test_non_finite_rejected_v1(self, tmp_path):
        d = v1_dict(make_rep())
        d["matrices"][0]["entries"][0] = [float("nan"), 0.0]
        path = write_json(tmp_path / "nan.json", d)
        with pytest.raises(ValidationError, match="non-finite"):
            files.load_representation(path)

    def test_roundtrip_bit_patterns(self, tmp_path):
        special = np.array(
            [
                [complex(-0.0, -0.0), complex(5e-324, -5e-324)],
                [complex(MAX, -MAX), complex(-MAX, 0.0)],
                [complex(0.0, -0.0), complex(-5e-324, 2.2250738585072014e-308)],
            ]
        )
        shape = qs.chain_shape(4, ">>>")
        mats = (special.T, np.zeros((0, 2)), np.zeros((3, 0)))
        rep = qs.Representation(shape, (3, 2, 0, 3), mats)
        path = tmp_path / "bits.json"
        files.save_representation(path, rep)
        assert json.loads(path.read_text())["version"] == 2
        back = files.load_representation(path)
        assert [m.shape for m in back.matrices] == [(2, 3), (0, 2), (3, 0)]
        for x, y in zip(back.matrices, rep.matrices):
            assert np.array_equal(bits(x), bits(y))
        # Representation stores C-ordered copies; the codec also takes a strided view.
        assert not special.T.flags.c_contiguous
        back = files._matrix_from_dict(files._matrix_to_dict(special.T), "m", 2)
        assert np.array_equal(bits(back), bits(special.T))

    def test_roundtrip_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(4)
        raw = rng.integers(0, 2**64, size=(40, 100), dtype=np.uint64)
        m = raw.view(np.complex128)
        m[~np.isfinite(m)] = complex(-0.0, 5e-324)
        rep = qs.Representation(qs.chain_shape(2, "<"), (40, 50), (m,))
        path = tmp_path / "random.json"
        files.save_representation(path, rep)
        back = files.load_representation(path)
        assert np.array_equal(bits(back.matrices[0]), bits(m))

    def test_v1_fixture_loads_bit_identically(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(V1_FIXTURE)
        rep = files.load_representation(path)
        want = np.array(
            [
                [complex(-0.0, 5e-324), complex(0.1, -0.0)],
                [complex(MAX, -MAX), complex(-2.5e-310, 3.0)],
            ]
        )
        assert (rep.shape.kind, rep.dims) == ("chain", (2, 2))
        assert np.array_equal(bits(rep.matrices[0]), bits(want))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda md: md.update(data="@@@@"),
            lambda md: md.update(data="AAAA\u00e9"),
            lambda md: md.update(data=md["data"][:-4]),
            lambda md: md.update(data=5),
            lambda md: md.update(entries=[[1.0, 0.0], [2.0, 0.0]]) or md.pop("data"),
            lambda md: md.update(rows=True),
        ],
        ids=["bad-base64", "non-ascii", "stray-bytes", "not-a-string", "entries-in-v2",
             "bool-rows"],
    )
    def test_v2_matrix_rejected(self, tmp_path, edit):
        d = files.representation_to_dict(make_rep())
        edit(d["matrices"][0])
        path = write_json(tmp_path / "bad.json", d)
        with pytest.raises(ValidationError, match="matrices\\[0\\]"):
            files.load_representation(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda md: md["entries"].__setitem__(1, ["abc", 0]), "entry 1 is not"),
            (lambda md: md["entries"].__setitem__(1, [None, 0]), "entry 1 is not"),
            (lambda md: md["entries"].__setitem__(1, ["1.5", 0]), "entry 1 is not"),
            (lambda md: md["entries"].__setitem__(1, [True, 0]), "entry 1 is not"),
            (lambda md: md["entries"].__setitem__(1, [1.0, 0, 2]), "entry 1 is not"),
            (lambda md: md["entries"].__setitem__(1, 1.0), "entry 1 is not"),
            (lambda md: md["entries"].__setitem__(1, [10**400, 0]), "non-finite"),
            (lambda md: md.update(rows=md["rows"] + 0.9), "integers"),
            (lambda md: md.update(entries="AAAA"), "list"),
            (lambda md: md.update(data=md.pop("entries")), "needs 'entries'"),
        ],
        ids=["text", "null", "numeric-text", "bool", "triple", "scalar", "huge-int",
             "float-rows", "entries-not-list", "data-in-v1"],
    )
    def test_v1_matrix_rejected(self, tmp_path, edit, match):
        d = v1_dict(make_rep())
        edit(d["matrices"][0])
        path = write_json(tmp_path / "bad.json", d)
        with pytest.raises(ValidationError, match=f"matrices\\[0\\].*{match}"):
            files.load_representation(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda d: d.update(t=str(d["t"])), "'t' must be an integer"),
            (lambda d: d.update(t=float(d["t"])), "'t' must be an integer"),
            (lambda d: d["dims"].__setitem__(0, d["dims"][0] + 0.9), "'dims' must be integers"),
            (lambda d: d["dims"].__setitem__(0, True), "'dims' must be integers"),
        ],
        ids=["t-string", "t-float", "dims-float", "dims-bool"],
    )
    def test_non_integer_t_dims_rejected(self, tmp_path, edit, match):
        d = files.representation_to_dict(make_rep())
        edit(d)
        path = write_json(tmp_path / "bad.json", d)
        with pytest.raises(ValidationError, match=match):
            files.load_representation(path)

    def test_v1_integer_entries_accepted(self, tmp_path):
        d = v1_dict(make_rep())
        d["matrices"][0]["entries"] = [[1, -2], [3, 0]]
        rep = files.load_representation(write_json(tmp_path / "ints.json", d))
        assert np.array_equal(rep.matrices[0], [[1 - 2j, 3]])

    def test_non_finite_plant_spec_rejected(self, tmp_path):
        d = files.plant_spec_to_dict(random_cycle_spec(2))
        d["regular_eigs"] = [[float("inf"), 0.0]]
        with pytest.raises(ValidationError, match="not finite"):
            files.plant_spec_from_dict(d)

    @pytest.mark.parametrize("edit, match", SPEC_NON_INTEGERS, ids=SPEC_NON_INTEGER_IDS)
    def test_non_integer_plant_spec_rejected(self, edit, match):
        d = files.plant_spec_to_dict(CHAIN_SPEC)
        edit(d)
        with pytest.raises(ValidationError, match=match):
            files.plant_spec_from_dict(d)

    @pytest.mark.parametrize("edit, field", SPEC_NON_NUMBERS, ids=SPEC_NON_NUMBER_IDS)
    def test_non_number_plant_spec_rejected(self, edit, field):
        d = files.plant_spec_to_dict(CYCLE_SPEC)
        edit(d)
        with pytest.raises(ValidationError, match=field):
            files.plant_spec_from_dict(d)

    def test_plant_spec_integer_numbers_accepted(self):
        d = files.plant_spec_to_dict(CYCLE_SPEC)
        d.update(max_condition=50, regular_eigs=[[2, 0], [0, -1]])
        assert files.plant_spec_from_dict(d) == dataclasses.replace(CYCLE_SPEC, max_condition=50.0)

    def test_plant_spec_integer_beyond_float_rejected(self):
        d = files.plant_spec_to_dict(CYCLE_SPEC)
        d["regular_eigs"][0] = [10**400, 0]
        with pytest.raises(ValidationError, match="malformed"):
            files.plant_spec_from_dict(d)

    @pytest.mark.parametrize(
        "loader, to_dict, field, value, message",
        [
            ("representation", make_rep, "orientations", 5, "'orientations' must be a string"),
            ("plant_spec", lambda: CHAIN_SPEC, "orientations", 5, "'orientations' must be a string"),
            ("plant_spec", lambda: CHAIN_SPEC, "kind", 5, "'kind' must be 'chain' or 'cycle'"),
        ],
        ids=["rep-orientations-int", "spec-orientations-int", "spec-kind-int"],
    )
    def test_wrong_json_type_named(self, loader, to_dict, field, value, message):
        d = getattr(files, f"{loader}_to_dict")(to_dict())
        d[field] = value
        with pytest.raises(ValidationError, match=message):
            getattr(files, f"{loader}_from_dict")(d)

    def test_numpy_integers_saved_as_json_integers(self, tmp_path):
        shape = qs.cycle_shape(np.int64(2), "><")
        rep = qs.Representation(shape, (np.int64(1), 1), (np.eye(1), np.eye(1)))
        spec = qs.PlantSpec(shape, (((np.int64(1), np.int32(2)), np.int64(1)),), seed=np.int64(3))
        files.save_representation(tmp_path / "rep.json", rep)
        files.save_plant_spec(tmp_path / "spec.json", spec)
        got = files.load_representation(tmp_path / "rep.json")
        assert (got.shape, got.dims) == (rep.shape, rep.dims)
        assert all(np.array_equal(x, y) for x, y in zip(got.matrices, rep.matrices))
        assert files.load_plant_spec(tmp_path / "spec.json") == spec

    def test_inconsistent_dims_rejected(self, tmp_path):
        rep = make_rep()
        d = files.representation_to_dict(rep)
        d["dims"][0] += 1
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValidationError):
            files.load_representation(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValidationError, match="version"):
            files.load_representation(path)


class TestCli:
    def test_gen_verify_roundtrip_cycle(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        rc = cli.main(
            [
                "gen", str(out),
                "--kind", "cycle", "--t", "4", "--orientations", "><<>",
                "--labels", "G:2:5", "--regular-eigs", "2,3", "--seed", "11",
            ]
        )
        assert rc == 0
        rc = cli.main(["verify", str(out), str(out) + ".truth.json"])
        assert rc == 0

    def test_gen_verify_roundtrip_chain(self, tmp_path):
        out = tmp_path / "chain.json"
        rc = cli.main(
            [
                "gen", str(out),
                "--kind", "chain", "--t", "3", "--orientations", "><",
                "--labels", "L:1:3:2,L:2:2", "--seed", "5",
            ]
        )
        assert rc == 0
        assert cli.main(["verify", str(out), str(out) + ".truth.json"]) == 0

    def test_gen_repeated_label_adds_up(self, tmp_path):
        out = tmp_path / "inst.json"
        rc = cli.main(
            [
                "gen", str(out),
                "--kind", "cycle", "--t", "3", "--orientations", ">><",
                "--labels", "G:1:2,G:1:2", "--seed", "7",
            ]
        )
        assert rc == 0
        truth_path = str(out) + ".truth.json"
        assert json.loads(Path(truth_path).read_text(encoding="utf-8"))["labels"] == [["G", 1, 2, 2]]
        assert files.load_representation(out).dims == (2, 2, 0)
        assert cli.main(["verify", str(out), truth_path]) == 0

    def test_tampered_truth_exits_1(self, tmp_path):
        out = tmp_path / "inst.json"
        cli.main(
            [
                "gen", str(out),
                "--kind", "cycle", "--t", "3", "--orientations", ">><",
                "--labels", "G:1:2", "--seed", "7",
            ]
        )
        truth_path = str(out) + ".truth.json"
        truth = json.loads(Path(truth_path).read_text(encoding="utf-8"))
        truth["labels"] = [["G", 1, 3, 1]]
        Path(truth_path).write_text(json.dumps(truth), encoding="utf-8")
        assert cli.main(["verify", str(out), truth_path]) == 1

    def test_canon_json_report(self, tmp_path, capsys):
        out = tmp_path / "chain.json"
        cli.main(
            [
                "gen", str(out),
                "--kind", "chain", "--t", "4", "--orientations", ">><",
                "--labels", "L:1:4,L:2:3", "--seed", "2",
            ]
        )
        capsys.readouterr()
        rc = cli.main(["canon", str(out), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "canon"
        assert payload["dimension_check"] is True
        got = {(row["low"], row["high"]): row["count"] for row in payload["labels"]}
        assert got == {(1, 4): 1, (2, 3): 1}
        assert payload["tolerance"] == {"abs_floor": 1e-12, "rel_factor": 1e-8}

    def test_canon_reports_one_input_threshold(self, tmp_path, capsys):
        rep = noise_arrow_chain()
        path = tmp_path / "noise.json"
        files.save_representation(path, rep)
        assert cli.main(["canon", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report_version"] == 3
        got = {(row["low"], row["high"]): row["count"] for row in payload["labels"]}
        assert got == {(1, 2): 4, (3, 3): 4}
        assert payload["threshold"] == qs.DEFAULT_TOL.threshold(*rep.matrices)
        assert "step_thresholds" not in payload
        assert cli.main(["canon", str(path)]) == 0
        text = capsys.readouterr().out
        assert sum(line.startswith("threshold: ") for line in text.splitlines()) == 1

    def test_regularize_text_report(self, tmp_path, capsys):
        out = tmp_path / "cyc.json"
        cli.main(
            [
                "gen", str(out),
                "--kind", "cycle", "--t", "2", "--orientations", "><",
                "--regular-eigs", "2,-3", "--seed", "3",
            ]
        )
        capsys.readouterr()
        rc = cli.main(["regularize", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "no singular summands" in text
        assert "regular dimension: 2" in text
        assert "monodromy eigenvalues" in text

    def test_regularize_reports_walk_label_rows(self, tmp_path, capsys):
        out = tmp_path / "cyc.json"
        cli.main(
            [
                "gen", str(out),
                "--kind", "cycle", "--t", "4", "--orientations", "><<>",
                "--labels", "G:2:5,G:1:1:2,G:3:4", "--regular-eigs", "2", "--seed", "11",
            ]
        )
        rep = files.load_representation(out)
        capsys.readouterr()
        assert cli.main(["regularize", str(out), "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["labels"]
        assert {(row["low"], row["high"]): row["count"] for row in rows} == {
            (1, 1): 2, (2, 5): 1, (3, 4): 1
        }
        for row in rows:
            assert row["kind"] == "G"
            assert row["dims"] == list(qs.g_label_dims(rep.shape, row["low"], row["high"]))
            assert sum(row["pass_counts"]) == row["count"]
        assert cli.main(["regularize", str(out)]) == 0
        text = capsys.readouterr().out.splitlines()
        assert [line for line in text if line.startswith("  G(")] == [
            f"  G({row['low']},{row['high']}) x {row['count']} dims={tuple(row['dims'])}"
            f" passes={row['pass_counts']}"
            for row in rows
        ]
        assert "  G(1,1) x 2 dims=(1, 0, 0, 0) passes=" in "\n".join(text)

    def test_verify_json_contains_thresholds(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        cli.main(
            [
                "gen", str(out),
                "--kind", "cycle", "--t", "3", "--orientations", ">>>",
                "--labels", "G:1:3", "--seed", "9",
            ]
        )
        capsys.readouterr()
        rc = cli.main(["verify", str(out), str(out) + ".truth.json", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        for check in payload["report"]["checks"]:
            assert "measured" in check and "threshold" in check

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["canon", str(bad)]) == 2
        missing = tmp_path / "missing.json"
        assert cli.main(["canon", str(missing)]) == 2

    def test_wrong_kind_exits_2(self, tmp_path):
        out = tmp_path / "cyc.json"
        cli.main(
            [
                "gen", str(out),
                "--kind", "cycle", "--t", "2", "--orientations", "><",
                "--labels", "G:1:1", "--seed", "1",
            ]
        )
        assert cli.main(["canon", str(out)]) == 2
        chain = tmp_path / "chain.json"
        files.save_representation(chain, qs.plant(CHAIN_SPEC)[0])
        assert cli.main(["regularize", str(chain)]) == 2

    def test_numeric_error_exits_3(self, tmp_path, monkeypatch):
        out = tmp_path / "cyc.json"
        cli.main(
            [
                "gen", str(out),
                "--kind", "cycle", "--t", "2", "--orientations", "><",
                "--labels", "G:1:1", "--seed", "1",
            ]
        )
        from quiverstair.errors import InconsistencyError

        def boom(rep, tol):
            raise InconsistencyError("forced failure")

        monkeypatch.setattr(cli, "regularize", boom)
        assert cli.main(["regularize", str(out)]) == 3

    def test_env_tolerance_lowest_precedence(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "chain.json"
        cli.main(
            [
                "gen", str(out),
                "--kind", "chain", "--t", "2", "--orientations", ">",
                "--labels", "L:1:2", "--seed", "4",
            ]
        )
        capsys.readouterr()
        monkeypatch.setenv(cli.ENV_TOL_REL, "1e-5")
        cli.main(["canon", str(out), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["tolerance"]["rel_factor"] == 1e-5
        cli.main(["canon", str(out), "--json", "--tol-rel", "1e-7"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["tolerance"]["rel_factor"] == 1e-7

    @pytest.mark.parametrize(
        "env, flags",
        [
            ({cli.ENV_TOL_REL: "abc"}, []),
            ({cli.ENV_TOL_ABS: "1e-12x"}, []),
            ({cli.ENV_TOL_ABS: "inf"}, []),
            ({}, ["--tol-rel", "nan"]),
            ({}, ["--tol-abs", "inf"]),
            ({}, ["--tol-rel=-1e-8"]),
        ],
        ids=["env-rel-text", "env-abs-text", "env-abs-inf", "flag-rel-nan", "flag-abs-inf",
             "flag-rel-negative"],
    )
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, monkeypatch, env, flags):
        path = tmp_path / "noise.json"
        files.save_representation(path, noise_arrow_chain())
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert cli.main(["canon", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_output_flag_writes_file(self, tmp_path):
        out = tmp_path / "chain.json"
        cli.main(
            [
                "gen", str(out),
                "--kind", "chain", "--t", "2", "--orientations", ">",
                "--labels", "L:1:1", "--seed", "4",
            ]
        )
        report = tmp_path / "report.json"
        rc = cli.main(["canon", str(out), "--json", "--output", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["command"] == "canon"

    def test_negative_eigenvalues_equals_form(self, tmp_path):
        out = tmp_path / "neg.json"
        rc = cli.main(
            [
                "gen", str(out),
                "--kind", "cycle", "--t", "2", "--orientations", "><",
                "--regular-eigs=-2,-3", "--seed", "8",
            ]
        )
        assert rc == 0
        assert cli.main(["verify", str(out), str(out) + ".truth.json"]) == 0

    def test_gen_from_v1_spec_file(self, tmp_path):
        d = files.plant_spec_to_dict(random_cycle_spec(3))
        d["version"] = 1
        spec_path = write_json(tmp_path / "spec.json", d)
        out = tmp_path / "inst.json"
        assert cli.main(["gen", str(out), "--spec", str(spec_path)]) == 0
        assert cli.main(["verify", str(out), str(spec_path)]) == 0
        assert cli.main(["verify", str(out), str(out) + ".truth.json"]) == 0

    def test_parse_eigs(self):
        assert cli._parse_eigs("2, -3,1+1i,2i,-inf") == (2, -3, 1 + 1j, 2j, complex("-inf"))

    def test_gen_from_spec_file(self, tmp_path):
        spec = random_cycle_spec(2)
        spec_path = tmp_path / "spec.json"
        files.save_plant_spec(spec_path, spec)
        out = tmp_path / "inst.json"
        rc = cli.main(["gen", str(out), "--spec", str(spec_path)])
        assert rc == 0
        assert cli.main(["verify", str(out), str(out) + ".truth.json"]) == 0


    def test_gen_spec_seed_override_keeps_other_fields(self, tmp_path):
        spec = qs.PlantSpec(
            qs.cycle_shape(3, "><<"), (((1, 4), 2), ((3, 3), 1)), regular_eigs=(2, -1j),
            seed=1, scramble="invertible", max_condition=50.0,
        )
        spec_path = tmp_path / "spec.json"
        files.save_plant_spec(spec_path, spec)
        out = tmp_path / "inst.json"
        assert cli.main(["gen", str(out), "--spec", str(spec_path), "--seed", "9"]) == 0
        want = dataclasses.replace(spec, seed=9)
        assert files.load_plant_spec(str(out) + ".truth.json") == want
        rep, _ = qs.plant(want)
        got = files.load_representation(out)
        assert all(np.array_equal(x, y) for x, y in zip(got.matrices, rep.matrices))


@pytest.mark.parametrize("edit, match", SPEC_NON_INTEGERS, ids=SPEC_NON_INTEGER_IDS)
@pytest.mark.parametrize("command", ["gen", "verify"])
def test_non_integer_plant_spec_exits_2(tmp_path, capsys, command, edit, match):
    d = files.plant_spec_to_dict(CHAIN_SPEC)
    edit(d)
    spec_path = str(write_json(tmp_path / "spec.json", d))
    out = tmp_path / "inst.json"
    files.save_representation(out, qs.plant(CHAIN_SPEC)[0])
    argv = ["gen", str(out), "--spec", spec_path] if command == "gen" else ["verify", str(out), spec_path]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d["regular_eigs"].__setitem__(1, [2, 0, 99]), "regular_eigs[1]"),
        (lambda d: d.update(scramble="invertible", max_condition=float("inf")), "max_condition"),
        (lambda d: d.update(seed=-5), "seed"),
    ],
    ids=["eig-triple", "invertible-infinite-condition", "negative-seed"],
)
def test_non_number_plant_spec_gen_exits_2(tmp_path, capsys, edit, field):
    d = files.plant_spec_to_dict(CYCLE_SPEC)
    edit(d)
    spec_path = str(write_json(tmp_path / "spec.json", d))
    capsys.readouterr()
    assert cli.main(["gen", str(tmp_path / "inst.json"), "--spec", spec_path]) == 2
    assert field in capsys.readouterr().err


def test_gen_t_zero_names_the_fault(tmp_path, capsys):
    argv = ["gen", str(tmp_path / "g.json"), "--kind", "chain", "--t", "0", "--orientations", ""]
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert "a chain needs at least one vertex" in capsys.readouterr().err


def _v1_chain_file(tmp_path, edit):
    d = v1_dict(noise_arrow_chain())
    edit(d["matrices"][0])
    return ["canon", str(write_json(tmp_path / "v1.json", d))]


def _gen_argv(tmp_path, *flags):
    return ["gen", str(tmp_path / "g.json"), "--kind", "cycle", "--t", "2",
            "--orientations", "><", *flags]


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"version": 2, "kind": "ch\u00e2in"}'.encode("latin-1"))
    return str(path)


def _edited_file(tmp_path, edit):
    d = files.representation_to_dict(noise_arrow_chain())
    edit(d)
    return str(write_json(tmp_path / "edited.json", d))


def _edited_truth(tmp_path, edit):
    d = files.plant_spec_to_dict(CHAIN_SPEC)
    edit(d)
    return str(write_json(tmp_path / "truth.json", d))


def _verify_argv(tmp_path, truth):
    out = tmp_path / "inst.json"
    files.save_representation(out, noise_arrow_chain())
    return ["verify", str(out), truth]


@pytest.mark.parametrize(
    "argv",
    [
        lambda p: _v1_chain_file(p, lambda md: md["entries"].__setitem__(3, ["abc", 0])),
        lambda p: _v1_chain_file(p, lambda md: md["entries"].__setitem__(3, [None, 0])),
        lambda p: _v1_chain_file(p, lambda md: md["entries"].__setitem__(3, ["1.5", 0])),
        lambda p: _v1_chain_file(p, lambda md: md["entries"].__setitem__(3, [True, 0])),
        lambda p: _v1_chain_file(p, lambda md: md.update(rows=md["rows"] + 0.9)),
        lambda p: ["regularize", str(p)],
        lambda p: ["canon", _not_utf8(p)],
        lambda p: _verify_argv(p, str(p)),
        lambda p: _verify_argv(p, _not_utf8(p)),
        lambda p: _gen_argv(p, "--labels", "G:x:2"),
        lambda p: _gen_argv(p, "--labels", "L:1:2"),
        lambda p: ["gen", str(p / "g.json"), "--kind", "chain", "--t", "2",
                   "--orientations", ">", "--labels", "G:1:2"],
        lambda p: _gen_argv(p, "--regular-eigs=abc"),
        lambda p: _gen_argv(p, "--regular-eigs=inf"),
        lambda p: _gen_argv(p, "--regular-eigs=1e400"),
        lambda p: _gen_argv(p, "--labels", "G:1:1", "--seed", "-1"),
        lambda p: ["gen", str(p), "--kind", "cycle", "--t", "2", "--orientations", "><"],
        lambda p: ["regularize", _edited_file(p, lambda d: d.update(matrices=5))],
        lambda p: ["regularize", _edited_file(p, lambda d: d.update(matrices=None))],
        lambda p: ["canon", _edited_file(p, lambda d: d.update(orientations=5))],
        lambda p: _verify_argv(p, _edited_truth(p, lambda d: d.update(orientations=5))),
        lambda p: _verify_argv(p, _edited_truth(p, lambda d: d.update(kind=["chain"]))),
        lambda p: _verify_argv(p, _edited_truth(p, lambda d: d["labels"][1].__setitem__(0, "G"))),
    ],
    ids=["entry-text", "entry-null", "entry-numeric-text", "entry-bool", "rows-float",
         "input-directory", "input-not-utf8", "truth-directory", "truth-not-utf8",
         "gen-label-text", "gen-label-L-on-cycle", "gen-label-G-on-chain", "gen-eig-text",
         "gen-eig-inf", "gen-eig-overflow", "gen-seed-negative", "gen-output-directory",
         "matrices-int", "matrices-null", "orientations-int", "truth-orientations-int",
         "truth-kind-list", "truth-label-tag-of-other-kind"],
)
def test_bad_input_exits_2(tmp_path, capsys, argv):
    args = argv(tmp_path)
    capsys.readouterr()
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
