import json

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
        d["matrices"][0]["entries"] = d["matrices"][0]["entries"][:-1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValidationError, match="matrices\\[0\\]"):
            files.load_representation(path)

    def test_non_finite_rejected(self, tmp_path):
        rep = make_rep()
        d = files.representation_to_dict(rep)
        d["matrices"][0]["entries"][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValidationError, match="non-finite"):
            files.load_representation(path)

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
        truth = json.loads(open(truth_path).read())
        truth["labels"] = [["G", 1, 3, 1]]
        open(truth_path, "w").write(json.dumps(truth))
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
        assert payload["report_version"] == 2
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

    def test_gen_from_spec_file(self, tmp_path):
        spec = random_cycle_spec(2)
        spec_path = tmp_path / "spec.json"
        files.save_plant_spec(spec_path, spec)
        out = tmp_path / "inst.json"
        rc = cli.main(["gen", str(out), "--spec", str(spec_path)])
        assert rc == 0
        assert cli.main(["verify", str(out), str(out) + ".truth.json"]) == 0
