"""Command-line interface: exit codes, reports, determinism."""

import json

import pytest

from morse_forge.cli import DEFAULT_CONFIG, main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(tmp_path, name="run.json", **overrides):
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_normalize_reduces(capsys):
    code, out, _ = run_cli(["normalize", "x y y^-1 x"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["word"] == "x^2"
    assert data["syllable_length"] == 1


def test_normalize_length_convention(capsys):
    code, out, _ = run_cli(["normalize", "x y x^-1"], capsys)
    assert code == 0
    assert json.loads(out)["syllable_length"] == 3


def test_normalize_empty(capsys):
    code, out, _ = run_cli(["normalize", ""], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["word"] == "e" and data["syllable_length"] == 0


def test_normalize_parse_error(capsys):
    code, _out, err = run_cli(["normalize", "x q"], capsys)
    assert code == 2
    assert "unknown generator" in err


def test_check_prefix_transit(tmp_path, capsys):
    code, out, _ = run_cli(
        ["--out", str(tmp_path), "check", "prefix-transit", "--radius", "3"], capsys
    )
    assert code == 0
    report = json.loads((tmp_path / "check-prefix-transit.json").read_text())
    assert report["status"] == "pass"
    assert report["counterexample_count"] == 0


def test_check_projection_single_point(tmp_path, capsys):
    code, _out, _ = run_cli(
        ["--out", str(tmp_path), "check", "projection-qg", "--lambda", "2", "--eps", "1", "--radius", "3"],
        capsys,
    )
    assert code == 0
    report = json.loads((tmp_path / "check-projection-qg.json").read_text())
    assert report["params"]["grid"] == [["2", "1"]]
    assert report["status"] == "pass"


def test_check_vacuous_radius_zero(tmp_path, capsys):
    code, _out, _ = run_cli(
        ["--out", str(tmp_path), "check", "prefix-transit", "--radius", "0"], capsys
    )
    assert code == 0
    report = json.loads((tmp_path / "check-prefix-transit.json").read_text())
    assert report["status"] == "vacuous"


def test_check_phi_psi(tmp_path, capsys):
    code, _out, _ = run_cli(["--out", str(tmp_path), "check", "phi-psi"], capsys)
    assert code == 0


def test_match_default_config(tmp_path, capsys):
    code, out, _ = run_cli(["--out", str(tmp_path), "match", "--steps", "5"], capsys)
    assert code == 0
    report = json.loads((tmp_path / "match-report.json").read_text())
    assert report["status"] == "pass"
    lines = (tmp_path / "match-transcript.jsonl").read_text().splitlines()
    assert len(lines) == 5 * 4
    first = json.loads(lines[0])
    assert first["initiator"] == "x" and first["certified"]


def test_match_lineswap_config(tmp_path, capsys):
    cfg = write_config(tmp_path, homeos={"a": {"rule": "lineswap"}, "b": {"rule": "identity"}})
    code, _out, _ = run_cli(
        ["--config", str(cfg), "--out", str(tmp_path / "rep"), "match", "--steps", "4"], capsys
    )
    assert code == 0
    lines = (tmp_path / "rep" / "match-transcript.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    assert rec["target"] == "x^-1"


def test_match_empty_boundary_config(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        factors={
            "first": [
                {"id": "A1", "kind": "lattice", "dim": 2},
                {"id": "B1", "kind": "line", "names": ["y"]},
            ],
            "second": [
                {"id": "A2", "kind": "lattice", "dim": 2},
                {"id": "B2", "kind": "line", "names": ["y"]},
            ],
        },
    )
    code, _out, _ = run_cli(
        ["--config", str(cfg), "--out", str(tmp_path / "rep"), "match", "--steps", "6"], capsys
    )
    assert code == 0
    lines = (tmp_path / "rep" / "match-transcript.jsonl").read_text().splitlines()
    branches = {json.loads(l)["pair"]: json.loads(l)["branch"] for l in lines}
    assert branches["A"] == "empty_boundary"
    assert branches["B"] == "boundary"
    report = json.loads((tmp_path / "rep" / "match-report.json").read_text())
    assert report["pairs"]["A"]["bijectivity"]["ok"]
    assert report["status"] == "pass"


def test_gauge_csv(tmp_path, capsys):
    code, _out, _ = run_cli(["--out", str(tmp_path), "gauge", "x^2", "--radius", "3"], capsys)
    assert code == 0
    text = (tmp_path / "gauge-x_2.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "lambda,eps,bound,certified_radius"
    assert lines[-1].startswith("delta,,")
    assert any(line.startswith("1,0,0,") for line in lines)


def test_gauge_lattice_nonzero_entry(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        factors={
            "first": [
                {"id": "A1", "kind": "lattice", "dim": 2},
                {"id": "B1", "kind": "line", "names": ["y"]},
            ],
            "second": None,
        },
        grid=[[1, 0], [1, 1], [1, 2], [1, 4], [1, 6], [2, 1], [3, 0], [5, 0]],
    )
    code, _out, _ = run_cli(
        ["--config", str(cfg), "--out", str(tmp_path / "rep"), "gauge", "a1^2", "--radius", "3"],
        capsys,
    )
    assert code == 0
    text = (tmp_path / "rep" / "gauge-a1_2.csv").read_text()
    row = next(l for l in text.splitlines() if l.startswith("3,0,"))
    assert row.split(",")[2] != "0"


def test_emit_dot(tmp_path, capsys):
    code, _out, _ = run_cli(
        ["--out", str(tmp_path), "--emit-dot", "check", "prefix-transit", "--radius", "2"], capsys
    )
    assert code == 0
    assert (tmp_path / "ball-r2.dot").read_text().startswith("graph ball {")
    ball = json.loads((tmp_path / "ball-r2.json").read_text())
    assert ball["vertex_count"] == 17 and ball["vertices"][0] == "e"


def test_inconclusive_budget_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, budgets={"path_cap": 5})
    code, _out, err = run_cli(
        ["--config", str(cfg), "--out", str(tmp_path / "rep"), "check", "prefix-transit", "--radius", "4"],
        capsys,
    )
    assert code == 3
    assert "inconclusive" in err


def test_match_transcript_names_gauge(tmp_path, capsys):
    code, _out, _ = run_cli(["--out", str(tmp_path), "match", "--steps", "2"], capsys)
    assert code == 0
    rec = json.loads((tmp_path / "match-transcript.jsonl").read_text().splitlines()[0])
    assert rec["gauge"].startswith("affine:")


def test_bad_config_schema(tmp_path, capsys):
    cfg = write_config(tmp_path, schema=2)
    code, _out, err = run_cli(["--config", str(cfg), "normalize", "x"], capsys)
    assert code == 2
    assert "schema" in err


def test_grid_must_contain_probes(tmp_path, capsys):
    cfg = write_config(tmp_path, grid=[[1, 0]])
    code, _out, err = run_cli(["--config", str(cfg), "normalize", "x"], capsys)
    assert code == 2
    assert "probe" in err


def test_reports_are_byte_identical(tmp_path, capsys):
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        code, _o, _e = run_cli(["--out", str(out), "check", "concat-qg", "--radius", "3"], capsys)
        assert code == 0
        blobs.append((out / "check-concat-qg.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_match_reports_byte_identical(tmp_path, capsys):
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        code, _o, _e = run_cli(["--out", str(out), "match", "--steps", "4"], capsys)
        assert code == 0
        blobs.append(
            (out / "match-report.json").read_bytes()
            + (out / "match-transcript.jsonl").read_bytes()
        )
    assert blobs[0] == blobs[1]


Z3_LINE_PAIR = [
    {"id": "A1", "kind": "line", "names": ["x"]},
    {"id": "B1", "kind": "finite", "table": [[(i + j) % 3 for j in range(3)] for i in range(3)],
     "generators": [1, 2], "names": ["s", "t"]},
]


def test_normalize_huge_finite_power(tmp_path, capsys):
    # finite powers reduce the exponent modulo the generator's order
    cfg = write_config(tmp_path, factors={"first": Z3_LINE_PAIR, "second": []})
    outputs = []
    for word in ("x s^1000000000000 x", "x s^-999999999998 x", "x s x"):
        code, out, _ = run_cli(["--config", str(cfg), "normalize", word], capsys)
        assert code == 0
        data = json.loads(out)
        del data["input"]
        outputs.append(data)
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]["word"] == "x s x"


def _assert_usage_error(code, err):
    assert code == 2
    assert "error:" in err and "Traceback" not in err


def test_lambda_without_eps_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "projection-qg", "--lambda", "2"])
    _assert_usage_error(exc.value.code, capsys.readouterr().err)


def test_negative_radius_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "prefix-transit", "--radius", "-1"])
    _assert_usage_error(exc.value.code, capsys.readouterr().err)


def test_lattice_dim_one_is_usage_error(tmp_path, capsys):
    first = [{"id": "A1", "kind": "lattice", "dim": 1}, {"id": "B1", "kind": "line", "names": ["y"]}]
    cfg = write_config(tmp_path, factors={"first": first, "second": []})
    code, _out, err = run_cli(["--config", str(cfg), "normalize", "y"], capsys)
    _assert_usage_error(code, err)
    assert "lattice dimension" in err


def test_string_budget_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, budgets={"path_cap": "many"})
    code, _out, err = run_cli(["--config", str(cfg), "normalize", "x"], capsys)
    _assert_usage_error(code, err)
    assert "budgets" in err


def test_finite_first_with_line_second_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, factors={"first": Z3_LINE_PAIR[::-1]})
    code, _out, err = run_cli(["--config", str(cfg), "normalize", "s"], capsys)
    _assert_usage_error(code, err)
    assert "boundaries" in err
