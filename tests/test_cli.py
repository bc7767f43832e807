"""Command-line interface: exit codes, reports, determinism."""

import dataclasses
import json
import os

import pytest

from morse_forge import checks, cli, errors, factors, graph, matching, morse, rays, words
from morse_forge.cli import DEFAULT_CONFIG, load_config, main
from morse_forge.errors import PossiblyTruncated


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


@pytest.mark.parametrize(
    "args, flags",
    [
        (["phi-psi", "--radius", "3"], "--radius"),
        (["prefix-transit", "--radius", "2", "--lambda", "2", "--eps", "1"], "--lambda or --eps"),
        (["concat-qg", "--lambda", "1", "--eps", "0"], "--lambda or --eps"),
    ],
    ids=["radius", "lambda", "eps"],
)
def test_check_refuses_unread_flag(tmp_path, capsys, args, flags):
    # a flag the check would ignore is a usage error, before any report
    code, out, err = run_cli(["--out", str(tmp_path), "check"] + args, capsys)
    assert code == 2 and out == ""
    assert err == f"error: check {args[0]} does not read {flags}\n"
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


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


def test_emit_dot_exports_the_ball_the_check_ran_on(tmp_path, capsys):
    # prefix-transit runs at its own radius 5 unless --radius is given,
    # above the config's ball_radius of 4
    code, _out, _ = run_cli(["--out", str(tmp_path), "--emit-dot", "check", "prefix-transit"], capsys)
    assert code == 0
    assert json.loads((tmp_path / "check-prefix-transit.json").read_text())["params"]["radius"] == 5
    assert sorted(p.name for p in tmp_path.glob("ball-r*")) == ["ball-r5.dot", "ball-r5.json"]


def test_gauge_path_cap_budget_exit_code(tmp_path, capsys):
    # one endpoint pair of x^2 y's geodesic has 20 quasi-geodesics at (2, 1)
    errors = []
    for path_cap, expected in ((19, 3), (20, 0)):
        cfg = write_config(tmp_path, budgets={"path_cap": path_cap})
        args = ["--config", str(cfg), "--out", str(tmp_path / f"rep{path_cap}"), "gauge", "x^2 y", "--radius", "3"]
        code, _out, err = run_cli(args, capsys)
        assert code == expected
        errors.append(err)
    assert errors == ["inconclusive: budget path_cap 19 exceeded: 20 paths enumerated\n", ""]


def test_inconclusive_budget_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, budgets={"path_cap": 5})
    code, _out, err = run_cli(
        ["--config", str(cfg), "--out", str(tmp_path / "rep"), "check", "prefix-transit", "--radius", "4"],
        capsys,
    )
    assert code == 3
    # the sixth walk stops the search
    assert err == "inconclusive: budget path_cap 5 exceeded: 6 paths enumerated\n"


def test_prefix_transit_path_cap_budget_exit_code(tmp_path, capsys):
    # the walks are counted, yet the cap binds each target's count as the
    # listing did: the largest count passes, one less exits 3
    fp = load_config(None).fp1
    ball = graph.Ball.build(fp, 4)
    most = max(len(ball.enumerate_paths(0, w, ball.dist[w] + 2)) for w in range(1, len(ball)))
    messages = []
    for path_cap, expected in ((most - 1, 3), (most, 0)):
        cfg = write_config(tmp_path, budgets={"path_cap": path_cap})
        args = ["--config", str(cfg), "--out", str(tmp_path / f"rep{path_cap}"), "check", "prefix-transit", "--radius", "4"]
        code, _out, err = run_cli(args, capsys)
        assert code == expected
        messages.append(err)
    assert messages == [f"inconclusive: budget path_cap {most - 1} exceeded: {most} paths enumerated\n", ""]


def test_concat_qg_path_cap_budget_exit_code(tmp_path, capsys):
    # Z*Z r3: some endpoint pair has 11 (1, 2)-quasi-geodesics, none more
    messages = []
    for path_cap, expected in ((10, 3), (11, 0)):
        cfg = write_config(tmp_path, budgets={"path_cap": path_cap})
        args = ["--config", str(cfg), "--out", str(tmp_path / f"rep{path_cap}"), "check", "concat-qg", "--radius", "3"]
        code, _out, err = run_cli(args, capsys)
        assert code == expected
        messages.append(err)
    assert messages == ["inconclusive: budget path_cap 10 exceeded: 11 paths enumerated\n", ""]


def test_concat_qg_geodesic_cap_is_not_path_cap(lattice_product, monkeypatch):
    # e to a1^2 a2 has 3 geodesics; the overrun must not read as path_cap's
    monkeypatch.setattr(checks, "GEODESIC_CAP", 2)
    with pytest.raises(errors.BudgetExceeded, match="GEODESIC_CAP 2 exceeded") as exc:
        checks.run_concat_qg(lattice_product, radius=3)
    assert not isinstance(exc.value, errors.CapExceeded)


def test_concat_qg_geodesic_cap_exit_code(tmp_path, capsys, monkeypatch):
    # on Z^2 * Z at radius 3 no vertex has more than 3 geodesics from e;
    # a1^-2 a2^-1 is the first in ball order with 3
    cfg = write_config(tmp_path, factors=_pair(_LATTICE_FACTOR, _LATTICE_FACTOR))
    messages = []
    for cap, expected in ((2, 3), (3, 0)):
        monkeypatch.setattr(checks, "GEODESIC_CAP", cap)
        args = ["--config", str(cfg), "--out", str(tmp_path / f"rep{cap}"), "check", "concat-qg", "--radius", "3"]
        code, _out, err = run_cli(args, capsys)
        assert code == expected
        messages.append(err)
    assert messages == ["inconclusive: checks.GEODESIC_CAP 2 exceeded: more geodesics from e to a1^-2 a2^-1\n", ""]


def test_extra_rounds_budget_exit_code(tmp_path, capsys, monkeypatch):
    # the induced map asks for x^2, which the alternation has not reached
    messages = []
    for extra, expected in ((0, 3), (1, 0)):
        monkeypatch.setattr(matching, "EXTRA_ROUNDS", extra)
        code, _out, err = run_cli(["--out", str(tmp_path / f"rep{extra}"), "match", "--steps", "1"], capsys)
        assert code == expected
        messages.append(err)
    assert messages == ["inconclusive: element x^2 still unmatched after 0 extra rounds\n", ""]


def _plain_scans(monkeypatch):
    """Make every quasi-geodesic scan ignore its symmetries."""
    scan = morse.scan_quasi_geodesics

    def plain(ball, u, v, bound, visit, state, cap=None, symmetries=None):
        return scan(ball, u, v, bound, visit, state, cap)

    monkeypatch.setattr(morse, "scan_quasi_geodesics", plain)


def _written(directory):
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def test_projection_path_cap_exit_code(tmp_path, capsys, monkeypatch):
    # Z*Z, radius 3: the first pair over the cap is (e, e) at (2, 3) with
    # cap 5, and (e, x^2) at (2, 1) with cap 10.  The scans reduced by
    # their endpoints' stabilizers overrun with weighted counts; the message
    # counts as the plain search does
    for (lam, eps), cap in ((("2", "3"), 5), (("2", "1"), 10)):
        cfg = write_config(tmp_path, budgets={"path_cap": cap})
        args = ["--config", str(cfg), "--out", str(tmp_path / "rep")]
        args += ["check", "projection-qg", "--radius", "3", "--lambda", lam, "--eps", eps]
        result = run_cli(args, capsys)
        code, _out, err = result
        assert code == 3
        assert err == f"inconclusive: budget path_cap {cap} exceeded: {cap + 1} paths enumerated\n"
        with monkeypatch.context() as patched:
            _plain_scans(patched)
            assert run_cli(args, capsys) == result


def test_projection_qg_can_fail(tmp_path, capsys, monkeypatch):
    # a Hausdorff bound of 0 is too strong: some walk leaves the factor copy
    def strict(lam, eps):
        bound = morse.QGBound(lam, eps)
        bound.hausdorff = 0
        return bound

    monkeypatch.setattr(morse, "qg_bound", strict)
    args = ["check", "projection-qg", "--radius", "2", "--lambda", "2", "--eps", "2"]
    code, _out, _err = run_cli(["--out", str(tmp_path)] + args, capsys)
    assert code == 1
    report = json.loads((tmp_path / "check-projection-qg.json").read_text())
    assert report["status"] == "fail"
    assert report["counterexamples"][0]["reason"] == "hausdorff bound"
    rows = (tmp_path / "check-projection-qg-paths.csv").read_text().splitlines()
    assert rows[0] == ",".join(str(x) for x in report["counterexamples"][0]["walk"])


def test_projection_lower_bound_can_fail(tmp_path, capsys, monkeypatch):
    # a lower bound raised by 1 is too strong: a projection that stays put
    # for one step already breaks it.  Every pair fails, so each reduced
    # scan is rerun plainly and the files match a run without the reduction
    visitor = checks.projection_visitor

    def raised(dist, proj_map, proj_gap, v, least, haus_bound, failures):
        return visitor(dist, proj_map, proj_gap, v, [x + 1 for x in least], haus_bound, failures)

    monkeypatch.setattr(checks, "projection_visitor", raised)
    args = ["check", "projection-qg", "--radius", "2", "--lambda", "2", "--eps", "2"]
    code, _out, _err = run_cli(["--out", str(tmp_path / "reduced")] + args, capsys)
    assert code == 1
    report = json.loads((tmp_path / "reduced" / "check-projection-qg.json").read_text())
    assert report["status"] == "fail"
    assert report["counterexamples"][0]["reason"] == "projection lower bound"
    rows = (tmp_path / "reduced" / "check-projection-qg-paths.csv").read_text().splitlines()
    assert rows[0] == ",".join(str(x) for x in report["counterexamples"][0]["walk"])
    _plain_scans(monkeypatch)
    assert run_cli(["--out", str(tmp_path / "plain")] + args, capsys)[0] == 1
    assert _written(tmp_path / "reduced") == _written(tmp_path / "plain")


def test_projection_builds_only_the_rows_it_reads(tmp_path, capsys, monkeypatch):
    # on Z^2 * Z at radius 3 and (1, 0) the check builds the distance rows
    # of 25 of the ball's 143 vertices: the copy's, which the visitor
    # reads, and those the scans' walks can reach.  A run with every row
    # built with the ball writes the same files
    line = {"id": "B1", "kind": "line", "names": ["y"]}
    cfg = write_config(tmp_path, factors={"first": [dict(_LATTICE_FACTOR, id="A1"), line], "second": None})
    args = ["--config", str(cfg), "check", "projection-qg", "--radius", "3", "--lambda", "1", "--eps", "0"]
    built = set()
    row = graph.Ball.row

    def counted(self, u):
        built.add(u)
        return row(self, u)

    monkeypatch.setattr(graph.Ball, "row", counted)
    assert run_cli(["--out", str(tmp_path / "lazy")] + args, capsys)[0] == 0
    assert len(built) == 25
    build = graph.Ball.build.__func__

    def every_row(cls, *args, **kwargs):
        ball = build(cls, *args, **kwargs)
        for u in range(len(ball)):
            ball.row(u)
        return ball

    monkeypatch.setattr(graph.Ball, "build", classmethod(every_row))
    built.clear()
    assert run_cli(["--out", str(tmp_path / "eager")] + args, capsys)[0] == 0
    assert len(built) == 143
    assert _written(tmp_path / "lazy") == _written(tmp_path / "eager")


def test_concat_qg_can_fail(tmp_path, capsys, monkeypatch):
    # joins held to (1, 0) instead of (3 lam, eps + 1): some join is too long
    monkeypatch.setattr(morse.QGBound, "concatenated", property(lambda self: morse.qg_bound(1, 0)))
    code, _out, _err = run_cli(["--out", str(tmp_path), "check", "concat-qg", "--radius", "3"], capsys)
    assert code == 1
    report = json.loads((tmp_path / "check-concat-qg.json").read_text())
    assert report["status"] == "fail" and report["counterexample_count"] == 1824
    assert report["counterexamples"][0]["certificate"] == {
        "closest_to_p": 0,
        "closest_to_q": 3,
        "eps": "2",
        "hypothesis_held": True,
        "lam": "1",
        "out_eps": "0",
        "out_lam": "1",
        "verified": False,
    }
    assert (tmp_path / "check-concat-qg-paths.csv").read_text().strip()


@pytest.mark.parametrize(
    "seeded", [test_projection_qg_can_fail, test_projection_lower_bound_can_fail, test_concat_qg_can_fail]
)
def test_sharing_keeps_failure_lists(seeded, tmp_path, capsys, monkeypatch, cpus):
    # each seeded defect writes the same files, failure lists in the same
    # order, whether the check shares its items with a forked child or not
    written = []
    for count in (1, 2):
        out = tmp_path / str(count)
        out.mkdir()
        with monkeypatch.context() as patched:
            forks = cpus(count)
            seeded(out, capsys, patched)
        written.append(_written(out))
    assert forks and set(forks) == {2}
    assert written[0] == written[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_phi_psi_can_fail(tmp_path, capsys, monkeypatch):
    # a decomposition that inverts the second run of every ray
    decompose = rays.decompose

    def corrupted(fp, ray):
        out = decompose(fp, ray)
        if len(out) >= 2:
            return (out[0], out[1].inverse()) + out[2:]
        return out

    monkeypatch.setattr(rays, "decompose", corrupted)
    code, _out, _err = run_cli(["--out", str(tmp_path), "check", "phi-psi"], capsys)
    assert code == 1
    report = json.loads((tmp_path / "check-phi-psi.json").read_text())
    assert report["status"] == "fail"
    assert (report["instances"], report["counterexample_count"]) == (956, 954)


def test_phi_psi_records_a_broken_certificate(tmp_path, capsys, monkeypatch):
    # a spelling that steps back to e at vertex 2 of every ray longer than
    # 3: the certificate refuses those rays, and the check records them
    # (the rays spelled shorter fail their rebuild instead); the list it
    # edits is its own, so the run's table of spellings stays intact
    spell = rays.spell

    def stepping_back(fp, syllables, depth, table):
        verts = spell(fp, syllables, depth, table)
        if len(verts) > 3:
            verts[2] = verts[0]
        return verts

    monkeypatch.setattr(rays, "spell", stepping_back)
    code, _out, _err = run_cli(["--out", str(tmp_path), "check", "phi-psi"], capsys)
    assert code == 1
    report = json.loads((tmp_path / "check-phi-psi.json").read_text())
    assert report["status"] == "fail"
    assert (report["instances"], report["counterexample_count"]) == (956, 956)


def test_vertex_budget_binds_on_check_balls(tmp_path, capsys):
    # Z*Z at radius 10 has 118,097 vertices; the budget stops the ball early
    cfg = write_config(tmp_path, budgets={"vertex_budget": 1000})
    args = ["check", "projection-qg", "--radius", "10"]
    code, _out, err = run_cli(["--config", str(cfg), "--out", str(tmp_path / "rep")] + args, capsys)
    assert code == 3
    assert "inconclusive" in err and "vertex_budget 1000" in err


def _lz3_config(tmp_path):
    z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    return write_config(
        tmp_path,
        factors={
            "first": [
                {"id": "A1", "kind": "line", "names": ["x"]},
                {"id": "B1", "kind": "finite", "table": z3, "generators": [1, 2], "names": ["s", "t"]},
            ],
            "second": None,
        },
    )


def _run_v_system(tmp_path, capsys):
    args = ["--config", str(_lz3_config(tmp_path)), "--out", str(tmp_path / "rep"), "check", "v-system"]
    code, _out, _err = run_cli(args, capsys)
    return code, json.loads((tmp_path / "rep" / "check-v-system.json").read_text())


def test_nbhd_nesting_can_fail(tmp_path, capsys, monkeypatch):
    # a nesting depth below l: a depth-(l - 1) neighbourhood is not inside
    # the depth-l one
    monkeypatch.setattr(morse, "nesting_constant", lambda l, gauge: max(1, l - 1))
    code, _out, _err = run_cli(["--out", str(tmp_path), "check", "nbhd-nesting"], capsys)
    assert code == 1
    report = json.loads((tmp_path / "check-nbhd-nesting.json").read_text())
    assert report["status"] == "fail"
    assert (report["instances"], report["counterexample_count"]) == (90, 18)
    assert report["counterexamples"][0] == {"l": 2, "w": "x", "y": "x", "z": "+inf"}


def test_nbhd_nesting_refuses_a_factor_without_a_line(tmp_path, capsys):
    # Z^2 * Z and Z/2 * Z/2: the first factor has no line through the
    # basepoint to nest neighbourhoods around, so the check writes nothing
    line = {"id": "B1", "kind": "line", "names": ["y"]}
    for first in ([dict(_LATTICE_FACTOR, id="A1"), line], [dict(_Z2_FACTOR, id="A1"), dict(_Z2_FACTOR, id="B1", names=["b"])]):
        cfg = write_config(tmp_path, factors={"first": first, "second": None})
        out = tmp_path / "rep"
        result = run_cli(["--config", str(cfg), "--out", str(out), "check", "nbhd-nesting"], capsys)
        assert result == (2, "", "error: factor 'A1' has no line through the basepoint\n")
        assert not out.exists()


def test_v_system_property_2_can_fail(tmp_path, capsys, monkeypatch):
    # drop one ray from V_1 of one center but keep it in V_2: not nested
    members = rays.CombIndex.members
    a_text, b_text = "e ; tail=A1:+inf", "e ; tail=A1:-inf"

    def non_nested(self, a, k, gauge):
        out = members(self, a, k, gauge)
        if k == 1 and a.text() == a_text:
            out = [b for b in out if b.text() != b_text]
        return out

    monkeypatch.setattr(rays.CombIndex, "members", non_nested)
    code, report = _run_v_system(tmp_path, capsys)
    assert code == 1 and report["status"] == "fail"
    assert {"property": 2, "a": a_text, "b": b_text} in report["counterexamples"]


def test_v_system_property_3_can_fail(tmp_path, capsys, monkeypatch):
    # reject one (a, i, c) that the infinite-center scan of property 3 reaches
    member = rays.comb_neighborhood_member
    a_text, c_text = "e ; repeat=t | x^-1", "e | t ; tail=A1:+inf"

    def rejecting(a, k, gauge, b):
        if k == 1 and a.text() == a_text and b.text() == c_text:
            return False
        return member(a, k, gauge, b)

    monkeypatch.setattr(rays, "comb_neighborhood_member", rejecting)
    code, report = _run_v_system(tmp_path, capsys)
    assert code == 1 and report["status"] == "fail"
    rows = [c for c in report["counterexamples"] if c["property"] == 3]
    assert rows and all(c["a"] == a_text and c["c"] == c_text and c["i"] == 1 for c in rows)


def test_induced_containment_can_fail(tmp_path, capsys, monkeypatch):
    # one ray's image gets a different second syllable, so it leaves the
    # depth-2 neighborhood of its center's image
    induced_map = matching.induced_map
    a_text, b_text = "e ; repeat=y^-1 | x^-1", "e | y^-1 | x ; tail=B1:+inf"

    def corrupted(pm, a, *args, **kwargs):
        image = induced_map(pm, a, *args, **kwargs)
        if a.text() == b_text:
            s = image.syllables[1]
            image = dataclasses.replace(image, syllables=(image.syllables[0], s * s) + image.syllables[2:])
        return image

    monkeypatch.setattr(matching, "induced_map", corrupted)
    code, _out, _err = run_cli(["--out", str(tmp_path), "match", "--steps", "20"], capsys)
    assert code == 1
    report = json.loads((tmp_path / "match-report.json").read_text())
    assert report["status"] == "fail"
    assert {"a": a_text, "b": b_text, "l": 2} in report["induced_containment"]["failures"]


def _run_match(tmp_path, capsys, steps):
    code, _out, _err = run_cli(["--out", str(tmp_path), "match", "--steps", str(steps)], capsys)
    return code, json.loads((tmp_path / "match-report.json").read_text())


def test_match_bijectivity_can_fail(tmp_path, capsys, monkeypatch):
    # pair A's fifth step (x^3 to x^3) records its pair forward but not backward
    commit = matching.MatchState._commit

    def dropping(self, side, x, y, record):
        commit(self, side, x, y, record)
        if self.source.id == "A1" and record["seq"] == 5:
            del self.backward[y if side == 1 else x]

    monkeypatch.setattr(matching.MatchState, "_commit", dropping)
    code, report = _run_match(tmp_path, capsys, 20)
    assert code == 1 and report["status"] == "fail"
    # x^3 is matched again from the target side, so two sources share it
    assert report["pairs"]["A"]["bijectivity"] == {
        "pairs": 41,
        "mutually_inverse": False,
        "injective": False,
        "identity_fixed": True,
        "alternation_prefix_matched": True,
        "ok": False,
    }
    assert report["pairs"]["B"]["bijectivity"]["ok"]


def test_match_duality_can_fail(tmp_path, capsys, monkeypatch):
    # x^95 is recorded with the wrong end of the line; duality checks
    # elements of norm >= 90 only, which 100 steps reach and 20 do not
    commit = matching.MatchState._commit

    def misdirecting(self, side, x, y, record):
        commit(self, side, x, y, record)
        if self.source.id == "A1" and side == 1 and record["initiator"] == "x^95":
            self.directions[x] = factors.BoundaryPoint.line_end(x.spec, -1)

    monkeypatch.setattr(matching.MatchState, "_commit", misdirecting)
    code, report = _run_match(tmp_path, capsys, 100)
    assert code == 1 and report["status"] == "fail"
    dual = report["pairs"]["A"]["duality"]
    assert dual["checked"] == 132
    # the ends of the line stand 2k apart at depth k, which passes below ceil(delta) = 5
    assert dual["failures"] == [{"x": "x^95", "k": 3, "ray_near_x": False, "x_near_ray": False}]
    assert report["pairs"]["A"]["bijectivity"]["ok"] and not report["pairs"]["B"]["duality"]["failures"]


def test_match_continuity_can_fail(tmp_path, capsys, monkeypatch):
    # pair A swaps the images of x^12 and x^-12 after the run; the map stays
    # a bijection, but sends a deep point of each end to the other end
    run_rounds = matching.ProductMatching.run_rounds

    def swapping(self, rounds):
        run_rounds(self, rounds)
        state = self.a
        plus, minus = state.source.make_element(12), state.source.make_element(-12)
        y_plus, y_minus = state.forward[plus], state.forward[minus]
        state.forward[plus], state.forward[minus] = y_minus, y_plus
        state.backward[y_minus], state.backward[y_plus] = plus, minus
        return self

    monkeypatch.setattr(matching.ProductMatching, "run_rounds", swapping)
    code, report = _run_match(tmp_path, capsys, 20)
    # a finite ball cannot refute continuity, so an unsettled search is
    # inconclusive, not a counterexample
    assert code == 3 and report["status"] == "inconclusive"
    pair = report["pairs"]["A"]
    assert pair["bijectivity"]["ok"] and not pair["duality"]["failures"]
    # depths 1 and 2 hold any two points of norm >= l; at depth 3 the ends split
    failed = {key: entry for key, entry in pair["continuity"].items() if entry["status"] != "verified"}
    assert failed == {
        "+inf|l=3": {"status": "inconclusive", "found_k": None},
        "-inf|l=3": {"status": "inconclusive", "found_k": None},
    }
    assert all(e["status"] == "verified" for e in report["pairs"]["B"]["continuity"].values())


def _continuity_budget_exit(tmp_path, capsys, budgets, named):
    cfg = write_config(tmp_path, budgets=budgets)
    args = ["--config", str(cfg), "--out", str(tmp_path / "rep"), "match", "--steps", "5"]
    code, out, err = run_cli(args, capsys)
    assert code == 3 and json.loads(out)["status"] == "inconclusive"
    assert err.count("\n") == 1 and err.startswith("inconclusive: ")
    assert err.endswith(f"within budgets {named}\n")
    report = json.loads((tmp_path / "rep" / "match-report.json").read_text())
    assert report["status"] == "inconclusive"
    unsettled = {
        (name, key): entry["status"]
        for name, pair in report["pairs"].items()
        for key, entry in pair["continuity"].items()
        if entry["status"] != "verified"
    }
    assert unsettled == {
        (name, f"{end}|l={l}"): "inconclusive" for name in "AB" for end in ("+inf", "-inf") for l in (2, 3)
    }


def test_match_continuity_budget_exit_code(tmp_path, capsys):
    # at depth 1 only, the search for l = 2 and 3 runs out: no element of
    # norm >= 1 near an end stays near its image at depth 2
    budgets = {"continuity_k_max": 1}
    _continuity_budget_exit(tmp_path, capsys, budgets, "continuity_k_max 1 and continuity_ball 12")


def test_match_continuity_ball_budget_exit_code(tmp_path, capsys):
    # among the elements of norm <= 1, only x and x^-1 lie near an end, at
    # depth 1, and their images have norm 1 < l = 2 and 3; no deeper
    # member exists, so the same searches run out
    budgets = {"continuity_ball": 1}
    _continuity_budget_exit(tmp_path, capsys, budgets, "continuity_k_max 12 and continuity_ball 1")


def test_match_counterexample_outranks_continuity_budget(tmp_path, capsys, monkeypatch):
    # the same run with pair A's fifth step dropping its backward entry: a
    # bijectivity failure exits 1 even where continuity ran out
    commit = matching.MatchState._commit

    def dropping(self, side, x, y, record):
        commit(self, side, x, y, record)
        if self.source.id == "A1" and record["seq"] == 5:
            del self.backward[y if side == 1 else x]

    monkeypatch.setattr(matching.MatchState, "_commit", dropping)
    cfg = write_config(tmp_path, budgets={"continuity_k_max": 1})
    args = ["--config", str(cfg), "--out", str(tmp_path / "rep"), "match", "--steps", "5"]
    code, _out, err = run_cli(args, capsys)
    assert code == 1 and err == ""
    report = json.loads((tmp_path / "rep" / "match-report.json").read_text())
    assert report["status"] == "fail" and not report["pairs"]["A"]["bijectivity"]["ok"]
    assert report["pairs"]["A"]["continuity"]["+inf|l=2"]["status"] == "inconclusive"


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


def test_non_positive_steps_is_usage_error(capsys):
    # a match of no rounds would pass vacuously
    for steps in ("-3", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["match", "--steps", steps])
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


def test_non_numeric_grid_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, grid=[["a", 0], [3, 0], [5, 0]])
    code, _out, err = run_cli(["--config", str(cfg), "normalize", "x"], capsys)
    _assert_usage_error(code, err)
    assert "grid" in err


@pytest.mark.parametrize("point", [[0.5, 0], [1, -1]])
def test_out_of_range_grid_is_usage_error(tmp_path, capsys, point):
    # gauge reads every grid point; (lambda, eps) bounds need lambda >= 1, eps >= 0
    cfg = write_config(tmp_path, grid=[point, [1, 0], [3, 0], [5, 0]])
    args = ["--config", str(cfg), "--out", str(tmp_path), "gauge", "x", "--radius", "2"]
    code, _out, err = run_cli(args, capsys)
    _assert_usage_error(code, err)
    assert "grid" in err


@pytest.mark.parametrize("body", [[1, 2], "text"], ids=["list", "string"])
def test_config_not_an_object_is_usage_error(tmp_path, capsys, body):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(body), encoding="utf-8")
    assert run_cli(["--config", str(cfg), "normalize", "x"], capsys) == (2, "", "error: config must be a JSON object\n")


def test_config_accepts_unread_fields(tmp_path, capsys):
    # configs written for other tools may carry a seed and extra budgets
    cfg = write_config(tmp_path, seed="x", budgets={"path_maxlen": 40, "realization_cap": 64})
    code, out, _err = run_cli(["--config", str(cfg), "normalize", "x"], capsys)
    assert code == 0 and json.loads(out)["word"] == "x"


def test_finite_first_with_line_second_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, factors={"first": Z3_LINE_PAIR[::-1]})
    code, _out, err = run_cli(["--config", str(cfg), "normalize", "s"], capsys)
    _assert_usage_error(code, err)
    assert "boundaries" in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"id": "A1", "kind": "torus"}, "unknown factor kind 'torus'"),
        ({"id": "A1"}, "unknown factor kind None"),
        ({"id": "A1", "kind": "lattice"}, "'dim'"),
        ({"id": "A1", "kind": "free"}, "'rank'"),
        ({"id": "A1", "kind": "finite", "generators": [1]}, "'table'"),
        ("line", "factor entry 'line' is not an object"),
        ({"id": "A1", "kind": "line", "names": ["x", "z"]}, "invalid factors or homeos: the integer line has exactly one base generator"),
        ({"id": "A1", "kind": "lattice", "dim": 2, "names": "ab"}, "factor 'A1' names must be a list of strings"),
        ({"id": "A1", "kind": "free", "rank": 1, "names": [1]}, "factor 'A1' names must be a list of strings"),
        ({"id": "A1", "kind": "line", "names": []}, "factor 'A1' names must not be empty"),
        ({"id": "A1", "kind": "lattice", "dim": 2, "names": []}, "factor 'A1' names must not be empty"),
        ({"id": "A1", "kind": "free", "rank": 1, "names": []}, "factor 'A1' names must not be empty"),
        ({"id": "A1", "kind": "finite", "table": [[0, 1], [1, 0]], "generators": [1], "names": []}, "factor 'A1' names must not be empty"),
        ({"id": 5, "kind": "line"}, "factor id 5 must be a string"),
    ],
    ids=[
        "unknown", "no-kind", "no-dim", "no-rank", "no-table", "not-an-object", "line-two-names", "names-text",
        "names-number", "line-no-names", "lattice-no-names", "free-no-names", "finite-no-names", "id-number",
    ],
)
def test_factor_entry_errors_are_usage_errors(tmp_path, capsys, entry, message):
    first = [entry, {"id": "B1", "kind": "line", "names": ["y"]}]
    cfg = write_config(tmp_path, factors={"first": first, "second": []})
    code, _out, err = run_cli(["--config", str(cfg), "normalize", "y"], capsys)
    assert code == 2 and err == f"error: {message}\n"


LINE_C = {"id": "C1", "kind": "line", "names": ["z"]}


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"factors": {"first": [DEFAULT_CONFIG["factors"]["first"][0]]}}, "factors.first must list two factor entries"),
        ({"factors": {"first": DEFAULT_CONFIG["factors"]["first"] + [LINE_C]}}, "factors.first must list two factor entries"),
        ({"factors": {"first": DEFAULT_CONFIG["factors"]["first"][0]}}, "factors.first must list two factor entries"),
        ({"factors": {"second": [DEFAULT_CONFIG["factors"]["second"][0]]}}, "factors.second must list two factor entries"),
        ({"budgets": [4, 20]}, "budgets must be an object of positive integers"),
        ({"homeos": {"a": "identity"}}, "homeos.a must be an object"),
        ({"homeos": {"b": ["lineswap"]}}, "homeos.b must be an object"),
        ({"homeos": {"a": {"rule": "perm", "map": [1, 2]}}}, "homeos.a.map must be an object of generator names"),
        ({"homeos": {"b": {"rule": "perm", "map": {"y": 5}}}}, "homeos.b.map must be an object of generator names"),
        ({"output": 5}, "output must be a string"),
    ],
    ids=[
        "first-one", "first-three", "first-object", "second-one", "budgets-list",
        "homeo-a-text", "homeo-b-list", "homeo-map-list", "homeo-map-number", "output-number",
    ],
)
def test_malformed_config_shapes_are_usage_errors(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    code, _out, err = run_cli(["--config", str(cfg), "normalize", "x"], capsys)
    assert code == 2 and err == f"error: {message}\n"


def test_concat_ball_too_small_exit_code(tmp_path, capsys, monkeypatch):
    # a joining geodesic that leaves the ball exhausts the ball_radius budget
    def truncated(ball, u, v):
        raise PossiblyTruncated("the first geodesic between these endpoints leaves the ball")

    monkeypatch.setattr(graph.Ball, "first_geodesic", truncated)
    cfg = write_config(tmp_path, budgets={"ball_radius": 2})
    args = ["--config", str(cfg), "--out", str(tmp_path / "rep"), "check", "concat-qg"]
    code, _out, err = run_cli(args, capsys)
    assert code == 3
    assert err == "inconclusive: budget ball_radius 2 too small: joining geodesics may leave the ball\n"


@pytest.mark.parametrize("budget", [test_projection_path_cap_exit_code, test_concat_ball_too_small_exit_code])
def test_budgets_bind_in_shared_items(budget, tmp_path, capsys, monkeypatch, cpus):
    # with two CPUs the caps still exit 3 with their exact messages, though
    # the item that overruns may run in the child, and no child outlives it
    forks = cpus(2)
    budget(tmp_path, capsys, monkeypatch)
    assert forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_match_ray_budget_exit_code(tmp_path, capsys):
    # the default gauge certifies each boundary step at depth 60
    errors = []
    for ray_depth, expected in ((59, 3), (60, 0)):
        cfg = write_config(tmp_path, budgets={"ray_depth": ray_depth})
        args = ["--config", str(cfg), "--out", str(tmp_path / "rep"), "match", "--steps", "1"]
        code, _out, err = run_cli(args, capsys)
        assert code == expected
        errors.append(err)
    assert errors == ["inconclusive: budget ray_depth 59 exceeded: certification needs depth 60\n", ""]


def test_match_index_scan_budget_exit_code(tmp_path, capsys):
    # under the identity rule round k of 20 takes the k-th vertex of its
    # image ray, so 20 rounds need index 20 and no more: the cursor past
    # the matched vertices must stop at the budget's edge
    errors = []
    for index_scan, expected in ((19, 3), (20, 0)):
        cfg = write_config(tmp_path, budgets={"index_scan": index_scan})
        out = tmp_path / f"rep{index_scan}"
        args = ["--config", str(cfg), "--out", str(out), "match", "--steps", "20"]
        code, _out, err = run_cli(args, capsys)
        assert code == expected
        errors.append(err)
    assert errors == ["inconclusive: budget index_scan 19 exhausted: no admissible unmatched candidate\n", ""]
    transcript = (out / "match-transcript.jsonl").read_text().splitlines()
    assert max(json.loads(line).get("i", 0) for line in transcript) == 20


_Z2_FACTOR = {"kind": "finite", "table": [[0, 1], [1, 0]], "generators": [1], "names": ["a"]}
_LATTICE_FACTOR = {"kind": "lattice", "dim": 2}


def _pair(first_a, second_a):
    line = {"kind": "line", "names": ["y"]}
    return {
        "first": [dict(first_a, id="A1"), dict(line, id="B1")],
        "second": [dict(second_a, id="A2"), dict(line, id="B2")],
    }


def test_finite_factor_matched_to_infinite_is_usage_error(tmp_path, capsys):
    # neither has a boundary, but no bijection of Z/2 onto Z^2 exists
    for first_a, second_a in ((_Z2_FACTOR, _LATTICE_FACTOR), (_LATTICE_FACTOR, _Z2_FACTOR)):
        cfg = write_config(tmp_path, factors=_pair(first_a, second_a))
        code, _out, err = run_cli(["--config", str(cfg), "normalize", "y"], capsys)
        _assert_usage_error(code, err)
        assert "a finite factor and an infinite one admit no bijection" in err
    for same in (_Z2_FACTOR, _LATTICE_FACTOR):
        cfg = write_config(tmp_path, factors=_pair(same, same))
        code, out, _err = run_cli(["--config", str(cfg), "normalize", "y"], capsys)
        assert code == 0 and json.loads(out)["word"] == "y"


def test_finite_factor_match_finishes(tmp_path, capsys):
    # Z/2 is all matched by pair A's first step; its later steps record nothing
    cfg = write_config(tmp_path, factors=_pair(_Z2_FACTOR, _Z2_FACTOR))
    args = ["--config", str(cfg), "--out", str(tmp_path / "rep"), "match", "--steps", "3"]
    code, _out, err = run_cli(args, capsys)
    assert code == 0 and err == ""
    report = json.loads((tmp_path / "rep" / "match-report.json").read_text())
    assert report["pairs"]["A"]["bijectivity"]["pairs"] == 2
    assert report["pairs"]["A"]["bijectivity"]["ok"]
    lines = (tmp_path / "rep" / "match-transcript.jsonl").read_text().splitlines()
    assert [json.loads(l)["pair"] for l in lines].count("A") == 1


_INCONCLUSIVE_ERRORS = (
    errors.BudgetExceeded,
    errors.CapExceeded,
    errors.PossiblyTruncated,
    errors.GridMiss,
    errors.BallTooSmall,
    errors.DepthBudgetExceeded,
)
_USAGE_ERRORS = (
    errors.MorseForgeError,
    errors.MixedFactor,
    errors.NoBoundary,
    errors.NoLine,
    errors.EmptyWord,
    errors.ParseError,
)


@pytest.mark.parametrize(
    "error, expected",
    [(e, 3) for e in _INCONCLUSIVE_ERRORS] + [(e, 2) for e in _USAGE_ERRORS],
    ids=lambda x: x.__name__ if isinstance(x, type) else str(x),
)
def test_error_class_sets_exit_code(capsys, monkeypatch, error, expected):
    def failing(cfg, word):
        raise error(7)

    monkeypatch.setattr(cli, "cmd_normalize", failing)
    code, _out, err = run_cli(["normalize", "x"], capsys)
    assert code == expected
    assert err.startswith("inconclusive: " if expected == 3 else "error: ")


def test_prefix_transit_can_fail(tmp_path, capsys, monkeypatch):
    # a claim too strong: every path to a1 a2 must pass a1, which is no cut
    # vertex of the lattice, so the path through a2 breaks it
    prefix_vertices = words.FreeProduct.prefix_vertices

    def stricter(fp, w):
        required = prefix_vertices(fp, w)
        if w == fp.parse("a1 a2"):
            required.append(fp.parse("a1"))
        return required

    monkeypatch.setattr(words.FreeProduct, "prefix_vertices", stricter)
    cfg = write_config(tmp_path, factors=_pair(_LATTICE_FACTOR, _LATTICE_FACTOR))
    args = ["--config", str(cfg), "--out", str(tmp_path), "check", "prefix-transit", "--radius", "2"]
    code, _out, _err = run_cli(args, capsys)
    assert code == 1
    report = json.loads((tmp_path / "check-prefix-transit.json").read_text())
    assert report["status"] == "fail"
    assert {cex["w"] for cex in report["counterexamples"]} == {"a1 a2"}
    first = report["counterexamples"][0]["path"]
    fp = load_config(str(cfg)).fp1
    assert graph.Ball.build(fp, 2).index_of(fp.parse("a1")) not in first
    rows = (tmp_path / "check-prefix-transit-paths.csv").read_text().splitlines()
    assert rows[0] == ",".join(str(x) for x in first)


def test_prefix_transit_slack_can_fail(tmp_path, capsys, monkeypatch):
    # on Z^2 * Z, a1^2 made to require a1 as well: a1 is off its gate chain,
    # and the shortest walks around it take |a1^2| + 2 = 4 steps, so the
    # default slack 2 lists them and slack 1 does not reach them
    prefix_vertices = words.FreeProduct.prefix_vertices

    def stricter(fp, w):
        required = prefix_vertices(fp, w)
        if w == fp.parse("a1^2"):
            required.append(fp.parse("a1"))
        return required

    monkeypatch.setattr(words.FreeProduct, "prefix_vertices", stricter)
    cfg = write_config(tmp_path, factors=_pair(_LATTICE_FACTOR, _LATTICE_FACTOR))
    args = ["--config", str(cfg), "--out", str(tmp_path / "rep"), "check", "prefix-transit", "--radius", "3"]
    code, _out, _err = run_cli(args, capsys)
    assert code == 1
    report = json.loads((tmp_path / "rep" / "check-prefix-transit.json").read_text())
    # around a1 through a2 and through a2^-1
    assert report["status"] == "fail" and report["counterexample_count"] == 2
    fp = load_config(str(cfg)).fp1
    ball = graph.Ball.build(fp, 3)
    a1 = ball.index_of(fp.parse("a1"))
    cexs = report["counterexamples"]
    assert all(c["w"] == "a1^2" and a1 not in c["path"] and len(c["path"]) == 5 for c in cexs)
    rows = (tmp_path / "rep" / "check-prefix-transit-paths.csv").read_text().splitlines()
    assert rows[0] == ",".join(str(x) for x in cexs[0]["path"])
    assert checks.run_prefix_transit(fp, radius=3, slack=1)["status"] == "pass"
