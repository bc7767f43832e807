"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import json
import time
from fractions import Fraction

import pytest

from morse_forge import CANONICAL_TREE_GAUGE, FactorSpec, FreeProduct, Gauge
from morse_forge import checks, cli, matching, morse
from morse_forge.cli import DEFAULT_CONFIG


def _zz():
    return FreeProduct(FactorSpec.integer_line("A1", "x"), FactorSpec.integer_line("B1", "y"))


def _dihedral():
    t = [[0, 1], [1, 0]]
    return FreeProduct(
        FactorSpec.finite_table("A1", t, [1], names=["a"]),
        FactorSpec.finite_table("B1", t, [1], names=["b"]),
    )


def _lattice_product():
    return FreeProduct(FactorSpec.integer_lattice("A1", 2), FactorSpec.integer_line("B1", "y"))


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_prefix_transit():
    start = time.monotonic()
    reports = [
        checks.run_prefix_transit(_zz(), radius=5, slack=2),
        checks.run_prefix_transit(_dihedral(), radius=5, slack=2),
    ]
    elapsed = time.monotonic() - start
    ok = all(r["status"] == "pass" for r in reports) and elapsed < 60
    total = sum(r["instances"] for r in reports)
    _verdict(1, ok, f"{total} paths over two products, 0 counterexamples, {elapsed:.1f}s")


def test_criterion_2_projection():
    grid = ((1, 0), (1, 2), (2, 1), (3, 0))
    reports = [
        checks.run_projection_qg(_zz(), radius=4, grid=grid),
        checks.run_projection_qg(_lattice_product(), radius=4, grid=grid),
    ]
    ok = all(r["status"] == "pass" for r in reports)
    covered = sum(r["instances_with_symmetry"] for r in reports)
    _verdict(2, ok, f"{covered} quasi-geodesics (via orbit representatives), 0 counterexamples")


def test_criterion_3_concatenation():
    reports = [
        checks.run_concat_qg(_zz(), radius=4),
        checks.run_concat_qg(_lattice_product(), radius=4),
    ]
    ok = all(r["status"] == "pass" for r in reports)
    held = sum(r["hypothesis_held"] for r in reports)
    ok = ok and held > 0
    _verdict(3, ok, f"{held} hypothesis-holding instances verified at (3l, e+1)")


def test_criterion_4_closed_form_constants():
    checks_exact = [
        Gauge.affine(1, 1, 0).delta == Fraction(54),
        Gauge.affine(0, 0, 0).delta == Fraction(0),
        morse.tracking_bound(Gauge.affine(0, 0, 0), 10) == Fraction(10),
    ]
    _verdict(4, all(checks_exact), "delta and tracking constants exact over rationals")


def test_criterion_5_round_trip():
    report = checks.run_phi_psi(_zz())
    ok = report["status"] == "pass"
    _verdict(5, ok, f"{report['instances']} combinatorial geodesics round-tripped, 0 failures")


def test_criterion_6_neighborhood_axioms():
    report = checks.run_v_system(_zz(), max_len=4, max_norm=2)
    ok = report["status"] == "pass" and report["deep_instances"] > 0
    _verdict(
        6,
        ok,
        f"{report['instances']} axiom instances over {report['population']} geodesics, "
        f"{report['deep_instances']} at the nesting depth",
    )


def _match_config(tmp_path, name, rule):
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    cfg["homeos"]["a"] = {"rule": rule} if rule != "perm" else {"rule": "perm", "map": {"x": "x^-1"}}
    cfg["output"] = str(tmp_path / name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_criterion_7_matching_pipeline(tmp_path, capsys):
    start = time.monotonic()
    statuses = {}
    for rule in ("identity", "lineswap", "perm"):
        cfg = _match_config(tmp_path, rule, rule)
        code = cli.main(["--config", str(cfg), "match", "--steps", "20"])
        capsys.readouterr()
        report = json.loads((tmp_path / rule / "match-report.json").read_text())
        transcript = (tmp_path / rule / "match-transcript.jsonl").read_text().splitlines()
        boundary = [json.loads(l) for l in transcript if json.loads(l)["branch"] == "boundary"]
        statuses[rule] = (
            code == 0
            and report["status"] == "pass"
            and all(p["bijectivity"]["ok"] for p in report["pairs"].values())
            and all(p["transcripts_certified"] for p in report["pairs"].values())
            and all(not p["duality"]["failures"] for p in report["pairs"].values())
            and all(rec["certified"] and rec["T"] >= 1 for rec in boundary)
        )
    elapsed = time.monotonic() - start
    ok = all(statuses.values()) and elapsed < 300
    _verdict(7, ok, f"identity/lineswap/perm runs of 20 rounds, exit 0, {elapsed:.1f}s")


def test_criterion_8_induced_map_containment(tmp_path, capsys):
    cfg = _match_config(tmp_path, "identity8", "identity")
    code = cli.main(["--config", str(cfg), "match", "--steps", "20"])
    capsys.readouterr()
    report = json.loads((tmp_path / "identity8" / "match-report.json").read_text())
    cont = report["induced_containment"]
    continuity = report["pairs"]["A"]["continuity"]
    finite_ok = all(
        entry["status"] == "verified" and entry["found_k"] is not None
        for entry in continuity.values()
    )
    ok = code == 0 and cont["instances"] > 0 and not cont["failures"] and finite_ok
    _verdict(
        8,
        ok,
        f"{cont['instances']} infinite-type containments with k=l; "
        f"witnessing k found for {len(continuity)} finite-type cases",
    )


def test_criterion_9_empty_boundary_branch(tmp_path, capsys):
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    cfg["factors"]["first"] = [
        {"id": "A1", "kind": "lattice", "dim": 2},
        {"id": "B1", "kind": "line", "names": ["y"]},
    ]
    cfg["factors"]["second"] = [
        {"id": "A2", "kind": "lattice", "dim": 2},
        {"id": "B2", "kind": "line", "names": ["y"]},
    ]
    cfg["output"] = str(tmp_path / "rep")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code = cli.main(["--config", str(path), "match", "--steps", "10"])
    capsys.readouterr()
    report = json.loads((tmp_path / "rep" / "match-report.json").read_text())
    transcript = [
        json.loads(l)
        for l in (tmp_path / "rep" / "match-transcript.jsonl").read_text().splitlines()
    ]
    lattice_recs = [r for r in transcript if r["pair"] == "A"]
    ok = (
        code == 0
        and all(r["branch"] == "empty_boundary" for r in lattice_recs)
        and report["pairs"]["A"]["bijectivity"]["ok"]
        and report["pairs"]["A"]["bijectivity"]["identity_fixed"]
    )
    _verdict(9, ok, f"{len(lattice_recs)} fallback steps, bijectivity and e<->e hold")


def test_criterion_10_determinism(tmp_path, capsys):
    pairs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert cli.main(["--out", str(out), "check", "ray-merge"]) == 0
        assert cli.main(["--out", str(out), "check", "phi-psi"]) == 0
        assert cli.main(["--out", str(out), "match", "--steps", "6"]) == 0
        capsys.readouterr()
        blob = b"".join(
            (out / name).read_bytes()
            for name in (
                "check-ray-merge.json",
                "check-phi-psi.json",
                "match-report.json",
                "match-transcript.jsonl",
            )
        )
        pairs.append(blob)
    _verdict(10, pairs[0] == pairs[1], "re-runs are byte-identical")
