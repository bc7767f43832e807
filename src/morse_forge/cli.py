"""Reproducible command-line entry points.

Commands read a JSON config (schema 1), run a construction or an
exhaustive check, write machine-readable reports and exit with:
0 verified, 1 counterexample found, 2 usage or parse error,
3 inconclusive (a budget was exhausted before the claim was settled).
Reports never contain timestamps: the same config yields byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import checks, factors, matching, morse
from .errors import BallTooSmall, BudgetExceeded, Inconclusive, MorseForgeError, ParseError
from .graph import Ball
from .words import FreeProduct

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

DEFAULT_CONFIG = {
    "schema": 1,
    "factors": {
        "first": [
            {"id": "A1", "kind": "line", "names": ["x"]},
            {"id": "B1", "kind": "line", "names": ["y"]},
        ],
        "second": [
            {"id": "A2", "kind": "line", "names": ["x"]},
            {"id": "B2", "kind": "line", "names": ["y"]},
        ],
    },
    "homeos": {"a": {"rule": "identity"}, "b": {"rule": "identity"}},
    "budgets": {
        "ball_radius": 4,
        "path_cap": 2000000,
        "ray_depth": 512,
        "match_steps": 20,
        "index_scan": 512,
        "vertex_budget": 200000,
        "continuity_ball": 12,
        "continuity_k_max": 12,
    },
    "grid": [[1, 0], [1, 1], [1, 2], [2, 1], [3, 0], [5, 0]],
    "output": "reports",
}

#: every check id, with the ``check`` flags it reads; a check refuses any other
CHECK_FLAGS = {
    "prefix-transit": ("--radius",),
    "projection-qg": ("--radius", "--lambda", "--eps"),
    "concat-qg": ("--radius",),
    "nbhd-nesting": (),
    "ray-merge": (),
    "v-system": (),
    "phi-psi": (),
}


@dataclass
class RunConfig:
    """Validated run configuration."""

    fp1: FreeProduct
    fp2: FreeProduct | None
    homeo_a: matching.BoundaryHomeo | None
    homeo_b: matching.BoundaryHomeo | None
    budgets: dict
    grid: list[tuple[Fraction, Fraction]]
    output: Path
    emit_dot: bool = False


def _parse_product(raw: dict, side: str) -> FreeProduct:
    entries = raw["factors"][side]
    if not isinstance(entries, list) or len(entries) != 2:
        raise ParseError(f"factors.{side} must list two factor entries")
    return FreeProduct(*(factors.from_entry(e) for e in entries))


def _parse_homeo(raw: dict, side: str, source: factors.FactorSpec, target: factors.FactorSpec) -> matching.BoundaryHomeo:
    entry = raw["homeos"][side]
    if not isinstance(entry, dict):
        raise ParseError(f"homeos.{side} must be an object")
    rule = entry.get("rule", "identity")
    letters = entry.get("map", {})
    if not isinstance(letters, dict) or not all(isinstance(v, str) for v in letters.values()):
        raise ParseError(f"homeos.{side}.map must be an object of generator names")
    perm = tuple(sorted(letters.items()))
    return matching.BoundaryHomeo(source, target, rule, perm=perm)


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    raw = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ParseError("config must be a JSON object")
        _merge(raw, loaded)
    if overrides:
        _merge(raw, overrides)
    if raw.get("schema") != 1:
        raise ParseError(f"unsupported config schema {raw.get('schema')!r}")
    # the model constructors validate factors, products and homeomorphism
    # rules; their complaints about the config are usage errors
    try:
        fp1 = _parse_product(raw, "first")
        fp2 = None
        homeo_a = homeo_b = None
        if raw["factors"].get("second"):
            fp2 = _parse_product(raw, "second")
            homeo_a = _parse_homeo(raw, "a", fp1.a, fp2.a)
            homeo_b = _parse_homeo(raw, "b", fp1.b, fp2.b)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"invalid factors or homeos: {exc}") from exc
    budgets = raw["budgets"]
    if not isinstance(budgets, dict) or any(type(v) is not int or v <= 0 for v in budgets.values()):
        raise ParseError("budgets must be an object of positive integers")
    try:
        grid = [(Fraction(l), Fraction(e)) for l, e in raw["grid"]]
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"grid entries must be pairs of numbers: {exc}") from exc
    if any(l < 1 or e < 0 for l, e in grid):
        raise ParseError("grid entries need lambda >= 1 and eps >= 0")
    if (Fraction(5), Fraction(0)) not in grid or (Fraction(3), Fraction(0)) not in grid:
        raise ParseError("grid must contain the probe points (5,0) and (3,0)")
    if not isinstance(raw.get("output", "reports"), str):
        raise ParseError("output must be a string")
    return RunConfig(
        fp1=fp1,
        fp2=fp2,
        homeo_a=homeo_a,
        homeo_b=homeo_b,
        budgets=budgets,
        grid=grid,
        output=Path(raw.get("output", "reports")),
    )


def _merge(base: dict, update: dict) -> None:
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value


def _write_report(cfg: RunConfig, name: str, payload: dict) -> Path:
    cfg.output.mkdir(parents=True, exist_ok=True)
    path = cfg.output / name
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    path.write_text(text, encoding="utf-8")
    return path


def _status_exit(report: dict) -> int:
    if report.get("status") == "fail":
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


# -- commands -----------------------------------------------------------------


def cmd_normalize(cfg: RunConfig, text: str) -> int:
    word = cfg.fp1.parse(text)
    payload = {
        "input": text,
        "word": cfg.fp1.format(word),
        "syllable_length": cfg.fp1.syllable_length(word),
        "syllables": [s.spec.format_element(s) for s in word.syllables],
        "norm": cfg.fp1.norm(word),
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_check(cfg: RunConfig, check_id: str, radius: int | None, lam, eps) -> int:
    flags = (("--radius", radius), ("--lambda", lam), ("--eps", eps))
    unread = [f for f, v in flags if v is not None and f not in CHECK_FLAGS[check_id]]
    if unread:
        raise ParseError(f"check {check_id} does not read {' or '.join(unread)}")
    budgets = cfg.budgets
    fp = cfg.fp1
    ball_radius = budgets["ball_radius"] if radius is None else radius
    vertex_budget = budgets["vertex_budget"]
    capped = {"path_cap": budgets["path_cap"], "vertex_budget": vertex_budget}
    # flags that are not given leave the check's own defaults in force
    if check_id == "prefix-transit":
        given = {} if radius is None else {"radius": radius}
        report = checks.run_prefix_transit(fp, **capped, **given)
    elif check_id == "projection-qg":
        given = {} if lam is None else {"grid": [(lam, eps)]}
        report = checks.run_projection_qg(fp, radius=ball_radius, **capped, **given)
    elif check_id == "concat-qg":
        report = checks.run_concat_qg(fp, radius=ball_radius, **capped)
    elif check_id == "nbhd-nesting":
        report = checks.run_nbhd_nesting(fp.a)
    elif check_id == "ray-merge":
        report = checks.run_ray_merge(fp)
    elif check_id == "v-system":
        report = checks.run_v_system(fp)
    else:  # phi-psi, the last id of CHECK_FLAGS, which refused any other
        report = checks.run_phi_psi(fp)
    path = _write_report(cfg, f"check-{check_id}.json", report)
    _write_counterexample_paths(cfg, check_id, report)
    print(json.dumps({"report": str(path), "status": report["status"]}, sort_keys=True))
    if cfg.emit_dot:
        # the ball the check ran on, where the report names its radius
        ball = Ball.build(fp, report["params"].get("radius", ball_radius), vertex_budget)
        (cfg.output / f"ball-r{ball.radius}.dot").write_text(ball.to_dot(), encoding="utf-8")
        _write_report(cfg, f"ball-r{ball.radius}.json", ball.to_json_dict())
    return _status_exit(report)


def _write_counterexample_paths(cfg: RunConfig, check_id: str, report: dict) -> None:
    rows = []
    for cex in report.get("counterexamples", []):
        vertices = cex.get("walk") or cex.get("path") or cex.get("gamma")
        if vertices:
            rows.append(",".join(str(i) for i in vertices))
    if rows:
        cfg.output.mkdir(parents=True, exist_ok=True)
        out = cfg.output / f"check-{check_id}-paths.csv"
        out.write_text("\n".join(rows) + "\n", encoding="utf-8")


def cmd_match(cfg: RunConfig, steps: int | None) -> int:
    if cfg.fp2 is None or cfg.homeo_a is None or cfg.homeo_b is None:
        raise ParseError("match needs a second factor pair and homeos in the config")
    rounds = steps if steps is not None else cfg.budgets["match_steps"]
    pm = matching.run_matching(
        cfg.fp1,
        cfg.fp2,
        cfg.homeo_a,
        cfg.homeo_b,
        rounds,
        ray_depth=cfg.budgets["ray_depth"],
        index_scan=cfg.budgets["index_scan"],
    )
    report = checks.match_report(
        pm,
        continuity_ball=cfg.budgets["continuity_ball"],
        continuity_k_max=cfg.budgets["continuity_k_max"],
    )
    report["rounds"] = rounds
    cfg.output.mkdir(parents=True, exist_ok=True)
    transcript_path = cfg.output / "match-transcript.jsonl"
    with open(transcript_path, "w", encoding="utf-8") as fh:
        for rec in pm.transcript:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    path = _write_report(cfg, "match-report.json", report)
    print(
        json.dumps(
            {"report": str(path), "transcript": str(transcript_path), "status": report["status"]},
            sort_keys=True,
        )
    )
    if report["status"] == "inconclusive":
        b = cfg.budgets
        raise BudgetExceeded(
            f"continuity search found no depth within budgets continuity_k_max "
            f"{b['continuity_k_max']} and continuity_ball {b['continuity_ball']}"
        )
    return _status_exit(report)


def cmd_gauge(cfg: RunConfig, text: str, radius: int | None) -> int:
    fp = cfg.fp1
    word = fp.parse(text)
    r = cfg.budgets["ball_radius"] if radius is None else radius
    if fp.norm(word) > r:
        raise BallTooSmall(f"ball radius {r} too small: {fp.format(word)} has norm {fp.norm(word)}")
    ball = Ball.build(fp, r, vertex_budget=cfg.budgets["vertex_budget"])
    path = ball.first_geodesic(0, ball.index_of(word))
    gauge = morse.estimate_gauge(ball, path, cfg.grid, cfg.budgets["path_cap"])
    lines = ["lambda,eps,bound,certified_radius"]
    for (lam, eps), bound in gauge.entries:
        lines.append(f"{lam},{eps},{bound},{gauge.certified_radius}")
    lines.append(f"delta,,{gauge.delta},")
    cfg.output.mkdir(parents=True, exist_ok=True)
    slug = "".join(ch if ch.isalnum() else "_" for ch in text) or "e"
    out = cfg.output / f"gauge-{slug}.csv"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(json.dumps({"report": str(out), "status": "pass"}, sort_keys=True))
    return EXIT_OK


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "integer"  # names the type in argparse's messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morse-forge",
        description="Exact free-product geometry checks on finite balls.",
    )
    parser.add_argument("--config", help="JSON config path (defaults are built in)")
    parser.add_argument("--out", help="report directory override")
    parser.add_argument("--emit-dot", action="store_true", help="export ball graphs as DOT")
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("normalize", help="canonicalize a word and print its syllable data")
    p_norm.add_argument("word", nargs="?", default="")

    p_check = sub.add_parser("check", help="run an exhaustive property check")
    p_check.add_argument("id", choices=CHECK_FLAGS)
    p_check.add_argument("--radius", type=_int_at_least(0))
    p_check.add_argument("--lambda", dest="lam", type=_int_at_least(1))
    p_check.add_argument("--eps", type=_int_at_least(0))

    p_match = sub.add_parser("match", help="run the matching pipeline and its invariant suite")
    p_match.add_argument("--steps", type=_int_at_least(1))

    p_gauge = sub.add_parser("gauge", help="estimate a gauge table for a word's geodesic")
    p_gauge.add_argument("word")
    p_gauge.add_argument("--radius", type=_int_at_least(0))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check" and (args.lam is None) != (args.eps is None):
        parser.error("check: --lambda and --eps must be given together")
    try:
        overrides = {"output": args.out} if args.out else None
        cfg = load_config(args.config, overrides)
        cfg.emit_dot = args.emit_dot
        if args.command == "normalize":
            return cmd_normalize(cfg, args.word)
        if args.command == "check":
            return cmd_check(cfg, args.id, args.radius, args.lam, args.eps)
        if args.command == "match":
            return cmd_match(cfg, args.steps)
        if args.command == "gauge":
            return cmd_gauge(cfg, args.word, args.radius)
        raise ParseError(f"unknown command {args.command!r}")
    except (ParseError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except MorseForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
