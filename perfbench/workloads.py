"""Workload definitions: generated configs, operation lists and output checks.

Every operation is one ``morse_forge.cli.main([...])`` call on a config
this module writes.  A workload seed permutes the order of the operations
and renames every generator in the generated configs; the group structure,
and so every pinned coverage count, stays the same.  Output files are
hashed after the renaming is undone, so one set of pins serves every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

Z2 = [[0, 1], [1, 0]]
Z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]


def _line(fid: str, name: str) -> dict:
    return {"id": fid, "kind": "line", "names": [name]}


def _lattice(fid: str) -> dict:
    return {"id": fid, "kind": "lattice", "dim": 2, "names": ["a1", "a2"]}


# Factor pairs in canonical naming.  "second" is empty for check-only
# configs, so the CLI skips the homeomorphisms.
PRODUCTS = {
    "zz": [_line("A1", "x"), _line("B1", "y")],
    "lxl": [_lattice("A1"), _line("B1", "y")],
    "f2l": [{"id": "A1", "kind": "free", "rank": 2, "names": ["x1", "x2"]}, _line("B1", "y")],
    "dih": [
        {"id": "A1", "kind": "finite", "table": Z2, "generators": [1], "names": ["a"]},
        {"id": "B1", "kind": "finite", "table": Z2, "generators": [1], "names": ["b"]},
    ],
    "lz3": [
        _line("A1", "x"),
        {"id": "B1", "kind": "finite", "table": Z3, "generators": [1, 2], "names": ["s", "t"]},
    ],
}

MATCH_CONFIGS = {
    "match-identity": ("zz", {"rule": "identity"}),
    "match-lineswap": ("zz", {"rule": "lineswap"}),
    "match-perm": ("zz", {"rule": "perm", "map": {"x": "x^-1"}}),
    "match-lattice": ("lxl", {"rule": "identity"}),
}

BUDGETS = {
    "ball_radius": 4,
    "path_cap": 2000000,
    "path_maxlen": 64,
    "ray_depth": 512,
    "match_steps": 20,
    "index_scan": 512,
    "realization_cap": 10000,
    "vertex_budget": 200000,
    "continuity_ball": 12,
    "continuity_k_max": 12,
}


@dataclass(frozen=True)
class Op:
    """One CLI call: the config it reads and the arguments after --out."""

    id: str
    config: str
    args: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.args[0]


def _pqg(op_id, product, radius, lam, eps):
    args = ("check", "projection-qg", "--radius", str(radius), "--lambda", str(lam), "--eps", str(eps))
    return Op(op_id, product, args)


WORKLOADS = {
    "ball-metric": (
        _pqg("pqg-lxl3-l1e0", "lxl", 3, 1, 0),
        _pqg("pqg-lxl3-l3e0", "lxl", 3, 3, 0),
        _pqg("pqg-zz4-l3e0", "zz", 4, 3, 0),
        Op("transit-zz5", "zz", ("check", "prefix-transit", "--radius", "5")),
        Op("transit-dih5", "dih", ("check", "prefix-transit", "--radius", "5")),
        Op("raymerge-zz", "zz", ("check", "ray-merge")),
    ),
    "qg-walks": (
        _pqg("pqg-zz3-l2e2", "zz", 3, 2, 2),
        _pqg("pqg-zz3-l2e3", "zz", 3, 2, 3),
        _pqg("pqg-lxl2-l2e2", "lxl", 2, 2, 2),
        _pqg("pqg-f2l2-l2e2", "f2l", 2, 2, 2),
        Op("concat-zz3", "zz", ("check", "concat-qg", "--radius", "3")),
    ),
    "boundary": (
        Op("match-identity-100", "match-identity", ("match", "--steps", "100")),
        Op("match-lineswap-20", "match-lineswap", ("match", "--steps", "20")),
        Op("match-perm-20", "match-perm", ("match", "--steps", "20")),
        Op("match-lattice-10", "match-lattice", ("match", "--steps", "10")),
        Op("phipsi-zz", "zz", ("check", "phi-psi")),
        Op("vsystem-lz3", "lz3", ("check", "v-system")),
    ),
}


def canonical_names() -> list[str]:
    names = set()
    for product in PRODUCTS.values():
        for factor in product:
            names.update(factor["names"])
    return sorted(names)


def renaming(seed: int) -> dict[str, str]:
    """A seed-chosen bijection from canonical generator names to fresh ones.

    Fresh names are a letter, a letter and a digit, so they never collide
    with a canonical name, with ``e`` or with a word of the report schema.
    """
    rng = random.Random(f"names-{seed}")
    out: dict[str, str] = {}
    used = set()
    for name in canonical_names():
        while True:
            fresh = rng.choice("fghkmnpqrvw") + rng.choice("abcdefghijklmnopqrstuvwxyz") + str(rng.randrange(10))
            if fresh not in used:
                break
        used.add(fresh)
        out[name] = fresh
    return out


def _rename_token(token: str, names: dict[str, str]) -> str:
    base, sep, power = token.partition("^")
    return names[base] + sep + power


def _config(first, second, homeo_a, names) -> dict:
    def factor(entry):
        entry = dict(entry)
        entry["names"] = [names[n] for n in entry["names"]]
        return entry

    homeo = dict(homeo_a)
    if "map" in homeo:
        homeo["map"] = {names[k]: _rename_token(v, names) for k, v in homeo["map"].items()}
    return {
        "schema": 1,
        "factors": {
            "first": [factor(e) for e in first],
            "second": [factor(e) for e in second],
        },
        "homeos": {"a": homeo, "b": {"rule": "identity"}},
        "budgets": dict(BUDGETS),
        "grid": [[1, 0], [1, 1], [1, 2], [2, 1], [3, 0], [5, 0]],
        "seed": 0,
        "output": "reports",
    }


def _second(product: str) -> list[dict]:
    return [dict(e, id=e["id"][0] + "2") for e in PRODUCTS[product]]


def configs(names: dict[str, str]) -> dict[str, dict]:
    out = {p: _config(PRODUCTS[p], [], {"rule": "identity"}, names) for p in PRODUCTS}
    for key, (product, homeo_a) in MATCH_CONFIGS.items():
        out[key] = _config(PRODUCTS[product], _second(product), homeo_a, names)
    return out


@dataclass
class Workload:
    """A workload made ready for one seed: configs on disk, ops in run order."""

    name: str
    root: Path
    names: dict[str, str]
    ops: list[Op]
    config_paths: dict[str, Path]

    def out_dir(self, op: Op) -> Path:
        return self.root / "out" / op.id

    def argv(self, op: Op) -> list[str]:
        return ["--config", str(self.config_paths[op.config]), "--out", str(self.out_dir(op))] + list(op.args)


def prepare(name: str, seed: int, root: Path, load_config) -> Workload:
    """Write the workload's configs under root and load each through the CLI.

    ``load_config`` is ``morse_forge.cli.load_config``; loading validates
    every config before the first timed operation.
    """
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    names = renaming(seed)
    ops = list(WORKLOADS[name])
    random.Random(f"order-{seed}").shuffle(ops)
    if root.exists():
        shutil.rmtree(root)
    cfg_dir = root / "cfg"
    cfg_dir.mkdir(parents=True)
    all_configs = configs(names)
    paths = {}
    for key in sorted({op.config for op in ops}):
        path = cfg_dir / f"{key}.json"
        path.write_text(json.dumps(all_configs[key], indent=2, sort_keys=True) + "\n", encoding="utf-8")
        load_config(str(path))
        paths[key] = path
    return Workload(name, root, names, ops, paths)


# -- output checks -----------------------------------------------------------


def canonical_text(text: str, names: dict[str, str], suffix: str) -> str:
    """Undo the renaming, then restore the CLI's key order."""
    back = {fresh: canon for canon, fresh in names.items()}
    pattern = re.compile(r"\b(" + "|".join(sorted(back, key=len, reverse=True)) + r")\b")
    text = pattern.sub(lambda m: back[m.group(1)], text)
    if suffix == ".json":
        return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    if suffix == ".jsonl":
        return "".join(json.dumps(json.loads(line), sort_keys=True) + "\n" for line in text.splitlines())
    return text


def coverage(op: Op, report: dict) -> dict[str, int]:
    """The certified-coverage counts of one report."""
    if op.command == "match":
        pairs = report["pairs"]
        return {
            "induced_containment.instances": report["induced_containment"]["instances"],
            "duality.checked": sum(p["duality"]["checked"] for p in pairs.values()),
            "bijectivity.pairs": sum(p["bijectivity"]["pairs"] for p in pairs.values()),
        }
    key = "instances_with_symmetry" if "instances_with_symmetry" in report else "instances"
    return {key: report[key]}


def report_name(op: Op) -> str:
    return "match-report.json" if op.command == "match" else f"check-{op.args[1]}.json"


def observe(workload: Workload, op: Op, code: int) -> dict:
    """Everything the pins fix about one finished operation."""
    out = workload.out_dir(op)
    files = {}
    size = 0
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        raw = path.read_text(encoding="utf-8")
        size += len(raw.encode("utf-8"))
        text = canonical_text(raw, workload.names, path.suffix)
        files[path.name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    report_path = out / report_name(op)
    report = json.loads(report_path.read_text(encoding="utf-8")) if report_path.is_file() else None
    return {
        "exit": code,
        "status": report.get("status") if report else None,
        "coverage": coverage(op, report) if report else None,
        "sha256": files,
        "report_bytes": size,
        "report": report,
    }


PIN_KEYS = ("exit", "status", "coverage", "sha256")


def mismatches(observed: dict, pinned: dict | None) -> list[str]:
    if pinned is None:
        return ["no pinned values"]
    return [
        f"{key}: expected {pinned[key]!r}, got {observed[key]!r}"
        for key in PIN_KEYS
        if observed[key] != pinned[key]
    ]
