"""Golden outputs: every CLI report below must stay byte-identical.

Each case runs one ``morse_forge.cli.main`` call on a small config and
compares every file it writes, plus its stdout, with ``tests/golden/<case>/``.
To record the goldens again after a deliberate change, run
``PYTHONPATH=src:tests python -c "import test_golden; test_golden.record()"``
and list the changed files in CHANGES.md.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest

from morse_forge import cli

GOLDEN = Path(__file__).parent / "golden"

Z2 = [[0, 1], [1, 0]]
Z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]

PRODUCTS = {
    "zz": [
        {"id": "A1", "kind": "line", "names": ["x"]},
        {"id": "B1", "kind": "line", "names": ["y"]},
    ],
    "lxl": [
        {"id": "A1", "kind": "lattice", "dim": 2, "names": ["a1", "a2"]},
        {"id": "B1", "kind": "line", "names": ["y"]},
    ],
    "f2l": [
        {"id": "A1", "kind": "free", "rank": 2, "names": ["x1", "x2"]},
        {"id": "B1", "kind": "line", "names": ["y"]},
    ],
    "dih": [
        {"id": "A1", "kind": "finite", "table": Z2, "generators": [1], "names": ["a"]},
        {"id": "B1", "kind": "finite", "table": Z2, "generators": [1], "names": ["b"]},
    ],
    "lz3": [
        {"id": "A1", "kind": "line", "names": ["x"]},
        {"id": "B1", "kind": "finite", "table": Z3, "generators": [1, 2], "names": ["s", "t"]},
    ],
}

WORDS = {
    "zz": "x y y^-1 x^3 y^-2 x^-1",
    "lxl": "a1 a2^-1 y a1^2 a2 a1^-1 y^0 y^-3",
    "f2l": "x1 x2 x2^-1 x1^-1 x2 y x1^-3 x2^2",
    "dih": "a b a a b a b b a b",
    "lz3": "x s s t s x^-2 t^-5 s^4 x",
}


def _second(product):
    return [dict(e, id=e["id"][0] + "2") for e in PRODUCTS[product]]


def _config(product, second=(), homeo_a=None):
    cfg = {"factors": {"first": PRODUCTS[product], "second": list(second)}}
    if homeo_a is not None:
        cfg["homeos"] = {"a": homeo_a, "b": {"rule": "identity"}}
    return cfg


CASES = {}
for _p in PRODUCTS:
    CASES[f"transit-{_p}"] = (_config(_p), ["--emit-dot", "check", "prefix-transit", "--radius", "2"])
    CASES[f"normalize-{_p}"] = (_config(_p), ["normalize", WORDS[_p]])
for _rule, _homeo in (
    ("identity", {"rule": "identity"}),
    ("lineswap", {"rule": "lineswap"}),
    ("perm", {"rule": "perm", "map": {"x": "x^-1"}}),
):
    CASES[f"match-{_rule}"] = (_config("zz", _second("zz"), _homeo), ["match", "--steps", "20"])
CASES["match-empty-boundary"] = (
    _config("lxl", _second("lxl"), {"rule": "identity"}),
    ["match", "--steps", "20"],
)
# lattices of different rank: both have empty boundaries, so only the line
# pair runs the boundary scan
CASES["match-cross-lattice"] = (
    _config(
        "lxl",
        [{"id": "A2", "kind": "lattice", "dim": 3, "names": ["a1", "a2", "a3"]}, _second("lxl")[1]],
        {"rule": "identity"},
    ),
    ["match", "--steps", "20"],
)
CASES["gauge-zz"] = (_config("zz"), ["gauge", "x^2 y", "--radius", "3"])
CASES["gauge-lxl"] = (
    dict(_config("lxl"), grid=[[1, 0], [1, 1], [1, 2], [1, 4], [1, 6], [2, 1], [3, 0], [5, 0]]),
    ["gauge", "a1 a2", "--radius", "3"],
)
CASES["projection-zz"] = (_config("zz"), ["check", "projection-qg", "--radius", "2"])
CASES["projection-lxl"] = (_config("lxl"), ["check", "projection-qg", "--radius", "2"])
CASES["projection-f2l"] = (_config("f2l"), ["check", "projection-qg", "--radius", "2"])
CASES["concat-zz"] = (_config("zz"), ["check", "concat-qg", "--radius", "2"])
CASES["concat-lxl"] = (_config("lxl"), ["check", "concat-qg", "--radius", "2"])
CASES["nesting-zz"] = (_config("zz"), ["check", "nbhd-nesting"])
CASES["nesting-f2l"] = (_config("f2l"), ["check", "nbhd-nesting"])
CASES["raymerge-zz"] = (_config("zz"), ["check", "ray-merge"])
CASES["vsystem-lz3"] = (_config("lz3"), ["check", "v-system"])
CASES["phipsi-zz"] = (_config("zz"), ["check", "phi-psi"])
CASES["phipsi-lz3"] = (_config("lz3"), ["check", "phi-psi"])


def run_case(name, workdir, read_stdout):
    """Run one case; return {file name: bytes} for stdout and every report."""
    overrides, args = CASES[name]
    out = workdir / "out"
    config = workdir / "config.json"
    config.write_text(json.dumps(overrides), encoding="utf-8")
    code = cli.main(["--config", str(config), "--out", str(out)] + args)
    stdout = read_stdout().replace(str(out), "OUT")
    files = {"stdout.txt": f"exit {code}\n{stdout}".encode()}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path, capsys):
    got = run_case(name, tmp_path, lambda: capsys.readouterr().out)
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(got) == sorted(expected)
    for fname, blob in expected.items():
        assert got[fname] == blob, f"{name}/{fname} differs from its golden"


def record():
    """Write the goldens of every case from the current code."""
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                files = run_case(name, Path(tmp), buf.getvalue)
        target = GOLDEN / name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for fname, blob in files.items():
            (target / fname).write_bytes(blob)
