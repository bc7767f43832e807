#!/usr/bin/env python3
"""The morse-forge benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ball-metric --seed 1 --seconds 30 --trace 0

One workload runs closed-loop in this single process: rounds of its
operations, each an in-process ``morse_forge.cli.main([...])`` call, until
the next round would pass ``--seconds``.  Every operation's exit code,
status, coverage counts and output hashes are checked against
``pins.json``.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
``--pin`` rewrites the workload's pins from one round instead; use it only
for a deliberate behaviour change.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
WORK = Path(".perfbench_work")
SETUP_RUNS = 5
CAL_VERTICES = 3000
# median of calibrate() on the reference machine: a shared 2-core
# Intel Xeon sandbox, Python 3.11.7
REF_CAL_S = 0.03

import tracer as tracing  # noqa: E402  (the script's own directory is on sys.path)
import workloads as wl  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package():
    src = Path("src").resolve()
    if not (src / "morse_forge" / "__init__.py").is_file():
        raise BenchError(f"no morse_forge package under {src}; run from the root of a checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import morse_forge
    import morse_forge.cli

    if Path(morse_forge.__file__).resolve().parent != src / "morse_forge":
        raise BenchError(f"imported morse_forge from {morse_forge.__file__}, not from {src}")
    return morse_forge


def setup(name: str, seed: int, root: Path):
    """Import the package, then write and load the workload's configs."""
    pkg = import_package()
    return pkg, wl.prepare(name, seed, root, pkg.cli.load_config)


@dataclass(frozen=True)
class _Syllable:
    factor: str
    power: int


@dataclass(frozen=True)
class _Word:
    syllables: tuple

    def __post_init__(self):
        if not isinstance(self.syllables, tuple):
            raise TypeError("syllables must be a tuple")


def calibrate() -> float:
    """Seconds for a fixed BFS over the Cayley graph of Z*Z, in plain Python.

    The probe builds and hashes frozen-dataclass words as morse_forge does,
    so machine slowdowns hit it much as they hit the package; a BFS over
    grid tuples tracked them half as well.  It calls nothing in
    morse_forge, so a change to the package cannot move it.
    """
    start = time.perf_counter()
    gens = [_Syllable(f, p) for f in "ab" for p in (1, -1)]
    identity = _Word(())
    index = {identity: 0}
    frontier = [identity]
    while len(index) < CAL_VERTICES:
        nxt = []
        for word in frontier:
            for gen in gens:
                syllables = list(word.syllables)
                if syllables and syllables[-1].factor == gen.factor:
                    power = syllables.pop().power + gen.power
                    if power:
                        syllables.append(_Syllable(gen.factor, power))
                else:
                    syllables.append(gen)
                other = _Word(tuple(syllables))
                if other not in index:
                    index[other] = len(index)
                    nxt.append(other)
        frontier = nxt
    return time.perf_counter() - start


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    """Seconds at reference speed: the interval divided by the speed probe
    around it, times the probe's time on the reference machine."""
    return seconds * REF_CAL_S / ((cal_before + cal_after) / 2)


def measure_setup(name: str, seed: int, root: Path):
    """Set the workload up SETUP_RUNS times, each from a fresh import of
    every morse_forge module; return the last set-up and the reference-speed
    seconds of each."""
    times = []
    cal = calibrate()
    for _ in range(SETUP_RUNS):
        for module in [m for m in sys.modules if m.split(".")[0] == "morse_forge"]:
            del sys.modules[module]
        start = time.perf_counter()
        pkg, workload = setup(name, seed, root)
        elapsed = time.perf_counter() - start
        cal_after = calibrate()
        times.append(scaled(elapsed, cal, cal_after))
        cal = cal_after
    return pkg, workload, times


def machine_info(pkg) -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": model or platform.machine(),
        "python": platform.python_version(),
        "morse_forge": pkg.__version__,
        "note": f"shared sandbox with {nproc} cores; other tenants' load adds noise to timings",
    }


def run_op(pkg, workload, op):
    out = workload.out_dir(op)
    if out.exists():
        shutil.rmtree(out)
    sink = io.StringIO()
    error = None
    code = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = pkg.cli.main(workload.argv(op))
    except Exception as exc:  # an operation that raises is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return code, elapsed, error


def run_round(pkg, workload, pins, failures):
    """Run every operation once, with a speed probe before and after each.

    Returns per-op ``(seconds, reference-speed seconds)`` and observations.
    """
    times = {}
    observed = {}
    cal = calibrate()
    for op in workload.ops:
        code, elapsed, error = run_op(pkg, workload, op)
        cal_after = calibrate()
        times[op.id] = (elapsed, scaled(elapsed, cal, cal_after))
        cal = cal_after
        try:
            seen = wl.observe(workload, op, code)
        except (ValueError, KeyError, TypeError) as exc:  # malformed output is a failed operation
            seen = {"exit": code, "status": None, "coverage": None, "sha256": {}, "report_bytes": 0, "report": None}
            error = error or f"unreadable output: {type(exc).__name__}: {exc}"
        observed[op.id] = seen
        problems = wl.mismatches(seen, pins.get(op.id)) if pins is not None else []
        if error:
            problems.insert(0, error)
        if problems:
            failures.append({"op": op.id, "problems": problems})
    return times, observed


def layer_metrics(tr, workload, times, observed) -> dict:
    """Per-layer metrics of one traced round (see README.md)."""
    sec = 1e-9

    def calls(name):
        return tr.calls[name] if name in tr.calls else tr.leaf_calls(name)

    def ratio(hits, total):
        return hits / total if total else 0.0

    m = {}
    for name in (
        "factors.distance",
        "factors.multiply",
        "factors.geodesics",
        "factors.BoundaryPoint.realization",
        "words.FreeProduct.distance",
        "words.FreeProduct.multiply",
        "graph.Ball.build",
        "graph.Ball.pair_distance",
        "morse.enumerate_quasi_geodesics",
        "morse.concat_quasi_geodesic",
        "morse.neighborhood_member",
        "rays.realize",
        "rays.decompose",
        "rays.comb_neighborhood_member",
        "rays.corresponding_ray",
        "matching.MatchState.step",
    ):
        m[f"{name}.calls"] = (calls(name), "count")
    for name in (
        "factors.geodesics",
        "morse.enumerate_quasi_geodesics",
        "morse.concat_quasi_geodesic",
        "morse.neighborhood_member",
        "rays.realize",
        "rays.decompose",
        "rays.comb_neighborhood_member",
        "matching.MatchState.step",
        "cli.main",
    ) + tuple(f"checks.{t[1]}" for t in tracing.TARGETS if t[1].startswith("run_")):
        m[f"{name}.self_s"] = (tr.self_ns[name] * sec, "s")
    for name in (
        "words.FreeProduct.distance",
        "graph.Ball.build",
        "graph.Ball.enumerate_paths",
        "graph.Ball.enumerate_geodesics",
        "matching.induced_map",
        "matching.check_continuity",
        "checks.duality_report",
        "checks.induced_containment_report",
        "checks.match_report",
    ):
        m[f"{name}.total_s"] = (tr.total_ns[name] * sec, "s")
    m["graph.Ball.build.vertices"] = (tr.sizes["graph.Ball.build"], "count")
    m["graph.Ball.enumerate_paths.paths"] = (tr.sizes["graph.Ball.enumerate_paths"], "count")
    m["graph.Ball.enumerate_geodesics.paths"] = (tr.sizes["graph.Ball.enumerate_geodesics"], "count")
    m["morse.enumerate_quasi_geodesics.walks"] = (tr.sizes["morse.enumerate_quasi_geodesics"], "count")
    for name in ("morse.neighborhood_member", "rays.comb_neighborhood_member"):
        m[f"{name}.hit_ratio"] = (ratio(tr.hits[name], tr.calls[name]), "ratio")
    scans = [rec["i"] for rec in tr.records if "i" in rec]
    depths = [rec["T"] for rec in tr.records if "T" in rec]
    m["matching.candidates_scanned"] = (sum(scans), "count")
    budgets = wl.BUDGETS
    m["checks.path_cap_headroom"] = (tr.max_size["morse.enumerate_quasi_geodesics"] / budgets["path_cap"], "ratio")
    m["matching.index_scan_headroom"] = (max(scans, default=0) / budgets["index_scan"], "ratio")
    m["matching.ray_depth_headroom"] = (max(depths, default=0) / budgets["ray_depth"], "ratio")
    m["cli.report_bytes"] = (sum(o["report_bytes"] for o in observed.values()), "bytes")
    for workload_name, ops in wl.WORKLOADS.items():
        for op in ops:
            mine = workload_name == workload.name
            m[f"cli.main.total_s.{op.id}"] = (times[op.id][0] if mine else 0.0, "s")
            if op.command != "check":
                continue
            report = observed[op.id]["report"] if mine else None
            m[f"checks.instances.{op.id}"] = (report["instances"] if report else 0, "count")
            if op.args[1] == "projection-qg":
                m[f"checks.instances_with_symmetry.{op.id}"] = (
                    report["instances_with_symmetry"] if report else 0,
                    "count",
                )
    return m


def wall_time(rounds: list[dict], column: int = 1) -> float:
    """Wall time of one pass over the operations: the sum of per-op medians,
    in reference-speed seconds (column 1) or as measured (column 0)."""
    return sum(statistics.median(r[op][column] for r in rounds) for op in rounds[0])


def median_metrics(samples: list[dict]) -> dict:
    return {
        name: {"value": statistics.median(s[name][0] for s in samples), "unit": unit}
        for name, (_v, unit) in samples[0].items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite this workload's pins from one round")
    args = parser.parse_args(argv)
    root = WORK / args.workload

    pins = json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}
    if args.pin:
        pkg, workload = setup(args.workload, args.seed, root)
        failures = []
        _times, observed = run_round(pkg, workload, None, failures)
        if failures:
            print(f"not pinned, operations failed: {failures}", file=sys.stderr)
            return 1
        for op_id, seen in observed.items():
            pins[op_id] = {key: seen[key] for key in wl.PIN_KEYS}
        PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"pinned {len(observed)} operations of {args.workload} into {PINS}")
        return 0

    shutil.rmtree(root, ignore_errors=True)  # so no set-up pays for deleting an old run
    pkg, workload, setup_times = measure_setup(args.workload, args.seed, root)
    tr = tracing.Tracer() if args.trace else None
    failures: list[dict] = []
    plain_rounds: list[dict] = []
    traced_rounds: list[dict] = []
    samples: list[dict] = []
    spans: list[dict] = []
    attempted = 0
    longest = 0.0
    begin = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        # a traced run alternates untraced and traced rounds, starting untraced
        traced = tr is not None and len(plain_rounds) > len(traced_rounds)
        if traced:
            tr.reset()
            tr.install(pkg)
        try:
            times, observed = run_round(pkg, workload, pins, failures)
        finally:
            if traced:
                tr.uninstall()
        attempted += len(times)
        if traced:
            traced_rounds.append(times)
            samples.append(layer_metrics(tr, workload, times, observed))
            spans.extend(tr.span_rows(len(plain_rounds) + len(traced_rounds)))
        else:
            plain_rounds.append(times)
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        need_more = tr is not None and not traced_rounds
        if not need_more and now - begin + longest > args.seconds:
            break

    if tr is None:
        metrics = {
            "wall_s": {"value": wall_time(plain_rounds), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    else:
        metrics = median_metrics(samples)
        traced_wall = wall_time(traced_rounds)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_wall - wall_time(plain_rounds), "unit": "s"}
        with open(root / f"spans-seed{args.seed}.jsonl", "w", encoding="utf-8") as fh:
            for row in spans:
                fh.write(json.dumps(row, sort_keys=True) + "\n")

    machine = machine_info(pkg)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "op_order": [op.id for op in workload.ops],
        "names": workload.names,
        "setup_runs_s": setup_times,
        "untraced_rounds_s": plain_rounds,
        "traced_rounds_s": traced_rounds,
        "failures": failures,
        "metrics": metrics,
    }
    (root / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"# machine: {json.dumps(machine, sort_keys=True)}")
    print(f"# workload {args.workload}, seed {args.seed}, closed loop, one caller; "
          f"{len(plain_rounds)} untraced and {len(traced_rounds)} traced rounds of {len(workload.ops)} operations")
    print(f"# ops_failed: {len(failures)}/{attempted} = {len(failures) / attempted:.6f}")
    print(f"# wall time as measured (not speed-scaled): {wall_time(plain_rounds, 0):.6g} s untraced"
          + (f", {wall_time(traced_rounds, 0):.6g} s traced" if traced_rounds else ""))
    for failure in failures[:10]:
        print(f"# FAILED {failure['op']}: {'; '.join(failure['problems'])[:400]}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    if traced_rounds:
        base = wall_time(traced_rounds, 0)
        shares = {n: m["value"] / base for n, m in metrics.items() if n.endswith((".self_s", ".total_s"))}
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1])[:12]:
            if not name.startswith("cli.main.total_s."):
                print(f"# share of traced wall time: {name} {share:.3f}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
