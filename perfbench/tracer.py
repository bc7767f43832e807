"""Spans around morse_forge's public callables, installed from outside.

The tracer replaces module attributes and class attributes with wrappers.
Internal calls resolve through module globals and class attributes, so the
wrappers see them without any change to the package.  Three kinds of
wrapper:

* ``span``: one span per call (name, start, end, parent), kept in memory;
* ``agg``: timed like a span, but aggregated into the parent span as a
  count and a total, for callables called up to millions of times;
* ``count``: only counted into the parent span; their time stays in the
  parent's self time.

Self time is a span's duration minus the time its timed children cover.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

SPAN, AGG, COUNT = "span", "agg", "count"

# (module, qualified attribute, kind, result hook)
TARGETS = (
    ("cli", "main", SPAN, None),
    ("checks", "run_projection_qg", SPAN, None),
    ("checks", "run_prefix_transit", SPAN, None),
    ("checks", "run_concat_qg", SPAN, None),
    ("checks", "run_ray_merge", SPAN, None),
    ("checks", "run_v_system", SPAN, None),
    ("checks", "run_phi_psi", SPAN, None),
    ("checks", "duality_report", SPAN, None),
    ("checks", "induced_containment_report", SPAN, None),
    ("checks", "match_report", SPAN, None),
    ("graph", "Ball.build", SPAN, "size"),
    ("graph", "Ball.enumerate_paths", SPAN, "size"),
    ("graph", "Ball.enumerate_geodesics", AGG, "size"),
    ("graph", "Ball.pair_distance", COUNT, None),
    ("words", "FreeProduct.distance", AGG, None),
    ("words", "FreeProduct.multiply", COUNT, None),
    ("morse", "enumerate_quasi_geodesics", AGG, "size"),
    ("morse", "concat_quasi_geodesic", AGG, None),
    ("morse", "neighborhood_member", AGG, "truth"),
    ("rays", "realize", AGG, None),
    ("rays", "decompose", AGG, None),
    ("rays", "comb_neighborhood_member", AGG, "truth"),
    ("rays", "corresponding_ray", COUNT, None),
    ("factors", "geodesics", AGG, None),
    ("factors", "multiply", COUNT, None),
    ("factors", "distance", COUNT, None),
    ("factors", "BoundaryPoint.realization", COUNT, None),
    ("matching", "MatchState.step", SPAN, "record"),
    ("matching", "induced_map", AGG, None),
    ("matching", "check_continuity", SPAN, None),
)


class Tracer:
    """Holds the frame stack, the spans of one round and per-name totals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # a frame is [child_ns, span_id, per-name child aggregates]
        self.stack: list[list] = [[0, -1, {}]]
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.max_size: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, int] = defaultdict(int)
        self.hits: dict[str, int] = defaultdict(int)
        self.records: list[dict] = []

    # -- installation ---------------------------------------------------------

    def install(self, package) -> None:
        for module_name, attr, kind, hook in TARGETS:
            module = getattr(package, module_name)
            name = f"{module_name}.{attr}"
            owner, _, leaf = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                raw = cls.__dict__[leaf]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, kind, hook, raw.__func__))
                else:
                    wrapped = self._wrap(name, kind, hook, raw)
                self._saved.append((cls, leaf, raw))
                setattr(cls, leaf, wrapped)
                continue
            original = getattr(module, leaf)
            wrapped = self._wrap(name, kind, hook, original)
            # rebind every module of the package that imported the name
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == package.__name__ and getattr(mod, leaf, None) is original:
                    self._saved.append((mod, leaf, original))
                    setattr(mod, leaf, wrapped)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def _wrap(self, name: str, kind: str, hook: str | None, fn):
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is a generator function; spans would not cover its work")
        tracer = self
        if kind == COUNT:
            def counted(*args, **kwargs):
                agg = tracer.stack[-1][2]
                entry = agg.get(name)
                if entry is None:
                    agg[name] = [1, 0]
                else:
                    entry[0] += 1
                return fn(*args, **kwargs)

            return counted

        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            frame = [0, len(tracer.spans) if kind == SPAN else parent[1], {}]
            if kind == SPAN:
                tracer.spans.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                tracer.calls[name] += 1
                tracer.total_ns[name] += duration
                tracer.self_ns[name] += duration - frame[0]
                if kind == SPAN:
                    tracer.spans[frame[1]] = (name, start, end, parent[1], frame[2])
                else:
                    # an aggregated callable's children are credited to its parent span
                    for child, (n, ns) in frame[2].items():
                        entry = parent[2].setdefault(child, [0, 0])
                        entry[0] += n
                        entry[1] += ns
                    entry = parent[2].setdefault(name, [0, 0])
                    entry[0] += 1
                    entry[1] += duration
            if hook == "size":
                size = len(result)
                tracer.sizes[name] += size
                if size > tracer.max_size[name]:
                    tracer.max_size[name] = size
            elif hook == "truth":
                tracer.hits[name] += bool(result)
            elif hook == "record":
                tracer.records.append(result)
            return result

        return timed

    # -- results ----------------------------------------------------------------

    def leaf_calls(self, name: str) -> int:
        """Calls of a counted or aggregated callable, summed over all spans."""
        total = 0
        for span in self.spans:
            entry = span[4].get(name)
            if entry:
                total += entry[0]
        entry = self.stack[0][2].get(name)
        return total + (entry[0] if entry else 0)

    def span_rows(self, round_no: int):
        for span_id, (name, start, end, parent, agg) in enumerate(self.spans):
            yield {
                "round": round_no,
                "id": span_id,
                "name": name,
                "start_ns": start,
                "end_ns": end,
                "parent": parent,
                "children": {k: {"calls": n, "total_ns": ns} for k, (n, ns) in sorted(agg.items())},
            }
