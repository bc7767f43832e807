"""Factor kinds and payload layouts are known to factors.py alone, a
ball's distance stores and graph tables to graph.py alone, and the
(lam, eps) inequality to morse.py alone.

Every other module reaches factor groups through ``FactorSpec`` and
``FactorElement`` methods, so adding or changing a kind touches one file.
``matching.BoundaryHomeo`` may still compare kinds while it validates a
configured rule.  Other modules read ball distances and the ball graph
through ``Ball``'s public methods and its ``neighbors`` lists (``row``,
``in_ball_row``, ``pair_distance``, ``gates``, ...), never through the raw
``adjacency`` rows, and keep no per-ball cache of their own: no module
holds one in a ``weakref`` table.  The checks and the ball decide
quasi-geodesic verdicts through ``morse``'s int bound, so they do no
rational arithmetic of their own.  Closeness between factor geodesics is
decided in ``morse`` alone: other modules call ``morse.factor_close`` or
``morse.ray_tracking``, never ``tree_close``, and only ``morse`` reads how
many steps two factor geodesics share.  A ball reads its space through
one named protocol, which both ``FreeProduct`` and ``FactorSpace``
define; a vertex's syllable prefixes come from the ball's own tables
(``Ball.prefixes``), never from the space, and the checks find no vertex
by its word: ``FreeProduct`` has no ``prefix_vertices`` or
``project_to_factor``, ``graph`` no separate prefix tree, and
``checks.py`` calls no ``index_of``.  A combinatorial geodesic or a gauge carries no
kind tag: its data say whether it is finite or affine.  No module
memoizes through ``functools``, whose caches would outlive the run:
derived data live on the value they derive from, and tables with the run
or the spec that makes them.  Values are validated at the door: the
public constructors check every invariant, and ``_trusted`` skips the
checks only at the call sites that ``TRUSTED`` lists, each of which says
in a comment why its invariant holds.  A
factor element comes from one door, ``factors._element``, which keeps it
in its spec's table: no other line builds one, and the table dies with
the spec, not with the process.  Boundary verdicts take plain
values in ``rays`` and ``morse`` alike: no record carries a
neighbourhood's center, depth and gauge, a join's certificate, a
corresponding ray, or a matched element's role, and every spelling is
kept by the element or direction it spells, never in a table beside it.
A ball keeps one cut-vertex table, ``gates``: prefix-transit reads it
and runs no search that avoids a vertex.  The path_cap budget names
itself where it binds: ``CapExceeded`` is raised
by the quasi-geodesic scan and by prefix-transit's walk count, and no
module catches it to say what it means.  Only ``checks._shared`` forks: no
other line calls ``os.fork`` or ``os._exit``, and no module imports
``multiprocessing``, ``concurrent`` or ``pickle``.
"""

import ast
import gc
import importlib
import importlib.util
import inspect
import io
import re
import tokenize
import weakref
from pathlib import Path

import morse_forge
from morse_forge import FactorSpace, FactorSpec, FreeProduct, checks, cli, graph, matching, morse, rays

SRC = Path(morse_forge.__file__).parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
OTHERS = sorted(p for p in SRC.glob("*.py") if p.name != "factors.py")

PAYLOAD = re.compile(r"\.payload\b")
PRIVATE = re.compile(r"\bfactors\._\w+")
KIND = re.compile(r"\bfactors\.(LINE|LATTICE|FREE|FINITE)\b")
BALL_PRIVATE = re.compile(r"\bball\._|\._(bfs|true_row)")
ADJACENCY = re.compile(r"\.adjacency\b")
WEAKREF = re.compile(r"^\s*(import|from)\s+weakref\b")
RATIONAL = re.compile(r"\b(Fraction|fractions)\b")
TREE_CLOSE = re.compile(r"\btree_close\b")
SHARED_STEPS = re.compile(r"\bshared_steps\b")
CATCH_CAP = re.compile(r"\bexcept\b.*\bCapExceeded\b")
RAISE_CAP = re.compile(r"\braise\s+(\w+\.)*CapExceeded\b")
SPACE_READ = re.compile(r"\bspace\.(\w+)")
SPLIT_LAST = re.compile(r"\bsplit_last\b")
KIND_TAG = re.compile(r"\.kind\b|^\s*kind\s*[:=]|\b(FINITE|INFINITE|AFFINE|TABLE)\b")
AVOIDING_ROW = re.compile(r"\bavoiding_row\b")
FORK = re.compile(r"\bos\.(fork|_exit)\b|\bfrom\s+os\s+import\b")
POOL = re.compile(r"^\s*(import|from)\s+(multiprocessing|concurrent|pickle)\b")
MEMO = re.compile(r"\blru_cache\b|\bfunctools\.cache\b|^\s*@cache\b|\bimport\b.*\bcache\b")

#: (module, enclosing function, class) of every ``_trusted`` construction
TRUSTED = {
    ("words.py", "FreeProduct.multiply", "Word"),
    ("words.py", "FreeProduct.inverse", "Word"),
    ("rays.py", "realize", "Word"),
    ("rays.py", "spell", "Word"),
    ("rays.py", "comb_population", "CombRay"),
    ("matching.py", "induced_map", "CombRay"),
}

#: what a ball reads of its space
BALL_SPACE = {"identity", "generators", "join", "first_geodesic", "sort_key", "format"}


def _hits(pattern, paths):
    return [
        f"{p.name}:{n}: {line.strip()}"
        for p in paths
        for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1)
        if pattern.search(line)
    ]


def test_sources_found():
    assert {"checks.py", "rays.py", "matching.py", "cli.py"} <= {p.name for p in OTHERS}


def test_no_payload_reads_outside_factors():
    assert _hits(PAYLOAD, OTHERS) == []


def test_no_private_factor_names_outside_factors():
    assert _hits(PRIVATE, OTHERS) == []


def test_checks_and_rays_name_no_factor_kind():
    assert _hits(KIND, [SRC / "checks.py", SRC / "rays.py"]) == []


def test_no_ball_privates_outside_graph():
    assert _hits(BALL_PRIVATE, [p for p in SRC.glob("*.py") if p.name != "graph.py"]) == []


def test_only_graph_reads_adjacency():
    assert _hits(ADJACENCY, [p for p in SRC.glob("*.py") if p.name != "graph.py"]) == []


def test_no_module_imports_weakref():
    assert _hits(WEAKREF, sorted(SRC.glob("*.py"))) == []


def test_checks_and_graph_do_no_rational_arithmetic():
    assert _hits(RATIONAL, [SRC / "checks.py", SRC / "graph.py"]) == []


def test_only_morse_calls_tree_close():
    assert _hits(TREE_CLOSE, [p for p in SRC.glob("*.py") if p.name != "morse.py"]) == []


def test_only_morse_reads_shared_steps():
    # the tree distance 2 * (t - shared) between factor rays is morse's
    assert _hits(SHARED_STEPS, [p for p in OTHERS if p.name != "morse.py"]) == []
    assert "shared_steps" in inspect.getsource(morse_forge.morse)


def test_path_cap_names_itself_where_it_binds():
    sources = sorted(SRC.glob("*.py"))
    assert _hits(CATCH_CAP, sources) == []
    raisers = {hit.split(":")[0] for hit in _hits(RAISE_CAP, sources)}
    assert raisers == {"morse.py", "checks.py"}
    # a comment that says what the CLI does with an exception is a relabel
    # waiting to happen; cli.py alone speaks for the CLI
    comments = [
        f"{p.name}:{tok.start[0]}: {tok.string}"
        for p in sources
        if p.name != "cli.py"
        for tok in tokenize.generate_tokens(io.StringIO(p.read_text(encoding="utf-8")).readline)
        if tok.type == tokenize.COMMENT and re.search(r"\bCLI\b", tok.string)
    ]
    assert comments == []


def test_rays_and_gauges_carry_no_kind_tag():
    # a ray with a tail is finite and one with a repeat block infinite; a
    # gauge with coefficients is affine.  Of these modules, only BoundaryHomeo
    # compares factor kinds, as it validates a configured rule
    lines, start = inspect.getsourcelines(matching.BoundaryHomeo.__post_init__)
    validation = {f"matching.py:{start + i}: {line.strip()}" for i, line in enumerate(lines)}
    hits = _hits(KIND_TAG, [SRC / f"{name}.py" for name in ("rays", "checks", "morse", "matching")])
    assert [h for h in hits if h not in validation] == []


def test_no_module_keeps_a_process_cache():
    # an element's spelling and a direction's realization live on the
    # value, ``MatchState``'s direction images for one run, a spec's line
    # ends and its table of elements (``FactorSpec._elements``) with the
    # spec, and a quasi-geodesic bound with the check that made it; a
    # functools cache would carry them, and every spec it saw, into the
    # next run
    assert _hits(MEMO, sorted(SRC.glob("*.py"))) == []


def test_factor_elements_are_built_only_in_the_intern_door():
    def calls(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "FactorElement"]

    tree = ast.parse((SRC / "factors.py").read_text(encoding="utf-8"))
    (door,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_element"]
    assert len(calls(door)) == len(calls(tree)) == 1
    assert _hits(re.compile(r"\bFactorElement\("), OTHERS) == []


def test_a_spec_and_its_elements_die_with_the_run():
    # the spec, its table and its elements, with the spellings they keep,
    # and its line ends, with the realizations they keep, form a cycle
    # that the collector frees once the run's config is dropped; a table
    # held by a module would keep them alive
    config = cli.load_config(None)
    reports = [checks.run_phi_psi(config.fp1), checks.run_ray_merge(config.fp1)]
    specs = (config.fp1.a, config.fp1.b)
    assert all(spec._elements for spec in specs)
    assert all(any(x._spelling for x in spec._elements.values()) for spec in specs)
    assert all(end._ray for spec in specs for end in spec.line_ends())
    refs = [weakref.ref(spec) for spec in specs]
    del config, reports, specs
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def _trusted_calls():
    """(module, enclosing function, class, function source) of each call
    ``X._trusted(...)`` in the package."""
    out = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "_trusted"
            ):
                out.append((path.name, ".".join(scope), ast.unparse(child.func.value), path))
            visit(child, path, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, [])
    return out


def test_trusted_constructors_are_called_only_where_listed():
    calls = _trusted_calls()
    assert {(name, scope, cls) for name, scope, cls, _path in calls} == TRUSTED
    # each caller names the invariant it guarantees
    for name, scope, _cls, path in calls:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = tree
        for part in scope.split("."):
            owner = next(n for n in ast.iter_child_nodes(owner) if getattr(n, "name", None) == part)
        lines = path.read_text(encoding="utf-8").splitlines()[owner.lineno - 1 : owner.end_lineno]
        assert any(line.strip().startswith("#") for line in lines), f"{name}:{scope}"


def test_ball_reads_one_space_protocol():
    assert set(SPACE_READ.findall(inspect.getsource(graph.Ball))) == BALL_SPACE
    for space in (FreeProduct, FactorSpace):
        assert all(inspect.isfunction(space.__dict__.get(name)) for name in BALL_SPACE), space
    # the factor enumeration alone steps, and only a single factor
    assert set(SPACE_READ.findall((SRC / "graph.py").read_text(encoding="utf-8"))) == BALL_SPACE | {"step"}
    assert "space.step" in inspect.getsource(graph.spheres) and inspect.isfunction(FactorSpace.step)
    assert _hits(SPLIT_LAST, sorted(SRC.glob("*.py"))) == []


def test_prefixes_come_from_the_ball():
    # the syllable tree held as indices is the one place a check reads a
    # vertex's prefixes or its first syllable
    assert not hasattr(FreeProduct, "prefix_vertices") and not hasattr(FreeProduct, "project_to_factor")
    assert not hasattr(graph, "_PrefixTree")
    assert inspect.isfunction(graph.Ball.__dict__.get("prefixes"))
    assert _hits(re.compile(r"\bindex_of\b"), [SRC / "checks.py"]) == []


def test_tracer_targets_resolve_to_plain_functions():
    # the benchmark's --trace 1 wraps these names; a rename or a generator
    # would break it (the tracer file is only read here)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, attr, _kind, _hook in tracer.TARGETS:
        obj = importlib.import_module(f"morse_forge.{module_name}")
        owner, _, leaf = attr.rpartition(".")
        if owner:
            obj = getattr(obj, owner)
            fn = obj.__dict__[leaf]
        else:
            fn = getattr(obj, leaf)
        fn = getattr(fn, "__func__", fn)  # a classmethod wraps its function
        assert inspect.isfunction(fn), f"{module_name}.{attr}"
        assert not inspect.isgeneratorfunction(fn), f"{module_name}.{attr}"


def test_exports_resolve():
    missing = [name for name in morse_forge.__all__ if not hasattr(morse_forge, name)]
    assert missing == []


def test_boundary_verdicts_take_plain_values():
    assert not hasattr(rays, "CombNeighborhood") and not hasattr(rays, "CorrespondingRay")
    # a neighbourhood is its gauge, depth and centers, a join's certificate a dict
    assert not hasattr(morse, "Neighborhood") and not hasattr(morse, "ConcatCertificate")
    params = list(inspect.signature(morse.neighborhood_member).parameters)
    assert params == ["space", "gauge", "depth", "centers", "candidate"]
    (rule,) = [s for s in re.split(r"(?<=\.)\s+", " ".join(__doc__.split())) if s.startswith("Boundary verdicts")]
    assert "``rays``" in rule and "``morse``" in rule
    assert not hasattr(rays.CombRay, "stored_length")
    lines = [FactorSpec.integer_line(name, "x") for name in ("A1", "A2")]
    state = matching.MatchState(matching.BoundaryHomeo(*lines, "identity"))
    state.step(1)
    assert not hasattr(state, "meta") and not hasattr(state, "delta_prime")
    # an element keeps its spelling and a direction its realization
    assert not hasattr(rays, "Spellings")
    for fn in (rays.realize, rays.spell, rays.validate_against):
        assert "table" not in inspect.signature(fn).parameters, fn.__name__


def test_prefix_transit_reads_the_cut_vertex_table():
    assert not hasattr(graph.Ball, "avoiding_row")
    assert _hits(AVOIDING_ROW, sorted(SRC.glob("*.py"))) == []
    source = inspect.getsource(checks.run_prefix_transit)
    assert "gates(0)" in source and "avoid" not in source


def test_only_shared_forks():
    # a child sends back plain values through marshal, which every Python
    # process has loaded, and ends in os._exit.  Importing pickle after the
    # package raises peak RSS by 0.14 MB, multiprocessing.sharedctypes (for
    # a shared counter) by 1.2 MB (CPython 3.11)
    lines, start = inspect.getsourcelines(checks._shared)
    inside = {f"checks.py:{start + i}: {line.strip()}" for i, line in enumerate(lines)}
    sources = sorted(SRC.glob("*.py"))
    hits = _hits(FORK, sources)
    assert hits and set(hits) <= inside
    assert _hits(POOL, sources) == []
