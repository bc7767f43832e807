"""Check layer: reports, symmetry reduction, matching invariant suites."""

import gc
import json
import os
import time
import weakref

import pytest

from morse_forge import FactorSpec, FreeProduct
from morse_forge import checks, graph, matching, morse, rays, words
from morse_forge.errors import CapExceeded
from morse_forge.graph import Ball
from morse_forge.matching import BoundaryHomeo, MatchState, run_matching

from conftest import first_factor_root


def _zz_pair():
    fp1 = FreeProduct(FactorSpec.integer_line("A1", "x"), FactorSpec.integer_line("B1", "y"))
    fp2 = FreeProduct(FactorSpec.integer_line("A2", "x"), FactorSpec.integer_line("B2", "y"))
    return fp1, fp2


_LINE_B = FactorSpec.integer_line("B", "y")
_PRODUCTS = {
    "zz": FreeProduct(FactorSpec.integer_line("A", "x"), _LINE_B),
    "lattice-line": FreeProduct(FactorSpec.integer_lattice("A", 2), _LINE_B),
    "free2-line": FreeProduct(FactorSpec.free_group("A", 2, names=("a", "b")), _LINE_B),
}


def _branch_generators(ball):
    """{(branch point id, i): vertex permutation} for every branch point of
    the ball with a vertex behind it and every automorphism i of its
    factor, built from the words: automorphism i relabels the syllable
    that follows the branch point's vertex and leaves every other syllable
    alone.  Ids follow ``morse.BranchSymmetries``: 0 is (e, A),
    len(ball) is (e, B), and x != e names (x, the other factor)."""
    fp = ball.space
    n = len(ball)
    behind = {}  # branch point: (its factor, the (vertex, syllable index) pairs behind it)
    for w, word in enumerate(ball.vertices):
        syllables = word.syllables
        for k, s in enumerate(syllables):
            p = ball.index_of(fp.word(syllables[:k]))
            point = p or (0 if s.factor == fp.a.id else n)
            behind.setdefault(point, (s.spec, []))[1].append((w, k))
    perms = {}
    for point, (factor, members) in behind.items():
        for i, f in enumerate(factor.automorphisms()):
            perm = list(range(n))
            for w, k in members:
                syllables = list(ball.vertex(w).syllables)
                syllables[k] = f(syllables[k])
                perm[w] = ball.index_of(fp.word(syllables))
            perms[point, i] = perm
    return perms


def test_ball_symmetries_are_automorphisms():
    # what the reduced quasi-geodesic scan relies on: each factor
    # automorphism at each branch point, a generator of the branch-local
    # group, is a graph automorphism of the ball that keeps both distance
    # stores; the tables agree with it
    counts = {}
    for name, fp in _PRODUCTS.items():
        ball = Ball.build(fp, 3)
        n = len(ball)
        symmetries = morse.BranchSymmetries(ball)
        perms = _branch_generators(ball)
        counts[name] = len(perms)
        for (point, i), p in perms.items():
            assert sorted(p) == list(range(n)) and p[0] == 0
            moved = [x for x in range(n) if p[x] != x]
            for x in moved:
                assert {p[y] for y in ball.neighbors[x]} == set(ball.neighbors[p[x]])
                row, image = ball.row(x), ball.row(p[x])
                assert [image[p[y]] for y in range(n)] == row
                row, image = ball.in_ball_row(x), ball.in_ball_row(p[x])
                assert [image[p[y]] for y in range(n)] == list(row)
            for y in range(1, n):
                if symmetries.point[y] == point:
                    assert symmetries.image[y][i] == p[y]
                    assert (symmetries.fix[y] >> i & 1) == (p[y] == y)
    # e.g. lattice-line: 8 + 2 at e, then 2 behind each of the 12 lattice
    # and 8 y-then-lattice vertices of norm <= 2, 8 behind each of the 4
    # line and 8 lattice-then-y ones
    assert counts == {"zz": 36, "lattice-line": 146, "free2-line": 154}


def test_symmetries_commute_with_projection():
    for fp in _PRODUCTS.values():
        ball = Ball.build(fp, 3)
        proj = [ball.index_of(first_factor_root(fp, w)) for w in ball.vertices]
        for p in _branch_generators(ball).values():
            for x in range(len(ball)):
                assert p[proj[x]] == proj[p[x]]


@pytest.mark.parametrize("product, radius", [("zz", 3), ("lattice-line", 2)])
def test_stabilizer_selects_the_automorphisms_fixing_both_ends(product, radius):
    # a bit of a branch point's mask is set exactly when that automorphism
    # there fixes both ends; every mask starts full
    ball = Ball.build(_PRODUCTS[product], radius)
    symmetries = morse.BranchSymmetries(ball)
    perms = _branch_generators(ball)
    assert symmetries.stabilizer(()) == symmetries.full
    for u in range(len(ball)):
        for v in range(len(ball)):
            masks = symmetries.stabilizer((u, v))
            for (point, i), p in perms.items():
                assert (masks[point] >> i & 1) == (p[u] == u and p[v] == v)


def _projection_setup(fp, radius):
    """The ball, the projection tables and the orbit representatives of
    endpoint pairs, as ``checks.run_projection_qg`` builds them, except
    that ``dist`` holds every row: the check builds the copy's rows only,
    which are all the visitor reads, and the references read the others."""
    ball = Ball.build(fp, radius)
    n = len(ball)
    proj_map = [ball.index_of(first_factor_root(fp, w)) for w in ball.vertices]
    dist = [ball.row(i) for i in range(n)]
    proj_gap = [dist[i][proj_map[i]] for i in range(n)]
    copy_a = [i for i in range(n) if proj_map[i] == i]
    symmetries = morse.BranchSymmetries(ball)
    pairs = sorted({min(tuple(sorted(pair)) for pair in zip(symmetries.image[u], symmetries.image[v])) for u in copy_a for v in copy_a})
    return ball, proj_map, dist, proj_gap, symmetries, pairs


def _projection_violation(dist, proj, walk, least, haus_bound):
    """Reference verdict on one whole walk and its projection ``proj``."""
    # collapse the projected path into runs of constant value: inside a run
    # only the index span matters, across runs the widest index gap is the
    # binding one since the required distance grows with the gap
    runs = []
    start = 0
    for t in range(1, len(proj) + 1):
        if t == len(proj) or proj[t] != proj[start]:
            runs.append((proj[start], start, t - 1))
            start = t
    for value, s, e in runs:
        if least[e - s]:
            return "projection lower bound"
    for i in range(len(runs)):
        vi, si, _ei = runs[i]
        row = dist[vi]
        for j in range(i + 1, len(runs)):
            vj, _sj, ej = runs[j]
            if row[vj] < least[ej - si]:
                return "projection lower bound"
    proj_set = sorted({v for v, _s, _e in runs})
    for x in walk:
        row = dist[x]
        if min(row[p] for p in proj_set) > haus_bound:
            return "hausdorff bound"
    walk_set = sorted(set(walk))
    for p in proj_set:
        row = dist[p]
        if min(row[x] for x in walk_set) > haus_bound:
            return "hausdorff bound"
    return None


@pytest.mark.parametrize(
    "first, radius",
    [
        (FactorSpec.integer_line("A", "x"), 3),
        (FactorSpec.integer_lattice("A", 2), 2),
        (FactorSpec.free_group("A", 2, names=("a", "b")), 2),
        (FactorSpec.finite_table("A", [[(i + j) % 3 for j in range(3)] for i in range(3)], [1, 2], names=("s", "s_inv")), 3),
    ],
    ids=["zz-r3", "lattice-line-r2", "free2-line-r2", "z3-line-r3"],
)
def test_projection_visitor_matches_reference(first, radius, line_b):
    # the fused verdict against the whole-walk reference, on every walk of
    # the enumeration, under the real bound, under the (1, 0) lower bound
    # (most walks fail it), under Hausdorff bound 0, and under the (2, 0)
    # lower bound, which some projections break only between runs before
    # their last one.  The reference measures the Hausdorff distance both
    # ways over the whole walk; the visitor reads only the largest
    # d(x, pi(x)), and the finite first factor Z/3 puts a triangle in the
    # copy that the walk projects to
    fp = FreeProduct(first, line_b)
    ball, proj_map, dist, proj_gap, _symmetries, pairs = _projection_setup(fp, radius)
    reasons = set()
    for lam, eps in ((2, 1), (2, 2), (3, 0)):
        bound = morse.QGBound(lam, eps)
        real = bound.least.upto(bound.max_len(2 * radius))
        geodesic = morse.QGBound(1, 0).least.upto(len(real))
        slope_half = morse.QGBound(2, 0).least.upto(len(real))
        for u, v in pairs:
            walks = morse.enumerate_quasi_geodesics(ball, u, v, bound)
            settings = ((real, bound.hausdorff), (geodesic, bound.hausdorff), (real, 0), (slope_half, bound.hausdorff))
            for least, haus_bound in settings:
                expected = []
                for walk in walks:
                    proj = [proj_map[x] for x in walk]
                    reason = _projection_violation(dist, proj, walk, least, haus_bound)
                    if reason:
                        expected.append((walk, reason))
                found = []
                visit = checks.projection_visitor(dist, proj_map, proj_gap, v, least, haus_bound, found)
                count = morse.scan_quasi_geodesics(ball, u, v, bound, visit, checks.PROJECTION_START)
                assert count == len(walks)
                assert found == expected
                reasons.update(r for _w, r in found)
    assert reasons == {"projection lower bound", "hausdorff bound"}


def test_projection_visitor_matches_reference_at_odd_slack():
    # the ball graphs are bipartite, so a projected run that leaves the
    # copy and comes back spans an even gap; the tables above all allow an
    # even gap at distance 0.  Under the (1, 1) and (3, 1) lower bounds
    # (gaps 1 and 3), a deadline one index late passes runs of gap 2 and 4
    # that break the bound
    ball, proj_map, dist, proj_gap, _symmetries, pairs = _projection_setup(_PRODUCTS["zz"], 3)
    bound = morse.QGBound(2, 2)
    real = bound.least.upto(bound.max_len(6))
    broken = 0
    for point, slack in (((1, 1), 1), ((3, 1), 3)):
        least = morse.QGBound(*point).least.upto(len(real))
        assert checks.projection_slack(least)[0] == slack
        for u, v in pairs:
            walks = morse.enumerate_quasi_geodesics(ball, u, v, bound)
            expected = []
            for walk in walks:
                reason = _projection_violation(dist, [proj_map[x] for x in walk], walk, least, bound.hausdorff)
                if reason:
                    expected.append((walk, reason))
            found = []
            visit = checks.projection_visitor(dist, proj_map, proj_gap, v, least, bound.hausdorff, found)
            assert morse.scan_quasi_geodesics(ball, u, v, bound, visit, checks.PROJECTION_START) == len(walks)
            assert found == expected
            broken += len(found)
    assert broken > 0


def test_projection_map_is_the_first_syllable_retraction(cpus, monkeypatch):
    # the map run_projection_qg hands its visitor, against the word-level
    # oracle; on one CPU every visitor is made in this process
    cpus(1)
    handed = []
    visitor = checks.projection_visitor

    def recording(dist, proj_map, *rest):
        handed.append(proj_map)
        return visitor(dist, proj_map, *rest)

    monkeypatch.setattr(checks, "projection_visitor", recording)
    zz = _PRODUCTS["zz"]
    cases = [(zz, 4), (_PRODUCTS["lattice-line"], 3), (_PRODUCTS["free2-line"], 2)]
    cases += [(FreeProduct(FactorSpec.integer_line("A", "x"), _Z3_FACTOR), 3), (zz, 7)]
    for fp, radius in cases:
        handed.clear()
        checks.run_projection_qg(fp, radius=radius, grid=((1, 0),))
        ball = Ball.build(fp, radius)
        oracle = [ball.index_of(first_factor_root(fp, w)) for w in ball.vertices]
        assert handed and all(proj_map == oracle for proj_map in handed)
    # on Z*Z radius 7: x^2 y x retracts to x^2, y x y^5 to e, x^3 to itself
    proj_map = handed[0]
    for word, root in (("x^2 y x", "x^2"), ("y x y^5", "e"), ("x^3", "x^3")):
        assert proj_map[ball.index_of(zz.parse(word))] == ball.index_of(zz.parse(root))


def test_projection_slack_is_the_widest_gap_allowed():
    # under a real bound, least(g) <= d exactly when g <= max_len(d), so
    # the slack table is max_len up to the ball's diameter; on any table
    # it is the widest gap g with least[g] <= d, else 0.  Checked on the
    # default grid and the benchmark's projection bounds, on those tables
    # raised by 1, and on the (1, 0) and (2, 0) tables the visitor test uses
    from morse_forge.cli import DEFAULT_CONFIG

    points = {tuple(point) for point in DEFAULT_CONFIG["grid"]} | {(1, 0), (2, 2), (2, 3), (3, 0)}
    for radius in (2, 3, 4):
        for lam, eps in sorted(points):
            bound = morse.QGBound(lam, eps)
            real = list(bound.least.upto(bound.max_len(2 * radius)))
            tables = [real, [x + 1 for x in real]]
            tables += [list(morse.QGBound(*point).least.upto(len(real))) for point in ((1, 0), (2, 0))]
            for least in tables:
                kept = list(least)
                slack = checks.projection_slack(least)
                assert least == kept
                assert len(slack) == len(least)
                for d, widest in enumerate(slack):
                    assert widest == max((g for g, need in enumerate(least) if need <= d), default=0)
            slack = checks.projection_slack(real)
            assert slack[: 2 * radius + 1] == bound.max_len.upto(2 * radius)[: 2 * radius + 1]


class _CountingRows(list):
    """Distance rows that count how often a row is read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_projection_visitor_reads_one_row_per_run():
    # each projected run's deadline is taken once, when the run opens, so
    # the visitor reads at most one distance row per opening.  On Z*Z
    # radius 3 at (2, 3), under the real bound, the 16 orbit pairs open
    # 38,565 runs; checking each run against the earlier ones again as it
    # closes and as its walk ends would read 60,720 rows
    ball, proj_map, dist, proj_gap, symmetries, pairs = _projection_setup(_PRODUCTS["zz"], 3)
    rows = _CountingRows(dist)
    bound = morse.QGBound(2, 3)
    least = bound.least.upto(bound.max_len(6))
    openings = 0
    for u, v in pairs:
        failures = []
        visit = checks.projection_visitor(rows, proj_map, proj_gap, v, least, bound.hausdorff, failures)

        def counted(state, walk):
            nonlocal openings
            if len(walk) == 1 or proj_map[walk[-1]] != proj_map[walk[-2]]:
                openings += 1
            return visit(state, walk)

        morse.scan_quasi_geodesics(ball, u, v, bound, counted, checks.PROJECTION_START, symmetries=symmetries)
        assert failures == []
    assert len(pairs) == 16
    assert 0 < rows.reads <= openings == 38565


def _both(first, second):
    """One scan visitor that runs two, each on its own state."""

    def visit(states, walk):
        return first(states[0], walk), second(states[1], walk)

    return visit


def _reference_scan(ball, u, v, bound, visit, state, symmetries=None):
    """``morse.scan_quasi_geodesics`` without its gate deadline: the search
    pruned by in-ball reachability, the end cap and the lower bound only.
    Orbits are read off the image tables, and each step ANDs into its
    branch point's mask the automorphisms there that map its vertex to
    itself."""
    masks = None if symmetries is None else symmetries.stabilizer((u, v))

    def orbit(y):
        # the prefix's stabilizer fixes y's parent, so y moves only by the
        # automorphisms at its own branch point
        m = masks[symmetries.point[y]]
        return {x for i, x in enumerate(symmetries.image[y]) if m >> i & 1}

    listed = {}

    def options(x):
        if masks is None:
            return iter(ball.neighbors[x])
        key = (x, tuple(masks[symmetries.point[y]] for y in ball.neighbors[x]))
        if key not in listed:
            listed[key] = [y for y in ball.neighbors[x] if min(orbit(y)) == y]
        return iter(listed[key])

    end_slack = bound.max_len.upto(2 * ball.radius)
    max_len = end_slack[ball.pair_distance(u, v)]
    min_need = bound.least.upto(max_len)
    first_need = end_slack[0] + 1
    to_v = ball.in_ball_row(v)
    row_v = ball.row(v)
    count = 1 if u == v else 0
    walk = [u]
    nexts = options(u) if max_len else iter(())
    top = min(max_len, end_slack[row_v[u]])
    weight = 1
    current = visit(state, walk)
    frames = []
    while True:
        nxt = next(nexts, None)
        if nxt is None:
            if not frames:
                return count
            walk.pop()
            nexts, top, weight, current, saved = frames.pop()
            if saved:
                masks[saved[0]] = saved[1]
            continue
        t = len(walk)
        limit = min(top, t + end_slack[row_v[nxt]])
        if t + to_v[nxt] > limit:
            continue
        row = ball.row(nxt)
        for s in range(t + 1 - first_need):
            if row[walk[s]] < min_need[t - s]:
                break
        else:
            walk.append(nxt)
            extended = weight if masks is None else weight * len(orbit(nxt))
            if nxt == v:
                count += extended
            if t < limit:
                saved = None
                if masks is not None:
                    b = symmetries.point[nxt]
                    saved = (b, masks[b])
                    masks[b] &= sum(1 << i for i, x in enumerate(symmetries.image[nxt]) if x == nxt)
                frames.append((nexts, top, weight, current, saved))
                current = visit(current, walk)
                top = limit
                weight = extended
                nexts = options(nxt)
            else:
                visit(current, walk)
                walk.pop()


def _canonical_forms(symmetries, generators, u, v, walks):
    """The representatives of the walks that a scan reduced by the
    stabilizer of u and v keeps: step by step, the generator at the next
    vertex's branch point that maps it least is applied to the rest of the
    walk.  Walks in search order share prefixes, so the masks, generators
    and representative of a shared prefix are kept for the next walk."""
    masks = symmetries.stabilizer((u, v))
    undo = []  # per step after u: (branch point, its mask before, generator or None)
    applied = []
    canonical = [u]
    least_image = {}
    previous = ()
    out = []
    for walk in walks:
        k, common = 1, min(len(walk), len(previous))
        while k < common and walk[k] == previous[k]:
            k += 1
        while len(undo) >= k:
            point, masks[point], p = undo.pop()
            if p is not None:
                applied.pop()
        del canonical[k:]
        for y in walk[k:]:
            for p in applied:
                y = p[y]
            point = symmetries.point[y]
            m = masks[point]
            if (y, m) not in least_image:
                least_image[y, m] = min((x, i) for i, x in enumerate(symmetries.image[y]) if m >> i & 1)
            least, i = least_image[y, m]
            p = generators[point, i] if least != y else None
            if p is not None:
                applied.append(p)
            undo.append((point, m, p))
            masks[point] = m & symmetries.fix[least]
            canonical.append(least)
        out.append(tuple(canonical))
        previous = walk
    return out


_ORACLE_GRID = ((1, 0), (1, 2), (2, 1), (2, 2), (2, 3), (3, 0))


@pytest.mark.parametrize(
    "product, radius, grid",
    [
        ("zz", 3, _ORACLE_GRID),
        ("lattice-line", 2, _ORACLE_GRID),
        # (2, 2) and (2, 3) are left out at radius 3: at (2, 2) alone the
        # reduced scans keep 3.19 M prefixes (about 8 s), the plain ones more
        ("lattice-line", 3, ((1, 0), (1, 2), (2, 1), (3, 0))),
        ("free2-line", 2, _ORACLE_GRID),
    ],
    ids=["zz-r3", "lattice-line-r2", "lattice-line-r3", "free2-line-r2"],
)
def test_reduced_scan_matches_plain_scan(product, radius, grid):
    # on every orbit representative, the scan reduced by the stabilizer of
    # its endpoints counts the plain scan's walks, and its failing walks
    # are the canonical forms of the plain scan's failing walks; a
    # Hausdorff bound of 0 and a lower bound raised by 1 make walks fail
    # for both reasons.  Each scan, reduced or plain, also meets the walks
    # and failures of the reference scan without the gate deadline, in order
    ball, proj_map, dist, proj_gap, groups, pairs = _projection_setup(_PRODUCTS[product], radius)
    generators = _branch_generators(ball)
    reasons = set()
    reduced_failures = plain_failures = 0
    for lam, eps in grid:
        bound = morse.QGBound(lam, eps)
        least = bound.least.upto(bound.max_len(2 * radius))
        settings = ((least, 0), ([x + 1 for x in least], bound.hausdorff))
        for u, v in pairs:
            runs = []
            for group in (groups, None):
                for scan in (morse.scan_quasi_geodesics, _reference_scan):
                    found = [[] for _ in settings]
                    visit = _both(*(
                        checks.projection_visitor(dist, proj_map, proj_gap, v, table, haus_bound, out)
                        for (table, haus_bound), out in zip(settings, found)
                    ))
                    start = (checks.PROJECTION_START,) * len(settings)
                    count = scan(ball, u, v, bound, visit, start, symmetries=group)
                    runs.append((count, found))
            (count, reduced), reduced_reference, (plain_count, plain), plain_reference = runs
            assert (count, reduced) == reduced_reference
            assert (plain_count, plain) == plain_reference
            assert count == plain_count
            for mine, theirs in zip(reduced, plain):
                assert len(set(mine)) == len(mine)
                canonical = _canonical_forms(groups, generators, u, v, [walk for walk, _reason in theirs])
                assert set(mine) == set(zip(canonical, (reason for _walk, reason in theirs)))
                reasons.update(reason for _walk, reason in theirs)
                reduced_failures += len(mine)
                plain_failures += len(theirs)
    assert reasons == {"projection lower bound", "hausdorff bound"}
    assert reduced_failures < plain_failures


@pytest.mark.parametrize("product, radius", [("zz", 3), ("lattice-line", 2), ("free2-line", 2)], ids=["zz-r3", "lattice-line-r2", "free2-line-r2"])
def test_reversed_scan_matches_forward_scan(product, radius):
    # what run_projection_qg's far-first scan rests on: reversal maps the
    # walks u -> v onto the walks v -> u, and the projection verdicts do
    # not depend on the direction.  On every orbit representative, the
    # reduced scan v -> u counts the walks of the reduced scan u -> v, and
    # its failing walks, reversed, have the forward failing walks as their
    # canonical forms, with the same reasons; under the real bound, a
    # Hausdorff bound of 0 and a lower bound raised by 1
    ball, proj_map, dist, proj_gap, groups, pairs = _projection_setup(_PRODUCTS[product], radius)
    generators = _branch_generators(ball)
    reasons = set()
    for lam, eps in _ORACLE_GRID:
        bound = morse.QGBound(lam, eps)
        least = bound.least.upto(bound.max_len(2 * radius))
        settings = ((least, bound.hausdorff), (least, 0), ([x + 1 for x in least], bound.hausdorff))
        for u, v in pairs:
            scans = []
            for a, b in ((u, v), (v, u)):
                found = [[] for _ in settings]
                first, second, third = (
                    checks.projection_visitor(dist, proj_map, proj_gap, b, table, haus_bound, out)
                    for (table, haus_bound), out in zip(settings, found)
                )

                def visit(states, walk):
                    return first(states[0], walk), second(states[1], walk), third(states[2], walk)

                count = morse.scan_quasi_geodesics(ball, a, b, bound, visit, (checks.PROJECTION_START,) * 3, symmetries=groups)
                scans.append((count, found))
            (count, forward), (back_count, backward) = scans
            assert back_count == count
            # sorted, the walks share the longest prefixes
            walks = sorted({walk[::-1] for theirs in backward for walk, _reason in theirs})
            canonical = dict(zip(walks, _canonical_forms(groups, generators, u, v, walks)))
            for mine, theirs in zip(forward, backward):
                assert sorted((canonical[walk[::-1]], reason) for walk, reason in theirs) == sorted(mine)
                reasons.update(reason for _walk, reason in mine)
    assert reasons == {"projection lower bound", "hausdorff bound"}


def _dead_prefixes(scan, ball, u, v, bound, group):
    """(kept, dead): how many prefixes the scan keeps, and how many of
    them lead to no walk."""
    parent, live = [], []

    def visit(state, walk):
        parent.append(state)
        live.append(walk[-1] == v)
        return len(parent) - 1

    scan(ball, u, v, bound, visit, None, symmetries=group)
    for i in range(len(parent) - 1, 0, -1):  # each prefix after its parent
        if live[i]:
            live[parent[i]] = True
    return len(live), live.count(False)


@pytest.mark.parametrize(
    "product, radius, point, reduced_kept",
    [("zz", 3, (2, 3), 63659), ("free2-line", 2, (2, 2), 18746)],
    ids=["zz-r3", "free2-line-r2"],
)
def test_no_kept_prefix_is_dead(product, radius, point, reduced_kept):
    # with the gate deadline, every prefix the scan keeps leads to a walk;
    # without it, the reference scan keeps dead ones.  The reduced scans
    # keep the pinned number of prefixes (the global factor automorphisms
    # kept 125,338 on Z*Z and 20,521 on F2*Z)
    ball, _proj_map, _dist, _proj_gap, groups, pairs = _projection_setup(_PRODUCTS[product], radius)
    bound = morse.QGBound(*point)
    kept = {}
    reference_dead = 0
    for group in (groups, None):
        kept[group] = 0
        for u, v in pairs:
            count, dead = _dead_prefixes(morse.scan_quasi_geodesics, ball, u, v, bound, group)
            assert dead == 0
            kept[group] += count
            reference_dead += _dead_prefixes(_reference_scan, ball, u, v, bound, group)[1]
    assert kept[groups] == reduced_kept < kept[None]
    assert reference_dead > 0


@pytest.mark.parametrize(
    "product, radius, point, far_first_kept",
    [("zz", 3, (2, 3), 58079), ("free2-line", 2, (2, 2), 17171)],
    ids=["zz-r3", "free2-line-r2"],
)
def test_far_first_scan_keeps_no_dead_prefix(product, radius, point, far_first_kept):
    # run_projection_qg scans each pair from its end farther from e, as
    # (v, u) when |v| > |u|.  The reduced scans then keep the pinned number
    # of prefixes, every one of which leads to a walk; from u they keep
    # 63,659 on Z*Z and 18,746 on F2*Z (test_no_kept_prefix_is_dead)
    ball, _proj_map, _dist, _proj_gap, groups, pairs = _projection_setup(_PRODUCTS[product], radius)
    bound = morse.QGBound(*point)
    kept = 0
    for u, v in pairs:
        if ball.dist[v] > ball.dist[u]:
            u, v = v, u
        count, dead = _dead_prefixes(morse.scan_quasi_geodesics, ball, u, v, bound, groups)
        assert dead == 0
        kept += count
    assert kept == far_first_kept


def test_check_bounds_die_with_the_run(zz, cpus, monkeypatch):
    # each check makes its bounds once and drops them with its run: concat-qg
    # its (1, 0) and (1, 2) bounds and the (3, 1) and (3, 3) bounds their
    # joins meet, projection-qg one per grid point.  A table outside the
    # run would keep one, and its int tables, alive into the next run
    made = []

    class Recorded(morse.QGBound):
        def __init__(self, lam, eps):
            super().__init__(lam, eps)
            made.append(weakref.ref(self))

    monkeypatch.setattr(morse, "QGBound", Recorded)
    cpus(1)  # every item runs in this process, so every bound is seen
    checks.run_concat_qg(zz, radius=2)
    assert len(made) == 4
    checks.run_projection_qg(zz, radius=2, grid=[(2, 1), (1, 2)])
    assert len(made) == 6
    gc.collect()
    assert [ref() for ref in made] == [None] * 6


def test_sharing_changes_no_report(cpus):
    # the checks merge their shared items in item order, so a run that
    # forks returns the plain loop's report, byte for byte
    runs = (
        lambda: checks.run_projection_qg(_PRODUCTS["zz"], radius=3, grid=[(2, 3)]),
        lambda: checks.run_projection_qg(_PRODUCTS["lattice-line"], radius=2, grid=[(2, 2)]),
        lambda: checks.run_concat_qg(_PRODUCTS["zz"], radius=3),
    )
    reports = {}
    for count in (1, 2):
        forks = cpus(count)
        reports[count] = [json.dumps(run()) for run in runs]
    assert forks == [2, 2, 2]
    assert reports[1] == reports[2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_shared_items_raise_as_the_plain_loop(cpus, tmp_path):
    # an item that raised in the child has no result, so this process runs
    # it again once the child is reaped, in index order: the caller meets
    # the plain loop's exception, here CapExceeded(2), which does not
    # survive a pickle round trip
    forks = cpus(2)
    main = os.getpid()
    raised = tmp_path / "raised-in-child"

    def work(i):
        if i >= 2:
            if os.getpid() != main:
                raised.touch()
            raise CapExceeded(i)
        # this process's first item waits until the child has raised
        deadline = time.monotonic() + 30
        while os.getpid() == main and not raised.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return i

    with pytest.raises(CapExceeded) as exc:
        checks._shared(work, 6, lambda i: -i)
    assert str(exc.value) == str(CapExceeded(2)) and raised.exists()
    # items that raise in the child alone pass when run again here
    assert checks._shared(lambda i: i if os.getpid() == main else 1 // 0, 4, lambda i: i) == [0, 1, 2, 3]
    assert forks == [2, 2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _prefix_transit_reference(fp, radius, slack=2):
    """The check as a list of every walk: (instances, counterexamples)."""
    ball = Ball.build(fp, radius)
    instances = 0
    failures = []
    for w in range(1, len(ball)):
        word = ball.vertex(w)
        required = set(ball.prefixes(w))
        for p in ball.enumerate_paths(0, w, ball.dist[w] + slack):
            instances += 1
            if not required <= set(p):
                failures.append({"w": fp.format(word), "path": list(p)})
    return instances, failures


def _stricter_prefixes(prefixes):
    """Claims too strong for some targets: a two-syllable vertex must also
    pass the first generator of the factor it does not start in.  Every
    vertex also names e and itself, which every walk to it passes."""

    def stricter(ball, x):
        claimed = prefixes(ball, x)
        required = claimed + [0, x]
        if len(claimed) == 1:  # x has two syllables, the first one claimed[0]
            gen = next(g for g in ball.space.generators() if g.factor != ball.last[claimed[0]].factor)
            required.append(ball.child[0, gen.element])
        return required

    return stricter


_Z3_FACTOR = FactorSpec.finite_table("B", [[(i + j) % 3 for j in range(3)] for i in range(3)], [1, 2], names=["s", "t"])
_Z2_TABLE = [[0, 1], [1, 0]]


@pytest.mark.parametrize(
    "fp, radius",
    [
        (_PRODUCTS["zz"], 4),
        (_PRODUCTS["lattice-line"], 3),
        (FreeProduct(FactorSpec.finite_table("A", _Z2_TABLE, [1], names=["a"]), FactorSpec.finite_table("B", _Z2_TABLE, [1], names=["b"])), 5),
        (_PRODUCTS["free2-line"], 3),
        (FreeProduct(FactorSpec.integer_line("A", "x"), _Z3_FACTOR), 4),
    ],
    ids=["zz-r4", "lattice-line-r3", "dih-r5", "free2-line-r3", "line-z3-r4"],
)
@pytest.mark.parametrize("strict", [False, True], ids=["claim", "stricter"])
@pytest.mark.parametrize("slack", [0, 2])
def test_prefix_transit_counts_match_listing_reference(fp, radius, strict, slack, monkeypatch):
    # counted walks and cut reachability against listing every walk; a
    # stricter claim also compares the listing of failing targets, and at
    # slack 0 its shortest walks missing a vertex are just long enough
    if strict:
        monkeypatch.setattr(graph.Ball, "prefixes", _stricter_prefixes(graph.Ball.prefixes))
    report = checks.run_prefix_transit(fp, radius=radius, slack=slack)
    instances, failures = _prefix_transit_reference(fp, radius, slack)
    assert report["instances"] == instances > 0
    assert report["counterexample_count"] == len(failures)
    assert report["counterexamples"] == failures[:10]
    assert report["status"] == ("fail" if failures else "pass")
    assert bool(failures) == strict


def test_nbhd_nesting_free_factor(free2):
    report = checks.run_nbhd_nesting(free2)
    assert report["status"] == "pass"
    assert report["instances"] > 0


def test_ray_merge_nonvacuous(zz):
    report = checks.run_ray_merge(zz, depth=24, k_values=(1, 2, 4))
    assert report["status"] == "pass"
    assert report["instances"] > 0


def _ray_merge_pair_reference(fp, ra, rb, depth, k_values, delta):
    """Reference verdicts of one pair from its whole distance profile."""
    profile = [fp.distance(ra[t], rb[t]) for t in range(depth + 1)]
    out = []
    for k in k_values:
        if depth < 6 * k:
            continue
        if max(profile) < k:
            horizon = depth - 2 * k
            out.append((k, any(d != 0 and d >= delta for d in profile[: horizon + 1])))
    return out


def _ray_merge_reference(fp, depth=36, k_values=(1, 2, 3, 4), max_len=2, max_norm=1):
    """Reference ray-merge report, taking every pair's whole profile."""
    delta = morse.rational_ceil(morse.CANONICAL_TREE_GAUGE.delta)
    population = rays.comb_population(fp, max_len=max_len, max_norm=max_norm, max_infinite_prefix=1)
    realized = [rays.realize(a, depth) for a in population]
    instances = 0
    failures = []
    for ai in range(len(realized)):
        for bi in range(len(realized)):
            for k, failed in _ray_merge_pair_reference(fp, realized[ai], realized[bi], depth, k_values, delta):
                instances += 1
                if failed:
                    failures.append({"a": population[ai].text(), "b": population[bi].text(), "k": k})
    return checks._report("ray-merge", {"depth": depth, "k_values": list(k_values)}, instances, failures, {"rays": len(realized)})


_Z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]


@pytest.mark.parametrize(
    "first, second",
    [
        (FactorSpec.integer_line("A", "x"), FactorSpec.integer_line("B", "y")),
        (FactorSpec.integer_lattice("A", 2), FactorSpec.integer_line("B", "y")),
        (FactorSpec.free_group("A", 2, names=("a", "b")), FactorSpec.integer_line("B", "y")),
        (FactorSpec.integer_line("A", "x"), FactorSpec.finite_table("B", _Z3, [1, 2], names=["s", "t"])),
    ],
    ids=["zz", "lattice-line", "free2-line", "line-z3"],
)
@pytest.mark.parametrize(
    "kwargs",
    [{}, {"depth": 24, "k_values": (1, 2, 4)}, {"depth": 18, "k_values": (1, 2, 3, 4)}],
    ids=["defaults", "d24", "d18-drops-4"],
)
def test_ray_merge_matches_full_profile_reference(first, second, kwargs):
    fp = FreeProduct(first, second)
    report = checks.run_ray_merge(fp, **kwargs)
    assert report == _ray_merge_reference(fp, **kwargs)
    # the report names every k the caller passed, also one the depth drops
    assert report["params"]["k_values"] == list(kwargs.get("k_values", (1, 2, 3, 4)))


def test_ray_merge_pair_counts_and_fails_below_top(zz, monkeypatch):
    # hand-made vertex tuples: a straight ray and copies of it with one
    # vertex pushed off by a given distance at a given index
    depth, k_values = 24, (1, 2, 3, 4)  # k = 4 needs depth 24, so top is 4
    ks = [k for k in k_values if depth >= 6 * k]
    ra = tuple(zz.embed(zz.a.power(0, t)) for t in range(depth + 1))

    def bumped(t, by):
        return ra[:t] + (zz.multiply(ra[t], zz.embed(zz.b.power(0, by))),) + ra[t + 1 :]

    cases = [
        # (rb, delta, verdicts): horizons are 22, 20, 18 and 16 for k = 1..4
        (ra, 1, [(1, False), (2, False), (3, False), (4, False)]),
        (bumped(2, 1), 1, [(2, True), (3, True), (4, True)]),
        (bumped(2, 1), 2, [(2, False), (3, False), (4, False)]),
        (bumped(10, 3), 3, [(4, True)]),
        (bumped(18, 3), 3, [(4, False)]),  # past k = 4's horizon
        (bumped(17, 2), 2, [(3, True), (4, False)]),
        (bumped(24, 4), 1, []),  # reaches top at the last index
        (bumped(1, 4), 1, []),  # reaches top at once and stops there
    ]
    for rb, delta, verdicts in cases:
        assert checks.ray_merge_pair(zz, ra, rb, ks, delta) == verdicts
        assert _ray_merge_pair_reference(zz, ra, rb, depth, k_values, delta) == verdicts
    # the profile stops at the first distance that reaches top
    calls = []
    distance = words.FreeProduct.distance
    monkeypatch.setattr(words.FreeProduct, "distance", lambda fp, u, v: calls.append(1) or distance(fp, u, v))
    assert checks.ray_merge_pair(zz, ra, bumped(1, 4), ks, 1) == []
    assert len(calls) == 2


def test_v_system_small(dihedral):
    # finite factors have no boundary directions, so only infinite kinds
    report = checks.run_v_system(dihedral, max_len=2, max_norm=1, i_values=(1, 2))
    assert report["status"] in ("pass", "vacuous")


def test_bijectivity_report_flags_prefix():
    fp1, fp2 = _zz_pair()
    pm = run_matching(
        fp1, fp2,
        BoundaryHomeo(fp1.a, fp2.a, "identity"),
        BoundaryHomeo(fp1.b, fp2.b, "identity"),
        rounds=6,
    )
    rep = checks.bijectivity_report(pm.a)
    assert rep["ok"] and rep["pairs"] == 13  # identity plus six rounds of two


def test_duality_nonvacuous_long_run():
    # twenty rounds stay below the tracking threshold (90 for the default
    # gauge), so a longer integer-line run is needed to exercise the
    # ray-duality check on qualifying elements
    a1 = FactorSpec.integer_line("A1", "x")
    a2 = FactorSpec.integer_line("A2", "x")
    state = MatchState(BoundaryHomeo(a1, a2, "identity"))
    for _ in range(100):
        state.step(1)
        state.step(2)
    rep = checks.duality_report(state)
    assert rep["checked"] > 0
    assert not rep["failures"]


def test_concat_radius_five(zz):
    # the hypothesis-to-verification implication also holds one radius up
    report = checks.run_concat_qg(zz, radius=5, qg_norm_limit=1)
    assert report["status"] == "pass"
    assert report["hypothesis_held"] > 0


def test_match_report_full(tmp_path):
    fp1, fp2 = _zz_pair()
    pm = run_matching(
        fp1, fp2,
        BoundaryHomeo(fp1.a, fp2.a, "lineswap"),
        BoundaryHomeo(fp1.b, fp2.b, "identity"),
        rounds=8,
    )
    report = checks.match_report(pm)
    assert report["status"] == "pass"
    assert report["induced_containment"]["instances"] > 0
    for entry in report["pairs"]["A"]["continuity"].values():
        assert entry["status"] == "verified"


def test_transfer_table_stability():
    # empirical gauge transfer: target-ray tables never exceed the
    # initiator-ray tables in tree factors, and the frozen running-max
    # table is stable under a permuted enumeration replay
    import itertools

    from morse_forge import FactorSpace, morse

    a1 = FactorSpec.integer_line("A1", "x")
    a2 = FactorSpec.integer_line("A2", "x")
    grid = [(1, 0), (1, 2), (2, 1)]
    radius = 3

    def ray_table(spec, direction):
        ball = Ball.build(FactorSpace(spec), radius)
        path = ball.first_geodesic(0, ball.index_of(direction.realization(radius)[-1]))
        return morse.estimate_gauge(ball, path, grid)

    def negatives_first(spec):
        yield spec.identity()
        n = 1
        while True:
            yield spec.make_element(-n)
            yield spec.make_element(n)
            n += 1

    def observe(enumerations):
        state = MatchState(BoundaryHomeo(a1, a2, "identity"), enumerations=enumerations)
        for _ in range(6):
            state.step(1)
            state.step(2)
        table = {point: 0 for point in grid}
        # the targets in a2, each found by a side-1 step
        targets = {rec["target"] for rec in state.records if rec["side"] == 1}
        seen = 0
        for x, direction in state.directions.items():
            if x.spec != a2 or a2.format_element(x) not in targets:
                continue
            seen += 1
            src_table = ray_table(a1, state.directions[state.backward[x]])
            tgt_table = ray_table(a2, direction)
            for point in grid:
                assert tgt_table.value(*point) <= max(src_table.value(*point), table[point])
                table[point] = max(table[point], tgt_table.value(*point))
        assert seen > 0
        return table

    base = observe(None)
    permuted = observe((negatives_first(a1), negatives_first(a2)))
    assert base == permuted
