"""Check layer: reports, symmetry reduction, matching invariant suites."""

import pytest

from morse_forge import FactorSpec, FreeProduct
from morse_forge import checks, matching, morse
from morse_forge.graph import Ball
from morse_forge.matching import BoundaryHomeo, MatchState, run_matching


def _zz_pair():
    fp1 = FreeProduct(FactorSpec.integer_line("A1", "x"), FactorSpec.integer_line("B1", "y"))
    fp2 = FreeProduct(FactorSpec.integer_line("A2", "x"), FactorSpec.integer_line("B2", "y"))
    return fp1, fp2


def test_ball_symmetries_are_automorphisms(zz):
    ball = Ball.build(zz, 3)
    perms = checks.ball_symmetries(ball)
    assert len(perms) == 4
    for p in perms:
        assert p[0] == 0
        assert sorted(p) == list(range(len(ball)))
        for i, row in enumerate(ball.adjacency):
            image_neighbors = {p[j] for _s, j in row if j is not None}
            mapped_rows = {j for _s, j in ball.adjacency[p[i]] if j is not None}
            assert image_neighbors <= mapped_rows


def test_symmetries_commute_with_projection(lattice_product):
    fp = lattice_product
    ball = Ball.build(fp, 3)
    proj = [ball.index_of(fp.embed(fp.project_to_factor(w, fp.a.id))) for w in ball.vertices]
    for p in checks.ball_symmetries(ball):
        for i in range(len(ball)):
            assert p[proj[i]] == proj[p[i]]


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
    ],
    ids=["zz-r3", "lattice-line-r2", "free2-line-r2"],
)
def test_projection_visitor_matches_reference(first, radius, line_b):
    # the fused verdict against the whole-walk reference, on every walk of
    # the enumeration, under the real bound, under the (1, 0) lower bound
    # (most walks fail it), under Hausdorff bound 0, and under the (2, 0)
    # lower bound, which some projections break only between runs before
    # their last one
    fp = FreeProduct(first, line_b)
    ball = Ball.build(fp, radius)
    n = len(ball)
    proj_map = [ball.index_of(fp.embed(fp.project_to_factor(w, fp.a.id))) for w in ball.vertices]
    dist = [ball.row(i) for i in range(n)]
    proj_gap = [dist[i][proj_map[i]] for i in range(n)]
    copy_a = [i for i in range(n) if proj_map[i] == i]
    # endpoint pairs up to the ball's symmetries, as the check takes them
    symmetries = checks.ball_symmetries(ball)
    pairs = sorted({min(tuple(sorted((p[u], p[v]))) for p in symmetries) for u in copy_a for v in copy_a})
    reasons = set()
    for lam, eps in ((2, 1), (2, 2), (3, 0)):
        bound = morse.qg_bound(lam, eps)
        real = bound.least.upto(bound.max_len(2 * radius))
        geodesic = morse.qg_bound(1, 0).least.upto(len(real))
        slope_half = morse.qg_bound(2, 0).least.upto(len(real))
        for u, v in pairs:
            walks = morse.enumerate_quasi_geodesics(ball, u, v, lam, eps)
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


def test_projection_check_keeps_bound_tables(zz):
    # the bound's int tables are shared by every caller; a rerun must not grow them
    checks.run_projection_qg(zz, radius=2, grid=[(2, 1)])
    least = list(morse.qg_bound(2, 1).least.items)
    checks.run_projection_qg(zz, radius=2, grid=[(2, 1)])
    assert morse.qg_bound(2, 1).least.items == least


def test_nbhd_nesting_free_factor(free2):
    report = checks.run_nbhd_nesting(free2)
    assert report["status"] == "pass"
    assert report["instances"] > 0


def test_ray_merge_nonvacuous(zz):
    report = checks.run_ray_merge(zz, depth=24, k_values=(1, 2, 4))
    assert report["status"] == "pass"
    assert report["instances"] > 0


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
    rep = checks.duality_report(state, k_values=(1, 2, 3))
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
        seen = 0
        for x, info in state.meta.items():
            if info["role"] != "target" or x.spec != a2:
                continue
            seen += 1
            src_dir = state.meta[state.backward[x]]["direction"]
            src_table = ray_table(a1, src_dir)
            tgt_table = ray_table(a2, info["direction"])
            for point in grid:
                assert tgt_table.value(*point) <= max(src_table.value(*point), table[point])
                table[point] = max(table[point], tgt_table.value(*point))
        assert seen > 0
        return table

    base = observe(None)
    permuted = observe((negatives_first(a1), negatives_first(a2)))
    assert base == permuted
