"""Cayley-graph balls: BFS metric, enumeration, projection."""

from collections import defaultdict

import pytest

from morse_forge import FactorSpace, checks
from morse_forge.errors import (
    BudgetExceeded,
    CapExceeded,
    EndpointsOutsideFactor,
    PossiblyTruncated,
)
from morse_forge.graph import Ball, GraphPath


def walk_count_oracle(ball, u, v, maxlen):
    """DP walk counter (stationary steps allowed), independent of the DFS."""
    counts = defaultdict(int)
    counts[u] = 1
    total = 1 if u == v else 0
    for _ in range(maxlen):
        nxt = defaultdict(int)
        for vert, c in counts.items():
            nxt[vert] += c
            for _s, n in ball.adjacency[vert]:
                if n is not None:
                    nxt[n] += c
        counts = nxt
        total += counts[v]
    return total


def test_ball_sizes(zz, dihedral):
    assert len(Ball.build(dihedral, 4)) == 9
    assert len(Ball.build(zz, 2)) == 17
    assert len(Ball.build(zz, 0)) == 1


def test_ball_budget(zz):
    with pytest.raises(BudgetExceeded):
        Ball.build(zz, 4, vertex_budget=50)


def test_ball_distances_certified(zz):
    ball = Ball.build(zz, 4)
    x = ball.index_of(zz.parse("x"))
    y = ball.index_of(zz.parse("y"))
    assert ball.distance(x, y) == 2
    assert ball.distance(x, x) == 0


def test_ball_distance_flags_uncertified(zz):
    ball = Ball.build(zz, 4)
    u = ball.index_of(zz.parse("x^3"))
    v = ball.index_of(zz.parse("y x^3"))
    with pytest.raises(PossiblyTruncated):
        ball.distance(u, v)


def test_dihedral_distance(dihedral):
    ball = Ball.build(dihedral, 4)
    w = ball.index_of(dihedral.parse("a b a b"))
    assert ball.distance(0, w) == 4


def test_bfs_equals_syllable_metric(zz, dihedral, lattice_product):
    # graph distance from the basepoint decomposes over syllables
    for fp in (zz, dihedral, lattice_product):
        ball = Ball.build(fp, 4)
        for i, w in enumerate(ball.vertices):
            assert ball.dist[i] == fp.norm(w)


def test_adjacency_symmetric(zz, lattice_product):
    for fp in (zz, lattice_product):
        ball = Ball.build(fp, 3)
        for i, row in enumerate(ball.adjacency):
            for _sym, j in row:
                if j is not None:
                    assert any(k == i for _t, k in ball.adjacency[j])


def test_enumerate_geodesics_tree(zz):
    ball = Ball.build(zz, 3)
    target = ball.index_of(zz.parse("x y"))
    paths = ball.enumerate_geodesics(0, target)
    assert len(paths) == 1


def test_enumerate_geodesics_lattice(lattice_product):
    ball = Ball.build(lattice_product, 3)
    target = ball.index_of(lattice_product.parse("a1 a2"))
    assert len(ball.enumerate_geodesics(0, target)) == 2


def test_enumerate_geodesics_same_vertex(zz):
    ball = Ball.build(zz, 3)
    assert ball.enumerate_geodesics(2, 2) == [GraphPath((2,))]


def test_enumerate_paths_counts(zz):
    ball = Ball.build(zz, 3)
    x = ball.index_of(zz.parse("x"))
    assert len(ball.enumerate_paths(0, x, 1)) == 1
    assert len(ball.enumerate_paths(0, x, 3)) == 13
    assert ball.enumerate_paths(0, ball.index_of(zz.parse("x y")), 1) == []


def test_enumerate_paths_matches_dp_oracle(zz, dihedral):
    for fp in (zz, dihedral):
        ball = Ball.build(fp, 3)
        for v in (0, 1, len(ball) - 1):
            for maxlen in (2, 4):
                got = len(ball.enumerate_paths(0, v, maxlen))
                assert got == walk_count_oracle(ball, 0, v, maxlen)


def test_enumerate_paths_cap(zz):
    ball = Ball.build(zz, 3)
    x = ball.index_of(zz.parse("x"))
    with pytest.raises(CapExceeded) as exc:
        ball.enumerate_paths(0, x, 3, cap=5)
    assert exc.value.count == 13


def test_geodesics_are_filtered_paths(zz, lattice_product):
    # oracle equivalence: geodesics = walks of length exactly d(u,v)
    for fp in (zz, lattice_product):
        ball = Ball.build(fp, 3)
        for v in range(1, len(ball), 7):
            d = ball.dist[v]
            walks = ball.enumerate_paths(0, v, d)
            geods = ball.enumerate_geodesics(0, v)
            assert sorted(w.vertices for w in walks) == sorted(g.vertices for g in geods)


def test_project_path_collapses_excursion(zz):
    ball = Ball.build(zz, 3)
    path = GraphPath(
        tuple(ball.index_of(zz.parse(t)) for t in ("e", "y", "y x", "y", "e"))
    )
    proj = ball.project_path(path, "A")
    assert proj.vertices == (0, 0, 0, 0, 0)


def test_project_path_tracks_factor_steps(zz):
    ball = Ball.build(zz, 3)
    idx = [ball.index_of(zz.parse(t)) for t in ("e", "x", "x y", "x", "x^2")]
    proj = ball.project_path(GraphPath(tuple(idx)), "A")
    expected = [ball.index_of(zz.parse(t)) for t in ("e", "x", "x", "x", "x^2")]
    assert list(proj.vertices) == expected


def test_project_path_fixes_factor_copy(zz):
    ball = Ball.build(zz, 3)
    idx = tuple(ball.index_of(zz.parse(t)) for t in ("e", "x", "x^2"))
    assert ball.project_path(GraphPath(idx), "A").vertices == idx


def test_project_path_rejects_outside_endpoints(zz):
    ball = Ball.build(zz, 3)
    path = GraphPath((0, ball.index_of(zz.parse("y"))))
    with pytest.raises(EndpointsOutsideFactor):
        ball.project_path(path, "A")


def test_projection_is_short_on_edges(zz, lattice_product):
    for fp in (zz, lattice_product):
        ball = Ball.build(fp, 4 if fp is zz else 3)
        proj = [ball.index_of(fp.embed(fp.project_to_factor(w, fp.a.id))) for w in ball.vertices]
        for i, row in enumerate(ball.adjacency):
            for _s, j in row:
                if j is not None:
                    assert ball.pair_distance(proj[i], proj[j]) <= ball.pair_distance(i, j)


def test_transit_check(zz, lattice_product):
    # every short walk e -> w visits each prefix vertex of w, for every w
    for fp, radius in ((zz, 4), (lattice_product, 3)):
        report = checks.run_prefix_transit(fp, radius=radius)
        assert report["status"] == "pass" and report["instances"] > 0


def test_factor_space_ball(free2):
    ball = Ball.build(FactorSpace(free2), 2)
    assert len(ball) == 1 + 4 + 12


def test_exports(zz, tmp_path):
    ball = Ball.build(zz, 2)
    data = ball.to_json_dict()
    assert data["vertex_count"] == 17
    assert data["vertices"][0] == "e"
    dot = ball.to_dot()
    assert dot.startswith("graph ball {") and dot.count("--") == 16
