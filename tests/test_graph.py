"""Cayley-graph balls: BFS metric, syllable prefixes, enumeration, projection."""

import gc
from collections import defaultdict

import pytest

from morse_forge import FactorSpace, FactorSpec, FreeProduct, checks, factors, morse
from morse_forge.errors import BudgetExceeded, PossiblyTruncated
from morse_forge.graph import Ball, spheres
from morse_forge.words import Word

from conftest import first_factor_root


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


def test_spheres_end_after_a_finite_space(z6):
    assert [[x.payload for x in s] for s in spheres(FactorSpace(z6))] == [[1, 5], [2, 4], [3]]
    assert len(Ball.build(FactorSpace(z6), 10)) == 6


def test_ball_budget(zz):
    with pytest.raises(BudgetExceeded):
        Ball.build(zz, 4, vertex_budget=50)


def word_level_ball(space, radius, step):
    """The ball built from whole vertices: spheres by ``step``, each in
    ``sort_key`` order, then every vertex's steps looked up in the index."""
    verts, dist = [space.identity()], [0]
    seen, frontier = set(verts), verts
    for level in range(1, radius + 1):
        new = {step(v, gen) for v in frontier for gen in space.generators()} - seen
        if not new:
            break
        frontier = sorted(new, key=space.sort_key)
        seen |= new
        verts += frontier
        dist += [level] * len(frontier)
    index = {w: i for i, w in enumerate(verts)}
    adjacency = tuple(
        tuple((gen.symbol, index.get(step(v, gen))) for gen in space.generators()) for v in verts
    )
    return verts, index, dist, adjacency


def _oracle_spaces():
    line_a, line_b = FactorSpec.integer_line("A", "x"), FactorSpec.integer_line("B", "y")
    lattice = FactorSpec.integer_lattice("A", 2)
    free = FactorSpec.free_group("A", 2, names=("p", "q"))
    z2 = [FactorSpec.finite_table(i, [[0, 1], [1, 0]], [1], names=[n]) for i, n in (("A", "a"), ("B", "b"))]
    z3 = FactorSpec.finite_table("B", [[(i + j) % 3 for j in range(3)] for i in range(3)], [1, 2], names=("s", "s_inv"))
    z6 = FactorSpec.finite_table("A", [[(i + j) % 6 for j in range(6)] for i in range(6)], [1, 5], names=("s", "s_inv"))
    return {
        "zz-r5": (FreeProduct(line_a, line_b), 5),
        "lattice-line-r3": (FreeProduct(lattice, line_b), 3),
        "f2-line-r3": (FreeProduct(free, line_b), 3),
        "z2z2-r5": (FreeProduct(*z2), 5),
        "z-z3-r4": (FreeProduct(line_a, z3), 4),
        "line-r5": (FactorSpace(line_a), 5),
        "lattice-r4": (FactorSpace(lattice), 4),
        "f2-r3": (FactorSpace(free), 3),
        "z6-r5": (FactorSpace(z6), 5),  # past its last sphere, at radius 3
    }


@pytest.mark.parametrize("case", list(_oracle_spaces()))
def test_build_matches_word_level_construction(case):
    space, radius = _oracle_spaces()[case]
    if isinstance(space, FreeProduct):
        def step(w, gen):
            return space.multiply(w, space.embed(gen.element))

        def split(w):  # a word as its syllable prefix's index and last syllable
            return index[space.word(w.syllables[:-1])], w.syllables[-1]
    else:
        step = space.step

        def split(x):  # one syllable after the identity
            return 0, x
    verts, index, dist, adjacency = word_level_ball(space, radius, step)
    ball = Ball.build(space, radius)
    assert ball.vertices == verts
    assert ball.index == index
    assert ball.dist == dist
    assert ball.adjacency == adjacency
    assert (ball.parent[0], ball.last[0]) == (0, None)
    assert [(ball.parent[i], ball.last[i]) for i in range(1, len(ball))] == [split(w) for w in verts[1:]]
    assert ball.child == {(ball.parent[i], ball.last[i]): i for i in range(len(ball))}
    assert ball.children == [[i for i in range(1, len(ball)) if ball.parent[i] == p] for p in range(len(ball))]


def test_prefixes_are_the_word_level_syllable_prefixes(zz, dihedral, lattice_product):
    # nearest first; none for e or a vertex of one syllable
    for fp, radius in ((zz, 4), (dihedral, 5), (lattice_product, 3)):
        ball = Ball.build(fp, radius)
        assert ball.prefixes(0) == []
        for x, w in enumerate(ball.vertices):
            expected = [Word(w.syllables[:i]) for i in range(len(w) - 1, 0, -1)]
            assert [ball.vertex(p) for p in ball.prefixes(x)] == expected
    for fp, text, prefixes in ((zz, "x y x^-1", ["x y", "x"]), (zz, "x", []), (dihedral, "a b a", ["a b", "a"])):
        ball = Ball.build(fp, 3)
        x = ball.index_of(fp.parse(text))
        assert [fp.format(ball.vertex(p)) for p in ball.prefixes(x)] == prefixes


def test_prefixes_are_the_product_level_forced_set(zz, lattice_product):
    # forced vertices on every geodesic = syllable prefixes plus whatever the
    # factor itself forces inside each syllable
    for fp in (zz, lattice_product):
        ball = Ball.build(fp, 4)
        for idx in range(1, len(ball)):
            w = ball.vertex(idx)
            geods = ball.enumerate_geodesics(0, idx)
            forced = set(geods[0])
            for p in geods[1:]:
                forced &= set(p)
            prefixes = set(ball.prefixes(idx))
            assert prefixes == {ball.index_of(Word(w.syllables[:i])) for i in range(1, len(w))}
            assert prefixes <= forced
            # the factor-forced part: intersect per-syllable factor geodesics
            factor_forced = {0, idx}
            base = fp.identity()
            for s in w.syllables:
                segs = factors.geodesics(s.spec.identity(), s)
                inner = set(segs[0])
                for seg in segs[1:]:
                    inner &= set(seg)
                for elt in inner:
                    factor_forced.add(ball.index_of(fp.multiply(base, fp.embed(elt))))
                base = fp.multiply(base, fp.embed(s))
            assert forced == prefixes | factor_forced


def test_vertex_budget_edge(zz):
    assert len(Ball.build(zz, 5, vertex_budget=485)) == 485
    with pytest.raises(BudgetExceeded) as exc:
        Ball.build(zz, 5, vertex_budget=484)
    assert str(exc.value) == "budget vertex_budget 484 exceeded: the ball needs at least 485 vertices"


def test_ball_distances_certified(zz):
    ball = Ball.build(zz, 4)
    x = ball.index_of(zz.parse("x"))
    y = ball.index_of(zz.parse("y"))
    assert ball.certified(x, y) and ball.in_ball_row(x)[y] == 2
    assert ball.certified(x, x) and ball.in_ball_row(x)[x] == 0


def test_ball_distance_flags_uncertified(zz):
    ball = Ball.build(zz, 4)
    u = ball.index_of(zz.parse("x^3"))
    v = ball.index_of(zz.parse("y x^3"))
    # a geodesic through the basepoint may leave a ball of radius 4
    assert not ball.certified(u, v)
    with pytest.raises(PossiblyTruncated):
        ball.enumerate_geodesics(u, v)


def test_dihedral_distance(dihedral):
    ball = Ball.build(dihedral, 4)
    w = ball.index_of(dihedral.parse("a b a b"))
    assert ball.certified(0, w) and ball.in_ball_row(0)[w] == 4


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
    target = ball.index_of(lattice_product.parse("a1^2 a2"))
    assert len(ball.enumerate_geodesics(0, target)) == 3


def test_enumerate_geodesics_same_vertex(zz):
    ball = Ball.build(zz, 3)
    assert ball.enumerate_geodesics(2, 2) == [(2,)]


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


def test_walk_counts_match_dp_oracle(zz, dihedral, lattice_product):
    for fp in (zz, dihedral, lattice_product):
        ball = Ball.build(fp, 3)
        counts = ball.walk_counts(0, 5)
        for v in range(len(ball)):
            for maxlen in range(6):
                total = sum(counts[t][v] for t in range(maxlen + 1))
                assert total == walk_count_oracle(ball, 0, v, maxlen)


def test_first_geodesic_shortcut_matches_space(zz, lattice_product, line_a):
    # equal and adjacent endpoints skip the words; the path must not change
    z3 = FactorSpec.finite_table("C", [[(i + j) % 3 for j in range(3)] for i in range(3)], [1, 2], names=("s", "s_inv"))
    for fp in (zz, lattice_product, FreeProduct(line_a, z3)):
        ball = Ball.build(fp, 3)
        pairs = 0
        for u in range(len(ball)):
            for v in [u] + ball.neighbors[u]:
                words = fp.first_geodesic(ball.vertex(u), ball.vertex(v))
                assert ball.first_geodesic(u, v) == tuple(ball.index_of(w) for w in words)
                pairs += 1
        assert pairs > len(ball)


def test_geodesics_are_filtered_paths(zz, lattice_product):
    # oracle equivalence: geodesics = walks of length exactly d(u,v)
    for fp in (zz, lattice_product):
        ball = Ball.build(fp, 3)
        for v in range(1, len(ball), 7):
            d = ball.dist[v]
            walks = ball.enumerate_paths(0, v, d)
            geods = ball.enumerate_geodesics(0, v)
            assert sorted(walks) == sorted(geods)


def _projection(fp, ball, walk):
    return tuple(ball.index_of(first_factor_root(fp, ball.vertex(i))) for i in walk)


def test_projection_collapses_excursion(zz):
    ball = Ball.build(zz, 3)
    path = tuple(ball.index_of(zz.parse(t)) for t in ("e", "y", "y x", "y", "e"))
    assert _projection(zz, ball, path) == (0, 0, 0, 0, 0)


def test_projection_tracks_factor_steps(zz):
    ball = Ball.build(zz, 3)
    idx = [ball.index_of(zz.parse(t)) for t in ("e", "x", "x y", "x", "x^2")]
    expected = [ball.index_of(zz.parse(t)) for t in ("e", "x", "x", "x", "x^2")]
    assert list(_projection(zz, ball, idx)) == expected


def test_projection_fixes_factor_copy(zz):
    ball = Ball.build(zz, 3)
    idx = tuple(ball.index_of(zz.parse(t)) for t in ("e", "x", "x^2"))
    assert _projection(zz, ball, idx) == idx


def test_projection_is_short_on_edges(zz, lattice_product):
    for fp in (zz, lattice_product):
        ball = Ball.build(fp, 4 if fp is zz else 3)
        proj = [ball.index_of(first_factor_root(fp, w)) for w in ball.vertices]
        for i, row in enumerate(ball.adjacency):
            for _s, j in row:
                if j is not None:
                    assert ball.pair_distance(proj[i], proj[j]) <= ball.pair_distance(i, j)


def test_transit_check(zz, lattice_product):
    # every short walk e -> w visits each prefix vertex of w, for every w
    for fp, radius in ((zz, 4), (lattice_product, 3)):
        report = checks.run_prefix_transit(fp, radius=radius)
        assert report["status"] == "pass" and report["instances"] > 0


def test_kernel_rows_match_reference_metric(zz, dihedral, lattice2, line_b, free2, z6):
    # the syllable-prefix tree against the norm of u^-1 v, on every pair
    free = FactorSpec.free_group("F", 2, names=("p", "q"))
    line = FactorSpec.integer_line("L", "t")
    z3 = FactorSpec.finite_table("C", [[(i + j) % 3 for j in range(3)] for i in range(3)], [1, 2], names=("s", "s_inv"))
    cases = [(zz, r) for r in range(5)] + [
        (dihedral, 5),
        (FreeProduct(free, line_b), 3),
        (FreeProduct(line, z3), 4),
    ]
    for fp, radius in cases:
        ball = Ball.build(fp, radius)
        for i, u in enumerate(ball.vertices):
            inv = fp.inverse(u)
            for j, w in enumerate(ball.vertices):
                assert ball.pair_distance(i, j) == fp.norm(fp.multiply(inv, w)), (fp, u, w)
    for spec in (FactorSpec.integer_line("A", "x"), lattice2, free2, z6):
        ball = Ball.build(FactorSpace(spec), 3)
        for i, x in enumerate(ball.vertices):
            assert ball.row(i) == [(x.inverse() * y).norm() for y in ball.vertices]


def test_kernel_rows_match_bfs_oracle(lattice_product):
    ball = Ball.build(lattice_product, 4)
    assert len(ball) == 609
    certified = 0
    for u in range(len(ball)):
        in_ball = ball.in_ball_row(u)
        for v, d in enumerate(ball.row(u)):
            if ball.certified(u, v):
                certified += 1
                assert d == in_ball[v]
            else:
                assert d <= in_ball[v]
    assert certified > 10 * len(ball)  # pairs with the identity alone give len(ball)


def test_in_ball_rows_are_bytes(zz):
    ball = Ball.build(zz, 4)
    row = ball.in_ball_row(ball.index_of(zz.parse("x^2 y")))
    assert isinstance(row, bytes) and len(row) == len(ball)
    assert max(row) <= 2 * ball.radius


def test_in_ball_rows_beyond_a_byte(dihedral):
    # the Cayley graph of Z2*Z2 is a line: its ball spans 2 * radius edges
    ball = Ball.build(dihedral, 130)
    end = len(ball) - 1
    assert max(ball.in_ball_row(end)) == 260
    assert [len(p) for p in ball.enumerate_paths(0, end, ball.dist[end])] == [131]


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


def test_searches_leave_no_reference_cycles(zz, lattice2):
    # results are freed as soon as their caller drops them, without waiting
    # for the cyclic collector
    ball = Ball.build(zz, 4)
    e, target = lattice2.identity(), lattice2.make_element((2, 2))
    dist = [ball.row(i) for i in range(len(ball))]
    proj_map = [ball.index_of(first_factor_root(zz, w)) for w in ball.vertices]
    proj_gap = [dist[i][proj_map[i]] for i in range(len(ball))]
    bound = morse.QGBound(2, 1)
    least = bound.least.upto(bound.max_len(2 * ball.radius))
    gc.collect()
    gc.disable()
    try:
        for w in range(len(ball)):
            assert ball.enumerate_paths(0, w, ball.dist[w] + 2)  # prefix-transit, slack 2
            assert ball.enumerate_geodesics(0, w)
        assert len(factors.geodesics(e, target)) == 6
        x3 = ball.index_of(zz.parse("x^3"))
        failures = []
        visit = checks.projection_visitor(dist, proj_map, proj_gap, x3, least, 0, failures)
        assert morse.scan_quasi_geodesics(ball, 0, x3, bound, visit, checks.PROJECTION_START) > len(failures) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _nested_sort_key(fp, w):
    """The word order as first written: each part of a syllable's key in a
    tuple of its own, behind the tuple of its factor's flag."""
    def nest(key):
        return tuple(tuple(part) if isinstance(part, tuple) else (part,) for part in key)

    return tuple(((0 if s.factor == fp.a.id else 1),) + nest(s.sort_key()) for s in w.syllables)


def _sort_key_products():
    line_a, line_b = FactorSpec.integer_line("A", "x"), FactorSpec.integer_line("B", "y")
    lattice2, lattice3 = FactorSpec.integer_lattice("A", 2), FactorSpec.integer_lattice("A", 3)
    free2, free3 = FactorSpec.free_group("A", 2, names=("p", "q")), FactorSpec.free_group("A", 3)
    z2 = [FactorSpec.finite_table(i, [[0, 1], [1, 0]], [1], names=[n]) for i, n in (("A", "a"), ("B", "b"))]
    z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    z3_a, z3_b = (FactorSpec.finite_table(i, z3, [1, 2], names=("s", "s_inv")) for i in ("A", "B"))
    second_lattice = FactorSpec.integer_lattice("B", 2, names=("b1", "b2"))
    return {
        "zz-r5": (FreeProduct(line_a, line_b), 5),
        "lattice-line-r4": (FreeProduct(lattice2, line_b), 4),
        "f2-line-r4": (FreeProduct(free2, line_b), 4),
        "z2z2-r6": (FreeProduct(*z2), 6),
        "line-z3-r5": (FreeProduct(line_a, z3_b), 5),
        # the mixed kinds, which no golden orders
        "lattice3-z3-r3": (FreeProduct(lattice3, z3_b), 3),
        "f3-lattice2-r3": (FreeProduct(free3, second_lattice), 3),
        "z3-lattice2-r3": (FreeProduct(z3_a, second_lattice), 3),
    }


@pytest.mark.parametrize("case", list(_sort_key_products()))
def test_flat_sort_key_orders_as_the_nested_key(case):
    # wrapping a key part in a tuple of its own never changes an order, and
    # the syllables of one factor share a key shape, so the flat key
    # compares no two parts of different types and orders every ball's
    # words as the nested key does
    fp, radius = _sort_key_products()[case]
    words = Ball.build(fp, radius).vertices[::-1]
    assert len(set(map(fp.sort_key, words))) == len(words)
    assert sorted(words, key=fp.sort_key) == sorted(words, key=lambda w: _nested_sort_key(fp, w))
