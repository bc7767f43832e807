"""Gauges, derived constants, quasi-geodesic machinery, neighborhoods."""

import math
from fractions import Fraction

import pytest

from morse_forge import CANONICAL_TREE_GAUGE, FactorSpace, FactorSpec, FreeProduct, Gauge
from morse_forge import morse
from morse_forge.errors import BallTooSmall, GridMiss
from morse_forge.graph import Ball
from morse_forge.morse import (
    concat_quasi_geodesic,
    estimate_gauge,
    enumerate_quasi_geodesics,
    neighborhood_member,
    nesting_constant,
    tracking_bound,
)


# -- derived constants ----------------------------------------------------


def test_delta_zero_gauge():
    assert Gauge.affine(0, 0, 0).delta == 0


def test_delta_affine_sum():
    assert Gauge.affine(1, 1, 0).delta == 54


def test_delta_affine_two_lambda():
    assert Gauge.affine(2, 0, 0).delta == 48


def test_delta_canonical():
    assert CANONICAL_TREE_GAUGE.delta == 5


def test_delta_table_needs_probes():
    g = Gauge.table({(1, 0): 0, (3, 0): 0})
    with pytest.raises(GridMiss):
        g.delta
    full = Gauge.table({(1, 0): 0, (3, 0): 0, (5, 0): 0})
    assert full.delta == 0


def test_tracking_bound():
    zero = Gauge.affine(0, 0, 0)
    assert tracking_bound(zero, 10) == 10
    g54 = Gauge.affine(1, 1, 0)
    assert tracking_bound(g54, 1) == 972
    assert tracking_bound(g54, 1000) == 1324


def test_nesting_constant():
    assert nesting_constant(7, Gauge.affine(0, 0, 0)) == 7
    assert nesting_constant(10, Gauge.affine(1, 1, 0)) == 648
    g1 = _delta_one_gauge()
    assert g1.delta == 1
    assert nesting_constant(100, g1) == 104


def _delta_one_gauge():
    return Gauge.table(
        {(1, 0): 0, (1, Fraction(1, 4)): 0, (3, 0): Fraction(1, 8), (5, 0): Fraction(1, 8)}
    )


def test_gauge_table_monotonicity_enforced():
    with pytest.raises(ValueError):
        Gauge.table({(1, 0): 2, (3, 0): 1, (5, 0): 3})


# -- quasi-geodesic predicate ------------------------------------------------


def _is_quasi_geodesic(ball, walk, lam, eps):
    return morse._holds(ball, walk, morse.qg_bound(lam, eps))


def test_geodesic_is_quasi_geodesic(zz):
    ball = Ball.build(zz, 3)
    path = ball.first_geodesic(0, ball.index_of(zz.parse("x y x")))
    assert _is_quasi_geodesic(ball, path, 1, 0)


def test_backtrack_needs_eps(zz):
    ball = Ball.build(zz, 2)
    x = ball.index_of(zz.parse("x"))
    back = (0, x, 0)
    assert _is_quasi_geodesic(ball, back, 1, 2)
    assert not _is_quasi_geodesic(ball, back, 1, 1)


def test_enumeration_matches_path_filter(zz):
    # oracle: quasi-geodesics = all edge walks passing the predicate
    ball = Ball.build(zz, 3)
    u, v = 0, ball.index_of(zz.parse("x^2"))
    for lam, eps in ((1, 2), (2, 1), (Fraction(3, 2), Fraction(1, 2))):
        got = sorted(enumerate_quasi_geodesics(ball, u, v, lam, eps))
        walks = ball.enumerate_paths(u, v, int(lam * (ball.pair_distance(u, v) + eps)))
        expect = sorted(
            w
            for w in walks
            if all(a != b for a, b in zip(w, w[1:]))
            and _is_quasi_geodesic(ball, w, lam, eps)
        )
        assert got == expect


@pytest.mark.parametrize("lam", [1, Fraction(3, 2), 2, Fraction(5, 2), 3])
@pytest.mark.parametrize("eps", [0, Fraction(1, 2), 1, 2, 3])
def test_integer_bound_matches_fraction_definitions(lam, eps):
    # the int tables must decide exactly as the rational inequality does
    bound = morse.qg_bound(lam, eps)
    lam, eps = Fraction(lam), Fraction(eps)
    for n in range(41):
        lower, upper = n / lam - eps, lam * n + eps
        assert bound.least(n) == max(0, math.ceil(lower))
        assert bound.most(n) == math.floor(upper)
        assert bound.max_len(n) == math.floor(lam * (n + eps))
        for d in range(41):
            assert (lower <= d <= upper) == (bound.least(n) <= d <= bound.most(n))


# -- gates of the quasi-geodesic search ------------------------------------------


def _brute_force_gates(ball, v):
    """Each vertex's nearest gate toward v: delete each other vertex c in
    turn, search from v, and take the closest c that cuts x off.  Also the
    vertices that each c cuts off."""
    n = len(ball)
    cut_off = {}
    for c in range(n):
        if c == v:
            continue
        seen = {v, c}
        stack = [v]
        while stack:
            for y in ball.neighbors[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        cut_off[c] = set(range(n)) - seen
    gates = []
    for x in range(n):
        d_in = ball.in_ball_row(x)
        behind = sorted((d_in[c], c) for c, lost in cut_off.items() if x in lost)
        assert len({d for d, _c in behind}) == len(behind)  # the gates of x form a chain
        gates.append(behind[0][1] if behind else v)
    return gates, cut_off


@pytest.mark.parametrize(
    "product, radius",
    [("zz", 3), ("lattice_product", 2), ("free2_line", 2), ("dihedral", 3)],
)
def test_nearest_gates_match_brute_force(product, radius, request, line_b):
    if product == "free2_line":
        fp = FreeProduct(FactorSpec.free_group("A", 2, names=("a", "b")), line_b)
    else:
        fp = request.getfixturevalue(product)
    ball = Ball.build(fp, radius)
    # the targets of the projection check: the copy of the first factor
    copy = [x for x, w in enumerate(ball.vertices) if ball.index_of(fp.embed(fp.project_to_factor(w, fp.a.id))) == x]
    cut_vertices = set()
    assert copy[0] == 0  # the root that prefix-transit reads
    for v in copy:
        gates = ball.gates(v)
        expected, cut_off = _brute_force_gates(ball, v)
        assert gates == expected
        to_v = ball.in_ball_row(v)
        for x, g in enumerate(gates):
            # every path x -> v passes the gate, so the distances add up
            assert ball.in_ball_row(x)[g] == to_v[x] - to_v[g]
            # and following the gates from x meets every vertex that cuts x off
            chain = set()
            while g != v:
                chain.add(g)
                g = gates[g]
            assert chain == {c for c, lost in cut_off.items() if x in lost}
        cut_vertices.update(g for g in gates if g != v)
    assert cut_vertices


# -- gauge estimation -----------------------------------------------------------


def test_estimate_gauge_tree_geodesic(zz):
    ball = Ball.build(zz, 3)
    path = ball.first_geodesic(0, ball.index_of(zz.parse("x^3")))
    g = estimate_gauge(ball, path, [(1, 0)])
    assert g.value(1, 0) == 0
    assert g.certified_radius == 3


def test_estimate_gauge_refuses_non_geodesics(lattice_product):
    # a backtrack, a stay, a jump and a detour around a lattice square
    fp = lattice_product
    ball = Ball.build(fp, 3)
    a1, a1a1, a2, a1a2 = (ball.index_of(fp.parse(w)) for w in ("a1", "a1^2", "a2", "a1 a2"))
    for path in ((0, a1, 0), (0, 0, a1), (0, a1a1), (0, a1, a1a2, a2)):
        with pytest.raises(ValueError, match="geodesic path"):
            estimate_gauge(ball, path, [(1, 0)])
    around = (a2, a1a2, a1, ball.index_of(fp.parse("a1 y")))
    assert estimate_gauge(ball, around, [(1, 0)]).certified_radius == 3


def test_estimate_gauge_line_overshoot(dihedral):
    ball = Ball.build(dihedral, 5)
    path = ball.first_geodesic(0, ball.index_of(dihedral.parse("a b a b")))
    g = estimate_gauge(ball, path, [(1, 2)])
    assert g.value(1, 2) == 1


def test_estimate_gauge_lattice_deviation(lattice_product):
    ball = Ball.build(lattice_product, 4)
    path = ball.first_geodesic(0, ball.index_of(lattice_product.parse("a1^2")))
    g = estimate_gauge(ball, path, [(3, 0)])
    assert g.value(3, 0) >= 1


def test_estimate_gauge_monotone(lattice_product):
    ball = Ball.build(lattice_product, 3)
    path = ball.first_geodesic(0, ball.index_of(lattice_product.parse("a1^2")))
    g = estimate_gauge(ball, path, [(1, 0), (1, 2), (2, 1), (3, 0)])
    assert g.value(1, 0) <= g.value(1, 2)
    assert g.value(1, 0) <= g.value(3, 0)


def test_estimate_gauge_subsegment_bounded(lattice_product):
    # quasi-geodesics over a subsegment are a subfamily of the full segment's
    ball = Ball.build(lattice_product, 3)
    full = ball.first_geodesic(0, ball.index_of(lattice_product.parse("a1^3")))
    sub = full[:3]
    grid = [(1, 2), (2, 1)]
    g_full = estimate_gauge(ball, full, grid)
    g_sub = estimate_gauge(ball, sub, grid)
    for point in grid:
        assert g_sub.value(*point) <= g_full.value(*point)


@pytest.mark.parametrize("product,word", [("zz", "x y^-1 x"), ("lattice_product", "a1 y a2")])
def test_estimate_gauge_matches_enumerated_walks(product, word, request):
    # reference: build every walk and take its largest deviation from the path
    fp = request.getfixturevalue(product)
    ball = Ball.build(fp, 3)
    path = ball.first_geodesic(0, ball.index_of(fp.parse(word)))
    dev = [min(ball.row(x)[g] for g in path) for x in range(len(ball))]
    grid = [(1, 0), (1, 1), (1, 2), (2, 1), (3, 0), (5, 0)]  # the CLI's default grid
    expected = {}
    for lam, eps in grid:
        walks = [
            walk
            for i in range(len(path))
            for j in range(i, len(path))
            for walk in morse.enumerate_quasi_geodesics(ball, path[i], path[j], lam, eps)
        ]
        expected[(lam, eps)] = max(dev[x] for walk in walks for x in walk)
    g = estimate_gauge(ball, path, grid)
    assert {point: g.value(*point) for point in grid} == expected


def test_estimated_tree_tables_below_canonical(zz):
    ball = Ball.build(zz, 4)
    path = ball.first_geodesic(0, ball.index_of(zz.parse("x^2")))
    grid = [(1, 0), (1, 2), (2, 1), (3, 0), (5, 0)]
    g = estimate_gauge(ball, path, grid)
    for point in grid:
        assert g.value(*point) <= CANONICAL_TREE_GAUGE.value(*point)


# -- concatenation -----------------------------------------------------------------


def test_concat_trivial_endpoints(zz):
    ball = Ball.build(zz, 3)
    path = ball.first_geodesic(0, ball.index_of(zz.parse("x^3")))
    out, cert = concat_quasi_geodesic(ball, path[0], path[-1], path, 1, 0)
    assert out == path
    assert cert["hypothesis_held"] and cert["verified"]


def test_concat_spec_instance(zz):
    ball = Ball.build(zz, 4)
    gamma = ball.first_geodesic(ball.index_of(zz.parse("x^-3")), ball.index_of(zz.parse("x^3")))
    p = ball.index_of(zz.parse("x^-2 y"))
    q = ball.index_of(zz.parse("x^2 y"))
    out, cert = concat_quasi_geodesic(ball, p, q, gamma, 1, 0)
    assert cert == {
        "lam": "1",
        "eps": "0",
        "closest_to_p": 1,
        "closest_to_q": 5,
        "hypothesis_held": False,  # separation 4 < 3*(1+1)
        "out_lam": "3",
        "out_eps": "1",
        "verified": True,  # still a (3, 1) quasi-geodesic
    }
    assert out[0] == p and out[-1] == q


def test_concat_hypothesis_instances_verify(zz, lattice_product):
    # wherever the separation hypothesis holds the output verifies (3l, e+1)
    for fp in (zz, lattice_product):
        ball = Ball.build(fp, 4)
        held = 0
        for w in range(len(ball)):
            if ball.dist[w] < 3:
                continue
            for gamma in ball.enumerate_geodesics(0, w):
                near = sorted(set(gamma))
                for p in near:
                    for q in near:
                        out, cert = concat_quasi_geodesic(ball, p, q, gamma, 1, 0)
                        if cert["hypothesis_held"]:
                            held += 1
                            assert cert["verified"]
        assert held > 0


def test_concat_join_leaving_the_ball_names_the_budget(lattice_product):
    # the first geodesic a2^2 -> a1^2 runs through a1 a2^2, outside radius 2
    fp = lattice_product
    ball = Ball.build(fp, 2)
    p, q = ball.index_of(fp.parse("a2^2")), ball.index_of(fp.parse("a1^2"))
    with pytest.raises(BallTooSmall, match="^budget ball_radius 2 too small: "):
        concat_quasi_geodesic(ball, p, q, (q,), 1, 0)


# -- neighborhoods -------------------------------------------------------------------


def _line_space():
    from morse_forge import FactorSpec

    return FactorSpace(FactorSpec.integer_line("A", "x"))


def test_center_is_member():
    space = _line_space()
    ray = [space.spec.make_element(i) for i in range(5)]
    assert neighborhood_member(space, CANONICAL_TREE_GAUGE, 4, (ray,), ray)


def test_divergent_ray_excluded_for_small_delta(zz):
    ball_gauge = _delta_one_gauge()
    assert ball_gauge.delta == 1
    center = [zz.parse(t) for t in ("e", "x", "x^2", "x^3")]
    cand = [zz.parse(t) for t in ("e", "x", "x^2", "x^2 y")]
    assert not neighborhood_member(zz, ball_gauge, 3, (center,), cand)
    assert neighborhood_member(zz, CANONICAL_TREE_GAUGE, 3, (center,), cand)


def test_zero_gauge_admits_only_the_center():
    space = _line_space()
    ray = [space.spec.make_element(i) for i in range(4)]
    other = [space.spec.make_element(-i) for i in range(4)]
    zero = Gauge.affine(0, 0, 0)
    assert neighborhood_member(space, zero, 3, (ray,), ray)
    assert not neighborhood_member(space, zero, 3, (ray,), other)


def test_neighborhood_guards(lattice_product):
    # a depth of at least 1 and one or more centers, each reaching it; an
    # element is tested in the filled neighborhood, so one short of the
    # depth is no member
    fp = lattice_product
    x = fp.parse("a1 a2")
    center = fp.first_geodesic(fp.identity(), x)
    for depth, centers in ((0, (center,)), (2, ()), (3, (center,))):
        with pytest.raises(ValueError):
            neighborhood_member(fp, CANONICAL_TREE_GAUGE, depth, centers, x)
    assert neighborhood_member(fp, CANONICAL_TREE_GAUGE, 2, (center,), x)
    assert not neighborhood_member(fp, CANONICAL_TREE_GAUGE, 2, (center,), fp.parse("a1"))


def test_vertex_center_quantifies_all_realizations(lattice_product):
    # the element-centered set is sandwiched between the single-realization
    # set at the same depth and the one four thresholds deeper
    fp = lattice_product
    x = fp.parse("a1^22 a2")
    depth = 3
    gauge = CANONICAL_TREE_GAUGE
    delta4 = morse.rational_ceil(4 * gauge.delta)
    deep_depth = depth + delta4
    assert fp.norm(x) == deep_depth
    reals = fp.geodesics(fp.identity(), x)
    assert len(reals) == 23
    candidates = [x, fp.parse("a1^23"), fp.parse("y a1^22")]
    memberships = 0
    for xi in reals:
        for cand in candidates:
            in_deep = neighborhood_member(fp, gauge, deep_depth, (xi,), cand)
            in_centered = neighborhood_member(fp, gauge, depth, reals, cand)
            in_single = neighborhood_member(fp, gauge, depth, (xi,), cand)
            memberships += in_deep
            assert (not in_deep or in_centered) and (not in_centered or in_single)
    assert memberships > 0


def test_ray_merge_shadow(zz):
    # rays staying K-close long enough stay delta-close on the early range
    from morse_forge import rays as rays_mod

    delta = CANONICAL_TREE_GAUGE.delta
    pop = rays_mod.comb_population(zz, max_len=2, max_norm=1, max_infinite_prefix=1)
    depth = 24
    realized = [rays_mod.realize(a, depth, rays_mod.Spellings()) for a in pop]
    tested = 0
    for av in realized:
        for bv in realized:
            profile = [zz.distance(av[t], bv[t]) for t in range(depth + 1)]
            for k in (1, 2, 4):
                if depth >= 6 * k and max(profile) < k:
                    tested += 1
                    horizon = depth - 2 * k
                    assert all(d == 0 or d < delta for d in profile[: horizon + 1])
    assert tested > 0
