"""Factor groups: exact multiplication, metric, geodesics and boundaries."""

import gc
import itertools

import pytest

from morse_forge import FactorSpec, FactorSpace
from morse_forge import factors, morse
from morse_forge.errors import MixedFactor, NoBoundary
from morse_forge.factors import BoundaryPoint
from morse_forge.graph import Ball
from morse_forge.matching import iterate_elements

from conftest import CLOSENESS_GAUGES, Z6_TABLE, directions


def test_line_multiply(line_a):
    x = line_a.make_element(3)
    y = line_a.make_element(-5)
    assert (x * y).payload == -2


def test_free_multiply_reduces(free2):
    xy = free2.make_element(((0, 1), (1, 1)))
    yinv_x = free2.make_element(((1, -1), (0, 1)))
    assert (xy * yinv_x).payload == ((0, 2),)


def test_finite_multiply_z2():
    spec = FactorSpec.finite_table("A", [[0, 1], [1, 0]], [1], names=["a"])
    one = spec.make_element(1)
    assert (one * one).payload == 0


def test_mixed_factor_rejected(line_a, line_b):
    with pytest.raises(MixedFactor):
        factors.multiply(line_a.make_element(1), line_b.make_element(1))


def test_lattice_distance(lattice2):
    a = lattice2.make_element((0, 0))
    b = lattice2.make_element((2, -3))
    assert factors.distance(a, b) == 5


def test_free_distance(free2):
    e = free2.identity()
    w = free2.make_element(((0, 1), (1, 1), (0, -1)))
    assert factors.distance(e, w) == 3


def test_finite_distance_bfs(z6):
    assert factors.distance(z6.make_element(0), z6.make_element(3)) == 3


def test_group_laws_small_balls(line_a, lattice2, free2, z6):
    for spec in (line_a, lattice2, free2, z6):
        ball = Ball.build(FactorSpace(spec), 2)
        elems = list(ball.vertices)
        e = spec.identity()
        for x in elems:
            assert (x * x.inverse()) == e
            for y in elems:
                assert factors.distance(x, y) == factors.distance(y, x)
                assert (factors.distance(x, y) == 0) == (x == y)
        for x, y, z in itertools.islice(itertools.product(elems, repeat=3), 500):
            assert factors.distance(x, z) <= factors.distance(x, y) + factors.distance(y, z)


def test_distance_matches_bfs_radius_six(line_a, lattice2, free2, z6):
    # the closed-form metric agrees with the BFS oracle on every kind
    for spec in (line_a, lattice2, free2, z6):
        ball = Ball.build(FactorSpace(spec), 6)
        e = spec.identity()
        for i, x in enumerate(ball.vertices):
            assert ball.dist[i] == factors.distance(e, x)


def test_spec_hash_and_equality_are_by_value(lattice2, z6):
    # the hash is cached per spec; the derived ops take no part in either
    again = [FactorSpec.integer_lattice("A", 2), FactorSpec.finite_table("A", Z6_TABLE, [1, 5], names=["s", "s_inv"])]
    for spec, twin in zip((lattice2, z6), again):
        assert spec.ops is not twin.ops
        assert spec == twin and hash(spec) == hash(twin)
        assert {spec: 1}[twin] == 1
        assert hash(spec.power(0, 2)) == hash(twin.power(0, 2))
    other = FactorSpec.finite_table("A", Z6_TABLE, [1, 5], names=["r", "r_inv"])
    assert other != z6


def test_geodesics_tree_unique(free2):
    e = free2.identity()
    xy = free2.make_element(((0, 1), (1, 1)))
    paths = factors.geodesics(e, xy)
    assert len(paths) == 1
    assert [p.payload for p in paths[0]] == [(), ((0, 1),), ((0, 1), (1, 1))]


def test_geodesics_lattice_count(lattice2):
    e = lattice2.make_element((0, 0))
    target = lattice2.make_element((1, 1))
    paths = factors.geodesics(e, target)
    assert len(paths) == 2


def test_geodesics_line_unique(line_a):
    paths = factors.geodesics(line_a.make_element(0), line_a.make_element(4))
    assert len(paths) == 1
    assert [p.payload for p in paths[0]] == [0, 1, 2, 3, 4]


def test_geodesics_properties(lattice2, z6):
    for spec in (lattice2, z6):
        ball = Ball.build(FactorSpace(spec), 3)
        e = spec.identity()
        for x in ball.vertices:
            for path in factors.geodesics(e, x):
                assert len(path) - 1 == factors.distance(e, x)
                for a, b in zip(path, path[1:]):
                    assert factors.distance(a, b) == 1


def _reference_geodesics(x, y):
    """The search on elements: try every generator's step, keep it when
    distance drops by one."""
    paths = []

    def rec(cur, acc, remaining):
        if remaining == 0:
            paths.append(tuple(acc))
            return
        for gen in FactorSpace(x.spec).generators():
            nxt = cur * gen.element
            if factors.distance(nxt, y) == remaining - 1:
                rec(nxt, acc + [nxt], remaining - 1)

    rec(x, [x], factors.distance(x, y))
    return paths


def test_payload_search_matches_element_search(line_a, lattice2, free2, z6):
    for spec in (line_a, lattice2, free2, z6):
        elements = Ball.build(FactorSpace(spec), 4).vertices
        starts = [spec.identity(), elements[1], elements[-1]]
        for x in starts:
            for y in elements:
                want = _reference_geodesics(x, y)
                assert factors.geodesics(x, y) == want
                assert factors.first_geodesic(x, y) == want[0]


def test_ray_walker_gives_every_realization(line_a, free2):
    directions = [
        BoundaryPoint.line_end(line_a, 1),
        BoundaryPoint.line_end(line_a, -1),
        BoundaryPoint.make(free2, (), ((0, 1),)),
        BoundaryPoint.make(free2, (), ((0, 1), (1, -1))),
        BoundaryPoint.make(free2, ((1, 1), (1, 1)), ((0, -1),)),
        BoundaryPoint.make(free2, ((0, 1), (1, -1)), ((0, 1), (1, 1), (1, 1))),
    ]
    for z in directions:
        walker = z.vertices()
        first = [next(walker) for _ in range(41)]
        for n in range(41):
            assert z.realization(n) == tuple(first[: n + 1])
        # consecutive vertices are one generator apart, from the identity on
        assert first[0].is_identity()
        assert all(factors.distance(a, b) == 1 for a, b in zip(first, first[1:]))
        assert [v.norm() for v in first] == list(range(41))


def test_boundary_ray_line(line_a):
    plus = BoundaryPoint.line_end(line_a, 1)
    assert [v.payload for v in plus.realization(3)] == [0, 1, 2, 3]


def test_boundary_ray_free_unrolls(free2):
    z = BoundaryPoint.make(free2, ((0, 1),), ((1, 1),))
    ray = z.realization(3)
    assert [v.payload for v in ray] == [(), ((0, 1),), ((0, 1), (1, 1)), ((0, 1), (1, 2))]


def test_boundary_refused_for_lattice(lattice2):
    with pytest.raises(NoBoundary):
        BoundaryPoint.line_end(lattice2, 1)


def test_boundary_refused_for_finite(z6):
    with pytest.raises(NoBoundary):
        BoundaryPoint.line_end(z6, 1)


def test_boundary_ray_extension_is_consistent(free2):
    z = BoundaryPoint.make(free2, ((1, 1),), ((0, 1),))
    assert z.realization(5)[:5] == z.realization(4)


def test_boundary_point_canonicalization(free2):
    # absorbing the prefix tail and collapsing block powers
    a = BoundaryPoint.make(free2, ((0, 1), (1, 1)), ((1, 1),))
    b = BoundaryPoint.make(free2, ((0, 1),), ((1, 1), (1, 1)))
    assert a == b == BoundaryPoint.make(free2, ((0, 1),), ((1, 1),))


def test_boundary_point_rejects_unreduced(free2):
    with pytest.raises(ValueError):
        BoundaryPoint(free2, ((0, 1),), ((0, -1),))


def test_finite_table_validation():
    with pytest.raises(ValueError):
        FactorSpec.finite_table("A", [[0, 1], [0, 1]], [1])
    with pytest.raises(ValueError):
        FactorSpec.finite_table("A", Z6_TABLE, [1])  # not inverse-closed


def test_lattice_needs_dim_two():
    with pytest.raises(ValueError):
        FactorSpec.integer_lattice("A", 1)


def test_format_parse_roundtrip(z6):
    x = z6.make_element(4)
    assert z6.format_element(x) == "s_inv s_inv"


def test_specs_leave_no_reference_cycles():
    # the ops keep generator payloads, not elements that refer back to the
    # spec, so a spec is freed without waiting for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        for build in (lambda: FactorSpec.integer_lattice("A", 2), lambda: FactorSpec.integer_line("A", "x")):
            assert build().generators()
            assert gc.collect() == 0
    finally:
        gc.enable()


# -- closeness from shared letters, against the pointwise definition -----------

ORACLE_DEPTHS = range(1, 7)


def _oracle_spec(name):
    return {
        "line": lambda: FactorSpec.integer_line("A", "x"),
        "f2": lambda: FactorSpec.free_group("A", 2, names=("x", "y")),
        "f3": lambda: FactorSpec.free_group("A", 3, names=("x", "y", "z")),
    }[name]()


def _elements(spec, max_norm):
    out = []
    for x in iterate_elements(spec):
        if x.norm() > max_norm:
            return out
        out.append(x)


def _direction_orbits(spec, pool):
    """One direction per orbit of the signed generator permutations.

    Both closeness tests only read distances or letters, which these
    relabellings keep, so a pair (x, z) and its image under one of them
    get the same verdicts: one z per orbit against every x covers every
    pair."""
    n = len(spec.generators_base_count())
    relabels = [
        lambda l, perm=perm, signs=signs: (perm[l[0]], l[1] * signs[l[0]])
        for perm in itertools.permutations(range(n))
        for signs in itertools.product((1, -1), repeat=n)
    ]
    seen, reps = set(), []
    for z in pool:
        if z not in seen:
            reps.append(z)
            seen.update(
                BoundaryPoint.make(spec, tuple(map(f, z.prefix)), tuple(map(f, z.block)))
                for f in relabels
            )
    return reps


def _element_orbits(spec, elements):
    """One element per orbit of the same relabellings, in the order given."""
    maps = spec.automorphisms()
    seen, reps = set(), []
    for x in elements:
        if x not in seen:
            reps.append(x)
            seen.update(f(x) for f in maps)
    return reps


# (factor, largest element norm, largest |prefix| + |block|).  The line
# meets every element of norm <= 6 with every direction of size <= 4.  The
# free groups cover the same ranges in two slices each, long elements
# against short directions and the reverse, which keeps the suite's time in
# bounds: the full grid is 1,457 x 324 pairs for F2 and 23,437 x 2,550 for
# F3, each at 24 gauge and depth pairs.
FILLED_CASES = [("line", 6, 4), ("f2", 6, 2), ("f2", 3, 4), ("f3", 4, 2), ("f3", 2, 4)]


@pytest.mark.parametrize("name,max_norm,size", FILLED_CASES)
def test_filled_member_matches_pointwise(name, max_norm, size):
    spec = _oracle_spec(name)
    space = FactorSpace(spec)
    e = spec.identity()
    elements = _elements(spec, max_norm)
    geodesic = {}
    for x in elements:
        (geodesic[x],) = factors.geodesics(e, x)  # a tree: one geodesic each
    for z in _direction_orbits(spec, directions(spec, size)):
        for gauge, k in itertools.product(CLOSENESS_GAUGES, ORACLE_DEPTHS):
            center = (z.realization(k),)
            # an element reaching the depth is read through its one geodesic
            # up to the depth: the verdict of that geodesic's vertex y at the
            # depth, tested as a ray; a shorter one is tested as it is
            pointwise = {}
            for x in elements:
                if x.norm() < k:
                    expected = morse.neighborhood_member(space, gauge, k, center, x)
                else:
                    y = geodesic[x][k]
                    if y not in pointwise:
                        pointwise[y] = morse.neighborhood_member(space, gauge, k, center, geodesic[y])
                    expected = pointwise[y]
                assert morse.factor_close(gauge, k, z, x) == expected, (
                    z.format(), x, k, gauge.delta,
                )


@pytest.mark.parametrize("name,max_norm,size", [("line", 6, 4), ("f2", 4, 3), ("f3", 3, 3)])
def test_element_centered_closeness_matches_pointwise(name, max_norm, size):
    # the duality report's first verdict: the ray inside the unfilled
    # neighborhood of x's geodesic
    spec = _oracle_spec(name)
    space = FactorSpace(spec)
    rays = [(z, z.realization(max(ORACLE_DEPTHS))) for z in directions(spec, size)]
    for x in _element_orbits(spec, _elements(spec, max_norm)):
        for gauge, k in itertools.product(CLOSENESS_GAUGES, ORACLE_DEPTHS):
            if k > x.norm():
                continue
            reals = space.geodesics(space.identity(), x)
            for z, ray in rays:
                expected = morse.neighborhood_member(space, gauge, k, reals, ray[: k + 1])
                assert morse.factor_close(gauge, k, x, z) == expected, (z.format(), x, k, gauge.delta)


@pytest.mark.parametrize("name,center_size,size", [("line", 4, 4), ("f2", 3, 3), ("f3", 2, 3)])
def test_direction_closeness_matches_pointwise(name, center_size, size):
    # the tail test of two finite combinatorial geodesics of one length
    spec = _oracle_spec(name)
    space = FactorSpace(spec)
    rays = [(w, w.realization(max(ORACLE_DEPTHS))) for w in directions(spec, size)]
    for z in _direction_orbits(spec, directions(spec, center_size)):
        for gauge, k in itertools.product(CLOSENESS_GAUGES, ORACLE_DEPTHS):
            center = (z.realization(k),)
            for w, ray in rays:
                expected = morse.neighborhood_member(space, gauge, k, center, ray[: k + 1])
                assert morse.factor_close(gauge, k, z, w) == expected, (z.format(), w.format(), k, gauge.delta)


def test_shared_steps_counts_common_letters(free2, line_a):
    x, y = free2.power(0, 1), free2.power(1, 1)
    z = BoundaryPoint.make(free2, ((0, 1), (0, 1)), ((1, 1),))  # x x y y ...
    assert factors.shared_steps(x * x * y, z, 10) == 3
    assert factors.shared_steps(x * y, z, 10) == 1
    assert factors.shared_steps(x * x * y * y * y, z, 4) == 4  # capped at the depth
    assert factors.shared_steps(z, z, 7) == 7
    assert factors.shared_steps(free2.identity(), z, 3) == 0
    assert factors.shared_steps(line_a.make_element(-4), BoundaryPoint.line_end(line_a, -1), 9) == 4
    assert factors.shared_steps(line_a.make_element(4), BoundaryPoint.line_end(line_a, -1), 9) == 0


def test_shared_steps_refuses_mixed_and_boundaryless_factors(free2, line_a, lattice2, z6):
    with pytest.raises(MixedFactor):
        factors.shared_steps(line_a.make_element(1), BoundaryPoint.line_end(free2, 1), 2)
    with pytest.raises(MixedFactor):
        factors.shared_steps(free2.power(0, 1), line_a.make_element(1), 2)
    for spec, payload in ((lattice2, (1, 0)), (z6, 1)):
        x = spec.make_element(payload)
        with pytest.raises(NoBoundary):
            factors.shared_steps(x, x, 1)
