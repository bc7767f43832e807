"""Corresponding rays, combinatorial geodesics and their neighborhoods."""

import pytest

from morse_forge import CANONICAL_TREE_GAUGE, FactorSpec, FactorSpace
from morse_forge import factors, morse, rays
from morse_forge.errors import DepthExceedsContent, NoLine
from morse_forge.factors import BoundaryPoint
from morse_forge.rays import (
    CombNeighborhood,
    CombRay,
    TruncatedRay,
    comb_neighborhood_member,
    comb_population,
    corresponding_ray,
    decompose,
    realize,
    standard_line,
)


def test_standard_line_line(line_a):
    plus, minus = standard_line(line_a)
    assert plus.sign == 1 and minus.sign == -1


def test_standard_line_free(free2):
    plus, _minus = standard_line(free2)
    assert [v.payload for v in plus.realization(2)] == [(), ((0, 1),), ((0, 2),)]


def test_standard_line_refused(lattice2):
    with pytest.raises(NoLine):
        standard_line(lattice2)


def test_corresponding_ray_line_positive(line_a):
    cr = corresponding_ray(line_a, line_a.make_element(5))
    assert [v.payload for v in cr.realize(3).vertices] == [0, 1, 2, 3]
    assert cr.t_x == 5 and cr.merge_depth == 0


def test_corresponding_ray_line_negative(line_a):
    cr = corresponding_ray(line_a, line_a.make_element(-5))
    assert [v.payload for v in cr.realize(3).vertices] == [0, -1, -2, -3]


def test_corresponding_ray_free(free2):
    x = free2.make_element(((1, 1), (0, 2)))  # y x^2
    cr = corresponding_ray(free2, x)
    assert cr.base_point.payload == ((1, 1),)
    assert cr.t_x == 2 and cr.merge_depth == 1
    ray = cr.realize(4)
    assert [free2.format_element(v) for v in ray.vertices] == ["e", "y", "y x", "y x^2", "y x^3"]


def test_corresponding_ray_mirrors(free2):
    x = free2.make_element(((1, 1), (0, -3)))  # y x^-3
    cr = corresponding_ray(free2, x)
    assert cr.t_x == 3
    assert cr.direction.block == ((0, -1),)
    # the ray passes through x at its norm
    assert cr.realize(5).vertices[4] == x


def test_corresponding_ray_passes_through_element(line_a, free2):
    for spec, payloads in (
        (line_a, [3, -2]),
        (free2, [((0, 2),), ((1, 1), (0, 1)), ((1, -2), (0, -2))]),
    ):
        for p in payloads:
            x = spec.make_element(p)
            cr = corresponding_ray(spec, x)
            ray = cr.realize(x.norm())
            assert ray.vertices[x.norm()] == x


def test_corresponding_ray_tracks_realizations(line_a, free2):
    # past the tracking bound, the ray stays within the closeness threshold
    # of every realization of the element on the requested range
    gauge = CANONICAL_TREE_GAUGE
    delta = morse.delta_of(gauge)
    t = 4
    bound = morse.tracking_bound(gauge, t)  # 90 for the default gauge
    tested = 0
    for spec, elems in (
        (line_a, [line_a.make_element(n) for n in (90, 95, -92)]),
        (free2, [
            free2.make_element(((0, 90),)),
            free2.make_element(((1, 40), (0, 55))),
            free2.make_element(((0, -3), (1, 88), (0, 2))),
        ]),
    ):
        for x in elems:
            assert x.norm() >= bound
            cr = corresponding_ray(spec, x)
            lam = cr.realize(t).vertices
            for eta in factors.geodesics(spec.identity(), x, cap=4):
                tested += 1
                for s in range(t + 1):
                    d = factors.distance(lam[s], eta[s])
                    assert d == 0 or d < delta
    assert tested > 0


def test_realize_infinite(zz):
    a = CombRay(zz, rays.INFINITE, (zz.a.make_element(1), zz.b.make_element(1)),
                repeat=(zz.a.make_element(1), zz.b.make_element(1)))
    ray = realize(a, 4)
    assert [zz.format(v) for v in ray.vertices] == ["e", "x", "x y", "x y x", "x y x y"]


def test_realize_finite_tail(zz):
    a = CombRay(zz, rays.FINITE, (zz.a.make_element(1), zz.b.make_element(1)),
                tail=BoundaryPoint.line_end(zz.a, 1))
    ray = realize(a, 4)
    assert [zz.format(v) for v in ray.vertices] == ["e", "x", "x y", "x y x", "x y x^2"]


def test_realize_exhausted(zz):
    a = CombRay(zz, rays.INFINITE, (zz.a.make_element(1),), unstable_last=True)
    with pytest.raises(DepthExceedsContent):
        realize(a, 3)


def test_decompose_reads_runs(zz):
    verts = tuple(zz.parse(t) for t in ("e", "x", "x y", "x y x"))
    a = decompose(zz, TruncatedRay(verts))
    assert [s.payload for s in a.syllables] == [1, 1, 1]
    assert a.unstable_last and a.kind == rays.INFINITE


def test_decompose_leading_second_factor(zz):
    verts = tuple(zz.parse(t) for t in ("e", "y", "y^2", "y^2 x"))
    a = decompose(zz, TruncatedRay(verts))
    assert a.syllables[0] == zz.a.identity()
    assert a.syllables[1].payload == 2


def test_decompose_pure_factor_ray_with_tail(zz):
    plus = BoundaryPoint.line_end(zz.a, 1)
    verts = tuple(zz.embed(zz.a.make_element(n)) for n in range(4))
    a = decompose(zz, TruncatedRay(verts, provenance=plus))
    assert a.kind == rays.FINITE and a.syllables == () and a.tail == plus


def test_roundtrip_population(zz):
    for a in comb_population(zz, max_len=3, max_norm=2):
        depth = sum(s.norm() for s in a.syllables) + 3
        ray = realize(a, depth)
        assert decompose(zz, ray) == a


def test_comb_neighborhood_center_in_itself(zz):
    for a in comb_population(zz, max_len=2, max_norm=1)[:40]:
        for k in (1, 2, 3):
            nb = CombNeighborhood(a, k, CANONICAL_TREE_GAUGE)
            assert comb_neighborhood_member(nb, a)


def test_comb_neighborhood_infinite_prefix_agreement(zz):
    x1, y1 = zz.a.make_element(1), zz.b.make_element(1)
    a = CombRay(zz, rays.INFINITE, (x1, y1), repeat=(x1, y1))
    b = CombRay(zz, rays.INFINITE, (x1, y1, zz.a.make_element(-2)), repeat=(y1, x1))
    nb = CombNeighborhood(a, 2, CANONICAL_TREE_GAUGE)
    assert comb_neighborhood_member(nb, b)
    assert not comb_neighborhood_member(CombNeighborhood(a, 3, CANONICAL_TREE_GAUGE), b)


def test_comb_neighborhood_opposite_tails_split(zz):
    x1 = zz.a.make_element(1)
    plus = BoundaryPoint.line_end(zz.b, 1)
    minus = BoundaryPoint.line_end(zz.b, -1)
    a = CombRay(zz, rays.FINITE, (x1,), tail=plus)
    b = CombRay(zz, rays.FINITE, (x1,), tail=minus)
    assert comb_neighborhood_member(CombNeighborhood(a, 2, CANONICAL_TREE_GAUGE), b)
    assert not comb_neighborhood_member(CombNeighborhood(a, 3, CANONICAL_TREE_GAUGE), b)


def test_comb_neighborhood_next_syllable_depth(zz):
    # a longer candidate needs its next syllable deep along the tail ray
    x1 = zz.a.make_element(1)
    plus = BoundaryPoint.line_end(zz.b, 1)
    a = CombRay(zz, rays.FINITE, (x1,), tail=plus)
    k = 3
    good = CombRay(zz, rays.FINITE, (x1, zz.b.make_element(k)), tail=BoundaryPoint.line_end(zz.a, 1))
    shallow = CombRay(zz, rays.FINITE, (x1, zz.b.make_element(2)), tail=BoundaryPoint.line_end(zz.a, 1))
    wrong_side = CombRay(zz, rays.FINITE, (x1, zz.b.make_element(-k)), tail=BoundaryPoint.line_end(zz.a, 1))
    nb = CombNeighborhood(a, k, CANONICAL_TREE_GAUGE)
    assert comb_neighborhood_member(nb, good)
    assert not comb_neighborhood_member(nb, shallow)
    assert not comb_neighborhood_member(nb, wrong_side)


def test_population_is_deterministic(zz):
    p1 = comb_population(zz, max_len=2, max_norm=1)
    p2 = comb_population(zz, max_len=2, max_norm=1)
    assert p1 == p2


def test_comb_text_parse_roundtrip(zz):
    samples = [
        "x | y ; tail=+inf",
        "x^2 | y^-1 | x ; tail=-inf",
        "e | y ; tail=+inf",
        "x | y ; repeat=x | y",
        "x | y^2 | x^-1",
    ]
    for text in samples:
        a = rays.parse_comb(zz, text)
        assert rays.parse_comb(zz, a.text()) == a


def test_comb_parse_free_tail(free2):
    fp = rays.FreeProduct(free2, FactorSpec.integer_line("B", "t"))
    a = rays.parse_comb(fp, "x | t ; tail=y~x")
    assert a.tail.prefix == ((1, 1),) and a.tail.block == ((0, 1),)
    assert rays.parse_comb(fp, a.text()) == a


def test_comb_json_mirrors_fields(zz):
    a = rays.parse_comb(zz, "x | y^2 ; tail=+inf")
    data = a.to_json_dict()
    assert data == {
        "kind": "finite",
        "syllables": ["x", "y^2"],
        "tail": "+inf",
        "unstable_last": False,
    }
