"""The frozen value classes: their public constructors refuse every broken
invariant, and every object a trusted constructor builds on the hot paths
passes the public constructor, compares equal to what it builds and hashes
alike.  A trusted path that ever built an invalid object, or one that
compared or hashed differently, fails here."""

import dataclasses

import pytest

from morse_forge import Ball, FactorSpace, FactorSpec, FreeProduct, Word, checks, matching, rays
from morse_forge.errors import NoBoundary
from morse_forge.factors import BoundaryPoint, from_entry
from morse_forge.matching import BoundaryHomeo
from morse_forge.rays import CombRay, Spellings


def _twin(v):
    """v rebuilt through its public constructor."""
    if isinstance(v, Word):
        return Word(v.syllables)
    if isinstance(v, CombRay):
        return CombRay(v.fp, v.syllables, tail=v.tail, repeat=v.repeat)
    return BoundaryPoint.make(v.spec, v.prefix, v.block)


def _assert_valid(values):
    values = list(values)
    assert values
    for v in values:
        twin = _twin(v)
        assert twin == v and v == twin and hash(twin) == hash(v), v


# -- public constructors ----------------------------------------------------------


def test_word_refuses_a_trivial_syllable(zz):
    with pytest.raises(ValueError, match="syllables must be non-trivial"):
        Word((zz.a.make_element(1), zz.b.identity()))


def test_word_refuses_adjacent_syllables_of_one_factor(zz):
    with pytest.raises(ValueError, match="adjacent syllables must alternate factors"):
        Word((zz.a.make_element(1), zz.a.make_element(2)))


def _x(zz, n=1):
    return zz.a.make_element(n)


def _y(zz, n=1):
    return zz.b.make_element(n)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda zz, end: CombRay(zz, (_y(zz),), tail=end(zz.b)), "syllable 1 must lie in factor 'A'"),
        (lambda zz, end: CombRay(zz, (_x(zz), zz.b.identity()), tail=end(zz.a)), "only the first syllable may be the identity"),
        (lambda zz, end: CombRay(zz, (_x(zz),), tail=end(zz.b), repeat=(_y(zz), _x(zz))), "exactly one of a tail and a repeat block"),
        (lambda zz, end: CombRay(zz, (_x(zz),), tail=end(zz.a)), "tail factor must alternate with the last syllable"),
        (lambda zz, end: CombRay(zz, (_x(zz),), repeat=(_y(zz),)), "repeat block must have even length"),
        (lambda zz, end: CombRay(zz, (_x(zz),), repeat=(_y(zz), zz.a.identity())), "repeat block must alternate non-trivial syllables"),
        (lambda zz, end: CombRay(zz, (_x(zz),), repeat=(_x(zz), _y(zz))), "repeat block must alternate non-trivial syllables"),
    ],
    ids=["wrong-factor", "inner-identity", "tail-and-repeat", "tail-same-factor", "odd-repeat", "trivial-repeat", "repeat-same-factor"],
)
def test_comb_ray_refuses_each_broken_invariant(zz, make, message):
    with pytest.raises(ValueError, match=message):
        make(zz, lambda spec: BoundaryPoint.line_end(spec, 1))


def test_boundary_point_refuses_a_factor_without_boundary(lattice2):
    with pytest.raises(NoBoundary):
        BoundaryPoint(lattice2, (), ((0, 1),))


@pytest.mark.parametrize(
    "prefix, block, message",
    [
        ((), (), "repeating block must be non-empty"),
        ((), ((2, 1),), "letters must be signed base-generator indices"),
        ((), ((0, 2),), "letters must be signed base-generator indices"),
        (((0, 1), (0, -1)), ((1, 1),), "unrolled word is not reduced"),
        (((0, -1),), ((0, 1), (1, 1)), "unrolled word is not reduced"),
        (((1, 1),), ((0, 1), (1, 1)), "shortest prefix and a primitive block"),
        ((), ((0, 1), (0, 1)), "shortest prefix and a primitive block"),
    ],
    ids=["empty-block", "bad-base", "bad-sign", "unreduced-prefix", "unreduced-join", "long-prefix", "imprimitive-block"],
)
def test_boundary_point_refuses_each_broken_invariant(free2, prefix, block, message):
    with pytest.raises(ValueError, match=message):
        BoundaryPoint(free2, prefix, block)


# -- trusted paths ------------------------------------------------------------------


def test_phi_psi_vertices_pass_the_public_constructor(zz):
    population = rays.comb_population(zz, max_len=checks.PHI_PSI_MAX_LEN, max_norm=checks.PHI_PSI_MAX_NORM)
    _assert_valid(population)
    table = Spellings()
    vertices = []
    for a in population:
        depth = sum(s.norm() for s in a.syllables) + checks.PHI_PSI_TAIL_DEPTH
        ray = rays.realize(a, depth, table)
        observed = rays.certify_geodesic(zz, ray)
        vertices += ray
        vertices += rays.spell(zz, observed, depth, table)
    _assert_valid(vertices)


def _match(kind):
    if kind == "identity":
        specs = [FactorSpec.integer_line(f"{f}{i}", n) for i in (1, 2) for f, n in (("A", "x"), ("B", "y"))]
    else:
        specs = [
            spec
            for i in (1, 2)
            for spec in (FactorSpec.integer_lattice(f"A{i}", 2), FactorSpec.integer_line(f"B{i}", "y"))
        ]
    fp1, fp2 = FreeProduct(*specs[:2]), FreeProduct(*specs[2:])
    homeos = [BoundaryHomeo(s, t, "identity") for s, t in ((fp1.a, fp2.a), (fp1.b, fp2.b))]
    return matching.run_matching(fp1, fp2, *homeos, 20)


@pytest.mark.parametrize("kind", ["identity", "lattice-line"])
def test_induced_images_pass_the_public_constructor(kind):
    pm = _match(kind)
    population = rays.comb_population(pm.fp1, max_len=checks.CONTAINMENT_MAX_LEN, max_norm=checks.CONTAINMENT_MAX_NORM)
    _assert_valid(population)
    _assert_valid(matching.induced_map(pm, a) for a in population)
    assert checks.bijectivity_report(pm.a)["ok"] and checks.bijectivity_report(pm.b)["ok"]


@pytest.mark.parametrize("product, radius", [("zz", 4), ("lattice_product", 3)])
def test_ball_vertices_and_word_algebra_pass_the_public_constructor(request, product, radius):
    fp = request.getfixturevalue(product)
    ball = Ball.build(fp, radius)
    _assert_valid(ball.vertices)
    near = [w for w in ball.vertices if fp.norm(w) <= 2]
    _assert_valid(fp.inverse(w) for w in ball.vertices)
    _assert_valid(p for w in ball.vertices[1:] for p in fp.prefix_vertices(w))
    _assert_valid(fp.multiply(u, v) for u in ball.vertices for v in near)


def test_line_ends_and_corresponding_rays_pass_the_public_constructor(line_a, free2):
    for spec in (line_a, free2):
        ends = rays.standard_line(spec)
        assert rays.standard_line(spec) is ends  # made once per spec
        _assert_valid(ends)
        for end in ends:
            assert BoundaryPoint(spec, end.prefix, end.block) == end
        elements = Ball.build(FactorSpace(spec), 4).vertices
        _assert_valid(rays.corresponding_ray(spec, x)[1] for x in elements)
    # a line element's direction is one of the two ends themselves
    plus, minus = rays.standard_line(line_a)
    assert rays.corresponding_ray(line_a, line_a.make_element(3))[1] is plus
    assert rays.corresponding_ray(line_a, line_a.make_element(-3))[1] is minus


def test_head_reads_the_syllables_in_order(zz):
    for a in rays.comb_population(zz, max_len=3, max_norm=1):
        for k in range(7):
            expected = tuple(s for s in map(a.syllable_at, range(1, k + 1)) if s is not None)
            assert a.head(k) == expected


# -- equality, hashing and freezing -------------------------------------------------


def test_equal_specs_give_equal_values():
    entries = [
        {"id": "A1", "kind": "free", "rank": 2, "names": ["x", "y"]},
        {"id": "B1", "kind": "line", "names": ["t"]},
    ]
    fps = []
    for _ in range(2):
        fps.append(FreeProduct(*(from_entry(dict(e)) for e in entries)))
    first, second = fps
    assert first.a is not second.a and first.a == second.a and hash(first.a) == hash(second.a)
    for text in ("x y^-2 t^3 x", "t^-1 y", "e"):
        u, v = first.parse(text), second.parse(text)
        assert u == v and hash(u) == hash(v)
        for s, t in zip(u.syllables, v.syllables):
            assert s == t and hash(s) == hash(t)
    for z, w in zip(rays.standard_line(first.a), rays.standard_line(second.a)):
        assert z is not w and z == w and hash(z) == hash(w)
    ray1, ray2 = (rays.comb_population(fp, max_len=2, max_norm=1)[-1] for fp in fps)
    assert ray1 == ray2 and hash(ray1) == hash(ray2)
    assert first.parse("x") != second.parse("y") and first.parse("x") != first.a.make_element(((0, 1),))


def test_values_stay_frozen_and_keep_the_hash_out_of_their_fields(zz):
    x = zz.a.make_element(2)
    w = zz.word((x, zz.b.make_element(-1)))
    a = rays.comb_population(zz, max_len=1, max_norm=1)[0]
    z = rays.standard_line(zz.a)[0]
    for v, name in ((x, "payload"), (w, "syllables"), (a, "syllables"), (z, "block"), (zz.a, "names")):
        hash(v)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, ())
        assert "_hash" not in {f.name for f in dataclasses.fields(v)}
        assert "_hash" not in repr(v)
