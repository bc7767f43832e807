"""Free-product word algebra: normal forms, shadows, projection."""

import itertools

import pytest

from morse_forge.errors import EmptyWord, ParseError
from morse_forge.graph import Ball


def test_multiply_inverse_cancellation(zz):
    x = zz.parse("x")
    assert zz.multiply(x, zz.inverse(x)).is_identity()


def test_multiply_merges_syllables(zz):
    u = zz.parse("x y")
    v = zz.parse("y^-1 x")
    assert zz.format(zz.multiply(u, v)) == "x^2"


def test_multiply_no_cancellation(dihedral):
    ab = dihedral.parse("a b")
    w = dihedral.multiply(ab, ab)
    assert len(w.syllables) == 4


def test_multiply_associative_on_ball(zz):
    ball = Ball.build(zz, 2)
    words = list(ball.vertices)
    for u, v, w in itertools.islice(itertools.product(words, repeat=3), 800):
        assert zz.multiply(zz.multiply(u, v), w) == zz.multiply(u, zz.multiply(v, w))


def test_roundtrip_inverse_radius_four(zz):
    ball = Ball.build(zz, 4)
    words = list(ball.vertices)
    for u in words[:40]:
        for v in words:
            assert zz.multiply(zz.multiply(u, v), zz.inverse(v)) == u


def test_syllable_length_convention(zz):
    assert zz.syllable_length(zz.parse("x y x^-1")) == 3
    assert zz.syllable_length(zz.identity()) == 0
    assert zz.syllable_length(zz.parse("y")) == 2


def test_syllable_length_subadditive(zz):
    ball = Ball.build(zz, 3)
    words = list(ball.vertices)
    for u in words:
        for v in words:
            assert zz.syllable_length(zz.multiply(u, v)) <= zz.syllable_length(
                u
            ) + zz.syllable_length(v)


def test_prefix_vertices(zz, dihedral):
    w = zz.parse("x y x^-1")
    assert [zz.format(p) for p in zz.prefix_vertices(w)] == ["x", "x y"]
    assert zz.prefix_vertices(zz.parse("x")) == []
    aba = dihedral.parse("a b a")
    assert [dihedral.format(p) for p in dihedral.prefix_vertices(aba)] == ["a", "a b"]


def test_prefix_vertices_empty_word(zz):
    with pytest.raises(EmptyWord):
        zz.prefix_vertices(zz.identity())


def test_in_shadow(zz):
    x = zz.parse("x")
    assert zz.in_shadow(x, zz.parse("x y"))
    assert not zz.in_shadow(x, zz.parse("x^2"))
    assert not zz.in_shadow(x, zz.parse("y"))


def test_shadow_partition_radius_five(zz):
    # every element outside the first factor copy lies in exactly one shadow
    ball = Ball.build(zz, 5)
    a_elements = [w for w in ball.vertices if len(w.syllables) <= 1 and (w.is_identity() or w.syllables[0].factor == "A")]
    outside = [w for w in ball.vertices if w not in a_elements]
    for v in outside:
        root = zz.project_to_factor(v, "A")
        if root.is_identity():
            hits = [a for a in a_elements if not a.is_identity() and zz.in_shadow(a, v)]
            assert hits == []
            assert v.syllables[0].factor == "B"
        else:
            hits = [a for a in a_elements if not a.is_identity() and zz.in_shadow(a, v)]
            assert hits == [zz.embed(root)]


def test_project_to_factor(zz):
    assert zz.project_to_factor(zz.parse("x^2 y x"), "A").payload == 2
    assert zz.project_to_factor(zz.parse("y x y^5"), "A").is_identity()
    a = zz.parse("x^3")
    assert zz.project_to_factor(a, "A") == a.syllables[0]


def test_prefix_vertices_are_the_product_level_forced_set(zz, lattice_product):
    # forced vertices on every geodesic = syllable prefixes plus whatever the
    # factor itself forces inside each syllable
    for fp in (zz, lattice_product):
        ball = Ball.build(fp, 4)
        for idx in range(1, len(ball)):
            w = ball.vertex(idx)
            geods = ball.enumerate_geodesics(0, idx, cap=512)
            forced = set(geods[0].vertices)
            for p in geods[1:]:
                forced &= set(p.vertices)
            prefixes = {ball.index_of(p) for p in fp.prefix_vertices(w)}
            assert prefixes <= forced
            # the factor-forced part: intersect per-syllable factor geodesics
            from morse_forge import factors as f

            factor_forced = {0, idx}
            base = fp.identity()
            for s in w.syllables:
                spec = s.spec
                segs = f.geodesics(spec.identity(), s)
                inner = set(segs[0])
                for seg in segs[1:]:
                    inner &= set(seg)
                for elt in inner:
                    factor_forced.add(ball.index_of(fp.multiply(base, fp.embed(elt))))
                base = fp.multiply(base, fp.embed(s))
            assert forced == prefixes | factor_forced


def test_parse_rejects_garbage(zz):
    with pytest.raises(ParseError):
        zz.parse("x q")
    with pytest.raises(ParseError):
        zz.parse("x^")


def test_parse_format_roundtrip(zz, lattice_product):
    for fp, text in ((zz, "x y^-3 x^2"), (lattice_product, "a1^2 a2^-1 y a1")):
        w = fp.parse(text)
        assert fp.parse(fp.format(w)) == w
