"""Free-product word algebra: normal forms, shadows, parsing, distance."""

import itertools

import pytest

from morse_forge import FactorSpec, FreeProduct
from morse_forge.errors import ParseError
from morse_forge.graph import Ball

from conftest import first_factor_root


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


def test_shadow_partition_radius_five(zz):
    # every element outside the first factor copy lies in exactly one shadow
    ball = Ball.build(zz, 5)
    a_elements = [w for w in ball.vertices if len(w.syllables) <= 1 and (w.is_identity() or w.syllables[0].factor == "A")]
    outside = [w for w in ball.vertices if w not in a_elements]
    for v in outside:
        # the shadow of a: the words whose syllables strictly extend a's
        hits = [
            a
            for a in a_elements
            if not a.is_identity() and len(v.syllables) > 1 and v.syllables[:1] == a.syllables
        ]
        root = first_factor_root(zz, v)
        if root.is_identity():
            assert hits == []
            assert v.syllables[0].factor == "B"
        else:
            assert hits == [root]


def test_parse_rejects_garbage(zz):
    with pytest.raises(ParseError):
        zz.parse("x q")
    with pytest.raises(ParseError):
        zz.parse("x^")


def test_parse_format_roundtrip(zz, lattice_product):
    for fp, text in ((zz, "x y^-3 x^2"), (lattice_product, "a1^2 a2^-1 y a1")):
        w = fp.parse(text)
        assert fp.parse(fp.format(w)) == w


def test_distance_merges_first_differing_syllables(zz, lattice_product, line_b):
    # the closed form against the norm of u^-1 v where the first differing
    # syllables of u and v merge in their factor
    free = FreeProduct(FactorSpec.free_group("F", 2, names=("p", "q")), line_b)
    z3 = FactorSpec.finite_table("C", [[(i + j) % 3 for j in range(3)] for i in range(3)], [1, 2], names=("s", "t"))
    finite = FreeProduct(FactorSpec.integer_line("A", "x"), z3)
    for fp, kind in ((zz, "line"), (lattice_product, "lattice"), (free, "free"), (finite, "finite")):
        words = list(Ball.build(fp, 3).vertices)
        merged = 0
        for u, v in itertools.product(words, repeat=2):
            pairs = zip(u.syllables, v.syllables)
            first = next(((s, t) for s, t in pairs if s != t), None)
            if first is None or first[0].factor != first[1].factor:
                continue
            merged += first[0].spec.kind == kind
            assert fp.distance(u, v) == fp.norm(fp.multiply(fp.inverse(u), v)), (u, v)
        assert merged > 0, kind
