"""Corresponding rays, combinatorial geodesics and their neighborhoods."""

import pytest

from morse_forge import CANONICAL_TREE_GAUGE, FactorSpec, FactorSpace, FreeProduct
from morse_forge import checks, factors, morse, rays
from morse_forge.errors import NoLine
from morse_forge.factors import BoundaryPoint
from morse_forge.rays import (
    CombIndex,
    CombRay,
    comb_neighborhood_member,
    comb_population,
    corresponding_ray,
    decompose,
    Spellings,
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
    x = line_a.make_element(5)
    merge_depth, direction = corresponding_ray(line_a, x)
    assert [v.payload for v in direction.realization(3)] == [0, 1, 2, 3]
    # x sits at index |a| + merge_depth, for x = base * (first generator)^a
    assert merge_depth == 0 and direction.realization(5)[5] == x


def test_corresponding_ray_line_negative(line_a):
    merge_depth, direction = corresponding_ray(line_a, line_a.make_element(-5))
    assert [v.payload for v in direction.realization(3)] == [0, -1, -2, -3]


def test_corresponding_ray_free(free2):
    x = free2.make_element(((1, 1), (0, 2)))  # y x^2
    merge_depth, direction = corresponding_ray(free2, x)
    assert merge_depth == 1
    ray = direction.realization(4)
    # the ray reaches the line's closest point y at merge_depth, x two steps on
    assert ray[merge_depth].payload == ((1, 1),)
    assert ray[merge_depth + 2] == x
    assert [free2.format_element(v) for v in ray] == ["e", "y", "y x", "y x^2", "y x^3"]


def test_corresponding_ray_mirrors(free2):
    x = free2.make_element(((1, 1), (0, -3)))  # y x^-3
    merge_depth, direction = corresponding_ray(free2, x)
    assert direction.block == ((0, -1),)
    # the ray passes through x at its norm, three steps past merge_depth
    assert merge_depth + 3 == x.norm()
    assert direction.realization(5)[4] == x


def test_corresponding_ray_passes_through_element(line_a, free2):
    for spec, payloads in (
        (line_a, [3, -2]),
        (free2, [((0, 2),), ((1, 1), (0, 1)), ((1, -2), (0, -2))]),
    ):
        for p in payloads:
            x = spec.make_element(p)
            merge_depth, direction = corresponding_ray(spec, x)
            ray = direction.realization(x.norm())
            assert ray[x.norm()] == x


def test_corresponding_ray_tracks_realizations(line_a, free2):
    # past the tracking bound, the ray stays within the closeness threshold
    # of every realization of the element on the requested range
    gauge = CANONICAL_TREE_GAUGE
    delta = gauge.delta
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
            merge_depth, direction = corresponding_ray(spec, x)
            lam = direction.realization(t)
            for eta in factors.geodesics(spec.identity(), x):
                tested += 1
                for s in range(t + 1):
                    d = factors.distance(lam[s], eta[s])
                    assert d == 0 or d < delta
    assert tested > 0


def test_realize_infinite(zz):
    a = CombRay(zz, (zz.a.make_element(1), zz.b.make_element(1)),
                repeat=(zz.a.make_element(1), zz.b.make_element(1)))
    ray = realize(a, 4, Spellings())
    assert [zz.format(v) for v in ray] == ["e", "x", "x y", "x y x", "x y x y"]


def test_realize_finite_tail(zz):
    a = CombRay(zz, (zz.a.make_element(1), zz.b.make_element(1)),
                tail=BoundaryPoint.line_end(zz.a, 1))
    ray = realize(a, 4, Spellings())
    assert [zz.format(v) for v in ray] == ["e", "x", "x y", "x y x", "x y x^2"]


def test_infinite_needs_repeat_block(zz):
    # a combinatorial geodesic is whole: its syllables never run out
    with pytest.raises(ValueError, match="repeat block"):
        CombRay(zz, (zz.a.make_element(1), zz.b.make_element(1)))


def test_decompose_reads_runs(zz):
    verts = tuple(zz.parse(t) for t in ("e", "x", "x y", "x y x"))
    runs = decompose(zz, verts)
    assert [s.payload for s in runs] == [1, 1, 1]


def test_decompose_leading_second_factor(zz):
    verts = tuple(zz.parse(t) for t in ("e", "y", "y^2", "y^2 x"))
    runs = decompose(zz, verts)
    assert runs[0] == zz.a.identity()
    assert runs[1].payload == 2


def test_roundtrip_population(zz):
    for a in comb_population(zz, max_len=3, max_norm=2):
        depth = sum(s.norm() for s in a.syllables) + 3
        ray = realize(a, depth, Spellings())
        rays.validate_against(rays.certify_geodesic(zz, ray), a, Spellings())


def _phi_psi_population(fp):
    population = comb_population(fp, max_len=checks.PHI_PSI_MAX_LEN, max_norm=checks.PHI_PSI_MAX_NORM)
    return [(a, sum(s.norm() for s in a.syllables) + checks.PHI_PSI_TAIL_DEPTH) for a in population]


@pytest.mark.parametrize("name", ["zz", "lz3", "f2l"])
def test_shared_spellings_match_fresh_ones(name):
    # phi-psi's run reads one table; each call here also gets a fresh one.
    # Each ray is read at phi-psi's depth and one step further, so the table
    # holds tails of two lengths, and its runs are validated against their
    # own ray and against the ray before it, so both verdicts are compared
    fp = _index_product(name)
    shared = Spellings()
    population = _phi_psi_population(fp)
    verdicts = set()
    for (a, depth), (prev, _depth) in zip(population, population[-1:] + population[:-1]):
        for d in (depth, depth + 1):
            ray = realize(a, d, shared)
            assert ray == realize(a, d, Spellings())
            runs = rays.certify_geodesic(fp, ray)
            assert rays.spell(fp, runs, d, shared) == rays.spell(fp, runs, d, Spellings())
            for b in (a, prev):
                verdict = _outcome(rays.validate_against, runs, b, shared)
                assert verdict == _outcome(rays.validate_against, runs, b, Spellings())
                verdicts.add(verdict is None)
    assert verdicts == {True, False}


def test_spellings_are_tuples(zz):
    # a caller that edits the list ``spell`` returns leaves the table alone
    table = Spellings()
    x2 = zz.a.make_element(2)
    verts = rays.spell(zz, (x2,), 2, table)
    verts[1] = verts[0]
    assert isinstance(table.syllable(x2), tuple) and isinstance(table.tail(standard_line(zz.a)[0], 2), tuple)
    assert rays.spell(zz, (x2,), 2, table) == rays.spell(zz, (x2,), 2, Spellings())


def _realize_reference(a, depth):
    """Reference vertices of ``realize``: each vertex as a word product."""
    fp = a.fp
    verts = [fp.identity()]
    base = fp.identity()
    pos = 0
    while len(verts) <= depth:
        pos += 1
        s = a.syllable_at(pos)
        if s is None:
            break
        for elt in factors.first_geodesic(s.spec.identity(), s)[1:]:
            if len(verts) > depth:
                break
            verts.append(fp.multiply(base, fp.embed(elt)))
        base = fp.multiply(base, fp.embed(s))
    if len(verts) <= depth and a.tail is not None:
        for elt in a.tail.realization(depth - len(verts) + 1)[1:]:
            verts.append(fp.multiply(base, fp.embed(elt)))
    return tuple(verts[: depth + 1])


def _decompose_reference(fp, vertices):
    """Reference ``decompose``: each step is prev^-1 cur."""
    runs = []
    for t in range(1, len(vertices)):
        q = fp.multiply(fp.inverse(vertices[t - 1]), vertices[t])
        if len(q.syllables) != 1 or q.syllables[0].norm() != 1:
            raise ValueError(f"step {t} is not an edge")
        s = q.syllables[0]
        if runs and runs[-1].factor == s.factor:
            runs[-1] = runs[-1] * s
            if runs[-1].is_identity():
                raise ValueError("a run cancels")
        else:
            runs.append(s)
    lead = [fp.a.identity()] if runs and runs[0].factor == fp.b.id else []
    return tuple(lead + runs)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("raises", str(exc))


@pytest.mark.parametrize("name", ["zz", "lxl", "f2l"])
def test_decompose_steps_match_word_product_rule(name):
    # every vertex of every realized ray, followed by: a stationary step, a
    # step by g^2, a step that appends two syllables, one that changes the
    # last two syllables, a backtracking step, and every generator step
    fp = _index_product(name)
    gens = [g.element for g in fp.generators()]
    outcomes = {}
    for a in comb_population(fp, max_len=2, max_norm=1):
        depth = sum(s.norm() for s in a.syllables) + 2
        verts = realize(a, depth, Spellings())
        assert verts == _realize_reference(a, depth)
        for t, prev in enumerate(verts):
            ps = prev.syllables
            steps = {"stationary": [prev], "square": [], "two appended": [], "two changed": [], "back": [], "generator": []}
            for g in gens:
                steps["square"].append(fp.multiply(prev, fp.embed(g * g)))
                steps["generator"].append(fp.multiply(prev, fp.embed(g)))
                for h in gens:
                    if h.factor != g.factor:
                        steps["two appended"].append(fp.multiply(prev, fp.word((g, h))))
                if len(ps) >= 2 and ps[-2].factor == g.factor and not (ps[-2] * g).is_identity():
                    steps["two changed"].append(fp.word(ps[:-2] + (ps[-2] * g, ps[-1] * ps[-1])))
            if t:
                steps["back"].append(verts[t - 1])
            for kind, curs in steps.items():
                for cur in curs:
                    # a one-generator step also goes on the ray, where runs merge
                    whole = kind in ("back", "generator")
                    for ray in ((prev, cur), verts[: t + 1] + (cur,))[: 1 + whole]:
                        got = _outcome(decompose, fp, ray)
                        assert got == _outcome(_decompose_reference, fp, ray), (kind, ray)
                        refused = got[:1] == ("raises",)
                        outcomes.setdefault(kind, set()).add(refused)
    assert outcomes["stationary"] == outcomes["square"] == outcomes["two appended"] == {True}
    assert outcomes["two changed"] == {True}
    # a backtracking step is one generator; the ray decomposes unless it
    # cancels a whole run, which decompose refuses
    assert outcomes["back"] == outcomes["generator"] == {False, True}


def _reference_certify(space, vertices):
    """The certificate that ``certify_geodesic`` replaced: the distance of
    every vertex from e, then the length of every step."""
    e = space.identity()
    for t, v in enumerate(vertices):
        if space.distance(e, v) != t:
            raise ValueError(f"vertex {t} is at distance {space.distance(e, v)}, not {t}")
    for t in range(1, len(vertices)):
        if space.distance(vertices[t - 1], vertices[t]) != 1:
            raise ValueError(f"step {t} is not an edge")


def test_certify_refuses_each_broken_condition(zz):
    # each path breaks one of the three conditions and meets the other two
    cases = {
        # every step is an edge, but the path backtracks: only |v_2| = 2 fails
        ("e", "x", "e"): "vertex 2 is at distance 0, not 2",
        # |v_2| = 2, but the path jumps two steps at once
        ("e", "x^2", "x y"): "step 1 is not an edge",
        # edges, and |v_2| = 2, from the wrong start
        ("y x", "y", "y^2"): "vertex 0 is at distance 2, not 0",
    }
    for path, message in cases.items():
        verts = tuple(zz.parse(w) for w in path)
        with pytest.raises(ValueError, match=message):
            rays.certify_geodesic(zz, verts)
        with pytest.raises(ValueError):
            _reference_certify(zz, verts)


@pytest.mark.parametrize("name", ["zz", "lz3", "f2l"])
def test_certify_matches_reference(name):
    # every realized population ray, and every path that moves one of its
    # vertices by a generator, or to a neighbour of the vertex before
    fp = _index_product(name)
    gens = [fp.embed(g.element) for g in fp.generators()]
    verdicts = set()
    for a in comb_population(fp):
        verts = realize(a, sum(s.norm() for s in a.syllables) + 2, Spellings())
        paths = [verts]
        for t, v in enumerate(verts):
            for g in gens:
                paths.append(verts[:t] + (fp.multiply(v, g),) + verts[t + 1 :])
                if t:
                    paths.append(verts[:t] + (fp.multiply(verts[t - 1], g),) + verts[t + 1 :])
        for path in paths:
            ok = _outcome(rays.certify_geodesic, fp, path)[:1] != ("raises",)
            assert ok == (_outcome(_reference_certify, fp, path) is None), [repr(v) for v in path]
            verdicts.add(ok)
    assert verdicts == {True, False}


def test_comb_neighborhood_center_in_itself(zz):
    for a in comb_population(zz, max_len=2, max_norm=1)[:40]:
        for k in (1, 2, 3):
            assert comb_neighborhood_member(a, k, CANONICAL_TREE_GAUGE, a)


def test_comb_neighborhood_infinite_prefix_agreement(zz):
    x1, y1 = zz.a.make_element(1), zz.b.make_element(1)
    a = CombRay(zz, (x1, y1), repeat=(x1, y1))
    b = CombRay(zz, (x1, y1, zz.a.make_element(-2)), repeat=(y1, x1))
    assert comb_neighborhood_member(a, 2, CANONICAL_TREE_GAUGE, b)
    assert not comb_neighborhood_member(a, 3, CANONICAL_TREE_GAUGE, b)


def test_comb_neighborhood_opposite_tails_split(zz):
    x1 = zz.a.make_element(1)
    plus = BoundaryPoint.line_end(zz.b, 1)
    minus = BoundaryPoint.line_end(zz.b, -1)
    a = CombRay(zz, (x1,), tail=plus)
    b = CombRay(zz, (x1,), tail=minus)
    assert comb_neighborhood_member(a, 2, CANONICAL_TREE_GAUGE, b)
    assert not comb_neighborhood_member(a, 3, CANONICAL_TREE_GAUGE, b)


def test_comb_neighborhood_next_syllable_depth(zz):
    # a longer candidate needs its next syllable deep along the tail ray
    x1 = zz.a.make_element(1)
    plus = BoundaryPoint.line_end(zz.b, 1)
    a = CombRay(zz, (x1,), tail=plus)
    k = 3
    good = CombRay(zz, (x1, zz.b.make_element(k)), tail=BoundaryPoint.line_end(zz.a, 1))
    shallow = CombRay(zz, (x1, zz.b.make_element(2)), tail=BoundaryPoint.line_end(zz.a, 1))
    wrong_side = CombRay(zz, (x1, zz.b.make_element(-k)), tail=BoundaryPoint.line_end(zz.a, 1))
    assert comb_neighborhood_member(a, k, CANONICAL_TREE_GAUGE, good)
    assert not comb_neighborhood_member(a, k, CANONICAL_TREE_GAUGE, shallow)
    assert not comb_neighborhood_member(a, k, CANONICAL_TREE_GAUGE, wrong_side)


def test_population_is_deterministic(zz):
    p1 = comb_population(zz, max_len=2, max_norm=1)
    p2 = comb_population(zz, max_len=2, max_norm=1)
    assert p1 == p2


def test_comb_text_forms(zz):
    x, y = zz.a.power(0, 1), zz.b.power(0, 1)
    a_plus, b_minus = standard_line(zz.a)[0], standard_line(zz.b)[1]
    samples = [
        (CombRay(zz, (x, y), tail=a_plus), "x | y ; tail=A:+inf"),
        (CombRay(zz, (x * x, y.inverse(), x), tail=b_minus), "x^2 | y^-1 | x ; tail=B:-inf"),
        (CombRay(zz, (zz.a.identity(), y), tail=a_plus), "e | y ; tail=A:+inf"),
        (CombRay(zz, (), tail=a_plus), "e ; tail=A:+inf"),
        (CombRay(zz, (zz.a.identity(),), tail=standard_line(zz.b)[0]), "e ; tail=B:+inf"),
        (CombRay(zz, (x, y), repeat=(x, y)), "x | y ; repeat=x | y"),
    ]
    for a, text in samples:
        assert a.text() == text


@pytest.mark.parametrize("name", ["zz", "lz3", "f2l"])
def test_comb_text_tells_rays_apart(name):
    # the containment population of a match report and phi-psi's population
    fp = _index_product(name)
    containment = comb_population(fp, max_len=checks.CONTAINMENT_MAX_LEN, max_norm=checks.CONTAINMENT_MAX_NORM)
    phi_psi = [a for a, _depth in _phi_psi_population(fp)]
    for population in (containment, phi_psi):
        assert len(set(population)) == len(population)
        assert len({a.text() for a in population}) == len(population)
    if name == "zz":
        assert (len(containment), len(phi_psi)) == (316, 956)


def test_comb_text_free_tail(free2):
    fp = rays.FreeProduct(free2, FactorSpec.integer_line("B", "t"))
    tail = BoundaryPoint.make(free2, ((1, 1),), ((0, 1),))
    a = CombRay(fp, (free2.power(0, 1), fp.b.power(0, 1)), tail=tail)
    assert a.tail.prefix == ((1, 1),) and a.tail.block == ((0, 1),)
    assert a.text() == "x | t ; tail=A:y~x"


# -- the syllable-prefix index ----------------------------------------------------

Z2 = [[0, 1], [1, 0]]
Z3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]


def _index_product(name):
    line_a, line_b = FactorSpec.integer_line("A", "x"), FactorSpec.integer_line("B", "y")
    return {
        "zz": lambda: FreeProduct(line_a, line_b),
        "lz3": lambda: FreeProduct(line_a, FactorSpec.finite_table("B", Z3, [1, 2], names=["s", "t"])),
        "f2l": lambda: FreeProduct(FactorSpec.free_group("A", 2, names=("x1", "x2")), line_b),
        "lxl": lambda: FreeProduct(FactorSpec.integer_lattice("A", 2), line_b),
        "dih": lambda: FreeProduct(
            FactorSpec.finite_table("A", Z2, [1], names=["a"]),
            FactorSpec.finite_table("B", Z2, [1], names=["b"]),
        ),
    }[name]()


def _pointwise_tail(gauge, k, tail, key):
    """The tail test run pointwise, through ``morse.neighborhood_member`` on
    realizations, as it was before it read shared letters: a next syllable
    in the filled neighborhood of the tail, or a tail close to it."""
    space = FactorSpace(tail.spec)
    member = key if isinstance(key, factors.FactorElement) else key.realization(k)
    return morse.neighborhood_member(space, gauge, k, (tail.realization(k),), member)


@pytest.mark.parametrize(
    "name,max_len,stride",
    [("zz", 4, 1), ("lz3", 4, 1), ("f2l", 3, 7), ("lxl", 3, 7), ("dih", 3, 1)],
)
def test_comb_index_matches_pointwise_filter(name, max_len, stride, monkeypatch):
    # the index and comb_neighborhood_member run their tail tests through
    # morse.factor_close, so every one of them is held against the
    # pointwise test
    factor_close = morse.factor_close
    pointwise = {}  # the reference verdict per distinct tail test

    def checked(gauge, k, tail, key):
        got = factor_close(gauge, k, tail, key)
        question = (gauge, k, tail, key)
        if question not in pointwise:
            pointwise[question] = _pointwise_tail(*question)
        assert got == pointwise[question], (tail.format(), key, k)
        return got

    monkeypatch.setattr(morse, "factor_close", checked)
    population = comb_population(_index_product(name), max_len=max_len)
    index = CombIndex(population)
    for a in population[::stride]:
        for k in range(1, 6):
            expected = [b for b in population if comb_neighborhood_member(a, k, CANONICAL_TREE_GAUGE, b)]
            assert index.members(a, k, CANONICAL_TREE_GAUGE) == expected, (a.text(), k)
    kinds = {(type(key).__name__, verdict) for (_g, _k, _t, key), verdict in pointwise.items()}
    if name != "dih":  # Z/2 * Z/2 has no boundary, so no tail
        assert kinds == {(t, v) for t in ("FactorElement", "BoundaryPoint") for v in (True, False)}


@pytest.mark.parametrize("name", ["zz", "lz3", "f2l"])
def test_neighbors_filter_by_the_member_test(name):
    # the filter that v-system's finite centers run on a few candidates
    population = comb_population(_index_product(name), max_len=2, max_norm=1)
    sizes = set()
    for a in population:
        for k in (1, 2, 3):
            got = rays.neighbors(a, k, CANONICAL_TREE_GAUGE, population)
            assert got == [b for b in population if comb_neighborhood_member(a, k, CANONICAL_TREE_GAUGE, b)]
            sizes.add(len(got) < len(population))
    assert sizes == {True}
