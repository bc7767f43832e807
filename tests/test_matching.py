"""Boundary homeomorphisms and the element-matching pipeline."""

import functools
import itertools

import pytest

from morse_forge import FactorSpec, FreeProduct
from morse_forge import factors, matching, morse, rays
from morse_forge.factors import BoundaryPoint
from morse_forge.matching import (
    BoundaryHomeo,
    MatchState,
    check_continuity,
    induced_map,
    run_matching,
)

from conftest import CLOSENESS_GAUGES, directions


def _line_pair():
    return FactorSpec.integer_line("A1", "x"), FactorSpec.integer_line("A2", "x")


def _zz_pair():
    fp1 = FreeProduct(FactorSpec.integer_line("A1", "x"), FactorSpec.integer_line("B1", "y"))
    fp2 = FreeProduct(FactorSpec.integer_line("A2", "x"), FactorSpec.integer_line("B2", "y"))
    return fp1, fp2


def _homeos(fp1, fp2, rule_a="identity", perm_a=()):
    return (
        BoundaryHomeo(fp1.a, fp2.a, rule_a, perm=perm_a),
        BoundaryHomeo(fp1.b, fp2.b, "identity"),
    )


# -- homeomorphisms ------------------------------------------------------------


def test_apply_identity(free2):
    tgt = FactorSpec.free_group("A2", 2, names=("x", "y"))
    h = BoundaryHomeo(free2, tgt, "identity")
    z = BoundaryPoint.make(free2, ((0, 1),), ((1, 1),))
    img = h.apply(z)
    assert img.spec == tgt and img.prefix == z.prefix and img.block == z.block


def test_apply_perm(free2):
    tgt = FactorSpec.free_group("A2", 2, names=("x", "y"))
    h = BoundaryHomeo(free2, tgt, "perm", perm=(("x", "y"), ("y", "x")))
    z = BoundaryPoint.make(free2, ((0, 1),), ((1, 1),))
    img = h.apply(z)
    assert img.prefix == ((1, 1),) and img.block == ((0, 1),)


def test_apply_lineswap():
    a1, a2 = _line_pair()
    h = BoundaryHomeo(a1, a2, "lineswap")
    assert h.apply(BoundaryPoint.line_end(a1, 1)).sign == -1


def test_homeo_inverse_roundtrip(free2):
    tgt = FactorSpec.free_group("A2", 2, names=("x", "y"))
    h = BoundaryHomeo(free2, tgt, "perm", perm=(("x", "y^-1"), ("y", "x")))
    z = BoundaryPoint.make(free2, ((0, 1), (1, -1), (1, -1)), ((0, 1),))
    assert h.inverse().apply(h.apply(z)) == z


def test_perm_validation(free2):
    tgt = FactorSpec.free_group("A2", 2, names=("x", "y"))
    with pytest.raises(ValueError):
        BoundaryHomeo(free2, tgt, "perm", perm=(("x", "y"), ("y", "y")))


# -- single steps ----------------------------------------------------------------


def test_first_step_identity_regression():
    a1, a2 = _line_pair()
    state = MatchState(BoundaryHomeo(a1, a2, "identity"))
    rec = state.step(1)
    assert rec["initiator"] == "x" and rec["target"] == "x"
    assert rec["i"] == 1 and rec["T"] == 60 and rec["certified"]


def test_first_step_lineswap_targets_negative_ray():
    a1, a2 = _line_pair()
    state = MatchState(BoundaryHomeo(a1, a2, "lineswap"))
    rec = state.step(1)
    assert rec["target"] == "x^-1"


def test_first_step_free_perm_regression():
    src = FactorSpec.free_group("A1", 2, names=("x", "y"))
    tgt = FactorSpec.free_group("A2", 2, names=("x", "y"))
    state = MatchState(BoundaryHomeo(src, tgt, "perm", perm=(("x", "y"), ("y", "x"))))
    rec = state.step(1)
    # certification depth 60 with threshold 5 forces the target 58 deep
    assert rec["initiator"] == "x" and rec["target"] == "y^58"
    assert rec["i"] == 58 and rec["T"] == 60


def test_empty_boundary_branch():
    a1 = FactorSpec.integer_lattice("A1", 2)
    a2 = FactorSpec.integer_lattice("A2", 2)
    state = MatchState(BoundaryHomeo(a1, a2, "identity"))
    recs = [state.step(1), state.step(2), state.step(1)]
    assert all(r["branch"] == "empty_boundary" for r in recs)
    assert state.forward[a1.identity()] == a2.identity()
    assert len(state.forward) == 4


def test_alternation_matches_prefixes():
    a1, a2 = _line_pair()
    state = MatchState(BoundaryHomeo(a1, a2, "identity"))
    for _ in range(10):
        state.step(1)
        state.step(2)
    for i in range(10):
        assert state._enum_src.get(i) in state.forward
        assert state._enum_tgt.get(i) in state.backward


# -- the closeness test of a candidate ------------------------------------------

def _reference_tracks(state, back, lam_x, t):
    """The pointwise loop that ``MatchState._tracks`` replaced: distances
    between the two realizations, up to the first one that fails."""
    xi = back.realization(t)
    close_below = morse.rational_ceil(state.delta_prime)  # distances are ints
    worst = 0
    for a, b in zip(xi, lam_x.realization(t)):
        d = factors.distance(a, b)
        worst = max(worst, d)
        if d != 0 and d >= close_below:
            return False, worst
    return True, worst


def _free_homeos():
    src = FactorSpec.free_group("A1", 2, names=("x", "y"))
    tgt = FactorSpec.free_group("A2", 2, names=("x", "y"))
    return [
        BoundaryHomeo(src, tgt, "perm", perm=(("x", "y"), ("y", "x"))),
        BoundaryHomeo(src, tgt, "perm", perm=(("x", "y^-1"), ("y", "x"))),
        BoundaryHomeo(src, tgt, "identity"),
        BoundaryHomeo(*_line_pair(), "identity"),
        BoundaryHomeo(*_line_pair(), "lineswap"),
    ]


@pytest.mark.parametrize("gauge", CLOSENESS_GAUGES, ids=lambda g: str(g.delta))
def test_tracks_matches_reference_on_direction_pairs(gauge):
    spec = FactorSpec.free_group("A1", 2, names=("x", "y"))
    state = MatchState(_free_homeos()[0], gauge=gauge)
    outcomes = set()
    for back, lam_x in itertools.product(directions(spec, 2), directions(spec, 3)):
        for t in range(0, 9):
            got = state._tracks(back, lam_x, t)
            assert got == _reference_tracks(state, back, lam_x, t), (back.format(), lam_x.format(), t)
            outcomes.add(got[0])
    assert outcomes == {True, False}


@pytest.mark.parametrize("gauge", CLOSENESS_GAUGES, ids=lambda g: str(g.delta))
def test_tracks_matches_reference_in_runs(gauge):
    # every candidate a run tests, the rejected ones included
    rejected = 0
    for homeo in _free_homeos():
        state = MatchState(homeo, gauge=gauge)
        tracks = state._tracks
        outcomes = []

        def checked(back, lam_x, t):
            got = tracks(back, lam_x, t)
            assert got == _reference_tracks(state, back, lam_x, t), (back.format(), lam_x.format(), t)
            outcomes.append(got[0])
            return got

        state._tracks = checked
        for _ in range(6):
            state.step(1)
            state.step(2)
        assert outcomes.count(True) == 12
        rejected += outcomes.count(False)
    # these runs reject candidates, and so compare rejections, at every delta but 0
    assert (rejected > 0) == (gauge.delta > 0)


# -- the candidate scan --------------------------------------------------------------


def _reference_step(state, z_img, other_matched, homeo_back, lam_x, t):
    """The scan loop that ``MatchState._scan`` replaced: every step reads
    the image ray from index 1, past every vertex already matched."""
    eta = z_img.vertices()
    next(eta)  # the identity is matched from the start
    for i, cand in zip(range(1, state.index_scan + 1), eta):
        if cand in other_matched:
            continue
        back = homeo_back.apply(rays.corresponding_ray(cand.spec, cand).direction)
        ok, worst = state._tracks(back, lam_x, t)
        if ok:
            return i, cand, worst
    return None


def _line_homeos():
    return [
        BoundaryHomeo(*_line_pair(), "identity"),
        BoundaryHomeo(*_line_pair(), "lineswap"),
        BoundaryHomeo(*_line_pair(), "perm", perm=(("x", "x^-1"),)),
    ]


@pytest.mark.parametrize(
    "homeo",
    _line_homeos() + _free_homeos()[:3],
    ids=["line-identity", "line-lineswap", "line-perm", "f2-swap", "f2-swap-inverse", "f2-identity"],
)
def test_scan_cursor_matches_reference(homeo):
    # the F2 perm runs also reject thousands of unmatched candidates; the
    # cursor stops at the first unmatched vertex, rejected or not
    state = MatchState(homeo)
    reference = MatchState(homeo)
    reference._scan = functools.partial(_reference_step, reference)
    for _ in range(40):
        for side in (1, 2):
            assert state.step(side) == reference.step(side)
    assert state.records == reference.records and len(state.records) == 80
    assert state.forward == reference.forward and state.backward == reference.backward
    # the cursors moved past matched vertices, so the scans really differ
    assert max(ray.cursor for ray in state._image_rays.values()) > 1


# -- full runs --------------------------------------------------------------------


def test_run_matching_zero_rounds():
    fp1, fp2 = _zz_pair()
    pm = run_matching(fp1, fp2, *_homeos(fp1, fp2), rounds=0)
    assert pm.a.forward == {fp1.a.identity(): fp2.a.identity()}
    assert pm.b.forward == {fp1.b.identity(): fp2.b.identity()}


def test_run_matching_bijectivity():
    fp1, fp2 = _zz_pair()
    pm = run_matching(fp1, fp2, *_homeos(fp1, fp2), rounds=10)
    for state in (pm.a, pm.b):
        assert len(state.forward) == len(set(state.forward.values()))
        for x, y in state.forward.items():
            assert state.backward[y] == x


def test_match_meta_roles():
    a1, a2 = _line_pair()
    state = MatchState(BoundaryHomeo(a1, a2, "lineswap"))
    state.step(1)
    x = a1.make_element(1)
    y = a2.make_element(-1)
    gx, gy = state.meta[x], state.meta[y]
    assert gx["role"] == "initiator" and gx["direction"].sign == 1
    assert gy["role"] == "target" and gy["direction"].sign == -1
    # the target lies on a realization of its matched direction
    assert y in gy["direction"].realization(2)
    # the identity is matched from the start and carries no direction
    assert a1.identity() not in state.meta and state.forward[a1.identity()] == a2.identity()
    assert a1.make_element(7) not in state.meta


def test_induced_map_lookup_and_tail_flip():
    fp1, fp2 = _zz_pair()
    ha = BoundaryHomeo(fp1.a, fp2.a, "lineswap")
    hb = BoundaryHomeo(fp1.b, fp2.b, "identity")
    pm = run_matching(fp1, fp2, ha, hb, rounds=3)
    x1 = fp1.a.make_element(1)
    a = rays.CombRay(fp1, rays.FINITE, (x1,), tail=BoundaryPoint.line_end(fp1.b, 1))
    img = induced_map(pm, a)
    assert img.fp == fp2
    assert img.syllables == (fp2.a.make_element(-1),)
    assert img.tail.sign == 1  # second-factor homeomorphism is the identity
    b = rays.CombRay(fp1, rays.FINITE, (), tail=BoundaryPoint.line_end(fp1.a, 1))
    assert induced_map(pm, b).tail.sign == -1  # first-factor tail flips


def test_induced_map_extends_on_demand():
    fp1, fp2 = _zz_pair()
    pm = run_matching(fp1, fp2, *_homeos(fp1, fp2), rounds=1)
    deep = fp1.a.make_element(9)
    a = rays.CombRay(fp1, rays.FINITE, (deep,), tail=BoundaryPoint.line_end(fp1.b, 1))
    img = induced_map(pm, a)
    assert img.syllables[0] == fp2.a.make_element(9)
    # rounds were appended, so the alternation invariant still holds
    rounds = pm.a.steps_taken // 2
    for i in range(rounds):
        assert pm.a._enum_src.get(i) in pm.a.forward


def test_induced_map_truncated_infinite():
    fp1, fp2 = _zz_pair()
    pm = run_matching(fp1, fp2, *_homeos(fp1, fp2), rounds=2)
    x1, y1 = fp1.a.make_element(1), fp1.b.make_element(1)
    a = rays.CombRay(fp1, rays.INFINITE, (x1, y1), repeat=(x1, y1))
    img = induced_map(pm, a)
    assert img.kind == rays.INFINITE and len(img.syllables) == 2 and len(img.repeat) == 2


def test_free_factor_targets_lie_on_image_rays():
    fp1 = FreeProduct(FactorSpec.free_group("A1", 2, names=("x", "y")), FactorSpec.integer_line("B1", "t"))
    fp2 = FreeProduct(FactorSpec.free_group("A2", 2, names=("x", "y")), FactorSpec.integer_line("B2", "t"))
    ha = BoundaryHomeo(fp1.a, fp2.a, "perm", perm=(("x", "y"), ("y", "x")))
    hb = BoundaryHomeo(fp1.b, fp2.b, "identity")
    pm = run_matching(fp1, fp2, ha, hb, rounds=5)
    checked = 0
    for state in (pm.a, pm.b):
        for x, info in state.meta.items():
            if info["role"] != "target":
                continue
            checked += 1
            ray = info["direction"].realization(x.norm())
            assert ray[x.norm()] == x
    assert checked >= 10


# -- continuity and convergence ----------------------------------------------------


def test_check_continuity_identity_line():
    a1, a2 = _line_pair()
    state = MatchState(BoundaryHomeo(a1, a2, "identity"))
    for l in (1, 2, 3):
        r = check_continuity(state, BoundaryPoint.line_end(a1, 1), l)
        assert r["status"] == "verified"
        assert r["found"]["k"] == l
        assert r["found"]["members"]


def test_check_continuity_lineswap():
    a1, a2 = _line_pair()
    state = MatchState(BoundaryHomeo(a1, a2, "lineswap"))
    r = check_continuity(state, BoundaryPoint.line_end(a1, 1), 3)
    assert r["status"] == "verified"
    assert r["image_z"] == "-inf"


def test_check_continuity_inconclusive_flags_vacuous_depths():
    a1, a2 = _line_pair()
    state = MatchState(BoundaryHomeo(a1, a2, "identity"))
    # images cannot reach depth 5 inside a norm-4 ball, and depths above the
    # ball norm have no members at all
    r = check_continuity(state, BoundaryPoint.line_end(a1, 1), 5, ball_norm=4, k_max=6)
    assert r["status"] == "inconclusive"
    assert any(entry["vacuous"] for entry in r["per_k"])
    assert any(entry["failures"] for entry in r["per_k"])


def test_index_scan_reads_the_image_ray_lazily():
    # the scan walks the image ray only as far as it reads, so a budget of
    # 10**5 costs what 512 does and writes the same transcript
    free = [FactorSpec.free_group(f"A{i}", 2, names=("x", "y")) for i in (1, 2)]
    homeos = [
        BoundaryHomeo(*_line_pair(), "identity"),
        BoundaryHomeo(*_line_pair(), "lineswap"),
        BoundaryHomeo(*free, "perm", perm=(("x", "y^-1"), ("y", "x"))),
    ]
    for homeo in homeos:
        transcripts = []
        for index_scan in (512, 10**5):
            state = MatchState(homeo, index_scan=index_scan)
            for _ in range(10):
                state.step(1)
                state.step(2)
            transcripts.append(state.records)
        assert len(transcripts[0]) == 20
        assert transcripts[0] == transcripts[1]
