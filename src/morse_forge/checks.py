"""Exhaustive finite-ball checks behind the CLI and the acceptance suite.

Every check reports the instance count it actually covered plus any
counterexamples; an empty instance family is flagged vacuous rather than
passed silently.
"""

from __future__ import annotations

from . import factors, matching, morse, rays
from .errors import CapExceeded
from .graph import Ball
from .words import FreeProduct


def _report(check: str, params: dict, instances: int, failures: list, extra: dict | None = None) -> dict:
    out = {
        "check": check,
        "params": params,
        "instances": instances,
        "counterexample_count": len(failures),
        "counterexamples": failures[:10],
        "status": "fail" if failures else ("vacuous" if instances == 0 else "pass"),
    }
    if extra:
        out.update(extra)
    return out


# -- prefix transit ----------------------------------------------------------


def run_prefix_transit(fp: FreeProduct, radius: int = 5, slack: int = 2, path_cap: int | None = None, vertex_budget: int | None = None) -> dict:
    ball = Ball.build(fp, radius, vertex_budget)
    instances = 0
    failures = []
    for w in range(1, len(ball)):
        word = ball.vertex(w)
        required = {ball.index_of(p) for p in fp.prefix_vertices(word)}
        paths = ball.enumerate_paths(0, w, ball.dist[w] + slack, cap=path_cap)
        for p in paths:
            instances += 1
            if not required <= set(p):
                failures.append({"w": fp.format(word), "path": list(p)})
    return _report(
        "prefix-transit",
        {"radius": radius, "slack": slack},
        instances,
        failures,
        {"vertices": len(ball)},
    )


# -- projection --------------------------------------------------------------


def ball_symmetries(ball: Ball) -> list[tuple[int, ...]]:
    """Vertex permutations of the ball induced by factor automorphisms.

    Each fixes the basepoint, preserves adjacency and both factor copies,
    and commutes with the projection, so exhaustive claims need only be
    checked on orbit representatives.
    """
    fp = ball.space
    perms = []
    for fa in fp.a.automorphisms():
        for fb in fp.b.automorphisms():
            perm = []
            for w in ball.vertices:
                image = fp.word(fa(s) if s.factor == fp.a.id else fb(s) for s in w.syllables)
                perm.append(ball.index_of(image))
            perms.append(tuple(perm))
    return perms


def run_projection_qg(fp: FreeProduct, radius: int = 4, grid=((1, 0), (1, 2), (2, 1), (3, 0)), path_cap: int | None = None, vertex_budget: int | None = None) -> dict:
    ball = Ball.build(fp, radius, vertex_budget)
    proj_map = [
        ball.index_of(fp.embed(fp.project_to_factor(w, fp.a.id))) for w in ball.vertices
    ]
    n = len(ball)
    # the projection retracts onto the factor copy, so it fixes exactly the copy
    copy_a = [i for i in range(n) if proj_map[i] == i]
    dist = [ball.row(u) for u in range(n)]
    perms = ball_symmetries(ball)
    symmetries = morse.Symmetries(ball, perms)
    orbits: dict[tuple[int, int], int] = {}
    for ui in range(len(copy_a)):
        for vi in range(ui, len(copy_a)):
            u, v = copy_a[ui], copy_a[vi]
            orbit = {tuple(sorted((p[u], p[v]))) for p in perms}
            rep = min(orbit)
            orbits[rep] = len(orbit)
    # d(x, pi(x)) bounds the Hausdorff distance in both directions, since
    # the projection of each walk vertex lies on the projected path
    proj_gap = [dist[i][proj_map[i]] for i in range(n)]
    instances = 0
    covered = 0
    failures = []
    bounds = [morse.qg_bound(lam, eps) for lam, eps in grid]

    def scan(bound, least, u, v, symmetries):
        bad: list = []
        visit = projection_visitor(dist, proj_map, proj_gap, v, least, bound.hausdorff, bad)
        walks = morse.scan_quasi_geodesics(ball, u, v, bound, visit, PROJECTION_START, path_cap, symmetries)
        return walks, bad

    for bound in bounds:
        # no enumerated walk is longer than max_len of the ball's diameter
        least = bound.least.upto(bound.max_len(2 * radius))
        for (u, v), weight in sorted(orbits.items()):
            try:  # one walk per orbit of the symmetries that fix both ends
                walks, bad = scan(bound, least, u, v, symmetries)
                settled = not bad
            except CapExceeded:
                settled = False
            if not settled:
                # a failure or an overrun: list every failing walk, and
                # count up to the cap, as the plain search meets them
                walks, bad = scan(bound, least, u, v, None)
            instances += walks
            covered += walks * weight
            for walk, reason in bad:
                failures.append(
                    {"lam": str(bound.lam), "eps": str(bound.eps), "walk": list(walk), "reason": reason}
                )
    return _report(
        "projection-qg",
        {"radius": radius, "grid": [[str(b.lam), str(b.eps)] for b in bounds]},
        instances,
        failures,
        {
            "copy_vertices": len(copy_a),
            "orbit_representatives": len(orbits),
            "instances_with_symmetry": covered,
        },
    )


#: State of the empty prefix for ``projection_visitor``: no projected runs,
#: no broken lower bound, largest d(x, pi(x)) so far 0.
PROJECTION_START = (0, False, 0)


def projection_visitor(dist, proj_map, proj_gap, v, least, haus_bound, failures):
    """A ``morse.scan_quasi_geodesics`` visitor that decides for each walk
    ending at v whether its projection pi(walk) breaks the lower bound
    ``least`` (indexed by index gap) or lies farther than ``haus_bound``
    from the walk in Hausdorff distance.  Failing walks are appended to
    ``failures`` as (walk, reason) in search order.

    The projected path is kept as runs of constant value, (value, start)
    pairs in one list shared by the whole search; a prefix's state holds
    its run count, so a visit first cuts the list back to its parent's
    runs.  Inside a run only the index span matters, and across runs the
    widest index gap binds, since ``least`` never decreases.  So a run's
    span is checked on each extension and its constraints against the
    earlier runs once, when it closes or the walk ends; a prefix that
    breaks one stays broken in every extension.
    """
    runs: list[tuple[int, int]] = []

    def closes_badly(t: int) -> bool:
        # the last run ends at index t: compare it with every earlier run
        last = len(runs) - 1
        row = dist[runs[last][0]]
        for i in range(last):
            value, start = runs[i]
            if row[value] < least[t - start]:
                return True
        return False

    def visit(state, walk):
        nruns, broken, worst = state
        t = len(walk) - 1
        x = walk[t]
        if proj_gap[x] > worst:
            worst = proj_gap[x]
        if not broken:
            del runs[nruns:]
            p = proj_map[x]
            if nruns and runs[-1][0] == p:
                broken = least[t - runs[-1][1]] > 0
            else:
                broken = nruns > 0 and closes_badly(t - 1)
                runs.append((p, t))
                nruns += 1
            if x == v and not broken:
                broken = closes_badly(t)
        if x == v:
            if broken:
                failures.append((tuple(walk), "projection lower bound"))
            elif worst > haus_bound and _hausdorff_exceeds(dist, walk, runs, haus_bound):
                failures.append((tuple(walk), "hausdorff bound"))
        return nruns, broken, worst

    return visit


def _hausdorff_exceeds(dist, walk, runs, haus_bound) -> bool:
    """Whether the walk and the values of its projected runs lie farther
    than haus_bound apart in Hausdorff distance."""
    proj_set = {value for value, _start in runs}
    for x in walk:
        row = dist[x]
        if min(row[p] for p in proj_set) > haus_bound:
            return True
    walk_set = set(walk)
    for p in proj_set:
        row = dist[p]
        if min(row[x] for x in walk_set) > haus_bound:
            return True
    return False


# -- concatenation ------------------------------------------------------------


def run_concat_qg(fp: FreeProduct, radius: int = 4, qg_norm_limit: int = 2, geodesic_cap: int = 64, vertex_budget: int | None = None) -> dict:
    ball = Ball.build(fp, radius, vertex_budget)
    geodesic_paths: list[tuple[int, ...]] = []
    qg_paths: list[tuple[int, ...]] = []
    for w in range(len(ball)):
        geodesic_paths.extend(ball.enumerate_geodesics(0, w, cap=geodesic_cap))
        if ball.dist[w] <= qg_norm_limit:
            qg_paths.extend(morse.enumerate_quasi_geodesics(ball, 0, w, 1, 2))
    families = (("geodesic", 1, 0, geodesic_paths), ("qg", 1, 2, qg_paths))
    instances = 0
    failures = []
    for name, lam, eps, paths in families:
        for gamma in paths:
            if len(gamma) < 2:
                continue
            for p, q, cert in morse.separated_concatenations(ball, gamma, lam, eps):
                instances += 1
                if not (cert.hypothesis_held and cert.verified):
                    failures.append(
                        {
                            "family": name,
                            "gamma": list(gamma),
                            "p": p,
                            "q": q,
                            "certificate": cert.to_json_dict(),
                        }
                    )
    return _report(
        "concat-qg",
        {"radius": radius, "families": ["geodesic (1,0)", f"qg (1,2) norm<={qg_norm_limit}"]},
        instances,
        failures,
        # every counted instance met the separation hypothesis
        {"hypothesis_held": instances},
    )


# -- neighborhood nesting -----------------------------------------------------


def _branched_directions(spec: factors.FactorSpec, depths) -> list[factors.BoundaryPoint]:
    if not spec.has_boundary() or len(spec.generators_base_count()) < 2:
        return []
    out = []
    for m in depths:
        prefix = tuple([(0, 1)] * m + [(1, 1)])
        out.append(factors.BoundaryPoint.make(spec, prefix, ((0, 1),)))
    return out


def run_nbhd_nesting(spec: factors.FactorSpec, gauge: morse.Gauge = morse.CANONICAL_TREE_GAUGE, l_values=(1, 2, 3), pad: int = 2) -> dict:
    space = factors.FactorSpace(spec)
    plus, minus = rays.standard_line(spec)
    instances = 0
    failures = []
    checked_pairs = 0
    for z in (plus, minus):
        for l in l_values:
            k = morse.nesting_constant(l, gauge)
            ys = []
            for depth in range(k, k + pad + 1):
                ys.append(z.realization(depth)[-1])
                for d in _branched_directions(spec, [depth - 1]):
                    ys.append(d.realization(depth)[-1])
            center_k = morse.Neighborhood.around_ray(gauge, k, z.realization(k), filled=True)
            ys = [y for y in ys if morse.neighborhood_member(space, center_k, y)]
            directions = [plus, minus] + _branched_directions(spec, [k - 1, k, k + 1])
            elements = [z.realization(d)[-1] for d in range(k, k + pad + 1)]
            target = morse.Neighborhood.around_ray(gauge, l, z.realization(l), filled=True)
            for y in ys:
                checked_pairs += 1
                inner_rays = morse.Neighborhood.around_vertex(space, gauge, k, y, filled=False)
                inner_filled = morse.Neighborhood.around_vertex(space, gauge, k, y, filled=True)
                for w in directions:
                    if morse.neighborhood_member(space, inner_rays, w.realization(k)):
                        instances += 1
                        if not morse.neighborhood_member(space, target, w.realization(l)):
                            failures.append({"z": z.format(), "l": l, "y": repr(y), "w": w.format()})
                for w in elements:
                    if w.norm() < k:
                        continue
                    if morse.neighborhood_member(space, inner_filled, w):
                        instances += 1
                        if not morse.neighborhood_member(space, target, w):
                            failures.append({"z": z.format(), "l": l, "y": repr(y), "w": repr(w)})
    return _report(
        "nbhd-nesting",
        {"factor": spec.id, "l_values": list(l_values)},
        instances,
        failures,
        {"members_checked": checked_pairs},
    )


# -- ray merging ---------------------------------------------------------------


def ray_merge_pair(fp: FreeProduct, ra: tuple, rb: tuple, ks: list[int], delta: int) -> list[tuple[int, bool]]:
    """The merge verdicts of one pair of realized rays of equal length.

    The pair counts for each k in ``ks`` (in order, repeats kept) whose
    bound its whole distance profile stays under, and fails at k when a
    nonzero distance at least ``delta`` occurs up to ``len(ra) - 1 - 2k``.
    The profile is read lazily and stops at the first distance of at
    least max(ks): from there the maximum is at least every k, so the
    pair counts for none and fails none.  The stop is exact.
    """
    top = max(ks)
    profile = []
    for u, v in zip(ra, rb):
        d = fp.distance(u, v)
        if d >= top:
            return []
        profile.append(d)
    most = max(profile)
    depth = len(profile) - 1
    return [
        (k, any(d != 0 and d >= delta for d in profile[: depth - 2 * k + 1]))
        for k in ks
        if most < k
    ]


def run_ray_merge(fp: FreeProduct, depth: int = 36, k_values=(1, 2, 3, 4), max_len: int = 2, max_norm: int = 1) -> dict:
    """Population rays whose realizations stay within k up to ``depth``
    must stay closer than δ up to ``depth - 2k``, for each k in
    ``k_values`` with ``depth >= 6k``.  Each pair's profile stops at the
    first distance that rules out every such k (``ray_merge_pair``), which
    changes no count and no verdict."""
    delta = morse.rational_ceil(morse.CANONICAL_TREE_GAUGE.delta)  # distances are ints
    population = rays.comb_population(fp, max_len=max_len, max_norm=max_norm, max_infinite_prefix=1)
    realized = [rays.realize(a, depth, validate=False).vertices for a in population]
    ks = [k for k in k_values if depth >= 6 * k]
    instances = 0
    failures = []
    if ks:
        for a, ra in zip(population, realized):
            for b, rb in zip(population, realized):
                for k, failed in ray_merge_pair(fp, ra, rb, ks, delta):
                    instances += 1
                    if failed:
                        failures.append({"a": a.text(), "b": b.text(), "k": k})
    return _report(
        "ray-merge",
        {"depth": depth, "k_values": list(k_values)},
        instances,
        failures,
        {"rays": len(realized)},
    )


# -- fundamental system ----------------------------------------------------------


def _deep_witnesses(a: rays.CombRay, j: int) -> list[rays.CombRay]:
    """Extensions of a finite combinatorial geodesic whose next syllable is
    far along the tail ray, for non-vacuous nesting checks at depth j."""
    fp = a.fp
    tail_spec = a.tail.spec
    deep = a.tail.realization(j + 2)[-1]
    out = []
    next_spec = fp.a if tail_spec == fp.b else fp.b
    if next_spec.has_boundary():
        for end in rays.standard_line(next_spec):
            out.append(rays.CombRay(fp, rays.FINITE, a.syllables + (deep,), tail=end))
    first = next_spec.power(0, 1)
    second = tail_spec.power(0, 1)
    out.append(
        rays.CombRay(
            fp,
            rays.INFINITE,
            a.syllables + (deep,),
            repeat=(first, second),
        )
    )
    return out


def _extend_infinite(b: rays.CombRay) -> rays.CombRay:
    nxt = b.repeat[0]
    rotated = b.repeat[1:] + b.repeat[:1]
    return rays.CombRay(b.fp, rays.INFINITE, b.syllables + (nxt,), repeat=rotated)


def run_v_system(
    fp: FreeProduct,
    gauge: morse.Gauge = morse.CANONICAL_TREE_GAUGE,
    i_values=(1, 2, 3),
    max_len: int = 4,
    max_norm: int = 2,
    sample_stride: int = 21,
) -> dict:
    population = rays.comb_population(fp, max_len=max_len, max_norm=max_norm)
    index = rays.CombIndex(population)
    max_k = max(i_values) + 1
    failures = []
    instances = 0

    def member(center, k, b) -> bool:
        return rays.comb_neighborhood_member(rays.CombNeighborhood(center, k, gauge), b)

    def members(center, k, within: rays.CombIndex = index) -> list[rays.CombRay]:
        return within.members(rays.CombNeighborhood(center, k, gauge))

    # property 1: a in V_k(a) for all k
    for a in population:
        for k in range(1, max_k + 1):
            instances += 1
            if not member(a, k, a):
                failures.append({"property": 1, "a": a.text(), "k": k})
    # property 2: V_max(i,j)(a) inside V_i(a) and V_j(a), one instance per
    # (b, i, j); only the deeper neighborhood's members can break it
    pairs = [(i, j) for i in i_values for j in i_values]
    for a in population:
        inside = {k: members(a, k) for k in set(i_values)}
        inside_ids = {k: {id(b) for b in bs} for k, bs in inside.items()}
        instances += len(population) * len(pairs)
        for i, j in pairs:
            shallow = inside_ids[min(i, j)]
            for b in inside[max(i, j)]:
                if id(b) not in shallow:
                    failures.append({"property": 2, "a": a.text(), "b": b.text()})
    # property 3, infinite centers: j = i + 1 and k = j
    sample = population[::sample_stride]
    for a in sample:
        if a.kind != rays.INFINITE:
            continue
        for i in i_values:
            j = i + 1
            for b in members(a, j):
                for c in members(b, j):
                    instances += 1
                    if not member(a, i, c):
                        failures.append(
                            {"property": 3, "a": a.text(), "b": b.text(), "c": c.text(), "i": i}
                        )
    # property 3, finite centers: j from the nesting constant
    deep_checked = 0
    for a in sample:
        if a.kind != rays.FINITE:
            continue
        for i in i_values:
            j = morse.nesting_constant(i, gauge)
            candidates = rays.CombIndex([a] + _deep_witnesses(a, j))
            for b in members(a, j, candidates):
                k = j if b.kind == rays.FINITE else a.stored_length + 1
                inner = [b] + (_deep_witnesses(b, j) if b.kind == rays.FINITE else [_extend_infinite(b)])
                for c in members(b, k, rays.CombIndex(inner)):
                    instances += 1
                    deep_checked += 1
                    if not member(a, i, c):
                        failures.append(
                            {"property": 3, "a": a.text(), "b": b.text(), "c": c.text(), "i": i}
                        )
    return _report(
        "v-system",
        {"max_len": max_len, "max_norm": max_norm, "i_values": list(i_values)},
        instances,
        failures,
        {"population": len(population), "deep_instances": deep_checked},
    )


# -- round trip -------------------------------------------------------------------


def run_phi_psi(fp: FreeProduct, max_len: int = 4, max_norm: int = 2, tail_depth: int = 4) -> dict:
    population = rays.comb_population(fp, max_len=max_len, max_norm=max_norm)
    instances = 0
    failures = []
    for a in population:
        stored = sum(s.norm() for s in a.syllables)
        depth = stored + tail_depth
        ray = rays.realize(a, depth)
        instances += 1
        # the runs are read once, off the bare ray, and held against a as
        # a decomposition with provenance would hold its own runs
        try:
            observed = rays.decompose(fp, rays.TruncatedRay(ray.vertices))
            rays.validate_against(fp, observed.syllables, a)
        except ValueError as exc:
            failures.append({"a": a.text(), "reason": f"decompose: {exc}"})
            continue
        for pos in range(1, observed.stable_length + 1):
            if observed.syllable_at(pos) != a.syllable_at(pos):
                failures.append({"a": a.text(), "reason": f"stable syllable {pos} differs"})
                break
        else:
            rebuilt = rays.realize(observed, depth, validate=False)
            if rebuilt.vertices != ray.vertices:
                failures.append({"a": a.text(), "reason": "rebuild differs"})
    return _report(
        "phi-psi",
        {"max_len": max_len, "max_norm": max_norm, "tail_depth": tail_depth},
        instances,
        failures,
    )


# -- matching reports ----------------------------------------------------------------


def duality_report(state: matching.MatchState, k_values=(1, 2, 3)) -> dict:
    gauge = state.gauge
    shift = morse.rational_ceil(4 * gauge.delta)
    thresholds = [(k, morse.tracking_bound(gauge, k + shift)) for k in k_values]
    checked = 0
    vacuous = 0
    failures = []
    elements = sorted(state.meta, key=lambda x: (x.spec.id, x.sort_key()))
    for x in elements:
        direction = state.meta[x]["direction"]
        if direction is None:
            continue
        for k, threshold in thresholds:
            if x.norm() < threshold:
                vacuous += 1
                continue
            checked += 1
            # the ray inside the unfilled neighborhood of x's one geodesic
            # (a threshold is at least k, so x reaches the depth), and x
            # inside the filled neighborhood of the ray
            ok1 = morse.tree_close(gauge, k, factors.shared_steps(x, direction, k))
            ok2 = matching.filled_member(gauge, k, direction, x)
            if not (ok1 and ok2):
                failures.append({"x": repr(x), "k": k, "ray_near_x": ok1, "x_near_ray": ok2})
    return {
        "checked": checked,
        "below_threshold": vacuous,
        "failures": failures,
    }


def bijectivity_report(state: matching.MatchState) -> dict:
    forward_ok = all(state.backward.get(y) == x for x, y in state.forward.items())
    backward_ok = all(state.forward.get(x) == y for y, x in state.backward.items())
    injective = len(set(state.forward.values())) == len(state.forward)
    identity_ok = state.forward.get(state.source.identity()) == state.target.identity()
    rounds = state.steps_taken // 2
    prefix_ok = True
    for i in range(rounds):
        xs = state._enum_src.get(i)
        ys = state._enum_tgt.get(i)
        if xs is not None and xs not in state.forward:
            prefix_ok = False
        if ys is not None and ys not in state.backward:
            prefix_ok = False
    return {
        "pairs": len(state.forward),
        "mutually_inverse": forward_ok and backward_ok,
        "injective": injective,
        "identity_fixed": identity_ok,
        "alternation_prefix_matched": prefix_ok,
        "ok": forward_ok and backward_ok and injective and identity_ok and prefix_ok,
    }


def induced_containment_report(pm: matching.ProductMatching, l_values=(1, 2, 3), max_len: int = 3, max_norm: int = 2, sample_stride: int = 7) -> dict:
    population = rays.comb_population(pm.fp1, max_len=max_len, max_norm=max_norm)
    index = rays.CombIndex(population)
    infinite_sample = [a for a in population if a.kind == rays.INFINITE][::sample_stride]
    gauge = pm.a.gauge
    instances = 0
    failures = []
    # each ray's image, by identity within the population; the match tables
    # only grow, so mapping a ray again would give the same image
    images: dict[int, rays.CombRay] = {}

    def image(a: rays.CombRay) -> rays.CombRay:
        out = images.get(id(a))
        if out is None:
            out = images[id(a)] = matching.induced_map(pm, a)
        return out

    for a in infinite_sample:
        image_a = image(a)
        for l in l_values:
            image_nbhd = rays.CombNeighborhood(image_a, l, gauge)
            for b in index.members(rays.CombNeighborhood(a, l, gauge)):
                instances += 1
                if not rays.comb_neighborhood_member(image_nbhd, image(b)):
                    failures.append({"a": a.text(), "b": b.text(), "l": l})
    return {"instances": instances, "sampled": len(infinite_sample), "failures": failures}


def match_report(
    pm: matching.ProductMatching,
    duality_ks=(1, 2, 3),
    containment_ls=(1, 2, 3),
    continuity_ls=(1, 2, 3),
    continuity_ball: int = 12,
    continuity_k_max: int = 12,
) -> dict:
    report: dict = {"pairs": {}}
    ok = True
    for name, state in (("A", pm.a), ("B", pm.b)):
        bij = bijectivity_report(state)
        dual = duality_report(state, duality_ks)
        transcripts_ok = all(
            rec.get("certified", True) for rec in state.records if rec.get("branch") == "boundary"
        )
        entry = {
            "bijectivity": bij,
            "duality": dual,
            "transcripts_certified": transcripts_ok,
        }
        if state.source.has_boundary():
            cont = {}
            for z in rays.standard_line(state.source):
                for l in continuity_ls:
                    r = matching.check_continuity(
                        state, z, l, ball_norm=continuity_ball, k_max=continuity_k_max
                    )
                    cont[f"{z.format()}|l={l}"] = {
                        "status": r["status"],
                        "found_k": r["found"]["k"] if r["found"] else None,
                    }
                    if r["status"] != "verified":
                        ok = False
            entry["continuity"] = cont
        report["pairs"][name] = entry
        if not (bij["ok"] and transcripts_ok and not dual["failures"]):
            ok = False
    containment = induced_containment_report(pm, containment_ls)
    report["induced_containment"] = {
        "instances": containment["instances"],
        "failures": containment["failures"][:10],
    }
    if containment["failures"]:
        ok = False
    report["status"] = "pass" if ok else "fail"
    return report
