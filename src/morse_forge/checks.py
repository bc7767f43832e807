"""Exhaustive finite-ball checks behind the CLI and the acceptance suite.

Every check reports the instance count it actually covered plus any
counterexamples; an empty instance family is flagged vacuous rather than
passed silently.
"""

from __future__ import annotations

import contextlib
import itertools
import marshal
import os
import threading

from . import factors, matching, morse, rays
from .errors import BudgetExceeded, CapExceeded
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


def _shared(work, n: int, cost) -> list:
    """[work(0), ..., work(n - 1)], shared out between this process and one
    forked child per further CPU, at most n - 1.

    Every process claims the next item, in descending ``cost`` (ties in
    index order), from a queue of 4-byte indices in a pipe until the queue
    is empty.  A child sends its results back with ``marshal``, so they
    must be plain values, and always ends in ``os._exit``.  A process whose
    item raises drains the queue.  Once the children are reaped, this
    process runs each item that still has no result, in index order, so
    it raises exactly what the plain loop raises.  With one CPU or one
    item, without ``os.fork``, or while another thread runs, this is the
    plain loop.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    helpers = min(cpus, n) - 1
    if helpers < 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [work(i) for i in range(n)]
    queue, feed = os.pipe()
    order = b"".join(i.to_bytes(4, "little") for i in sorted(range(n), key=cost, reverse=True))
    os.set_blocking(feed, False)
    # 512 bytes, POSIX's least PIPE_BUF, go in whole or not at all; items
    # left out of a full pipe get no result and run here at the end
    with contextlib.suppress(BlockingIOError):
        for start in range(0, len(order), 512):
            os.write(feed, order[start : start + 512])
    os.close(feed)

    def claim() -> dict:
        done = {}
        while index := os.read(queue, 4):
            i = int.from_bytes(index, "little")
            try:
                done[i] = work(i)
            except Exception:  # left without a result, the item runs again at the end
                while os.read(queue, 1 << 16):
                    pass
        return done

    children = []  # (pid, its reply pipe)
    try:
        for _ in range(helpers):
            reply, send = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    with open(send, "wb") as out:
                        out.write(marshal.dumps(claim()))
                finally:
                    os._exit(0)
            os.close(send)
            children.append((pid, open(reply, "rb")))
        done = claim()
        for _pid, reply in children:
            with contextlib.suppress(EOFError, ValueError):  # a child that died sent nothing whole
                done.update(marshal.loads(reply.read()))
    finally:
        while os.read(queue, 1 << 16):  # each child stops after its current item
            pass
        os.close(queue)
        for pid, reply in children:
            reply.close()
            os.waitpid(pid, 0)
    return [done[i] if i in done else work(i) for i in range(n)]


# -- prefix transit ----------------------------------------------------------


def run_prefix_transit(fp: FreeProduct, radius: int = 5, slack: int = 2, path_cap: int | None = None, vertex_budget: int | None = None) -> dict:
    """Every walk e -> w of length <= |w| + slack in the ball passes each
    syllable prefix of w.

    The walks are counted, not listed: ``instances`` sums
    ``Ball.walk_counts``, and ``path_cap`` binds each target's count, so
    it binds before any listing.  Following w's gates toward e
    (``Ball.gates(0)``) meets every vertex that all in-ball walks e -> w
    pass, so a target whose required vertices lie on that chain passes
    at any length.  Only the other targets have their walks listed, and
    the listing decides them.
    """
    ball = Ball.build(fp, radius, vertex_budget)
    gate = ball.gates(0)
    limit = [d + slack for d in ball.dist]
    counts = ball.walk_counts(0, max(limit))
    instances = 0
    failures = []
    for w in range(1, len(ball)):
        walks = sum(counts[t][w] for t in range(limit[w] + 1))
        if path_cap is not None and walks > path_cap:
            raise CapExceeded(path_cap)
        instances += walks
        required = {ball.index_of(p) for p in fp.prefix_vertices(ball.vertex(w))}
        chain = {w}
        x = w
        while x:
            x = gate[x]
            chain.add(x)
        if required <= chain:
            continue
        for path in ball.enumerate_paths(0, w, limit[w]):
            if not required <= set(path):
                failures.append({"w": fp.format(ball.vertex(w)), "path": list(path)})
    return _report(
        "prefix-transit",
        {"radius": radius, "slack": slack},
        instances,
        failures,
        {"vertices": len(ball)},
    )


# -- projection --------------------------------------------------------------


def run_projection_qg(fp: FreeProduct, radius: int = 4, grid=((1, 0), (1, 2), (2, 1), (3, 0)), path_cap: int | None = None, vertex_budget: int | None = None) -> dict:
    """Every (lam, eps) quasi-geodesic walk between two vertices of the
    first factor's copy projects onto the copy within the lower bound and
    within the bound's Hausdorff distance of the walk (see
    ``projection_visitor``), for each grid point.

    One instance is one walk u -> v.  The pairs {u, v} of copy vertices
    fall into orbits under the ball's symmetries; ``instances`` counts the
    walks of one pair per orbit, ``instances_with_symmetry`` those of
    every pair.  An item is one (grid point, orbit pair): the scan from
    the end farther from e and, if it finds a failing walk, a plain rescan
    u -> v that lists every failing walk in search order.  Items may run
    in a forked child (``_shared``); the report takes them in item order.
    """
    ball = Ball.build(fp, radius, vertex_budget)
    proj_map = [
        ball.index_of(fp.embed(fp.project_to_factor(w, fp.a.id))) for w in ball.vertices
    ]
    n = len(ball)
    # the projection retracts onto the factor copy, so it fixes exactly the copy
    copy_a = [i for i in range(n) if proj_map[i] == i]
    # the visitor reads the rows of projected values only, which lie in the copy
    dist = [ball.row(i) if proj_map[i] == i else None for i in range(n)]
    symmetries = morse.BranchSymmetries(ball)
    # the group moves the copy only by the A automorphisms at the root
    images = [symmetries.image[u] for u in copy_a]
    orbits: dict[tuple[int, int], int] = {}
    for ui in range(len(copy_a)):
        for vi in range(ui, len(copy_a)):
            orbit = {(x, y) if x <= y else (y, x) for x, y in zip(images[ui], images[vi])}
            orbits[min(orbit)] = len(orbit)
    # the largest d(x, pi(x)) over a walk is the Hausdorff distance between
    # the walk and its projection (see projection_visitor)
    proj_gap = [dist[proj_map[i]][i] for i in range(n)]
    instances = 0
    covered = 0
    failures = []
    bounds = [morse.qg_bound(lam, eps) for lam, eps in grid]

    def scan(bound, least, u, v, symmetries):
        bad: list = []
        visit = projection_visitor(dist, proj_map, proj_gap, v, least, bound.hausdorff, bad)
        walks = morse.scan_quasi_geodesics(ball, u, v, bound, visit, PROJECTION_START, path_cap, symmetries)
        return walks, bad

    # no enumerated walk is longer than max_len of the ball's diameter
    leasts = [bound.least.upto(bound.max_len(2 * radius)) for bound in bounds]
    items = [(bound, least, u, v) for bound, least in zip(bounds, leasts) for u, v in sorted(orbits)]

    def pair(k):
        bound, least, u, v = items[k]
        # one walk per orbit of the stabilizer of both ends.  Reversal maps
        # the walks u -> v one to one onto the walks v -> u, and keeps the
        # (lam, eps) inequality, the stabilizer of the ends, the projected
        # lower bound (pairwise in the index gap) and the largest
        # d(x, pi(x)); so the scan starts from the end farther from e,
        # where it tries fewer steps.  A tie keeps (u, v): reversing those
        # too tries more on Z^2 * Z (radius 2, (2, 2): 75,508 steps against
        # 73,188).  A failing pair is searched again plainly as (u, v), so
        # reports do not change
        far = (v, u) if ball.dist[v] > ball.dist[u] else (u, v)
        walks, bad = scan(bound, least, *far, symmetries)
        if bad:  # list every failing walk, as the plain search meets them
            walks, bad = scan(bound, least, u, v, None)
        return walks, bad

    def longest(k):
        bound, _least, u, v = items[k]
        return bound.max_len(dist[u][v])

    for (bound, _least, u, v), (walks, bad) in zip(items, _shared(pair, len(items), longest)):
        instances += walks
        covered += walks * orbits[u, v]
        for walk, reason in bad:
            failures.append({"lam": str(bound.lam), "eps": str(bound.eps), "walk": list(walk), "reason": reason})
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
#: no run value (-1 is no vertex), a deadline that the empty prefix meets,
#: largest d(x, pi(x)) so far 0.
PROJECTION_START = (0, -1, 0, 0)


def projection_slack(least) -> list[int]:
    """slack[d] for every d < len(least): the widest index gap g with
    least[g] <= d, or 0 if there is none.  ``least`` is left as it is."""
    widest = [0] * len(least)
    for g, d in enumerate(least):
        if d < len(widest):
            widest[d] = g
    return list(itertools.accumulate(widest, max))


def projection_visitor(dist, proj_map, proj_gap, v, least, haus_bound, failures):
    """A ``morse.scan_quasi_geodesics`` visitor that decides for each walk
    ending at v whether its projection pi(walk) breaks the lower bound
    ``least`` (indexed by index gap) or lies farther than ``haus_bound``
    from the walk in Hausdorff distance.  Failing walks are appended to
    ``failures`` as (walk, reason) in search order.

    The projected path is kept as runs of constant value, (value, start)
    pairs in one list shared by the whole search.  Since ``least`` never
    decreases, a run k that starts at s_k and reaches index t breaks the
    bound against an earlier run i exactly when least[t - s_i] >
    d(p_i, p_k), that is when t > s_i + slack[d(p_i, p_k)]
    (``projection_slack``), and within itself when t > s_k + slack[0].
    So each run gets one deadline when it opens, the least of these, and
    every later visit of the run only compares its index with it.  A
    prefix's state holds its run count, its run's value and deadline;
    opening a run cuts the list back to its parent's runs.  A prefix past
    its deadline stays broken in every extension: it opens no more runs,
    so its deadline stays behind.

    The Hausdorff distance between a walk and its projected values is
    the largest d(x, pi(x)) over the walk, the state's ``worst``.  In a
    free product a vertex x reaches the factor copy only through pi(x), a
    cut vertex, so d(x, pi(x)) is x's distance to the copy and to the
    projected values; and each projected value pi(x) lies d(x, pi(x))
    from the walk vertex x.
    """
    runs: list[tuple[int, int]] = []
    slack = projection_slack(least)
    within = slack[0]

    def visit(state, walk):
        nruns, here, due, worst = state
        t = len(walk) - 1
        x = walk[t]
        if proj_gap[x] > worst:
            worst = proj_gap[x]
        if t <= due + 1:  # the parent met its deadline
            p = proj_map[x]
            if p != here:
                del runs[nruns:]
                due = t + within
                row = dist[p]
                for value, start in runs:
                    latest = start + slack[row[value]]
                    if latest < due:
                        due = latest
                runs.append((p, t))
                nruns += 1
                here = p
        if x == v:
            if t > due:
                failures.append((tuple(walk), "projection lower bound"))
            elif worst > haus_bound:
                failures.append((tuple(walk), "hausdorff bound"))
        return nruns, here, due, worst

    return visit


# -- concatenation ------------------------------------------------------------


#: The most geodesics from e to one vertex that ``run_concat_qg`` takes;
#: it refuses a vertex with more.
GEODESIC_CAP = 64


def run_concat_qg(fp: FreeProduct, radius: int = 4, qg_norm_limit: int = 2, path_cap: int | None = None, vertex_budget: int | None = None) -> dict:
    """Two vertices near a walk gamma, joined through their closest points
    on gamma, give a (3 lam, eps + 1) quasi-geodesic whenever those points
    meet the separation hypothesis.

    gamma is each geodesic from e in the ball, at (1, 0), and each (1, 2)
    quasi-geodesic from e to a vertex of norm <= ``qg_norm_limit``.  One
    instance is one pair (p, q) near one gamma that meets the hypothesis
    (``morse.separated_concatenations``).  An item is one gamma of two or
    more vertices with all its joins.  Items may run in a forked child
    (``_shared``); the report takes them in gamma order.
    """
    ball = Ball.build(fp, radius, vertex_budget)
    geodesic_paths: list[tuple[int, ...]] = []
    qg_paths: list[tuple[int, ...]] = []
    for w in range(len(ball)):
        geodesics = ball.enumerate_geodesics(0, w)
        if len(geodesics) > GEODESIC_CAP:
            raise BudgetExceeded(f"checks.GEODESIC_CAP {GEODESIC_CAP} exceeded: more geodesics from e to {fp.format(ball.vertex(w))}")
        geodesic_paths.extend(geodesics)
        if ball.dist[w] <= qg_norm_limit:
            qg_paths.extend(morse.enumerate_quasi_geodesics(ball, 0, w, 1, 2, path_cap))
    families = (("geodesic", 1, 0, geodesic_paths), ("qg", 1, 2, qg_paths))
    items = [(name, lam, eps, gamma) for name, lam, eps, paths in families for gamma in paths if len(gamma) >= 2]
    instances = 0
    failures = []

    def joins(k):
        _name, lam, eps, gamma = items[k]
        return morse.separated_concatenations(ball, gamma, lam, eps)

    for (name, _lam, _eps, gamma), (count, failed) in zip(items, _shared(joins, len(items), lambda k: len(items[k][3]))):
        instances += count
        for p, q, cert in failed:
            failures.append({"family": name, "gamma": list(gamma), "p": p, "q": q, "certificate": cert})
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


#: The depths l whose nesting ``run_nbhd_nesting`` checks, and how many
#: depths past the nesting constant k it takes its points from.
NESTING_DEPTHS = (1, 2, 3)
NESTING_PAD = 2


def run_nbhd_nesting(spec: factors.FactorSpec, gauge: morse.Gauge = morse.CANONICAL_TREE_GAUGE) -> dict:
    space = factors.FactorSpace(spec)
    plus, minus = rays.standard_line(spec)
    instances = 0
    failures = []
    checked_pairs = 0
    for z in (plus, minus):
        for l in NESTING_DEPTHS:
            k = morse.nesting_constant(l, gauge)
            ys = []
            for depth in range(k, k + NESTING_PAD + 1):
                ys.append(z.realization(depth)[-1])
                for d in _branched_directions(spec, [depth - 1]):
                    ys.append(d.realization(depth)[-1])
            center_k = (z.realization(k),)
            ys = [y for y in ys if morse.neighborhood_member(space, gauge, k, center_k, y)]
            directions = [plus, minus] + _branched_directions(spec, [k - 1, k, k + 1])
            elements = [z.realization(d)[-1] for d in range(k, k + NESTING_PAD + 1)]
            target = (z.realization(l),)
            for y in ys:
                checked_pairs += 1
                inner = space.geodesics(space.identity(), y)  # every realization of y
                for w in directions:
                    if morse.neighborhood_member(space, gauge, k, inner, w.realization(k)):
                        instances += 1
                        if not morse.neighborhood_member(space, gauge, l, target, w.realization(l)):
                            failures.append({"z": z.format(), "l": l, "y": repr(y), "w": w.format()})
                for w in elements:
                    if w.norm() < k:
                        continue
                    if morse.neighborhood_member(space, gauge, k, inner, w):
                        instances += 1
                        if not morse.neighborhood_member(space, gauge, l, target, w):
                            failures.append({"z": z.format(), "l": l, "y": repr(y), "w": repr(w)})
    return _report(
        "nbhd-nesting",
        {"factor": spec.id, "l_values": list(NESTING_DEPTHS)},
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
    table = rays.Spellings()
    realized = [rays.realize(a, depth, table) for a in population]
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
            out.append(rays.CombRay(fp, a.syllables + (deep,), tail=end))
    first = next_spec.power(0, 1)
    second = tail_spec.power(0, 1)
    out.append(rays.CombRay(fp, a.syllables + (deep,), repeat=(first, second)))
    return out


def _extend_infinite(b: rays.CombRay) -> rays.CombRay:
    nxt = b.repeat[0]
    rotated = b.repeat[1:] + b.repeat[:1]
    return rays.CombRay(b.fp, b.syllables + (nxt,), repeat=rotated)


#: The stride of ``run_v_system``'s sample of centers for property 3.
V_SYSTEM_STRIDE = 21


def run_v_system(
    fp: FreeProduct,
    gauge: morse.Gauge = morse.CANONICAL_TREE_GAUGE,
    i_values=(1, 2, 3),
    max_len: int = 4,
    max_norm: int = 2,
) -> dict:
    population = rays.comb_population(fp, max_len=max_len, max_norm=max_norm)
    index = rays.CombIndex(population)
    max_k = max(i_values) + 1
    failures = []
    instances = 0

    # property 1: a in V_k(a) for all k
    for a in population:
        for k in range(1, max_k + 1):
            instances += 1
            if not rays.comb_neighborhood_member(a, k, gauge, a):
                failures.append({"property": 1, "a": a.text(), "k": k})
    # property 2: V_max(i,j)(a) inside V_i(a) and V_j(a), one instance per
    # (b, i, j); only the deeper neighborhood's members can break it
    pairs = [(i, j) for i in i_values for j in i_values]
    for a in population:
        inside = {k: index.members(a, k, gauge) for k in set(i_values)}
        inside_ids = {k: {id(b) for b in bs} for k, bs in inside.items()}
        instances += len(population) * len(pairs)
        for i, j in pairs:
            shallow = inside_ids[min(i, j)]
            for b in inside[max(i, j)]:
                if id(b) not in shallow:
                    failures.append({"property": 2, "a": a.text(), "b": b.text()})
    # property 3, infinite centers: j = i + 1 and k = j
    sample = population[::V_SYSTEM_STRIDE]
    for a in sample:
        if not a.repeat:
            continue
        for i in i_values:
            j = i + 1
            for b in index.members(a, j, gauge):
                for c in index.members(b, j, gauge):
                    instances += 1
                    if not rays.comb_neighborhood_member(a, i, gauge, c):
                        failures.append(
                            {"property": 3, "a": a.text(), "b": b.text(), "c": c.text(), "i": i}
                        )
    # property 3, finite centers: j from the nesting constant
    deep_checked = 0
    for a in sample:
        if a.tail is None:
            continue
        for i in i_values:
            j = morse.nesting_constant(i, gauge)
            for b in rays.neighbors(a, j, gauge, [a] + _deep_witnesses(a, j)):
                k = j if b.tail is not None else len(a.syllables) + 1
                inner = [b] + (_deep_witnesses(b, j) if b.tail is not None else [_extend_infinite(b)])
                for c in rays.neighbors(b, k, gauge, inner):
                    instances += 1
                    deep_checked += 1
                    if not rays.comb_neighborhood_member(a, i, gauge, c):
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


#: phi-psi's population: rays of at most 4 syllables of norm at most 2,
#: each realized 4 steps past its syllables
PHI_PSI_MAX_LEN = 4
PHI_PSI_MAX_NORM = 2
PHI_PSI_TAIL_DEPTH = 4


def run_phi_psi(fp: FreeProduct) -> dict:
    population = rays.comb_population(fp, max_len=PHI_PSI_MAX_LEN, max_norm=PHI_PSI_MAX_NORM)
    # one table of syllable geodesics and tail realizations for the run
    table = rays.Spellings()
    instances = 0
    failures = []
    for a in population:
        depth = sum(s.norm() for s in a.syllables) + PHI_PSI_TAIL_DEPTH
        ray = rays.realize(a, depth, table)
        instances += 1
        # the runs are read once, off the ray, by the certificate that it is
        # a geodesic, and held against a; that covers every stable syllable
        try:
            observed = rays.certify_geodesic(fp, ray)
            rays.validate_against(observed, a, table)
        except ValueError as exc:
            failures.append({"a": a.text(), "reason": f"decompose: {exc}"})
            continue
        # the stable runs equal a's syllables, so the rebuild reads their
        # geodesics from the entries that realize read and compares nothing
        # new there.  The growing last run is spelled by its own geodesic:
        # on a finite ray the comparison is independent there and in the
        # tail, whose realization is held against that geodesic
        if tuple(rays.spell(fp, observed, depth, table)) != ray:
            failures.append({"a": a.text(), "reason": "rebuild differs"})
    return _report(
        "phi-psi",
        {"max_len": PHI_PSI_MAX_LEN, "max_norm": PHI_PSI_MAX_NORM, "tail_depth": PHI_PSI_TAIL_DEPTH},
        instances,
        failures,
    )


# -- matching reports ----------------------------------------------------------------


#: The depths k of duality and l of induced containment and continuity
#: that a match report checks.
MATCH_DEPTHS = (1, 2, 3)
#: The induced-containment population, and the stride of its sample of
#: infinite rays.
CONTAINMENT_MAX_LEN = 3
CONTAINMENT_MAX_NORM = 2
CONTAINMENT_STRIDE = 7


def duality_report(state: matching.MatchState) -> dict:
    gauge = state.gauge
    shift = morse.rational_ceil(4 * gauge.delta)
    thresholds = [(k, morse.tracking_bound(gauge, k + shift)) for k in MATCH_DEPTHS]
    checked = 0
    vacuous = 0
    failures = []
    for x in sorted(state.directions, key=lambda x: (x.spec.id, x.sort_key())):
        direction = state.directions[x]
        for k, threshold in thresholds:
            if x.norm() < threshold:
                vacuous += 1
                continue
            checked += 1
            # the ray inside the unfilled neighborhood of x's one geodesic
            # (a threshold is at least k, so x reaches the depth), and x
            # inside the filled neighborhood of the ray
            ok1 = morse.factor_close(gauge, k, x, direction)
            ok2 = morse.factor_close(gauge, k, direction, x)
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


def induced_containment_report(pm: matching.ProductMatching) -> dict:
    population = rays.comb_population(pm.fp1, max_len=CONTAINMENT_MAX_LEN, max_norm=CONTAINMENT_MAX_NORM)
    index = rays.CombIndex(population)
    infinite_sample = [a for a in population if a.repeat][::CONTAINMENT_STRIDE]
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
        for l in MATCH_DEPTHS:
            for b in index.members(a, l, gauge):
                instances += 1
                if not rays.comb_neighborhood_member(image_a, l, gauge, image(b)):
                    failures.append({"a": a.text(), "b": b.text(), "l": l})
    return {"instances": instances, "sampled": len(infinite_sample), "failures": failures}


def match_report(pm: matching.ProductMatching, continuity_ball: int = 12, continuity_k_max: int = 12) -> dict:
    report: dict = {"pairs": {}}
    ok = True
    # a finite ball cannot refute continuity: an element leaves V_k(z) once
    # k passes its shared steps, so a search without a verified k only
    # means that its budgets ran out
    settled = True
    for name, state in (("A", pm.a), ("B", pm.b)):
        bij = bijectivity_report(state)
        dual = duality_report(state)
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
                for l in MATCH_DEPTHS:
                    status, k = matching.check_continuity(
                        state, z, l, ball_norm=continuity_ball, k_max=continuity_k_max
                    )
                    cont[f"{z.format()}|l={l}"] = {"status": status, "found_k": k}
                    if status != "verified":
                        settled = False
            entry["continuity"] = cont
        report["pairs"][name] = entry
        if not (bij["ok"] and transcripts_ok and not dual["failures"]):
            ok = False
    containment = induced_containment_report(pm)
    report["induced_containment"] = {
        "instances": containment["instances"],
        "failures": containment["failures"][:10],
    }
    if containment["failures"]:
        ok = False
    report["status"] = "fail" if not ok else "pass" if settled else "inconclusive"
    return report
