"""Quasi-geodesic predicates, gauges and gauge-indexed neighborhoods.

A gauge maps stability parameters (lam, eps) to a deviation bound.  All
derived constants are evaluated exactly over rationals; table gauges
never interpolate, they either hold the probe point or fail loudly.
This module alone knows the (lam, eps) inequality: a ``QGBound`` turns it
into int tables, which every quasi-geodesic verdict reads; a check makes
one bound per pair and passes it on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import factors
from .errors import (
    BallTooSmall,
    BudgetExceeded,
    CapExceeded,
    GridMiss,
    PossiblyTruncated,
)
from .graph import Ball


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def rational_ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class Gauge:
    """A deviation bound, either affine in (lam, eps) or a finite table.

    An affine gauge has ``coeffs``; a table gauge has none, only
    ``entries``.  Table gauges record the ball radius at which their
    entries were certified; claims made with them are scoped to that
    radius.
    """

    coeffs: tuple[Fraction, Fraction, Fraction] | None = None
    entries: tuple[tuple[tuple[Fraction, Fraction], Fraction], ...] = ()
    certified_radius: int | None = None

    def __post_init__(self):
        if self.coeffs is not None and any(c < 0 for c in self.coeffs):
            raise ValueError("affine gauges need non-negative coefficients")
        for (lam, eps), bound in self.entries:
            if lam < 1 or eps < 0 or bound < 0:
                raise ValueError("table entries need lam >= 1, eps >= 0, bound >= 0")
        # monotone in both arguments wherever comparable
        for (p1, b1) in self.entries:
            for (p2, b2) in self.entries:
                if p1[0] <= p2[0] and p1[1] <= p2[1] and b1 > b2:
                    raise ValueError(f"table not monotone between {p1} and {p2}")

    @classmethod
    def affine(cls, a, b, c) -> "Gauge":
        return cls(coeffs=(_frac(a), _frac(b), _frac(c)))

    @classmethod
    def table(cls, entries, certified_radius: int | None = None) -> "Gauge":
        if isinstance(entries, dict):
            entries = entries.items()
        normalized = tuple(
            sorted(((_frac(l), _frac(e)), _frac(v)) for (l, e), v in entries)
        )
        return cls(entries=normalized, certified_radius=certified_radius)

    def value(self, lam, eps) -> Fraction:
        lam, eps = _frac(lam), _frac(eps)
        if self.coeffs is not None:
            a, b, c = self.coeffs
            return a * lam + b * eps + c
        for point, bound in self.entries:
            if point == (lam, eps):
                return bound
        raise GridMiss(f"table gauge has no entry at ({lam}, {eps})")

    def key(self) -> str:
        if self.coeffs is not None:
            a, b, c = self.coeffs
            return f"affine:{a}:{b}:{c}"
        body = ",".join(f"({l},{e})={v}" for (l, e), v in self.entries)
        return f"table:{body}"

    @functools.cached_property
    def delta(self) -> Fraction:
        """Closeness threshold max{4 g(1, 2 g(5,0)) + 2 g(5,0), 8 g(3,0)},
        computed once; table gauges must hold all three probe points."""
        m50 = self.value(5, 0)
        m30 = self.value(3, 0)
        m1 = self.value(1, 2 * m50)
        return max(4 * m1 + 2 * m50, 8 * m30)


#: Default gauge for tree-like testbeds: dominates every deviation seen on
#: the standard sample grid and keeps the derived closeness threshold small
#: and positive (delta = 5).
CANONICAL_TREE_GAUGE = Gauge.affine(0, Fraction(1, 2), Fraction(1, 2))


def tracking_bound(gauge: Gauge, t: int) -> Fraction:
    """Distance from the basepoint past which the corresponding ray tracks
    every realization on [0, t]: max{18 d, t + 6 d} with d the closeness
    threshold of the gauge.
    """
    d = gauge.delta
    return max(18 * d, t + 6 * d)


def nesting_constant(l: int, gauge: Gauge) -> int:
    """Depth at which gauge neighborhoods nest uniformly inside depth l."""
    d = gauge.delta
    return rational_ceil(max(_frac(l) + 4 * d, 12 * d))


# -- the (lam, eps) inequality and quasi-geodesic search --------------------


class _Table:
    """value(0), value(1), ... as ints, each computed on first use and kept."""

    def __init__(self, value):
        self.value = value
        self.items: list[int] = []

    def __call__(self, i: int) -> int:
        return self.upto(i)[i]

    def upto(self, n: int) -> list[int]:
        """The kept list, grown to cover index n; it may run further."""
        for i in range(len(self.items), n + 1):
            self.items.append(self.value(i))
        return self.items


class QGBound:
    """The (lam, eps) quasi-geodesic inequality on int distances.

    Walk vertices g steps apart at distance d satisfy it when
    least(g) <= d <= most(g), and a quasi-geodesic between vertices d apart
    has at most max_len(d) steps.  With lam = p/q and eps = r/s:

        least(g)   = max(0, ceil(g/lam - eps)) = max(0, ceil((g q s - r p) / (p s)))
        most(g)    = floor(lam g + eps)        = floor((g p s + r q) / (q s))
        max_len(d) = floor(lam (d + eps))      = floor(p (d s + r) / (q s))

    ``lam`` and ``eps`` stay Fractions for report text.
    """

    def __init__(self, lam, eps):
        self.lam, self.eps = _frac(lam), _frac(eps)
        if self.lam < 1 or self.eps < 0:
            raise ValueError(f"quasi-geodesics need lam >= 1 and eps >= 0, got ({lam}, {eps})")
        p, q = self.lam.numerator, self.lam.denominator
        r, s = self.eps.numerator, self.eps.denominator
        self.least = _Table(lambda g: max(0, -((r * p - g * q * s) // (p * s))))
        self.most = _Table(lambda g: (g * p * s + r * q) // (q * s))
        self.max_len = _Table(lambda d: p * (d * s + r) // (q * s))
        # how far, in Hausdorff distance, a quasi-geodesic's projection may lie
        self.hausdorff = (self.lam * self.lam * self.eps + self.eps + 1) // 1
        self._gap_scale, self._off_scale = q, 3 * p

    def separated(self, gap: int, off: int) -> bool:
        """The concatenation hypothesis |t - t'| >= 3 lam (d_p + d_q)."""
        return self._gap_scale * gap >= self._off_scale * off

    @functools.cached_property
    def concatenated(self) -> "QGBound":
        """(3 lam, eps + 1), which joins must meet; the +1 absorbs vertex discretization."""
        return QGBound(3 * self.lam, self.eps + 1)


def _holds(ball: Ball, walk: tuple[int, ...], bound: QGBound) -> bool:
    least, most = bound.least.upto(len(walk)), bound.most.upto(len(walk))
    for s, x in enumerate(walk):
        row = ball.row(x)
        for gap in range(1, len(walk) - s):
            if not least[gap] <= row[walk[s + gap]] <= most[gap]:
                return False
    return True


def _closest_point(ball: Ball, walk: tuple[int, ...], x: int) -> tuple[int, int]:
    """(distance, index) of the first walk vertex closest to x."""
    row = ball.row(x)
    return min((row[g], i) for i, g in enumerate(walk))


def _automorphism_group(spec) -> tuple:
    """``spec.automorphisms()``, refused unless they are distinct maps closed
    under composition.  Each is label-preserving, so it is fixed by its
    images of the generators."""
    maps = spec.automorphisms()
    gens = [spec.generator_element(g) for g in spec.generators()]
    images = {tuple(f(g) for g in gens) for f in maps}
    if len(images) != len(maps) or any(tuple(f(h(g)) for g in gens) not in images for f in maps for h in maps):
        raise ValueError(f"the automorphisms of factor {spec.id!r} do not form a group")
    return maps


class BranchSymmetries:
    """The branch-local automorphism group of a free-product ball, as the
    quasi-geodesic scan reads it.

    The Cayley graph of A * B is a tree of factor copies glued at cut
    vertices.  A branch point is a vertex p with a factor F that p's last
    syllable is not in; behind it hang the vertices p s ... with s in F.
    Relabelling each syllable by an automorphism of its factor, chosen
    independently at each syllable prefix, is an isometry that keeps norms,
    so it keeps the ball, ``Ball.row``, ``Ball.in_ball_row``, the gates and
    the projection onto the A copy.

    A subgroup that is a product over branch points is a list of masks, one
    per branch point, each a bit set over its factor's ``automorphisms()``.
    Branch point 0 is (e, A), len(ball) is (e, B), and a vertex x != e
    names (x, the factor other than its last syllable's).  Per vertex x:
    ``point[x]`` is the branch point x hangs off (0 for e), ``fix[x]`` the
    mask of the automorphisms there that fix x's last syllable (all of A's
    for e), ``image[x][i]`` the image of x under automorphism i there,
    and ``kids[x]`` the branch point of x's children.  x's neighbours are
    its parent, which any subgroup fixing x fixes, and vertices behind
    ``point[x]`` or ``kids[x]``; so the neighbours that are least in their
    orbit depend only on those two masks, and ``options`` lists them once
    per vertex and key, the two masks side by side in ``width`` bits each.
    """

    def __init__(self, ball: Ball):
        a, b = ball.space.a, ball.space.b
        parent, last, child = ball.parent, ball.last, ball.child
        n = len(ball)
        maps = {spec.id: _automorphism_group(spec) for spec in (a, b)}
        full_a = (1 << len(maps[a.id])) - 1
        full_b = (1 << len(maps[b.id])) - 1
        behind = {a.id: full_b, b.id: full_a}  # a vertex's children, by its factor
        self.neighbors = ball.neighbors
        self.parent = parent
        self.full = [full_a] + [behind[s.factor] for s in last[1:]] + [full_b]
        self.kids = [n] + list(range(1, n))
        self.width = max(full_a, full_b).bit_length()
        self.point, self.fix, self.image = [0], [full_a], [[0] * full_a.bit_length()]
        relabelled = {}  # each syllable's images under its factor's maps
        for y in range(1, n):
            p, s = parent[y], last[y]
            if s not in relabelled:
                relabelled[s] = [f(s) for f in maps[s.factor]]
            image = [child[p, t] for t in relabelled[s]]
            self.point.append(p or (0 if s.factor == a.id else n))
            self.fix.append(sum(1 << i for i, x in enumerate(image) if x == y))
            self.image.append(image)
        self.memo: list[dict[int, list[int]]] = [{} for _ in range(n)]

    def stabilizer(self, vertices) -> list[int]:
        """The masks of the subgroup that fixes every vertex given."""
        masks = list(self.full)
        for x in vertices:
            while x:
                masks[self.point[x]] &= self.fix[x]
                x = self.parent[x]
        return masks

    def options(self, x: int, masks) -> list[int]:
        """x's neighbours that are least in their orbit under the subgroup,
        which must fix x, in adjacency order."""
        mine, kids = masks[self.point[x]], masks[self.kids[x]]
        key = mine << self.width | kids
        out = self.memo[x].get(key)
        if out is None:
            out = self.memo[x][key] = []
            for y in self.neighbors[x]:
                m = kids if self.point[y] == self.kids[x] else mine
                image = self.image[y]
                if y == self.parent[x] or all(image[i] >= y for i in range(m.bit_length()) if m >> i & 1):
                    out.append(y)
        return out


def scan_quasi_geodesics(ball: Ball, u: int, v: int, bound: QGBound, visit, state, cap: int | None = None, symmetries=None) -> int:
    """Depth-first search over the bound's quasi-geodesic edge paths u -> v
    in the ball, one prefix per orbit of ``symmetries``; returns how many
    paths there are, orbits counted in full.

    ``symmetries`` is the ``BranchSymmetries`` of the ball, of which the
    search reads the stabilizer of u and v; None means the identity alone.
    The search keeps only prefixes that are least in their orbit, by
    canonical augmentation: a prefix p has the pointwise stabilizer H_p of
    its vertices, extends only by neighbours x that are least in their
    H_p-orbit, and gives each extension p's weight times that orbit's size.
    The weights of the walks it meets sum to the number of walks.  H_p is one mask per branch point, and a step to x
    changes only the mask of x's own branch point, ANDed with x's fixing
    automorphisms; by orbit-stabilizer, x's orbit size is the ratio of
    that mask's sizes before and after.  Under the identity alone every
    prefix has weight 1 and the search is the plain one.

    ``visit(state, walk)`` is called once on every prefix the search
    keeps, in search order, each prefix after its parent; ``walk`` is the
    search's own list, valid only during the call.  The state returned for
    a prefix is passed to the visits of its extensions, so a caller can
    carry work along shared prefixes instead of rescanning whole walks.  A
    prefix is a walk when it ends at v; it may still be extended.  A
    verdict that the symmetries preserve holds for every walk exactly when
    it holds for every walk visited.  ``cap`` is the path_cap budget on
    the weighted count: the walk that takes it past the cap stops the
    search with ``CapExceeded(cap)``, at the count the plain search stops
    at.

    The upper quasi-geodesic bound holds automatically for unit steps.  A
    step to x at index t is refused by four exact prunes, each reading only
    distances and the cut structure of the ball graph, which the
    symmetries preserve:

    - in-ball reachability: v is more than the length bound away from x
      along paths inside the ball;
    - end cap: the walk must end by s + max_len(d(w_s, v)) for every s,
      including x itself;
    - lower bound: d(w_s, x) < least(t - s) for some earlier s;
    - gate deadline: every path from x to v inside the ball passes x's
      nearest gate c, a cut vertex of the ball graph, so the walk passes c
      again no earlier than t + d_in(x, c).  That is too late once it is
      past s + max_len(d(w_s, c)) for some earlier s, and past c's own
      gate's deadline less d_in(c, gate).  The deadline of a gate is taken
      when the walk steps from c into the branch behind it (for u's gates,
      from u alone), since ``least`` never decreases.

    On Z*Z at radii 3 and 4 and on F2*Z at radius 2, every prefix the
    search keeps leads to a walk; on Z*Z at radius 3 and (2, 3), the
    branch-local group halves the 125,338 prefixes that the group of
    global factor automorphisms keeps, to 63,659.  Scanned from the end
    farther from e, as ``checks.run_projection_qg`` does, the projection
    pairs keep 58,079 there, and 17,171 instead of 18,746 on F2*Z at
    radius 2 and (2, 2).  Stationary steps are excluded:
    padding a quasi-geodesic with stays never changes its vertex set, so
    deviation and Hausdorff quantities are unaffected while the count
    explodes.
    """
    if symmetries is None:  # one branch point, whose mask 0 every vertex keeps
        point = fix = kids = [0] * len(ball)
        masks, memo, width, first = [0], [{0: ys} for ys in ball.neighbors], 0, ball.neighbors[u]
    else:
        point, fix, kids, memo, width = symmetries.point, symmetries.fix, symmetries.kids, symmetries.memo, symmetries.width
        masks = symmetries.stabilizer((u, v))
        first = symmetries.options(u, masks)
    # pair constraint against the final vertex caps the total length:
    # a walk visiting x at time s must finish by s + max_len(d(x, v))
    end_slack = bound.max_len.upto(2 * ball.radius)
    max_len = end_slack[ball.pair_distance(u, v)]
    min_need = bound.least.upto(max_len)
    first_need = end_slack[0] + 1  # least(gap) > 0 exactly when gap > lam * eps
    to_v = ball.in_ball_row(v)
    to_u = ball.in_ball_row(u)
    # a vertex that passes the reach prune at index t has t >= d_in(u, x)
    # and t + d_in(x, v) <= max_len, and no step from u passes it unless u
    # does, so only the rows of that ellipse are read; an index costs less
    # than a call per step
    rows = [ball.row(x) if to_u[x] + to_v[x] <= max_len else None for x in range(len(ball))]
    row_v = ball.row(v)
    gate = ball.gates(v)
    # The gates between the walk's last vertex and v, innermost first, as
    # nested (gate, due, outer) tuples.  due is the latest index at which
    # the walk may pass the gate plus the gate's in-ball distance to v, so a
    # step to x behind that gate is refused when t + to_v[x] > due.  v's own
    # entry never binds beyond the length bound.
    chain = (v, max_len, None)
    outward = []
    g = gate[u]
    while g != v:
        outward.append(g)
        g = gate[g]
    row_u = ball.row(u)
    for g in reversed(outward):
        chain = (g, min(end_slack[row_u[g]] + to_v[g], chain[1]), chain)
    count = 1 if u == v else 0
    # the current prefix's options, length bound, weight, visitor state,
    # gate chain and the chain of the branch behind its last vertex (None
    # until a step into that branch needs it); frames saves them for each
    # proper prefix of it, with the branch point and mask its step changed
    here, due, _outer = chain
    walk = [u]
    options = iter(first if max_len else ())
    top = min(max_len, end_slack[row_v[u]])
    weight = 1
    current = visit(state, walk)
    branch = None
    frames = []
    while True:
        nxt = next(options, None)
        if nxt is None:
            if not frames:
                return count
            walk.pop()
            options, top, weight, current, chain, branch, b, old = frames.pop()
            masks[b] = old
            here, due, _outer = chain
            continue
        t = len(walk)  # the index nxt would take
        limit = top
        cand = t + end_slack[row_v[nxt]]
        if cand < limit:
            limit = cand
        reach = t + to_v[nxt]
        if reach > limit:
            continue
        g = gate[nxt]
        if g == here:
            if reach > due:
                continue
            inner = chain
        else:
            if g == walk[-1]:
                # nxt lies in the branch behind the last vertex c, which
                # the walk must pass again at some index t' with
                # d(w_s, c) >= least(t' - s) for every earlier s
                if branch is None:
                    c = walk[-1]
                    row = rows[c]
                    back = min([s + end_slack[row[w]] for s, w in enumerate(walk)]) + to_v[c]
                    branch = (c, back if back < due else due, chain)
                inner = branch
            else:  # nxt is the gate of the last vertex
                inner = chain[2]
            if reach > inner[1]:
                continue
        row = rows[nxt]
        for s in range(t + 1 - first_need):  # widest gaps first: they bind
            if row[walk[s]] < min_need[t - s]:
                break
        else:
            walk.append(nxt)
            b = point[nxt]
            old = masks[b]
            new = old & fix[nxt]
            extended = weight if new == old else weight * (old.bit_count() // new.bit_count())
            if nxt == v:
                count += extended
                if cap is not None and count > cap:
                    raise CapExceeded(cap)
            if t < limit:
                frames.append((options, top, weight, current, chain, branch, b, old))
                masks[b] = new
                current = visit(current, walk)
                top = limit
                weight = extended
                # never empty: nxt's options hold one of each orbit of its neighbours
                options = iter(memo[nxt].get(new << width | masks[kids[nxt]]) or symmetries.options(nxt, masks))
                here, due, _outer = chain = inner
                branch = None
            else:
                visit(current, walk)
                walk.pop()


def enumerate_quasi_geodesics(ball: Ball, u: int, v: int, bound: QGBound, cap: int | None = None):
    """Every quasi-geodesic edge path u -> v in the ball within the bound,
    as tuples in search order (see ``scan_quasi_geodesics``)."""
    out: list[tuple[int, ...]] = []

    def collect(state, walk):
        if walk[-1] == v:
            out.append(tuple(walk))
        return state

    scan_quasi_geodesics(ball, u, v, bound, collect, None, cap)
    return out


def estimate_gauge(ball: Ball, verts: tuple[int, ...], grid, path_cap: int | None = None) -> Gauge:
    """Empirical table gauge for a geodesic: per grid point, the maximal
    deviation over every enumerated quasi-geodesic with endpoints on it.
    A pair of endpoints with more than ``path_cap`` of them raises
    ``CapExceeded``.  Every pair (u, u) has its trivial walk, so each grid
    point's maximum is taken over at least one walk.
    """
    # a path is geodesic, the (1, 0) bound, exactly when its steps are
    # edges and its ends lie as far apart as its length
    if ball.pair_distance(verts[0], verts[-1]) != len(verts) - 1 or any(
        ball.pair_distance(x, y) != 1 for x, y in zip(verts, verts[1:])
    ):
        raise ValueError("estimate_gauge needs a geodesic path")
    dev_to_path = [_closest_point(ball, verts, x)[0] for x in range(len(ball))]
    entries = {}

    def deepest(most: int, walk) -> int:
        # the state is the largest deviation along the prefix; a walk
        # ending at the current endpoint v raises the grid point's worst
        nonlocal worst
        x = walk[-1]
        if dev_to_path[x] > most:
            most = dev_to_path[x]
        if x == v and most > worst:
            worst = most
        return most

    for lam, eps in grid:
        bound = QGBound(lam, eps)
        worst = 0
        for i, u in enumerate(verts):
            for v in verts[i:]:
                scan_quasi_geodesics(ball, u, v, bound, deepest, 0, path_cap)
        entries[(lam, eps)] = worst  # Gauge.table makes Fractions of them
    return Gauge.table(entries, certified_radius=ball.radius)


# -- concatenation ----------------------------------------------------------


def _certificate(bound: QGBound, tp: int, tq: int, hypothesis: bool, verified: bool) -> dict:
    """A join's report entry: the closest points of p and q, whether the
    separation hypothesis held, and whether the join verified at the
    bound's ``concatenated`` pair."""
    out = bound.concatenated
    return {
        "lam": str(bound.lam),
        "eps": str(bound.eps),
        "closest_to_p": tp,
        "closest_to_q": tq,
        "hypothesis_held": hypothesis,
        "out_lam": str(out.lam),
        "out_eps": str(out.eps),
        "verified": verified,
    }


def _join(ball: Ball, walk: tuple[int, ...], p: int, t: int, q: int, t2: int, bound: QGBound) -> tuple[tuple[int, ...], bool]:
    """The walk p -> walk[t] -> walk[t2] -> q, and whether it holds the
    bound's ``concatenated`` pair."""
    try:
        alpha = ball.first_geodesic(p, walk[t])
        beta = ball.first_geodesic(walk[t2], q)
    except PossiblyTruncated as exc:
        raise BallTooSmall(
            f"budget ball_radius {ball.radius} too small: joining geodesics may leave the ball"
        ) from exc
    middle = walk[t : t2 + 1] if t <= t2 else walk[t2 : t + 1][::-1]
    combined = alpha + middle[1:] + beta[1:]
    return combined, _holds(ball, combined, bound.concatenated)


def concat_quasi_geodesic(ball: Ball, p: int, q: int, walk: tuple[int, ...], bound: QGBound) -> tuple[tuple[int, ...], dict]:
    """Join p and q to a quasi-geodesic walk through its closest points.

    Returns the joined walk and its certificate, the dict
    ``separated_concatenations`` reports a failing join with.
    """
    (dp, tp), (dq, tq) = _closest_point(ball, walk, p), _closest_point(ball, walk, q)
    combined, verified = _join(ball, walk, p, tp, q, tq, bound)
    return combined, _certificate(bound, tp, tq, bound.separated(abs(tp - tq), dp + dq), verified)


def separated_concatenations(ball: Ball, gamma: tuple[int, ...], bound: QGBound) -> tuple[int, list]:
    """How many pairs of vertices near gamma meet the separation
    hypothesis, and (p, q, certificate), in sorted order, for each of them
    whose join, as in ``concat_quasi_geodesic``, fails to verify.  Near
    means on gamma, or one step off it when floor(|gamma| / (3 lam)) >= 1,
    the hypothesis for a gap of |gamma| and an offset of 1.  Each vertex's
    closest point is found once.
    """
    near = set(gamma)
    if bound.separated(len(gamma) - 1, 1):
        for g in gamma:
            near.update(ball.neighbors[g])
    closest = [(x, *_closest_point(ball, gamma, x)) for x in sorted(near)]
    joins = 0
    failed = []
    for p, dp, tp in closest:
        for q, dq, tq in closest:
            if bound.separated(abs(tp - tq), dp + dq):
                joins += 1
                if not _join(ball, gamma, p, tp, q, tq, bound)[1]:
                    failed.append((p, q, _certificate(bound, tp, tq, True, False)))
    return joins, failed


# -- neighborhoods -----------------------------------------------------------


def tree_close(gauge: Gauge, depth: int, shared: int) -> bool:
    """Pointwise closeness up to ``depth`` of two geodesics from the
    basepoint of a tree that share their first ``shared`` steps.

    At step t they stand 2 * max(0, t - shared) apart, so the largest
    distance is the one at the depth; it passes when it is zero or below
    ceil(delta), as in ``neighborhood_member``.
    """
    return shared >= depth or 2 * (depth - shared) < rational_ceil(gauge.delta)


def factor_close(gauge: Gauge, depth: int, center, member) -> bool:
    """Whether ``member`` lies in the depth-``depth`` neighborhood of the
    geodesic from the identity toward ``center``, in one factor.

    Each of the two is a factor element or a boundary direction.  An
    element member is tested in the filled neighborhood, so its norm must
    reach the depth; a direction member is tested as its ray.  The line
    and free groups, the factors with a boundary, are trees, so closeness
    follows from the steps the two geodesics share
    (``factors.shared_steps``).  ``neighborhood_member`` is the pointwise
    definition it agrees with.
    """
    if isinstance(member, factors.FactorElement) and member.norm() < depth:
        return False
    return tree_close(gauge, depth, factors.shared_steps(member, center, depth))


def ray_tracking(gauge: Gauge, depth: int, center, member) -> tuple[bool, int]:
    """``factor_close`` for two boundary directions, with the largest
    pointwise distance between their rays read on the way, up to the
    first one that fails.

    Rays sharing s steps stand 2 * max(0, t - s) apart at step t, so the
    distances read are 0, ..., 0, 2, 4, ...; the first failing one is the
    least even distance >= max(1, ceil(delta)).
    """
    shared = factors.shared_steps(member, center, depth)
    if tree_close(gauge, depth, shared):
        return True, 2 * (depth - shared)
    return False, 2 * max(1, -(-rational_ceil(gauge.delta) // 2))


def neighborhood_member(space, gauge: Gauge, depth: int, centers, candidate) -> bool:
    """Pointwise membership in the depth-``depth`` neighborhood around
    ``centers``, one or several center realizations, each reaching the
    depth; the condition must hold against all of them.

    A sequence candidate is tested as a ray.  An element candidate is
    tested in the filled neighborhood, through its realizations: it must
    reach the depth, and some realization must stay within the closeness
    threshold of every center up to the depth.  Exactly coinciding points
    count as close even when the threshold is zero.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not centers:
        raise ValueError("need at least one center realization")
    if any(len(xi) < depth + 1 for xi in centers):
        raise ValueError("center realizations must reach the depth")
    # for an int d, d < delta iff d < ceil(delta); coinciding points pass at 0
    threshold = max(1, rational_ceil(gauge.delta))
    if isinstance(candidate, (tuple, list)):
        candidate_rays = [candidate]
    else:
        if space.distance(space.identity(), candidate) < depth:
            return False
        candidate_rays = space.geodesics(space.identity(), candidate)
    for eta in candidate_rays:
        if len(eta) < depth + 1:
            raise BudgetExceeded("candidate ray is shorter than the neighborhood depth")
        if all(space.distance(eta[t], xi[t]) < threshold for xi in centers for t in range(depth + 1)):
            return True
    return False
