"""Quasi-geodesic predicates, gauges and gauge-indexed neighborhoods.

A gauge maps stability parameters (lam, eps) to a deviation bound.  All
derived constants are evaluated exactly over rationals; table gauges
never interpolate, they either hold the probe point or fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BallTooSmall,
    BudgetExceeded,
    CapExceeded,
    GridMiss,
    PossiblyTruncated,
    RealizationCapExceeded,
)
from .graph import Ball, GraphPath

AFFINE = "affine"
TABLE = "table"


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def rational_ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class Gauge:
    """A deviation bound, either affine in (lam, eps) or a finite table.

    Table gauges record the ball radius at which their entries were
    certified; claims made with them are scoped to that radius.
    """

    kind: str
    coeffs: tuple[Fraction, Fraction, Fraction] | None = None
    entries: tuple[tuple[tuple[Fraction, Fraction], Fraction], ...] = ()
    certified_radius: int | None = None

    def __post_init__(self):
        if self.kind == AFFINE:
            if self.coeffs is None or any(c < 0 for c in self.coeffs):
                raise ValueError("affine gauges need non-negative coefficients")
        elif self.kind == TABLE:
            for (lam, eps), bound in self.entries:
                if lam < 1 or eps < 0 or bound < 0:
                    raise ValueError("table entries need lam >= 1, eps >= 0, bound >= 0")
            # monotone in both arguments wherever comparable
            for (p1, b1) in self.entries:
                for (p2, b2) in self.entries:
                    if p1[0] <= p2[0] and p1[1] <= p2[1] and b1 > b2:
                        raise ValueError(f"table not monotone between {p1} and {p2}")
        else:
            raise ValueError(f"unknown gauge kind {self.kind!r}")

    @classmethod
    def affine(cls, a, b, c) -> "Gauge":
        return cls(AFFINE, coeffs=(_frac(a), _frac(b), _frac(c)))

    @classmethod
    def table(cls, entries, certified_radius: int | None = None) -> "Gauge":
        if isinstance(entries, dict):
            entries = entries.items()
        normalized = tuple(
            sorted(((_frac(l), _frac(e)), _frac(v)) for (l, e), v in entries)
        )
        return cls(TABLE, entries=normalized, certified_radius=certified_radius)

    def value(self, lam, eps) -> Fraction:
        lam, eps = _frac(lam), _frac(eps)
        if self.kind == AFFINE:
            a, b, c = self.coeffs
            return a * lam + b * eps + c
        for point, bound in self.entries:
            if point == (lam, eps):
                return bound
        raise GridMiss(f"table gauge has no entry at ({lam}, {eps})")

    def grid(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(p for p, _v in self.entries)

    def key(self) -> str:
        if self.kind == AFFINE:
            a, b, c = self.coeffs
            return f"affine:{a}:{b}:{c}"
        body = ",".join(f"({l},{e})={v}" for (l, e), v in self.entries)
        return f"table:{body}"


def gauge_max(g1: Gauge, g2: Gauge) -> Gauge:
    """Pointwise maximum; the partial order's join."""
    if g1.kind == AFFINE and g2.kind == AFFINE:
        if all(x >= y for x, y in zip(g1.coeffs, g2.coeffs)):
            return g1
        if all(y >= x for x, y in zip(g1.coeffs, g2.coeffs)):
            return g2
        raise ValueError("affine gauges with crossing coefficients need a table grid")
    if g1.kind == TABLE and g2.kind == TABLE and g1.grid() != g2.grid():
        raise ValueError("table gauges must share a grid to take a maximum")
    grid = g1.grid() if g1.kind == TABLE else g2.grid()
    entries = {p: max(g1.value(*p), g2.value(*p)) for p in grid}
    radii = [r for r in (g1.certified_radius, g2.certified_radius) if r is not None]
    return Gauge.table(entries, certified_radius=min(radii) if radii else None)


#: Default gauge for tree-like testbeds: dominates every deviation seen on
#: the standard sample grid and keeps the derived closeness threshold small
#: and positive (delta = 5).
CANONICAL_TREE_GAUGE = Gauge.affine(0, Fraction(1, 2), Fraction(1, 2))


def delta_of(gauge: Gauge) -> Fraction:
    """Closeness threshold derived from a gauge.

    Evaluates max{4 g(1, 2 g(5,0)) + 2 g(5,0), 8 g(3,0)}; table gauges
    must hold all three probe points.
    """
    m50 = gauge.value(5, 0)
    m30 = gauge.value(3, 0)
    m1 = gauge.value(1, 2 * m50)
    return max(4 * m1 + 2 * m50, 8 * m30)


def tracking_bound(gauge: Gauge, t: int) -> Fraction:
    """Distance from the basepoint past which the corresponding ray tracks
    every realization on [0, t]: max{18 d, t + 6 d} with d the closeness
    threshold of the gauge.
    """
    d = delta_of(gauge)
    return max(18 * d, t + 6 * d)


def nesting_constant(l: int, gauge: Gauge) -> int:
    """Depth at which gauge neighborhoods nest uniformly inside depth l."""
    d = delta_of(gauge)
    return rational_ceil(max(_frac(l) + 4 * d, 12 * d))


# -- quasi-geodesic predicate and enumeration ------------------------------


def sequence_is_quasi_geodesic(dist, seq, lam, eps) -> bool:
    """Two-sided (lam, eps) check over all index pairs of a vertex sequence."""
    lam, eps = _frac(lam), _frac(eps)
    n = len(seq)
    for s in range(n):
        for t in range(s + 1, n):
            d = dist(seq[s], seq[t])
            gap = Fraction(t - s)
            if d > lam * gap + eps or d < gap / lam - eps:
                return False
    return True


def is_quasi_geodesic(ball: Ball, path: GraphPath, lam, eps) -> bool:
    return sequence_is_quasi_geodesic(ball.pair_distance, path.vertices, lam, eps)


def min_distance_profile(lam, eps, max_gap: int) -> list[int]:
    """Smallest admissible integer distance per index gap (0 if none)."""
    lam, eps = _frac(lam), _frac(eps)
    out = [0] * (max_gap + 1)
    for gap in range(1, max_gap + 1):
        need = Fraction(gap) / lam - eps
        out[gap] = max(0, rational_ceil(need))
    return out


def enumerate_quasi_geodesics(
    ball: Ball,
    u: int,
    v: int,
    lam,
    eps,
    cap: int | None = None,
):
    """Yield every (lam, eps)-quasi-geodesic edge path u -> v in the ball.

    The upper quasi-geodesic bound holds automatically for unit steps, so
    the search prunes on the lower bound and on in-ball reachability.
    Stationary steps are excluded: padding a quasi-geodesic with stays
    never changes its vertex set, so deviation and Hausdorff quantities
    are unaffected while the count explodes.
    """
    lam, eps = _frac(lam), _frac(eps)
    d_uv = ball.pair_distance(u, v)
    max_len = math.floor(lam * (d_uv + eps))
    min_need = min_distance_profile(lam, eps, max_len)
    first_need = next((gap for gap, need in enumerate(min_need) if need), max_len + 1)
    to_v = ball.in_ball_row(v)
    rows = [ball.row(i) for i in range(len(ball))]
    # pair constraint against the final vertex caps the total length:
    # a walk visiting x at time s must finish by s + floor(lam*(d(x,v)+eps))
    end_slack = [math.floor(lam * (d + eps)) for d in range(2 * ball.radius + 1)]
    row_v = rows[v]
    neighbor_lists = [[n for _s, n in row if n is not None] for row in ball.adjacency]
    count = 0
    out: list[tuple[int, ...]] = []
    if u == v:
        out.append((u,))
        count = 1
    walk = [u]
    bounds = [min(max_len, end_slack[row_v[u]])]
    # iterative DFS; each stack entry scans the options of one prefix
    stack = [iter(neighbor_lists[u] if max_len else ())]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            walk.pop()
            bounds.pop()
            continue
        done = len(walk) - 1
        back = to_v[nxt]
        bound = bounds[-1]
        cand = done + 1 + end_slack[row_v[nxt]]
        if cand < bound:
            bound = cand
        if done + 1 + back > bound:
            continue
        row = rows[nxt]
        ok = True
        gap = done + 1
        for s in range(done + 2 - first_need):  # widest gaps first: they bind
            if row[walk[s]] < min_need[gap - s]:
                ok = False
                break
        if not ok:
            continue
        walk.append(nxt)
        if nxt == v:
            count += 1
            if cap is not None and count > cap:
                raise CapExceeded(count)
            out.append(tuple(walk))
        if done + 1 < bound:
            bounds.append(bound)
            stack.append(iter(neighbor_lists[nxt]))
        else:
            walk.pop()
    return out


def estimate_gauge(ball: Ball, path: GraphPath, grid, path_cap: int | None = None) -> Gauge:
    """Empirical table gauge for a geodesic: per grid point, the maximal
    deviation over every enumerated quasi-geodesic with endpoints on it.
    """
    verts = path.vertices
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if ball.pair_distance(verts[i], verts[j]) != j - i:
                raise ValueError("estimate_gauge needs a geodesic path")
    dev_to_path = [
        min(ball.pair_distance(x, g) for g in verts) for x in range(len(ball))
    ]
    entries = {}
    for lam, eps in grid:
        worst = Fraction(0)
        seen = 0
        for i in range(len(verts)):
            for j in range(i, len(verts)):
                try:
                    walks = enumerate_quasi_geodesics(
                        ball, verts[i], verts[j], lam, eps, cap=path_cap
                    )
                except CapExceeded as exc:
                    raise BudgetExceeded(
                        f"more than {exc.count} quasi-geodesics at ({lam}, {eps})"
                    ) from exc
                for walk in walks:
                    seen += 1
                    for x in walk:
                        if dev_to_path[x] > worst:
                            worst = Fraction(dev_to_path[x])
        if seen == 0:
            raise BudgetExceeded("no admissible quasi-geodesics enumerated")
        entries[(_frac(lam), _frac(eps))] = worst
    return Gauge.table(entries, certified_radius=ball.radius)


# -- concatenation ----------------------------------------------------------


@dataclass(frozen=True)
class ConcatCertificate:
    lam: Fraction
    eps: Fraction
    closest_to_p: int
    closest_to_q: int
    hypothesis_held: bool
    out_lam: Fraction
    out_eps: Fraction
    verified: bool

    def to_json_dict(self) -> dict:
        return {
            "lam": str(self.lam),
            "eps": str(self.eps),
            "closest_to_p": self.closest_to_p,
            "closest_to_q": self.closest_to_q,
            "hypothesis_held": self.hypothesis_held,
            "out_lam": str(self.out_lam),
            "out_eps": str(self.out_eps),
            "verified": self.verified,
        }


def concat_quasi_geodesic(ball: Ball, p: int, q: int, path: GraphPath, lam, eps):
    """Join p and q to a quasi-geodesic through its closest points.

    Returns the concatenated walk plus a certificate recording whether
    the separation hypothesis held and whether the result verified at
    (3 lam, eps + 1); the +1 absorbs the vertex discretization.
    """
    lam, eps = _frac(lam), _frac(eps)
    verts = path.vertices
    t = min(range(len(verts)), key=lambda i: (ball.pair_distance(p, verts[i]), i))
    t2 = min(range(len(verts)), key=lambda i: (ball.pair_distance(q, verts[i]), i))
    dp = ball.pair_distance(p, verts[t])
    dq = ball.pair_distance(q, verts[t2])
    hypothesis = Fraction(abs(t - t2)) >= 3 * lam * (dp + dq)
    try:
        alpha = ball.first_geodesic(p, verts[t]).vertices
        beta = ball.first_geodesic(verts[t2], q).vertices
    except PossiblyTruncated as exc:
        raise BallTooSmall("joining geodesics may leave the ball") from exc
    middle = verts[t : t2 + 1] if t <= t2 else tuple(reversed(verts[t2 : t + 1]))
    combined = tuple(alpha) + tuple(middle[1:]) + tuple(beta[1:])
    out_lam, out_eps = 3 * lam, eps + 1
    verified = sequence_is_quasi_geodesic(ball.pair_distance, combined, out_lam, out_eps)
    cert = ConcatCertificate(lam, eps, t, t2, hypothesis, out_lam, out_eps, verified)
    return GraphPath(combined), cert


# -- neighborhoods -----------------------------------------------------------


@dataclass(frozen=True)
class Neighborhood:
    """A gauge-and-depth neighborhood around one or several center
    realizations.  With several centers the pointwise condition must hold
    against all of them; filled neighborhoods also admit group elements
    as candidates.
    """

    gauge: Gauge
    depth: int
    centers: tuple[tuple, ...]
    filled: bool = False

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not self.centers:
            raise ValueError("need at least one center realization")
        for c in self.centers:
            if len(c) < self.depth + 1:
                raise ValueError("center realizations must reach the depth")

    @classmethod
    def around_ray(cls, gauge: Gauge, depth: int, ray, filled: bool = False) -> "Neighborhood":
        verts = tuple(getattr(ray, "vertices", ray))
        return cls(gauge, depth, (verts,), filled)

    @classmethod
    def around_vertex(
        cls, space, gauge: Gauge, depth: int, x, filled: bool = True, cap: int | None = None
    ) -> "Neighborhood":
        """Center on a group element: the condition quantifies over every
        realization of it."""
        d = space.distance(space.identity(), x)
        if depth > d:
            raise ValueError(f"depth {depth} exceeds the element norm {d}")
        try:
            reals = space.geodesics(space.identity(), x, cap=cap)
        except CapExceeded as exc:
            raise RealizationCapExceeded(f"{exc.count} realizations") from exc
        return cls(gauge, depth, tuple(tuple(r) for r in reals), filled)


def neighborhood_member(space, nbhd: Neighborhood, candidate, cap: int | None = None) -> bool:
    """Pointwise membership test.

    Vertex candidates (filled neighborhoods only) are tested through
    their realizations: some realization must stay within the closeness
    threshold of all center realizations up to the depth.  Exactly
    coinciding points count as close even when the threshold is zero.
    """
    delta = delta_of(nbhd.gauge)
    if hasattr(candidate, "vertices"):
        candidate_rays = [tuple(candidate.vertices)]
    elif isinstance(candidate, (tuple, list)):
        candidate_rays = [tuple(candidate)]
    else:
        if not nbhd.filled:
            raise ValueError("group elements only belong to filled neighborhoods")
        if space.distance(space.identity(), candidate) < nbhd.depth:
            return False
        try:
            candidate_rays = [tuple(r) for r in space.geodesics(space.identity(), candidate, cap=cap)]
        except CapExceeded as exc:
            raise RealizationCapExceeded(f"{exc.count} realizations") from exc
    for eta in candidate_rays:
        if len(eta) < nbhd.depth + 1:
            raise BudgetExceeded("candidate ray is shorter than the neighborhood depth")
        ok = True
        for xi in nbhd.centers:
            for t in range(nbhd.depth + 1):
                d = space.distance(eta[t], xi[t])
                if d != 0 and d >= delta:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False
