"""Finite balls of a Cayley graph with exhaustive enumeration.

A ball is built by BFS over any "space": an object exposing
``identity() / generators() / step() / distance() / geodesics() /
sort_key() / format()``.  Both a free product and a single factor
qualify, so the same machinery serves as the brute-force oracle for
either metric.

Paths are vertex-index sequences; a step may be stationary.  Stationary
steps keep index sets intact under projection and make the path count
the right discrete analogue of a reparametrizable curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    CapExceeded,
    EndpointsOutsideFactor,
    PossiblyTruncated,
)


@dataclass(frozen=True)
class GraphPath:
    """A walk through ball vertices; consecutive entries adjacent or equal."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)


class Ball:
    """The radius-r ball around the identity, with exact metric data.

    ``distance`` is the BFS oracle and certifies its answers (see
    ``certified``); ``pair_distance`` is the closed-form metric of the
    underlying space and is always exact.
    """

    def __init__(self, space, radius, vertices, index, dist, adjacency):
        self.space = space
        self.radius = radius
        self.vertices = vertices
        self.index = index
        self.dist = dist
        self.adjacency = adjacency
        self._bfs_cache: dict[int, list[int | None]] = {}
        self._true_rows: dict[int, list[int]] = {}

    @classmethod
    def build(cls, space, radius: int, vertex_budget: int | None = None) -> "Ball":
        if radius < 0:
            raise ValueError("radius must be >= 0")
        e = space.identity()
        verts = [e]
        index = {e: 0}
        dist = [0]
        frontier = [e]
        for level in range(1, radius + 1):
            seen = {}
            for v in frontier:
                for gen in space.generators():
                    w = space.step(v, gen)
                    if w not in index and w not in seen:
                        seen[w] = None
            new = sorted(seen, key=space.sort_key)
            if vertex_budget is not None and len(verts) + len(new) > vertex_budget:
                raise BudgetExceeded(
                    f"ball needs at least {len(verts) + len(new)} vertices, budget is {vertex_budget}"
                )
            for w in new:
                index[w] = len(verts)
                verts.append(w)
                dist.append(level)
            frontier = new
            if not frontier:
                break
        adjacency = []
        for v in verts:
            row = []
            for gen in space.generators():
                w = space.step(v, gen)
                row.append((gen.symbol, index.get(w)))
            adjacency.append(tuple(row))
        return cls(space, radius, verts, index, dist, tuple(adjacency))

    def __len__(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int):
        return self.vertices[i]

    def index_of(self, v) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise KeyError(f"vertex {v!r} not in ball") from None

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(n for _s, n in self.adjacency[i] if n is not None)

    # -- metric -----------------------------------------------------------

    def _bfs_from(self, src: int) -> list[int | None]:
        cached = self._bfs_cache.get(src)
        if cached is not None:
            return cached
        out: list[int | None] = [None] * len(self.vertices)
        out[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for _s, n in self.adjacency[v]:
                    if n is not None and out[n] is None:
                        out[n] = out[v] + 1
                        nxt.append(n)
            frontier = nxt
        self._bfs_cache[src] = out
        return out

    def certified(self, u: int, v: int) -> bool:
        """True when every true geodesic u -> v stays inside the ball.

        A point splitting such a geodesic as a + b sits within
        min(d(e,u) + a, d(e,v) + b) <= (d(e,u) + d(e,v) + d(u,v)) / 2 of
        the basepoint, and the in-ball BFS value bounds d(u,v) above.
        """
        d = self._bfs_from(u)[v]
        return d is not None and self.dist[u] + self.dist[v] + d <= 2 * self.radius

    def distance(self, u: int, v: int) -> int:
        """Exact graph distance, certified by the ball; BFS-backed."""
        d = self._bfs_from(u)[v]
        if not self.certified(u, v):
            raise PossiblyTruncated(d)
        assert d is not None
        return d

    def _true_row(self, u: int) -> list[int]:
        row = self._true_rows.get(u)
        if row is None:
            vu = self.vertices[u]
            row = [self.space.distance(vu, w) for w in self.vertices]
            self._true_rows[u] = row
        return row

    def pair_distance(self, u: int, v: int) -> int:
        """Exact distance from the space's closed-form metric."""
        return self._true_row(u)[v]

    # -- enumeration --------------------------------------------------------

    def enumerate_geodesics(self, u: int, v: int, cap: int | None = None) -> list[GraphPath]:
        """All geodesic paths u -> v, in deterministic generator order."""
        if not self.certified(u, v):
            raise PossiblyTruncated(
                self._bfs_from(u)[v],
                message="geodesics between these endpoints may leave the ball",
            )
        to_v = self._bfs_from(v)
        out: list[GraphPath] = []
        count = 0

        def rec(cur: int, acc: list[int]):
            nonlocal count
            if cur == v:
                count += 1
                if cap is None or count <= cap:
                    out.append(GraphPath(tuple(acc)))
                return
            d = to_v[cur]
            for _s, n in self.adjacency[cur]:
                if n is not None and to_v[n] == d - 1:
                    acc.append(n)
                    rec(n, acc)
                    acc.pop()

        rec(u, [u])
        if cap is not None and count > cap:
            raise CapExceeded(count)
        return out

    def first_geodesic(self, u: int, v: int) -> GraphPath:
        """One true geodesic u -> v (the space's lexicographically first).

        Raises when that geodesic does not stay inside the ball.
        """
        words = self.space.first_geodesic(self.vertices[u], self.vertices[v])
        try:
            return GraphPath(tuple(self.index[w] for w in words))
        except KeyError:
            raise PossiblyTruncated(
                message="the first geodesic between these endpoints leaves the ball"
            ) from None

    def enumerate_paths(
        self, u: int, v: int, maxlen: int, cap: int | None = None
    ) -> list[GraphPath]:
        """All walks u -> v of length <= maxlen inside the ball.

        Walks may revisit vertices and may take stationary steps; the
        step order is "stay" first, then generators.
        """
        to_v = self._bfs_from(v)  # in-ball return distance prunes dead ends
        out: list[GraphPath] = []
        count = 0

        def rec(cur: int, acc: list[int]):
            nonlocal count
            if cur == v:
                count += 1
                if cap is None or count <= cap:
                    out.append(GraphPath(tuple(acc)))
            remaining = maxlen - (len(acc) - 1)
            if remaining == 0:
                return
            options = [cur] + [n for _s, n in self.adjacency[cur] if n is not None]
            for nxt in options:
                back = to_v[nxt]
                if back is not None and back <= remaining - 1:
                    acc.append(nxt)
                    rec(nxt, acc)
                    acc.pop()

        rec(u, [u])
        if cap is not None and count > cap:
            raise CapExceeded(count)
        return out

    # -- projection -----------------------------------------------------------

    def project_path(self, path: GraphPath, factor_id: str) -> GraphPath:
        """Vertex-wise retraction of a walk onto the embedded factor copy."""
        fp = self.space
        project = getattr(fp, "project_to_factor", None)
        if project is None:
            raise TypeError("projection needs a free-product ball")
        for end in (path.vertices[0], path.vertices[-1]):
            w = self.vertices[end]
            if w.syllables and not (len(w) == 1 and w.syllables[0].factor == factor_id):
                raise EndpointsOutsideFactor(f"endpoint {w!r} is not in the {factor_id} copy")
        imgs = []
        for i in path.vertices:
            elt = project(self.vertices[i], factor_id)
            imgs.append(self.index_of(fp.embed(elt)))
        return GraphPath(tuple(imgs))

    # -- export -----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "radius": self.radius,
            "vertex_count": len(self.vertices),
            "vertices": [self.space.format(v) for v in self.vertices],
            "distances": list(self.dist),
            "adjacency": [
                [[sym, tgt] for sym, tgt in row] for row in self.adjacency
            ],
        }

    def to_dot(self) -> str:
        lines = ["graph ball {"]
        for i, v in enumerate(self.vertices):
            lines.append(f'  n{i} [label="{self.space.format(v)}"];')
        seen = set()
        for i, row in enumerate(self.adjacency):
            for sym, j in row:
                if j is not None and (j, i) not in seen:
                    seen.add((i, j))
                    lines.append(f'  n{i} -- n{j} [label="{sym}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
