"""Finite balls of a Cayley graph with exhaustive enumeration.

A ball is built by BFS over any "space": an object exposing
``identity() / generators() / join() / first_geodesic() / sort_key() /
format()``.  Its generators carry their factor's id and element, and
``join(prefix, syllable)`` appends a syllable of the other factor.  Both a
free product and a single factor qualify (a single factor's prefix is
always the identity), so the same machinery serves as the brute-force
oracle for either metric.  ``spheres`` also reads ``step()``, which only
``FactorSpace`` has: it enumerates a factor group lazily.

A walk is a tuple of vertex indices; a step may be stationary.  Stationary
steps keep index sets intact under projection and make the path count
the right discrete analogue of a reparametrizable curve.

A ``Ball`` owns every table of its graph; no other module keeps one.
``adjacency`` lists each vertex's (generator symbol, neighbour index, or
None outside the ball) and ``neighbors`` its in-ball neighbours, in the
same order.  The syllable tree is built with the ball: ``parent`` and
``last`` give each vertex but e its syllable prefix's index and its last
syllable, ``child`` maps each such pair back to the vertex and
``children`` lists each vertex's children.  ``prefixes`` reads a vertex's
syllable prefixes off ``parent``; no other module rebuilds them.  Three
stores fill one entry per source or target on first use and are freed
with the ball: ``row`` (true distances), ``in_ball_row`` (distances along
paths inside the ball) and ``gates`` (nearest cut vertices toward a
target).
"""

from __future__ import annotations

from . import factors
from .errors import BudgetExceeded, PossiblyTruncated


def spheres(space):
    """The spheres of radius 1, 2, ... around the identity, each a list in
    ``sort_key`` order; ends after the last sphere of a finite space."""
    frontier = [space.identity()]
    seen = set(frontier)
    gens = space.generators()
    while True:
        new = []
        for v in frontier:
            for gen in gens:
                w = space.step(v, gen)
                if w not in seen:
                    seen.add(w)
                    new.append(w)
        if not new:
            return
        frontier = sorted(new, key=space.sort_key)
        yield frontier


class Ball:
    """The radius-r ball around the identity, with exact metric data.

    A ball keeps two distance stores, filled one row at a time.  ``row``
    holds true distances in the whole space, read off the syllable-prefix
    tree; ``pair_distance`` reads it and is always exact.
    ``in_ball_row`` holds BFS distances along paths inside the ball, which
    can exceed the true ones near the boundary.  They are the independent
    oracle: ``certified`` uses them to show that no geodesic leaves the
    ball, and searches prune walks that could no longer return inside the
    ball.
    """

    def __init__(self, space, radius, vertices, index, dist, parent, last, child, adjacency):
        self.space = space
        self.radius = radius
        self.vertices = vertices
        self.index = index
        self.dist = dist
        self.parent = parent
        self.last = last
        self.child = child
        self.adjacency = adjacency
        self.neighbors = [[w for _s, w in row if w is not None] for row in adjacency]
        n = len(vertices)
        self.children: list[list[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            self.children[parent[i]].append(i)
        # per vertex, its last syllable's factor, read once here as ``row``
        # compares it for every child, and an id that is equal exactly for
        # equal syllables, which keys the factor distances
        self._factor = [""] + [s.factor for s in last[1:]]
        ids: dict[factors.FactorElement, int] = {}
        self._syllable = [0] + [ids.setdefault(s, len(ids)) for s in last[1:]]
        self._factor_distances: dict[tuple[int, int], int] = {}
        # preorder positions: every subtree is one slice [start, stop)
        self._start = [0] * n
        order = []
        stack = [0]
        while stack:
            v = stack.pop()
            self._start[v] = len(order)
            order.append(v)
            stack.extend(reversed(self.children[v]))
        size = [1] * n
        for i in range(n - 1, 0, -1):  # parents come before children
            size[parent[i]] += size[i]
        self._stop = [start + k for start, k in zip(self._start, size)]
        self._preorder_norm = [dist[v] for v in order]
        self._rows: dict[int, list[int]] = {}
        self._in_ball_rows: dict[int, bytes | list[int]] = {}
        self._gates: dict[int, list[int]] = {}

    @classmethod
    def build(cls, space, radius: int, vertex_budget: int | None = None) -> "Ball":
        """The ball by BFS, sphere by sphere, each sphere in ``sort_key``
        order, with each vertex found as its syllable prefix and last
        syllable: the key (parent, last), which ``child`` maps to the vertex
        (e's key is (0, None)).

        A step by a generator of another factor than the last syllable's
        (or from e) appends a syllable.  One within that factor multiplies
        the last syllable, and goes back to the prefix when the product
        cancels.  So each (vertex, generator) step is taken once, with at
        most one factor product, and a vertex's word is joined once.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        gens = space.generators()
        e = space.identity()
        verts, index, dist, parent, last = [e], {e: 0}, [0], [0], [None]
        child: dict[tuple[int, factors.FactorElement | None], int] = {(0, None): 0}
        adjacency: list[tuple] = []
        sphere = range(1)
        for level in range(radius + 1):
            steps = []  # per vertex of the sphere, the key of each step
            for v in sphere:
                s, p = last[v], parent[v]
                row = []
                for gen in gens:
                    if s is None or gen.factor != s.factor:
                        row.append((v, gen.element))
                    else:
                        m = s * gen.element
                        row.append((parent[p], last[p]) if m.is_identity() else (p, m))
                steps.append(row)
            start = len(verts)
            if level < radius:
                new = {key for row in steps for key in row if key not in child}
                if vertex_budget is not None and start + len(new) > vertex_budget:
                    raise BudgetExceeded(
                        f"budget vertex_budget {vertex_budget} exceeded: "
                        f"the ball needs at least {start + len(new)} vertices"
                    )
                words = {space.join(verts[p], s): (p, s) for p, s in new}
                for w in sorted(words, key=space.sort_key):
                    p, s = words[w]
                    child[p, s] = index[w] = len(verts)
                    verts.append(w)
                    dist.append(level + 1)
                    parent.append(p)
                    last.append(s)
            # a key outside the ball stays unfound
            adjacency += (tuple((gen.symbol, child.get(key)) for gen, key in zip(gens, row)) for row in steps)
            sphere = range(start, len(verts))
        return cls(space, radius, verts, index, dist, parent, last, child, tuple(adjacency))

    def __len__(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int):
        return self.vertices[i]

    def index_of(self, v) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise KeyError(f"vertex {v!r} not in ball") from None

    # -- metric -----------------------------------------------------------

    def in_ball_row(self, src: int) -> bytes | list[int]:
        """Distances from src along paths that stay inside the ball.

        The ball is connected through the identity, so every entry is set
        and at most 2 * radius.  Rows are ``bytes`` when that bound fits in
        a byte (``bytes`` refuses a larger value) and lists otherwise.
        """
        row = self._in_ball_rows.get(src)
        if row is None:
            neighbors = self.neighbors
            row = [-1] * len(neighbors)
            row[src] = 0
            frontier, level = [src], 0
            while frontier:
                level += 1
                nxt = []
                for v in frontier:
                    for n in neighbors[v]:
                        if row[n] < 0:
                            row[n] = level
                            nxt.append(n)
                frontier = nxt
            row = self._in_ball_rows[src] = bytes(row) if 2 * self.radius < 256 else row
        return row

    def walk_counts(self, u: int, maxlen: int) -> list[list[int]]:
        """counts[t][v]: the walks u -> v of length t <= maxlen inside the
        ball, stationary steps included, each counted as often as
        ``enumerate_paths`` lists it (a neighbour reached by two
        generators twice).  So the walks of length <= L to v that
        ``enumerate_paths`` lists number sum(counts[t][v] for t <= L).
        """
        neighbors = self.neighbors
        row = [0] * len(neighbors)
        row[u] = 1
        counts = [row]
        for _ in range(maxlen):
            nxt = row[:]  # the stationary step
            for x, c in enumerate(row):
                if c:
                    for y in neighbors[x]:
                        nxt[y] += c
            row = nxt
            counts.append(row)
        return counts

    def certified(self, u: int, v: int) -> bool:
        """True when every true geodesic u -> v stays inside the ball.

        A point splitting such a geodesic as a + b sits within
        min(d(e,u) + a, d(e,v) + b) <= (d(e,u) + d(e,v) + d(u,v)) / 2 of
        the basepoint, and the in-ball BFS value bounds d(u,v) above.
        """
        return self.dist[u] + self.dist[v] + self.in_ball_row(u)[v] <= 2 * self.radius

    def prefixes(self, x: int) -> list[int]:
        """x's proper syllable prefixes other than e, nearest first; none
        for e or a vertex of one syllable.  Every path from e to x passes
        each of them."""
        out = []
        while x := self.parent[x]:
            out.append(x)
        return out

    def row(self, u: int) -> list[int]:
        """True distances from u to every vertex, in vertex order.

        The word metric splits over the syllable-prefix tree: with c the
        deepest common prefix of u and w, and a and b the children of c
        toward u and toward w,

            d(u, w) = |u| - |a| + |w| - |b| + d_F(last a, last b)

        when both children exist and their last syllables share a factor,
        and d(u, w) = |u| + |w| - 2|c| otherwise.  All arithmetic is on
        ints; factor distances are kept per pair of syllable ids.
        """
        row = self._rows.get(u)
        if row is not None:
            return row
        norm, factor, start, stop = self.dist, self._factor, self._start, self._stop
        pnorm, syllable, memo = self._preorder_norm, self._syllable, self._factor_distances
        chain = [0, *reversed(self.prefixes(u)), u] if u else [0]
        nu = norm[u]
        out = [0] * len(norm)  # in preorder
        # a vertex in the subtree of child b of c gets |w| + offset
        for c, a in zip(chain, chain[1:]):
            out[start[c]] = nu - norm[c]
            for b in self.children[c]:
                if b == a:
                    continue
                if factor[b] == factor[a]:
                    key = (syllable[a], syllable[b])
                    d = memo.get(key)
                    if d is None:
                        d = memo[key] = factors.distance(self.last[a], self.last[b])
                    offset = nu - norm[a] - norm[b] + d
                else:
                    offset = nu - 2 * norm[c]
                lo, hi = start[b], stop[b]
                out[lo:hi] = [x + offset for x in pnorm[lo:hi]]
        lo, hi = start[u], stop[u]
        out[lo:hi] = [x - nu for x in pnorm[lo:hi]]
        row = self._rows[u] = [out[i] for i in start]
        return row

    def pair_distance(self, u: int, v: int) -> int:
        """Exact distance in the whole space, never truncated by the ball."""
        return self.row(u)[v]

    def gates(self, v: int) -> list[int]:
        """For each vertex x, x's nearest gate toward v: the cut vertex of
        the ball graph other than x that lies closest to x among those every
        in-ball path x -> v passes, or v when there is none (so v's own
        entry is v).

        One lowpoint DFS rooted at v.  A child x of p in the DFS tree is cut
        off from v by p exactly when no edge from x's subtree reaches above
        p (low[x] >= disc[p]); then p is x's nearest gate, and otherwise x
        shares p's.  Every path x -> v passes the gate, so the in-ball
        distance from x to it is to_v[x] - to_v[gate[x]].
        """
        gate = self._gates.get(v)
        if gate is not None:
            return gate
        neighbors = self.neighbors
        n = len(neighbors)
        disc = [-1] * n
        low = [0] * n
        parent = [v] * n
        order = [v]
        disc[v] = 0
        stack = [(v, iter(neighbors[v]))]
        while stack:
            x, rest = stack[-1]
            for y in rest:
                if disc[y] < 0:
                    disc[y] = low[y] = len(order)
                    order.append(y)
                    parent[y] = x
                    stack.append((y, iter(neighbors[y])))
                    break
                if disc[y] < low[x]:
                    low[x] = disc[y]
            else:
                stack.pop()
                p = parent[x]
                if low[x] < low[p]:
                    low[p] = low[x]
        gate = self._gates[v] = [v] * n
        for x in order[1:]:  # a parent comes before its children
            p = parent[x]
            gate[x] = p if low[x] >= disc[p] else gate[p]
        return gate

    # -- enumeration --------------------------------------------------------

    def enumerate_geodesics(self, u: int, v: int) -> list[tuple[int, ...]]:
        """All geodesic paths u -> v, in deterministic generator order."""
        if not self.certified(u, v):
            raise PossiblyTruncated("geodesics between these endpoints may leave the ball")
        # a geodesic is a walk of length d_in(u, v) without stationary steps
        return self._walks(u, v, self.in_ball_row(v)[u], stay=False)

    def first_geodesic(self, u: int, v: int) -> tuple[int, ...]:
        """One true geodesic u -> v (the space's lexicographically first).

        Raises when that geodesic does not stay inside the ball.  Between
        equal or adjacent vertices the geodesic is unique and inside the
        ball, so it is returned without building words.
        """
        if u == v:
            return (u,)
        if v in self.neighbors[u]:
            return (u, v)
        words = self.space.first_geodesic(self.vertices[u], self.vertices[v])
        try:
            return tuple(self.index[w] for w in words)
        except KeyError:
            raise PossiblyTruncated("the first geodesic between these endpoints leaves the ball") from None

    def enumerate_paths(self, u: int, v: int, maxlen: int) -> list[tuple[int, ...]]:
        """All walks u -> v of length <= maxlen inside the ball.

        Walks may revisit vertices and may take stationary steps; the
        step order is "stay" first, then generators.
        """
        return self._walks(u, v, maxlen, stay=True)

    def _walks(self, u: int, v: int, maxlen: int, stay: bool) -> list[tuple[int, ...]]:
        """Depth-first search for the walks u -> v of length <= maxlen
        inside the ball, each listed when it reaches v and then extended.

        A step goes to the walk's last vertex itself first when ``stay``,
        then to its neighbours in adjacency order, and only where the
        in-ball distance to v leaves time to return.
        """
        to_v = self.in_ball_row(v)
        neighbors = self.neighbors
        out = [(u,)] if u == v else []
        walk = [u]
        # one iterator over the next steps per vertex of the walk that may
        # still be extended
        steps = [iter([u] + neighbors[u] if stay else neighbors[u])] if maxlen else []
        while steps:
            left = maxlen - len(walk)  # steps left after the next one
            for x in steps[-1]:
                if to_v[x] <= left:
                    walk.append(x)
                    if x == v:
                        out.append(tuple(walk))
                    if left:
                        steps.append(iter([x] + neighbors[x] if stay else neighbors[x]))
                    else:
                        walk.pop()
                    break
            else:
                steps.pop()
                walk.pop()
        return out

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
