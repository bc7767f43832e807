"""Truncated geodesic rays and the combinatorial boundary of a free product.

A combinatorial geodesic is either an infinite alternating syllable
sequence (truncated, optionally with a periodic continuation block) or a
finite syllable prefix followed by a boundary direction of the next
factor.  ``realize`` concatenates canonical factor geodesics into an
actual vertex ray; ``decompose`` reads a vertex ray back into maximal
same-factor runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import factors, morse
from .errors import (
    BudgetExceeded,
    DepthExceedsContent,
    NoLine,
)
from .words import FreeProduct, Word

FINITE = "finite"
INFINITE = "infinite"


@dataclass(frozen=True)
class TruncatedRay:
    """A geodesic vertex path from the basepoint, with optional provenance
    describing how it extends past the truncation."""

    vertices: tuple
    provenance: object | None = None

    def __len__(self) -> int:
        return len(self.vertices)


def certify_geodesic(fp: FreeProduct, vertices) -> None:
    """Raise ValueError unless the vertices v_0, ..., v_D form a geodesic
    from the identity.

    Three tests decide it: v_0 = e, every step is an edge, and |v_D| = D.
    Along unit steps |v_t| <= t and |v_D| <= |v_t| + (D - t), so |v_D| = D
    forces |v_t| = t at every t.  An edge is a step whose prev^-1 cur is
    one syllable of norm 1 (``_step``), read off the shared syllable
    prefixes that ``realize`` builds.
    """
    e = fp.identity()
    depth = len(vertices) - 1
    for t in (0, depth):
        d = fp.distance(e, vertices[t])
        if d != t:
            raise ValueError(f"vertex {t} is at distance {d}, not {t}")
    for t in range(1, len(vertices)):
        s = _step(vertices[t - 1].syllables, vertices[t].syllables)
        if s is None or s.norm() != 1:
            raise ValueError(f"step {t} is not an edge")


def standard_line(spec: factors.FactorSpec):
    """The canonical bi-infinite geodesic through the basepoint: powers of
    the first generator.  Returns its two ends."""
    if not spec.has_boundary():
        raise NoLine(f"factor {spec.id!r} has no line through the basepoint")
    return (
        factors.BoundaryPoint.line_end(spec, 1),
        factors.BoundaryPoint.line_end(spec, -1),
    )


@dataclass(frozen=True)
class CorrespondingRay:
    """The ray read off the translated standard line of an element.

    Its vertex at ``merge_depth`` is the closest point of the translated
    line to the basepoint; past it the ray runs along the line itself,
    and it passes through the owning element at parameter ``norm``.
    """

    spec: factors.FactorSpec
    merge_depth: int
    direction: factors.BoundaryPoint


def corresponding_ray(spec: factors.FactorSpec, x: factors.FactorElement) -> CorrespondingRay:
    """Construct the ray corresponding to x along the standard line.

    The translated line is x * (first-generator line); its closest point
    to the basepoint is found exactly, and the ray is oriented so that x
    sits at a non-negative parameter.
    """
    if not spec.has_boundary():
        raise NoLine(f"factor {spec.id!r} has no line through the basepoint")
    if x.spec != spec:
        raise ValueError("element does not belong to the factor")
    base, a = spec.split_first_power(x)
    direction = factors.BoundaryPoint.make(spec, spec.letters(base), ((0, 1 if a >= 0 else -1),))
    return CorrespondingRay(spec=spec, merge_depth=base.norm(), direction=direction)


@dataclass(frozen=True)
class CombRay:
    """A combinatorial geodesic over a free product.

    Syllable positions are 1-based; odd positions belong to the first
    factor, even positions to the second.  Only the first syllable may be
    the identity (it absorbs rays that start in the second factor).
    Finite kind carries a boundary direction of the factor after the last
    syllable; infinite kind may carry a periodic continuation block,
    otherwise it is a bare truncation whose last stored syllable is
    unstable.
    """

    fp: FreeProduct
    kind: str
    syllables: tuple[factors.FactorElement, ...]
    tail: factors.BoundaryPoint | None = None
    repeat: tuple[factors.FactorElement, ...] = ()
    unstable_last: bool = False

    def __post_init__(self):
        for pos, s in enumerate(self.syllables, start=1):
            expected = self._position_spec(pos)
            if s.spec != expected:
                raise ValueError(f"syllable {pos} must lie in factor {expected.id!r}")
            if s.is_identity() and pos != 1:
                raise ValueError("only the first syllable may be the identity")
        n = len(self.syllables)
        if self.kind == FINITE:
            if self.tail is None:
                raise ValueError("finite combinatorial geodesics need a tail direction")
            if self.repeat:
                raise ValueError("finite combinatorial geodesics have no repeat block")
            if self.unstable_last:
                raise ValueError("finite combinatorial geodesics are fully stable")
            if self.tail.spec != self._position_spec(n + 1):
                raise ValueError("tail factor must alternate with the last syllable")
        elif self.kind == INFINITE:
            if self.tail is not None:
                raise ValueError("infinite combinatorial geodesics have no tail")
            if self.repeat:
                if len(self.repeat) % 2:
                    raise ValueError("repeat block must have even length to keep alternation")
                if self.unstable_last:
                    raise ValueError("a repeat block determines every syllable")
                for j, s in enumerate(self.repeat):
                    expected = self._position_spec(n + 1 + j)
                    if s.spec != expected or s.is_identity():
                        raise ValueError("repeat block must alternate non-trivial syllables")
        else:
            raise ValueError(f"unknown combinatorial kind {self.kind!r}")

    def _position_spec(self, pos: int) -> factors.FactorSpec:
        return self.fp.a if pos % 2 else self.fp.b

    # -- syllable access -------------------------------------------------

    @property
    def stored_length(self) -> int:
        return len(self.syllables)

    @property
    def stable_length(self) -> int:
        if self.unstable_last:
            return len(self.syllables) - 1
        return len(self.syllables)

    def syllable_at(self, pos: int) -> factors.FactorElement | None:
        """Syllable at a 1-based position, consulting the repeat block."""
        if pos <= len(self.syllables):
            return self.syllables[pos - 1]
        if self.kind == INFINITE and self.repeat:
            return self.repeat[(pos - len(self.syllables) - 1) % len(self.repeat)]
        return None

    def length_at_least(self, k: int) -> bool:
        """Is the (possibly infinite) syllable count certifiably >= k?"""
        if self.kind == INFINITE:
            if self.repeat:
                return True
            if self.stable_length >= k:
                return True
            raise BudgetExceeded(
                f"bare truncation with {self.stable_length} stable syllables cannot certify length >= {k}"
            )
        return len(self.syllables) >= k

    def text(self) -> str:
        body = " | ".join(map(repr, self.syllables)) or "e"
        if self.kind == FINITE:
            return f"{body} ; tail={self.tail.format()}"
        if self.repeat:
            return f"{body} ; repeat={' | '.join(map(repr, self.repeat))}"
        return body


def realize(a: CombRay, depth: int, validate: bool = True) -> TruncatedRay:
    """Concatenate canonical per-syllable geodesics into a vertex ray.

    Factor geodesics are chosen lexicographically-first (unique in tree
    factors); the result is certified to be a geodesic unless disabled.
    """
    fp = a.fp
    verts: list[Word] = [fp.identity()]
    # the syllables before the current one; a's factors alternate, so each
    # vertex is this prefix and one more syllable, already reduced
    base: tuple[factors.FactorElement, ...] = ()
    pos = 0
    while len(verts) <= depth:
        pos += 1
        s = a.syllable_at(pos)
        if s is None:
            break
        seg = factors.first_geodesic(s.spec.identity(), s)
        for elt in seg[1:]:
            if len(verts) > depth:
                break
            verts.append(Word(base + (elt,)))
        if not s.is_identity():
            base += (s,)
    if len(verts) <= depth:
        if a.kind == FINITE:
            for elt in a.tail.realization(depth - len(verts) + 1)[1:]:
                verts.append(Word(base + (elt,)))
        else:
            raise DepthExceedsContent(
                f"combinatorial geodesic holds {len(verts) - 1} steps, {depth} requested"
            )
    ray = TruncatedRay(tuple(verts[: depth + 1]), provenance=a)
    if validate:
        certify_geodesic(fp, ray.vertices)
    return ray


def decompose(fp: FreeProduct, ray: TruncatedRay) -> CombRay:
    """Split a vertex ray into maximal same-factor runs.

    Without provenance the result is a bare truncated infinite-kind
    object whose last run is unstable.  With provenance the observed runs
    are validated against it and the fully typed object is returned.
    """
    runs: list[factors.FactorElement] = []
    for prev, cur in zip(ray.vertices, ray.vertices[1:]):
        s = _step(prev.syllables, cur.syllables)
        if s is None or s.norm() != 1:
            raise ValueError("consecutive ray vertices must differ by one generator")
        if runs and runs[-1].factor == s.factor:
            runs[-1] = runs[-1] * s
        else:
            runs.append(s)
    syllables: list[factors.FactorElement] = []
    if runs and runs[0].factor == fp.b.id:
        syllables.append(fp.a.identity())
    syllables.extend(runs)
    observed = tuple(syllables)

    prov = ray.provenance
    if isinstance(prov, CombRay):
        validate_against(fp, observed, prov)
        return prov
    if isinstance(prov, factors.BoundaryPoint):
        # a factor ray inside the product: all completed runs are stable
        if not observed:
            return CombRay(fp, FINITE, (), tail=prov)
        last = observed[-1]
        if last.spec != prov.spec:
            raise ValueError("provenance tail factor does not match the growing run")
        if prov.realization(last.norm())[-1] != last:
            raise ValueError("growing run is not a prefix of the provenance tail")
        return CombRay(fp, FINITE, observed[:-1], tail=prov)
    return CombRay(fp, INFINITE, observed, unstable_last=bool(observed))


def _step(p: tuple, c: tuple) -> factors.FactorElement | None:
    """The word prev^-1 cur, from the syllables p of prev and c of cur,
    when it is a single syllable; otherwise None.

    After the common prefix cancels, one syllable is left exactly when
    cur appends one syllable to prev, changes prev's last syllable within
    its factor, or cancels it.
    """
    n = len(p)
    if len(c) == n + 1:
        if c[:n] == p:
            return c[n]
    elif len(c) == n:
        if n and c[:-1] == p[:-1] and c[-1].factor == p[-1].factor:
            return p[-1].inverse() * c[-1]
    elif len(c) == n - 1:
        if p[:-1] == c:
            return p[-1].inverse()
    return None


def validate_against(fp: FreeProduct, observed, prov: CombRay) -> None:
    """Raise ValueError unless the runs ``observed`` off a truncated ray
    agree with ``prov``: every stable run equals its syllable, and the
    growing last run is a prefix of its syllable or of the tail."""
    if not observed:
        return
    stable = observed[:-1]
    for i, s in enumerate(stable):
        expected = prov.syllable_at(i + 1)
        if expected != s:
            raise ValueError(f"observed syllable {i + 1} disagrees with provenance")
    last = observed[-1]
    pos = len(observed)
    expected = prov.syllable_at(pos)
    if expected is not None:
        ok_full = expected == last
        ok_prefix = (
            expected.spec == last.spec
            and factors.distance(last, expected) == expected.norm() - last.norm()
        )
        if not (ok_full or ok_prefix):
            raise ValueError(f"observed syllable {pos} is not a prefix of the provenance syllable")
    elif prov.kind == FINITE and pos == prov.stored_length + 1:
        if prov.tail.realization(last.norm())[-1] != last:
            raise ValueError("growing run is not a prefix of the provenance tail")
    else:
        raise ValueError("observed decomposition runs past the provenance content")


@dataclass(frozen=True)
class CombNeighborhood:
    """Fundamental-system neighborhood of a combinatorial geodesic."""

    center: CombRay
    k: int
    gauge: morse.Gauge

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


def comb_neighborhood_member(nbhd: CombNeighborhood, b: CombRay) -> bool:
    """Exact evaluation of the neighborhood definition.

    Infinite centers: prefix agreement on the first k syllables.  Finite
    centers: same syllables, then either the next syllable lies in the
    filled depth-k neighborhood of the tail direction, or the tails are
    depth-k close.  Tail tests run in the factor, on shared letters
    (``_tail_close``).
    """
    a, k, gauge = nbhd.center, nbhd.k, nbhd.gauge
    if a.fp != b.fp:
        raise ValueError("combinatorial geodesics over different products")
    if a.kind == INFINITE:
        if not b.length_at_least(k):
            return False
        for i in range(1, k + 1):
            ua = a.syllable_at(i)
            if ua is None:
                raise BudgetExceeded(f"center holds no syllable at position {i}")
            ub = b.syllable_at(i)
            if ub is None:
                raise BudgetExceeded(f"candidate holds no syllable at position {i}")
            if ua != ub:
                return False
        return True
    la = a.stored_length
    if not b.length_at_least(la):
        return False
    for i in range(1, la + 1):
        ub = b.syllable_at(i)
        if ub is None:
            raise BudgetExceeded(f"candidate holds no syllable at position {i}")
        if ub != a.syllables[i - 1]:
            return False
    if b.kind == INFINITE or b.stored_length > la:
        u_next = b.syllable_at(la + 1)
        if u_next is None:
            raise BudgetExceeded("candidate next syllable unavailable")
        unstable_next = b.unstable_last and la + 1 == b.stored_length
        if unstable_next and u_next.norm() < k:
            # a growing syllable below the depth may still enter later
            raise BudgetExceeded("candidate next syllable is unstable and too short to classify")
        return _tail_close(gauge, k, a.tail, u_next)
    if b.kind != FINITE:
        raise BudgetExceeded("bare truncation of the same length cannot be classified")
    return _tail_close(gauge, k, a.tail, b.tail)


def _tail_close(gauge: morse.Gauge, k: int, tail: factors.BoundaryPoint, key) -> bool:
    """The tail test of a finite center whose tail direction is ``tail``.

    ``key`` is a longer ray's next syllable, which must lie in the filled
    depth-k neighborhood of ``tail`` (norm at least k, and close), or the
    tail of a ray of the center's length, which must be depth-k close.
    Closeness is read off the letters the two share, as in
    ``matching.filled_member``.
    """
    if isinstance(key, factors.FactorElement) and key.norm() < k:
        return False
    return morse.tree_close(gauge, k, factors.shared_steps(key, tail, k))


class CombIndex:
    """A population of combinatorial geodesics bucketed by their first k
    syllables, to list every member of a neighborhood in one step.

    ``members(nbhd)`` equals ``[b for b in population if
    comb_neighborhood_member(nbhd, b)]``, in population order.  An
    infinite center's members are the bucket of its first k syllables; a
    finite center's are the bucket of its stored syllables, filtered by the
    tail test that ``comb_neighborhood_member`` runs too: the shared
    letters of the next syllable, or of the tail, with the center's tail.
    The buckets of depth k are built when depth k is first asked for; an
    infinite center gets the bucket itself, which callers must not modify.

    Buckets hold rays whose syllable count is certain.  A bare truncation,
    in the population or as the center, sends the query through the
    pointwise test, so it raises ``BudgetExceeded`` just as a scan would.
    """

    def __init__(self, population):
        self.population = list(population)
        self.fp = self.population[0].fp if self.population else None
        if any(b.fp != self.fp for b in self.population):
            raise ValueError("combinatorial geodesics over different products")
        self._bare = any(_is_bare(b) for b in self.population)
        self._buckets: dict[int, dict[tuple, list[CombRay]]] = {}

    def _bucket(self, key: tuple) -> list[CombRay]:
        """The rays with at least len(key) syllables that begin with key."""
        k = len(key)
        table = self._buckets.get(k)
        if table is None:
            table = self._buckets[k] = {}
            for b in self.population:
                if b.kind == INFINITE or b.stored_length >= k:
                    prefix = tuple(b.syllable_at(i) for i in range(1, k + 1))
                    table.setdefault(prefix, []).append(b)
        return table.get(key, [])

    def members(self, nbhd: CombNeighborhood) -> list[CombRay]:
        a, k, gauge = nbhd.center, nbhd.k, nbhd.gauge
        if self._bare or _is_bare(a):
            return [b for b in self.population if comb_neighborhood_member(nbhd, b)]
        if self.population and a.fp != self.fp:
            raise ValueError("combinatorial geodesics over different products")
        if a.kind == INFINITE:
            return self._bucket(tuple(a.syllable_at(i) for i in range(1, k + 1)))
        la = a.stored_length
        out = []
        for b in self._bucket(a.syllables):
            longer = b.kind == INFINITE or b.stored_length > la
            key = b.syllable_at(la + 1) if longer else b.tail
            if _tail_close(gauge, k, a.tail, key):
                out.append(b)
        return out


def _is_bare(a: CombRay) -> bool:
    """A bare truncation: its syllable count cannot be certified."""
    return a.kind == INFINITE and not a.repeat


# -- population -----------------------------------------------------------


def comb_population(
    fp: FreeProduct,
    max_len: int = 3,
    max_norm: int = 2,
    max_infinite_prefix: int = 2,
) -> list[CombRay]:
    """Deterministic population of combinatorial geodesics for exhaustive
    checks: all finite kinds up to the given syllable count and norms,
    plus periodic infinite kinds with a block of two norm-one syllables."""

    def elements(spec, include_identity):
        out = [spec.identity()] if include_identity else []
        seen = {spec.identity()}
        for base in spec.generators_base_count():
            for mag in range(1, max_norm + 1):
                for sgn in (1, -1):
                    x = spec.power(base, sgn * mag)
                    if x not in seen:
                        seen.add(x)
                        out.append(x)
        return sorted(out, key=lambda x: x.sort_key())

    def spec_at(pos):
        return fp.a if pos % 2 else fp.b

    def prefixes(n):
        # only the first syllable may be the identity
        pools = [elements(spec_at(pos), include_identity=(pos == 1)) for pos in range(1, n + 1)]
        return [c for c in itertools.product(*pools) if not any(s.is_identity() for s in c[1:])]

    population: list[CombRay] = []
    for n in range(0, max_len + 1):
        tail_spec = spec_at(n + 1)
        if tail_spec.has_boundary():
            for combo in prefixes(n):
                for tail in standard_line(tail_spec):
                    population.append(CombRay(fp, FINITE, combo, tail=tail))
    for n in range(0, max_infinite_prefix + 1):
        first = [x for x in elements(spec_at(n + 1), False) if x.norm() <= 1]
        second = [x for x in elements(spec_at(n + 2), False) if x.norm() <= 1]
        blocks = list(itertools.product(first, second))
        for combo in prefixes(n):
            for block in blocks:
                population.append(CombRay(fp, INFINITE, combo, repeat=block))
    return population
