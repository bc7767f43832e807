"""Truncated geodesic rays and the combinatorial boundary of a free product.

A combinatorial geodesic is either an infinite alternating syllable
sequence (a syllable prefix, then a periodic block) or a finite syllable
prefix followed by a boundary direction of the next factor.  ``realize``
concatenates canonical factor geodesics into a tuple of vertices;
``decompose`` reads such a tuple back into its maximal same-factor runs.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from . import factors, morse
from .errors import NoLine
from .words import FreeProduct, Word


def certify_geodesic(fp: FreeProduct, vertices) -> tuple[factors.FactorElement, ...]:
    """The runs of the vertices v_0, ..., v_D (``decompose``); raise
    ValueError unless they form a geodesic from the identity.

    Three tests decide it: v_0 = e, every step is an edge, and |v_D| = D.
    Along unit steps |v_t| <= t and |v_D| <= |v_t| + (D - t), so |v_D| = D
    forces |v_t| = t at every t.  The edges are tested by the one
    ``decompose`` pass that reads the runs.
    """
    e = fp.identity()
    depth = len(vertices) - 1
    for t in (0, depth):
        d = fp.distance(e, vertices[t])
        if d != t:
            raise ValueError(f"vertex {t} is at distance {d}, not {t}")
    return decompose(fp, vertices)


def standard_line(spec: factors.FactorSpec):
    """The canonical bi-infinite geodesic through the basepoint: powers of
    the first generator.  Returns its two ends, which the spec keeps."""
    if not spec.has_boundary():
        raise NoLine(f"factor {spec.id!r} has no line through the basepoint")
    return spec.line_ends()


def corresponding_ray(spec: factors.FactorSpec, x: factors.FactorElement) -> tuple[int, factors.BoundaryPoint]:
    """The ray corresponding to x along the standard line, as its merge
    depth and its direction.

    The translated line is x * (first-generator line); its vertex at the
    merge depth is the closest point of the translated line to the
    basepoint, found exactly.  Past it the ray runs along the line itself,
    oriented so that it passes through x at parameter ``x.norm()``.  When
    the merge depth is 0, as for every element of a line, the direction is
    an end of the standard line, and the spec's own object is returned.
    """
    if not spec.has_boundary():
        raise NoLine(f"factor {spec.id!r} has no line through the basepoint")
    if x.spec != spec:
        raise ValueError("element does not belong to the factor")
    base, a = spec.split_first_power(x)
    if base.is_identity():
        return 0, standard_line(spec)[a < 0]
    return base.norm(), factors.BoundaryPoint.make(spec, spec.letters(base), ((0, 1 if a >= 0 else -1),))


@dataclass(frozen=True, eq=False)
class CombRay(factors.Value):
    """A combinatorial geodesic over a free product.

    Syllable positions are 1-based; odd positions belong to the first
    factor, even positions to the second.  Only the first syllable may be
    the identity (it absorbs rays that start in the second factor).
    A finite one carries the ``tail``, a boundary direction of the factor
    after the last syllable; an infinite one carries the periodic
    ``repeat`` block that continues its syllables.
    """

    fp: FreeProduct
    syllables: tuple[factors.FactorElement, ...]
    tail: factors.BoundaryPoint | None = None
    repeat: tuple[factors.FactorElement, ...] = ()
    _key = operator.attrgetter("fp", "syllables", "tail", "repeat")
    _head = ()  # an infinite ray's longest head read so far

    def __post_init__(self):
        for pos, s in enumerate(self.syllables, start=1):
            expected = self._position_spec(pos)
            if s.spec != expected:
                raise ValueError(f"syllable {pos} must lie in factor {expected.id!r}")
            if s.is_identity() and pos != 1:
                raise ValueError("only the first syllable may be the identity")
        n = len(self.syllables)
        if (self.tail is None) == (not self.repeat):
            raise ValueError("a combinatorial geodesic needs exactly one of a tail and a repeat block")
        if self.tail is not None and self.tail.spec != self._position_spec(n + 1):
            raise ValueError("tail factor must alternate with the last syllable")
        if len(self.repeat) % 2:
            raise ValueError("repeat block must have even length to keep alternation")
        for j, s in enumerate(self.repeat):
            expected = self._position_spec(n + 1 + j)
            if s.spec != expected or s.is_identity():
                raise ValueError("repeat block must alternate non-trivial syllables")

    def _position_spec(self, pos: int) -> factors.FactorSpec:
        return self.fp.a if pos % 2 else self.fp.b

    # -- syllable access -------------------------------------------------

    def syllable_at(self, pos: int) -> factors.FactorElement | None:
        """Syllable at a 1-based position, consulting the repeat block."""
        if pos <= len(self.syllables):
            return self.syllables[pos - 1]
        if self.repeat:
            return self.repeat[(pos - len(self.syllables) - 1) % len(self.repeat)]
        return None

    def head(self, k: int) -> tuple[factors.FactorElement, ...]:
        """The syllables at positions 1 to k, or a finite ray's all if it
        has fewer; an infinite ray keeps the longest head it was asked for."""
        if not self.repeat:
            return self.syllables[:k]
        if len(self._head) < k:
            object.__setattr__(self, "_head", tuple(map(self.syllable_at, range(1, k + 1))))
        return self._head[:k]

    def text(self) -> str:
        """A text that tells apart any two rays of one product.  A line's
        directions print as bare signs, and an empty syllable tuple prints
        as ``e`` like a leading identity, so the tail names its factor."""
        body = " | ".join(map(repr, self.syllables)) or "e"
        if self.tail is not None:
            return f"{body} ; tail={self.tail.spec.id}:{self.tail.format()}"
        return f"{body} ; repeat={' | '.join(map(repr, self.repeat))}"


def realize(a: CombRay, depth: int) -> tuple[Word, ...]:
    """Concatenate canonical per-syllable geodesics into the vertex ray
    v_0, ..., v_depth.

    Factor geodesics are chosen lexicographically-first (unique in tree
    factors): each syllable's ``spelling`` and the tail's ``realization``,
    which their values keep.  The ray is spelled, not certified:
    ``certify_geodesic`` tests it.
    """
    verts = spell(a.fp, itertools.chain(a.syllables, itertools.cycle(a.repeat)), depth)
    if len(verts) <= depth:
        # a finite ray's syllables ran out; its last vertex is the product
        # of them all, and the tail's factor alternates with it
        base = verts[-1].syllables
        for elt in a.tail.realization(depth - len(verts) + 1)[1:]:
            verts.append(Word._trusted(syllables=base + (elt,)))
    return tuple(verts)


def spell(fp: FreeProduct, syllables, depth: int) -> list[Word]:
    """The vertices v_0, ..., v_n of the canonical per-syllable geodesics
    of alternating ``syllables``, one after the other: n is ``depth`` or
    the syllables' total norm, whichever is smaller.  A leading identity
    syllable adds no vertex.  Each syllable's geodesic is its
    ``spelling``."""
    verts: list[Word] = [fp.identity()]
    # the syllables before the current one; they alternate, so each vertex
    # is this prefix and one more syllable, already reduced
    base: tuple[factors.FactorElement, ...] = ()
    for s in syllables:
        if len(verts) > depth:
            break
        for elt in s.spelling():
            if len(verts) > depth:
                break
            verts.append(Word._trusted(syllables=base + (elt,)))
        if not s.is_identity():
            base += (s,)
    return verts


def decompose(fp: FreeProduct, vertices) -> tuple[factors.FactorElement, ...]:
    """Split a vertex ray into its maximal same-factor runs, the last of
    which may still grow.  A leading identity of the first factor keeps
    the 1-based syllable positions when the ray starts in the second.
    Raises ValueError unless each step is an edge (prev^-1 cur is one
    syllable of norm 1, ``_step``) and no run cancels.
    ``validate_against`` holds the runs against the combinatorial
    geodesic they came from."""
    runs: list[factors.FactorElement] = []
    for t in range(1, len(vertices)):
        s = _step(vertices[t - 1].syllables, vertices[t].syllables)
        if s is None or s.norm() != 1:
            raise ValueError(f"step {t} is not an edge")
        if runs and runs[-1].factor == s.factor:
            runs[-1] = runs[-1] * s
            if runs[-1].is_identity():
                raise ValueError("a run cancels")
        else:
            runs.append(s)
    if runs and runs[0].factor == fp.b.id:
        runs.insert(0, fp.a.identity())
    return tuple(runs)


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


def validate_against(observed, a: CombRay) -> None:
    """Raise ValueError unless the runs ``observed`` off a truncated ray
    agree with the combinatorial geodesic ``a`` it realizes: every stable
    run equals its syllable, and the growing last run is a prefix of its
    syllable or of the tail's realization."""
    if not observed:
        return
    stable = observed[:-1]
    for i, s in enumerate(stable):
        expected = a.syllable_at(i + 1)
        if expected != s:
            raise ValueError(f"observed syllable {i + 1} disagrees with the source geodesic")
    last = observed[-1]
    pos = len(observed)
    expected = a.syllable_at(pos)
    if expected is not None:
        ok_full = expected == last
        ok_prefix = (
            expected.spec == last.spec
            and factors.distance(last, expected) == expected.norm() - last.norm()
        )
        if not (ok_full or ok_prefix):
            raise ValueError(f"observed syllable {pos} is not a prefix of the source syllable")
    elif a.tail is not None and pos == len(a.syllables) + 1:
        if a.tail.realization(last.norm())[-1] != last:
            raise ValueError("growing run is not a prefix of the source tail")
    else:
        raise ValueError("observed decomposition runs past the source geodesic")


def comb_neighborhood_member(a: CombRay, k: int, gauge: morse.Gauge, b: CombRay) -> bool:
    """Whether b lies in the depth-k neighborhood of a, by its definition.

    Infinite centers: prefix agreement on the first k syllables.  Finite
    centers: same syllables, then either the next syllable lies in the
    filled depth-k neighborhood of the tail direction, or the tails are
    depth-k close (``morse.factor_close``).
    """
    if a.fp != b.fp:
        raise ValueError("combinatorial geodesics over different products")
    return _member(a, k, gauge, b)


def neighbors(a: CombRay, k: int, gauge: morse.Gauge, candidates) -> list[CombRay]:
    """The candidates in the depth-k neighborhood of a, in order, by the
    test of ``comb_neighborhood_member``: for a few candidates, too few
    for a ``CombIndex`` to pay."""
    return [b for b in candidates if _member(a, k, gauge, b)]


def _member(a: CombRay, k: int, gauge: morse.Gauge, b: CombRay) -> bool:
    """``comb_neighborhood_member`` of two rays over one product."""
    if a.repeat:
        return b.head(k) == a.head(k)
    la = len(a.syllables)
    return b.head(la) == a.syllables and morse.factor_close(gauge, k, a.tail, _tail_key(b, la))


def _tail_key(b: CombRay, la: int):
    """What a finite center of ``la`` syllables holds against its tail:
    b's next syllable when b is longer, otherwise b's own tail."""
    if b.repeat or len(b.syllables) > la:
        return b.syllable_at(la + 1)
    return b.tail


class CombIndex:
    """A population of combinatorial geodesics bucketed by their first k
    syllables, to list every member of a neighborhood in one step.

    ``members(a, k, gauge)`` equals ``[b for b in population if
    comb_neighborhood_member(a, k, gauge, b)]``, in population order.  An
    infinite center's members are the bucket of its first k syllables; a
    finite center's are the bucket of its stored syllables, filtered by the
    tail test that ``comb_neighborhood_member`` runs too.  The buckets of
    depth k are built when depth k is first asked for; an infinite center
    gets the bucket itself, which callers must not modify.
    """

    def __init__(self, population):
        self.population = list(population)
        self.fp = self.population[0].fp if self.population else None
        if any(b.fp != self.fp for b in self.population):
            raise ValueError("combinatorial geodesics over different products")
        self._buckets: dict[int, dict[tuple, list[CombRay]]] = {}

    def _bucket(self, key: tuple) -> list[CombRay]:
        """The rays with at least len(key) syllables that begin with key."""
        k = len(key)
        table = self._buckets.get(k)
        if table is None:
            table = self._buckets[k] = {}
            for b in self.population:
                if b.repeat or len(b.syllables) >= k:
                    table.setdefault(b.head(k), []).append(b)
        return table.get(key, [])

    def members(self, a: CombRay, k: int, gauge: morse.Gauge) -> list[CombRay]:
        if self.population and a.fp != self.fp:
            raise ValueError("combinatorial geodesics over different products")
        if a.repeat:
            return self._bucket(a.head(k))
        la = len(a.syllables)
        return [
            b for b in self._bucket(a.syllables) if morse.factor_close(gauge, k, a.tail, _tail_key(b, la))
        ]


# -- population -----------------------------------------------------------


def comb_population(
    fp: FreeProduct,
    max_len: int = 3,
    max_norm: int = 2,
    max_infinite_prefix: int = 2,
) -> list[CombRay]:
    """Deterministic population of combinatorial geodesics for exhaustive
    checks: all finite ones up to the given syllable count and norms,
    plus periodic infinite ones with a block of two norm-one syllables."""

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

    # each position's syllables come from its factor, only the first may be
    # the identity, and tails and blocks continue the alternation
    population: list[CombRay] = []
    for n in range(0, max_len + 1):
        tail_spec = spec_at(n + 1)
        if tail_spec.has_boundary():
            for combo in prefixes(n):
                for tail in standard_line(tail_spec):
                    population.append(CombRay._trusted(fp=fp, syllables=combo, tail=tail))
    for n in range(0, max_infinite_prefix + 1):
        first = [x for x in elements(spec_at(n + 1), False) if x.norm() <= 1]
        second = [x for x in elements(spec_at(n + 2), False) if x.norm() <= 1]
        blocks = list(itertools.product(first, second))
        for combo in prefixes(n):
            for block in blocks:
                population.append(CombRay._trusted(fp=fp, syllables=combo, repeat=block))
    return population
