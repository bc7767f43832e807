"""Boundary homeomorphisms and the element-matching pipeline.

Given a homeomorphism between the boundaries of two factor groups, an
iterative procedure builds a bijection between the groups themselves:
alternating over the two sides, the lowest-index unmatched element is
paired with an unmatched element far along the image of its
corresponding ray, where "far enough" is certified by pulling the
candidate's own ray back and checking depth-T closeness exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import factors, morse
from .errors import DepthBudgetExceeded
from .graph import spheres
from .rays import CombRay, corresponding_ray
from .words import FreeProduct

IDENTITY = "identity"
PERM = "perm"
LINESWAP = "lineswap"

#: Rounds of both sides that ``MatchState.ensure_matched`` runs, at most,
#: before an element it was asked about must be matched.
EXTRA_ROUNDS = 512


@dataclass(frozen=True)
class BoundaryHomeo:
    """A computable homeomorphism between two factor boundaries.

    Rules: ``identity`` (match generator indices), ``perm`` (relabel
    generators, possibly onto inverses) and ``lineswap`` (flip the two
    ends of a line).  Each rule is invertible within the same family and
    maps eventually periodic directions to eventually periodic ones.
    Factors without a boundary take ``identity`` alone, and only ``perm``
    reads a generator map.
    ``letters`` maps signed source generators to target ones; it is built
    and validated once, from the other fields, and takes no part in
    equality or hashing.
    """

    source: factors.FactorSpec
    target: factors.FactorSpec
    rule: str
    perm: tuple[tuple[str, str], ...] = ()
    letters: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.perm and self.rule != PERM:
            raise ValueError(f"a generator map is read by the perm rule only, not by {self.rule!r}")
        if self.source.has_boundary() != self.target.has_boundary():
            raise ValueError("both factors must have boundaries, or neither")
        if not self.source.has_boundary():
            if self.rule != IDENTITY:
                raise ValueError(f"factors without a boundary take the identity rule only, not {self.rule!r}")
            finite = self.source.kind == factors.FINITE
            if finite != (self.target.kind == factors.FINITE):
                raise ValueError("a finite factor and an infinite one admit no bijection")
            if finite and len(self.source.table) != len(self.target.table):
                raise ValueError("finite factors of different order admit no bijection")
            return
        if self.rule == LINESWAP:
            if self.source.kind != factors.LINE or self.target.kind != factors.LINE:
                raise ValueError("lineswap is a rule for line factors")
        elif self.rule == IDENTITY:
            if self.source.kind != self.target.kind or len(self.source.names) != len(
                self.target.names
            ):
                raise ValueError("identity rule needs factors of the same shape")
        elif self.rule != PERM:
            raise ValueError(f"unknown homeomorphism rule {self.rule!r}")
        object.__setattr__(self, "letters", self._letter_map())  # validates a perm

    def _letter_map(self) -> dict[factors.Letter, factors.Letter]:
        src_bases = self.source.generators_base_count()
        tgt_bases = self.target.generators_base_count()
        if self.rule == IDENTITY:
            return {(b, s): (b, s) for b in src_bases for s in (1, -1)}
        if self.rule == LINESWAP:
            return {(0, 1): (0, -1), (0, -1): (0, 1)}
        mapping: dict[factors.Letter, factors.Letter] = {}
        seen_sources = set()
        for src_name, tgt_token in self.perm:
            if src_name not in self.source.names:
                raise ValueError(f"unknown source generator {src_name!r}")
            base = self.source.names.index(src_name)
            tgt_name, _, power = tgt_token.partition("^")
            sign = 1
            if power:
                if power != "-1":
                    raise ValueError(f"perm targets must be generators or their inverses, got {tgt_token!r}")
                sign = -1
            if tgt_name not in self.target.names:
                raise ValueError(f"unknown target generator {tgt_name!r}")
            tgt_base = self.target.names.index(tgt_name)
            mapping[(base, 1)] = (tgt_base, sign)
            mapping[(base, -1)] = (tgt_base, -sign)
            seen_sources.add(base)
        if len(seen_sources) != len(src_bases) or len(src_bases) != len(tgt_bases):
            raise ValueError("perm must cover every generator bijectively")
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("perm is not injective on signed generators")
        return mapping

    def apply(self, z: factors.BoundaryPoint) -> factors.BoundaryPoint:
        if z.spec != self.source:
            raise ValueError("direction does not belong to the source factor")
        mapping = self.letters
        return factors.BoundaryPoint.make(
            self.target,
            tuple(mapping[l] for l in z.prefix),
            tuple(mapping[l] for l in z.block),
        )

    def inverse(self) -> "BoundaryHomeo":
        if not self.source.has_boundary() or self.rule in (IDENTITY, LINESWAP):
            return BoundaryHomeo(self.target, self.source, self.rule)
        # target generator -> source token, from the validated perm tokens
        inv_tokens = set()
        for src_name, tgt_token in self.perm:
            tgt_name, _, power = tgt_token.partition("^")
            inv_tokens.add((tgt_name, f"{src_name}^-1" if power else src_name))
        return BoundaryHomeo(self.target, self.source, PERM, perm=tuple(sorted(inv_tokens)))


def iterate_elements(spec: factors.FactorSpec):
    """Deterministic enumeration: identity first, then sphere by sphere,
    each sphere in sort-key order; ends after the last sphere of a finite
    group."""
    yield spec.identity()
    for sphere in spheres(factors.FactorSpace(spec)):
        yield from sphere


class _Enumeration:
    """A sequence read lazily from ``source``, with a cursor before which
    every item is matched, or rejected under ``key`` (see
    ``MatchState._scan``).  Each enumeration is always asked about the
    same match table, which only grows, so a matched item stays matched."""

    def __init__(self, source, cursor: int = 0):
        self._iter = iter(source)
        self._items: list[factors.FactorElement] = []
        self._done = False
        self.cursor = cursor
        self.key = None

    def get(self, i: int):
        while len(self._items) <= i and not self._done:
            try:
                self._items.append(next(self._iter))
            except StopIteration:
                self._done = True
        return self._items[i] if i < len(self._items) else None

    def next_unmatched(self, matched) -> factors.FactorElement | None:
        """The first element not in ``matched``; None once a finite group
        is all matched.  The scan resumes at the element the last call
        returned."""
        while True:
            x = self.get(self.cursor)
            if x is None or x not in matched:
                return x
            self.cursor += 1


class MatchState:
    """The evolving bijection between one factor pair.

    Mutates only through ``step``; everything else reads a snapshot.
    """

    def __init__(
        self,
        homeo: BoundaryHomeo,
        gauge: morse.Gauge = morse.CANONICAL_TREE_GAUGE,
        ray_depth: int = 512,
        index_scan: int = 512,
        enumerations=None,
    ):
        if homeo.source.id == homeo.target.id:
            raise ValueError("source and target factors need distinct ids")
        self.homeo = homeo
        self.homeo_inverse = homeo.inverse()
        self.source = homeo.source
        self.target = homeo.target
        self.gauge = gauge
        self.ray_depth = ray_depth
        self.index_scan = index_scan
        e_src, e_tgt = self.source.identity(), self.target.identity()
        self.forward: dict[factors.FactorElement, factors.FactorElement] = {e_src: e_tgt}
        self.backward: dict[factors.FactorElement, factors.FactorElement] = {e_tgt: e_src}
        # per element matched on a boundary step, the direction it was
        # matched along: its corresponding ray's, or the image it was found on
        self.directions: dict[factors.FactorElement, factors.BoundaryPoint] = {}
        self.records: list[dict] = []
        if enumerations is None:
            enumerations = (iterate_elements(self.source), iterate_elements(self.target))
        self._enum_src = _Enumeration(enumerations[0])
        self._enum_tgt = _Enumeration(enumerations[1])
        # per image direction, its ray as read so far
        self._image_rays: dict[factors.BoundaryPoint, _Enumeration] = {}
        # per direction of either factor, its image (``image``)
        self._images: dict[factors.BoundaryPoint, factors.BoundaryPoint] = {}
        self.steps_taken = 0

    # -- core step --------------------------------------------------------

    def step(self, side: int) -> dict:
        """Run one matching step; side 1 initiates from the source group,
        side 2 from the target group.  Returns the step's record, which is
        empty when a finite pair's bijection is already complete."""
        if side not in (1, 2):
            raise ValueError("side must be 1 or 2")
        self.steps_taken += 1
        if side == 1:
            init_spec, init_enum, init_matched = self.source, self._enum_src, self.forward
            other_enum, other_matched = self._enum_tgt, self.backward
        else:
            init_spec, init_enum, init_matched = self.target, self._enum_tgt, self.backward
            other_enum, other_matched = self._enum_src, self.forward
        x = init_enum.next_unmatched(init_matched)
        if x is None:
            return {}
        record: dict = {
            "seq": self.steps_taken,
            "side": side,
            "initiator": init_spec.format_element(x),
        }
        if not init_spec.has_boundary():
            y = other_enum.next_unmatched(other_matched)
            record.update({"branch": "empty_boundary", "target": y.spec.format_element(y)})
            self._commit(side, x, y, record)
            return record
        merge_depth, direction = corresponding_ray(init_spec, x)
        t = morse.nesting_constant(merge_depth, self.gauge)
        if t > self.ray_depth:
            raise DepthBudgetExceeded(f"budget ray_depth {self.ray_depth} exceeded: certification needs depth {t}")
        z_img = self.image(direction)
        chosen = self._scan(z_img, other_matched, direction, t)
        if chosen is None:
            raise DepthBudgetExceeded(
                f"budget index_scan {self.index_scan} exhausted: no admissible unmatched candidate"
            )
        i, y, worst = chosen
        record.update(
            {
                "branch": "boundary",
                "target": y.spec.format_element(y),
                "i": i,
                "T": t,
                "t1": merge_depth,
                "gauge": self.gauge.key(),
                "delta_prime": str(self.gauge.delta),
                "max_pointwise": worst,
                "certified": True,
            }
        )
        self.directions[x], self.directions[y] = direction, z_img
        self._commit(side, x, y, record)
        return record

    def _scan(self, z_img, other_matched, lam_x, t):
        """The first unmatched vertex of z_img's ray, at index 1 to
        ``index_scan``, whose own ray pulled back stays close to lam_x up
        to depth t, as (index, vertex, worst); None if there is none.

        A direction's ray is read lazily, once, however many steps scan
        it.  Its vertices are only ever checked against the one match
        table of their factor, which only grows, and a rejection depends
        only on the vertex, lam_x and t.  So the scan starts at the ray's
        cursor, past vertices that were matched, or rejected under the
        same (lam_x, t); under another pair it starts again at index 1."""
        ray = self._image_rays.get(z_img)
        if ray is None:
            # the identity, at index 0, is matched from the start
            ray = self._image_rays[z_img] = _Enumeration(z_img.vertices(), cursor=1)
        if ray.key != (lam_x, t):
            ray.cursor, ray.key = 1, (lam_x, t)
        for i in range(ray.cursor, self.index_scan + 1):
            cand = ray.get(i)
            if cand not in other_matched:
                back = self.image(corresponding_ray(cand.spec, cand)[1])
                ok, worst = self._tracks(back, lam_x, t)
                if ok:
                    return i, cand, worst
            if i == ray.cursor:
                ray.cursor += 1
        return None

    def image(self, z: factors.BoundaryPoint) -> factors.BoundaryPoint:
        """The image of a source direction under the homeo, or of a target
        direction under its inverse.  The two factors' ids differ, so z's
        factor says which; each direction is mapped once per state."""
        img = self._images.get(z)
        if img is None:
            homeo = self.homeo if z.spec == self.source else self.homeo_inverse
            img = self._images[z] = homeo.apply(z)
        return img

    def _tracks(self, back: factors.BoundaryPoint, lam_x: factors.BoundaryPoint, t: int):
        """Whether the two rays stay close up to depth t, and the largest
        pointwise distance read on the way (``morse.ray_tracking``)."""
        return morse.ray_tracking(self.gauge, t, lam_x, back)

    def _commit(self, side, x, y, record):
        src, tgt = (x, y) if side == 1 else (y, x)
        self.forward[src] = tgt
        self.backward[tgt] = src
        self.records.append(record)

    # -- access ------------------------------------------------------------

    def ensure_matched(self, x: factors.FactorElement):
        table = self.forward if x.spec == self.source else self.backward
        rounds = 0
        while x not in table:
            if rounds >= EXTRA_ROUNDS:
                raise DepthBudgetExceeded(
                    f"element {x!r} still unmatched after {EXTRA_ROUNDS} extra rounds"
                )
            self.step(1)
            self.step(2)
            rounds += 1
        return table[x]


@dataclass
class ProductMatching:
    """Paired factor matchings inducing a map on combinatorial geodesics."""

    fp1: FreeProduct
    fp2: FreeProduct
    a: MatchState
    b: MatchState
    transcript: list[dict] = field(default_factory=list)

    def state_for(self, spec: factors.FactorSpec) -> MatchState:
        if spec == self.fp1.a or spec == self.fp2.a:
            return self.a
        if spec == self.fp1.b or spec == self.fp2.b:
            return self.b
        raise ValueError(f"factor {spec.id!r} is not part of this matching")

    def run_rounds(self, rounds: int):
        for _ in range(rounds):
            for state in (self.a, self.b):
                for side in (1, 2):
                    rec = state.step(side)
                    if not rec:
                        continue
                    rec = dict(rec)
                    rec["pair"] = "A" if state is self.a else "B"
                    self.transcript.append(rec)
        return self


def run_matching(
    fp1: FreeProduct,
    fp2: FreeProduct,
    homeo_a: BoundaryHomeo,
    homeo_b: BoundaryHomeo,
    rounds: int,
    gauge: morse.Gauge = morse.CANONICAL_TREE_GAUGE,
    ray_depth: int = 512,
    index_scan: int = 512,
) -> ProductMatching:
    if homeo_a.source != fp1.a or homeo_a.target != fp2.a:
        raise ValueError("homeo_a must map the first factors")
    if homeo_b.source != fp1.b or homeo_b.target != fp2.b:
        raise ValueError("homeo_b must map the second factors")
    pm = ProductMatching(
        fp1,
        fp2,
        MatchState(homeo_a, gauge=gauge, ray_depth=ray_depth, index_scan=index_scan),
        MatchState(homeo_b, gauge=gauge, ray_depth=ray_depth, index_scan=index_scan),
    )
    return pm.run_rounds(rounds)


def induced_map(pm: ProductMatching, a: CombRay) -> CombRay:
    """Map a combinatorial geodesic syllable-wise through the bijections.

    Syllables not yet processed by the alternation trigger extra rounds;
    rounds are only appended, so the alternation invariant is preserved.
    """
    if a.fp != pm.fp1:
        raise ValueError("combinatorial geodesic must live over the first product")

    def map_syllable(s: factors.FactorElement) -> factors.FactorElement:
        state = pm.state_for(s.spec)
        return state.ensure_matched(s)

    syllables = tuple(map_syllable(s) for s in a.syllables)
    repeat = tuple(map_syllable(s) for s in a.repeat)
    tail = None
    if a.tail is not None:
        tail = pm.state_for(a.tail.spec).image(a.tail)
    # each matching is a bijection fixing e (``checks.bijectivity_report``
    # checks this in the same match report), so a's syllables keep their
    # positions' factors and only the first may be the identity
    return CombRay._trusted(fp=pm.fp2, syllables=syllables, tail=tail, repeat=repeat)


# -- verification reports ------------------------------------------------


def check_continuity(
    state: MatchState,
    z: factors.BoundaryPoint,
    l: int,
    ball_norm: int = 12,
    k_max: int = 12,
) -> tuple[str, int | None]:
    """Search for a depth k whose filled neighborhood of z maps inside the
    depth-l filled neighborhood of the image direction, among the ball
    elements of norm at most ``ball_norm``.

    Returns ``("verified", k)`` for the smallest k with members that all
    land.  A failed search is never "verified": it is ``"vacuous"`` when no
    depth up to ``k_max`` had a member, otherwise ``"inconclusive"``; its k
    is None.
    """
    if z.spec != state.source:
        raise ValueError("direction does not belong to the source factor")
    z_img = state.image(z)
    candidates = []
    for x in iterate_elements(state.source):
        if x.norm() > ball_norm:
            break
        candidates.append(x)
    status = "vacuous"
    for k in range(1, k_max + 1):
        members = [x for x in candidates if morse.factor_close(state.gauge, k, z, x)]
        if not members:
            continue
        status = "inconclusive"
        # every member is matched, past the first whose image fails too
        if all([morse.factor_close(state.gauge, l, z_img, state.ensure_matched(x)) for x in members]):
            return "verified", k
    return status, None
