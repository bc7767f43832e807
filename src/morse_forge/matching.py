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


@dataclass(frozen=True)
class BoundaryHomeo:
    """A computable homeomorphism between two factor boundaries.

    Rules: ``identity`` (match generator indices), ``perm`` (relabel
    generators, possibly onto inverses) and ``lineswap`` (flip the two
    ends of a line).  Each rule is invertible within the same family and
    maps eventually periodic directions to eventually periodic ones.
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
        if self.source.has_boundary() != self.target.has_boundary():
            raise ValueError("both factors must have boundaries, or neither")
        if not self.source.has_boundary():
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
    every item is matched.  Each enumeration is always asked about the
    same match table, which only grows, so a matched item stays matched."""

    def __init__(self, source, cursor: int = 0):
        self._iter = iter(source)
        self._items: list[factors.FactorElement] = []
        self._done = False
        self.cursor = cursor

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
        self.delta_prime = gauge.delta
        self.ray_depth = ray_depth
        self.index_scan = index_scan
        e_src, e_tgt = self.source.identity(), self.target.identity()
        self.forward: dict[factors.FactorElement, factors.FactorElement] = {e_src: e_tgt}
        self.backward: dict[factors.FactorElement, factors.FactorElement] = {e_tgt: e_src}
        self.meta: dict[factors.FactorElement, dict] = {}
        self.records: list[dict] = []
        if enumerations is None:
            enumerations = (iterate_elements(self.source), iterate_elements(self.target))
        self._enum_src = _Enumeration(enumerations[0])
        self._enum_tgt = _Enumeration(enumerations[1])
        # per image direction, its ray as read so far
        self._image_rays: dict[factors.BoundaryPoint, _Enumeration] = {}
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
            homeo_dir, homeo_back = self.homeo, self.homeo_inverse
        else:
            init_spec, init_enum, init_matched = self.target, self._enum_tgt, self.backward
            other_enum, other_matched = self._enum_src, self.forward
            homeo_dir, homeo_back = self.homeo_inverse, self.homeo
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
            self._commit(side, x, y, record, init_direction=None, target_direction=None)
            return record
        cr = corresponding_ray(init_spec, x)
        t = morse.nesting_constant(cr.merge_depth, self.gauge)
        if t > self.ray_depth:
            raise DepthBudgetExceeded(f"certification depth {t} exceeds ray budget {self.ray_depth}")
        z_img = homeo_dir.apply(cr.direction)
        chosen = self._scan(z_img, other_matched, homeo_back, cr.direction, t)
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
                "t1": cr.merge_depth,
                "gauge": self.gauge.key(),
                "delta_prime": str(self.delta_prime),
                "max_pointwise": worst,
                "certified": True,
            }
        )
        self._commit(side, x, y, record, init_direction=cr.direction, target_direction=z_img)
        return record

    def _scan(self, z_img, other_matched, homeo_back, lam_x, t):
        """The first unmatched vertex of z_img's ray, at index 1 to
        ``index_scan``, whose own ray pulled back stays close to lam_x up
        to depth t, as (index, vertex, worst); None if there is none.

        A direction's ray is read lazily, once, however many steps scan
        it.  Its vertices are only ever checked against the one match
        table of their factor, so the scan starts at the ray's cursor:
        the vertices before it were matched, and still are."""
        ray = self._image_rays.get(z_img)
        if ray is None:
            # the identity, at index 0, is matched from the start
            ray = self._image_rays[z_img] = _Enumeration(z_img.vertices(), cursor=1)
        for i in range(ray.cursor, self.index_scan + 1):
            cand = ray.get(i)
            if cand in other_matched:
                if i == ray.cursor:
                    ray.cursor += 1
                continue
            back = homeo_back.apply(corresponding_ray(cand.spec, cand).direction)
            ok, worst = self._tracks(back, lam_x, t)
            if ok:
                return i, cand, worst
        return None

    def _tracks(self, back: factors.BoundaryPoint, lam_x: factors.BoundaryPoint, t: int):
        """Whether the two rays stay close up to depth t, and the largest
        pointwise distance read on the way, up to the first one that
        fails.  Rays sharing s steps stand 2 * max(0, t' - s) apart at step
        t', so the distances read are 0, ..., 0, 2, 4, ..."""
        shared = factors.shared_steps(back, lam_x, t)
        if morse.tree_close(self.gauge, t, shared):
            return True, 2 * (t - shared)
        # the first failing distance: the least even one >= max(1, ceil(delta))
        close_below = morse.rational_ceil(self.delta_prime)
        return False, 2 * max(1, -(-close_below // 2))

    def _commit(self, side, x, y, record, init_direction, target_direction):
        if side == 1:
            src, tgt = x, y
        else:
            src, tgt = y, x
        self.forward[src] = tgt
        self.backward[tgt] = src
        self.meta[x] = {"role": "initiator", "direction": init_direction, "record": record}
        self.meta[y] = {"role": "target", "direction": target_direction, "record": record}
        self.records.append(record)

    # -- access ------------------------------------------------------------

    def image(self, x: factors.FactorElement) -> factors.FactorElement:
        if x.spec == self.source:
            return self.forward[x]
        return self.backward[x]

    def ensure_matched(self, x: factors.FactorElement, extra_rounds: int = 512):
        table = self.forward if x.spec == self.source else self.backward
        rounds = 0
        while x not in table:
            if rounds >= extra_rounds:
                raise DepthBudgetExceeded(
                    f"element {x!r} still unmatched after {extra_rounds} extra rounds"
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


def induced_map(pm: ProductMatching, a: CombRay, extra_rounds: int = 512) -> CombRay:
    """Map a combinatorial geodesic syllable-wise through the bijections.

    Syllables not yet processed by the alternation trigger extra rounds;
    rounds are only appended, so the alternation invariant is preserved.
    """
    if a.fp != pm.fp1:
        raise ValueError("combinatorial geodesic must live over the first product")

    def map_syllable(s: factors.FactorElement) -> factors.FactorElement:
        state = pm.state_for(s.spec)
        return state.ensure_matched(s, extra_rounds=extra_rounds)

    syllables = tuple(map_syllable(s) for s in a.syllables)
    repeat = tuple(map_syllable(s) for s in a.repeat)
    tail = None
    if a.tail is not None:
        tail = pm.state_for(a.tail.spec).homeo.apply(a.tail)
    return CombRay(
        pm.fp2,
        a.kind,
        syllables,
        tail=tail,
        repeat=repeat,
        unstable_last=a.unstable_last,
    )


# -- verification reports ------------------------------------------------


def filled_member(
    gauge: morse.Gauge,
    k: int,
    direction: factors.BoundaryPoint,
    x: factors.FactorElement,
) -> bool:
    """Is x inside the depth-k filled neighborhood of a boundary direction?

    That is: x has norm at least k and its geodesic stays close to the ray
    up to depth k.  Factors with a boundary are trees, so the geodesic is
    unique and closeness follows from the letters it shares with the ray
    (``factors.shared_steps``); ``morse.neighborhood_member`` is the
    pointwise definition it agrees with.
    """
    return x.norm() >= k and morse.tree_close(gauge, k, factors.shared_steps(x, direction, k))


def check_continuity(
    state: MatchState,
    z: factors.BoundaryPoint,
    l: int,
    ball_norm: int = 12,
    k_max: int = 12,
    extra_rounds: int = 512,
) -> dict:
    """Search for a depth k whose filled neighborhood of z maps inside the
    depth-l filled neighborhood of the image direction.

    The report lists, per k, the ball elements of the source neighborhood
    and whether each image landed; the smallest non-vacuously verified k
    wins.  A failed search is inconclusive, never "verified".
    """
    if z.spec != state.source:
        raise ValueError("direction does not belong to the source factor")
    z_img = state.homeo.apply(z)
    candidates = []
    for x in iterate_elements(state.source):
        if x.norm() > ball_norm:
            break
        candidates.append(x)
    per_k = []
    found = None
    for k in range(1, k_max + 1):
        members = [
            x
            for x in candidates
            if filled_member(state.gauge, k, z, x)
        ]
        if not members:
            per_k.append({"k": k, "members": 0, "failures": [], "vacuous": True})
            continue
        failures = []
        for x in members:
            y = state.ensure_matched(x, extra_rounds=extra_rounds)
            if not filled_member(state.gauge, l, z_img, y):
                failures.append(
                    {
                        "element": state.source.format_element(x),
                        "image": state.target.format_element(y),
                    }
                )
        per_k.append(
            {"k": k, "members": len(members), "failures": failures, "vacuous": False}
        )
        if not failures:
            found = {
                "k": k,
                "members": [state.source.format_element(x) for x in members],
            }
            break
    if found is not None:
        status = "verified"
    elif all(entry["vacuous"] for entry in per_k):
        status = "vacuous"
    else:
        status = "inconclusive"
    return {
        "z": z.format(),
        "image_z": z_img.format(),
        "l": l,
        "ball_norm": ball_norm,
        "k_max": k_max,
        "status": status,
        "found": found,
        "per_k": per_k,
    }
