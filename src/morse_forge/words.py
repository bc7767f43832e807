"""Normal-form word algebra for a free product of two factor groups.

A word is an alternating sequence of non-trivial factor elements
(syllables); the empty sequence is the identity.  The product group is
generated by the union of the factor generating sets, and the word
metric decomposes as the sum of the factor metrics over syllables, which
is what makes every operation here exact.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass

from . import factors
from .errors import ParseError

_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?$")


@dataclass(frozen=True, eq=False, slots=True)
class Word(factors.Value):
    """A free-product element as its alternating reduced syllable sequence."""

    syllables: tuple[factors.FactorElement, ...]
    _key = operator.attrgetter("syllables")

    def __eq__(self, other):
        # ``Value.__eq__`` with the field read directly, as vertices compare often
        return self is other or (other.__class__ is Word and self.syllables == other.syllables)

    __hash__ = factors.Value.__hash__

    def __post_init__(self):
        for i, s in enumerate(self.syllables):
            if s.is_identity():
                raise ValueError("syllables must be non-trivial")
            if i and self.syllables[i - 1].spec.id == s.spec.id:
                raise ValueError("adjacent syllables must alternate factors")

    def is_identity(self) -> bool:
        return not self.syllables

    def __len__(self) -> int:
        return len(self.syllables)

    def __repr__(self) -> str:
        if not self.syllables:
            return "e"
        return " ".join(s.spec.format_element(s) for s in self.syllables)


@dataclass(frozen=True, eq=False)
class FreeProduct(factors.Value):
    """Shared context for words over the free product of two factors.
    Rays and indexes compare their products on every call, so equality
    tests identity first (``factors.Value``)."""

    a: factors.FactorSpec
    b: factors.FactorSpec
    _key = operator.attrgetter("a", "b")

    def __post_init__(self):
        if self.a.id == self.b.id:
            raise ValueError("factor ids must differ")
        if set(self.a.names) & set(self.b.names):
            raise ValueError("generator names of the two factors must be disjoint")

    # -- construction ---------------------------------------------------

    def identity(self) -> Word:
        return Word(())

    def embed(self, x: factors.FactorElement) -> Word:
        self.spec_of(x.factor)
        return Word(()) if x.is_identity() else Word((x,))

    def word(self, syllables) -> Word:
        syllables = tuple(syllables)
        for s in syllables:
            self.spec_of(s.factor)
        return Word(syllables)

    def spec_of(self, factor_id: str) -> factors.FactorSpec:
        if factor_id == self.a.id:
            return self.a
        if factor_id == self.b.id:
            return self.b
        raise ValueError(f"unknown factor id {factor_id!r}")

    # -- algebra ----------------------------------------------------------

    def multiply(self, u: Word, v: Word) -> Word:
        out = list(u.syllables)
        for s in v.syllables:
            if out and out[-1].spec.id == s.spec.id:
                merged = out.pop() * s
                if not merged.is_identity():
                    out.append(merged)
            else:
                out.append(s)
        # u and v are reduced; a same-factor product replaces the last
        # syllable, or drops it when it cancels, so the result is reduced too
        return Word._trusted(syllables=tuple(out))

    def inverse(self, u: Word) -> Word:
        # the inverses of alternating non-trivial syllables, reversed
        return Word._trusted(syllables=tuple(s.inverse() for s in reversed(u.syllables)))

    def syllable_length(self, w: Word) -> int:
        """Length under the alternating-pair counting convention.

        Sequences are padded to start with the first factor; a leading
        second-factor syllable therefore counts one extra slot.  The
        identity has length zero.
        """
        if not w.syllables:
            return 0
        pad = 1 if w.syllables[0].factor == self.b.id else 0
        return len(w.syllables) + pad

    # -- metric -----------------------------------------------------------

    def norm(self, w: Word) -> int:
        return sum(s.norm() for s in w.syllables)

    def distance(self, u: Word, v: Word) -> int:
        """The norm of u^-1 v, read off the syllables without building it.

        The common syllable prefix cancels.  If the first differing
        syllables lie in one factor they merge into a single syllable,
        never the identity since they differ, of norm their factor
        distance; every other syllable left on either side stays as it is.
        """
        us, vs = u.syllables, v.syllables
        n = min(len(us), len(vs))
        i = 0
        while i < n and us[i] == vs[i]:
            i += 1
        d = 0
        if i < n and us[i].factor == vs[i].factor:
            d = factors.distance(us[i], vs[i])
            i += 1
        for s in itertools.chain(us[i:], vs[i:]):
            d += s.norm()
        return d

    # -- space interface ----------------------------------------------------

    def generators(self) -> tuple[factors.ProductGenerator, ...]:
        return factors.FactorSpace(self.a).generators() + factors.FactorSpace(self.b).generators()

    def join(self, prefix: Word, syllable: factors.FactorElement) -> Word:
        """The word of a syllable prefix followed by one more syllable of
        the other factor."""
        return Word(prefix.syllables + (syllable,))

    def geodesics(self, u: Word, v: Word) -> list[tuple[Word, ...]]:
        """All geodesic vertex paths u -> v, ordered syllable-lexicographically."""
        w = self.multiply(self.inverse(u), v)
        choices = [factors.geodesics(s.spec.identity(), s) for s in w.syllables]
        return [self._path(u, combo) for combo in itertools.product(*choices)]

    def first_geodesic(self, u: Word, v: Word) -> tuple[Word, ...]:
        w = self.multiply(self.inverse(u), v)
        return self._path(u, [factors.first_geodesic(s.spec.identity(), s) for s in w.syllables])

    def _path(self, u: Word, segments) -> tuple[Word, ...]:
        """The vertex path from u along factor geodesics from the identity,
        one per syllable, each translated to where the previous one ends."""
        verts = [u]
        for seg in segments:
            base = verts[-1]
            for elt in seg[1:]:
                verts.append(self.multiply(base, self.embed(elt)))
        return tuple(verts)

    def sort_key(self, w: Word):
        return tuple((0 if s.factor == self.a.id else 1, *s.sort_key()) for s in w.syllables)

    # -- text -------------------------------------------------------------

    def format(self, w: Word) -> str:
        return repr(w)

    def parse(self, text: str) -> Word:
        """Parse whitespace-separated generator tokens with optional ^k powers."""
        word = self.identity()
        for token in text.split():
            if token == "e":
                continue
            m = _TOKEN_RE.match(token)
            if not m:
                raise ParseError(f"bad token {token!r}")
            name, exp = m.group(1), int(m.group(2) or 1)
            spec_base = self._lookup_name(name)
            if spec_base is None:
                raise ParseError(f"unknown generator {name!r}")
            spec, base = spec_base
            word = self.multiply(word, self.embed(spec.power(base, exp)))
        return word

    def _lookup_name(self, name: str):
        for spec in (self.a, self.b):
            if name in spec.names:
                return spec, spec.names.index(name)
        return None
