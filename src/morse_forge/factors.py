"""Concrete factor groups with exact word metrics.

Supported kinds: the integer line, integer lattices of dimension >= 2,
free groups, and finite groups given by a full multiplication table.
These four admit exact distances, exact geodesic enumeration and (for
the line and free groups) boundaries made of eventually periodic
directions, so nothing downstream needs approximation or a word-problem
solver.

Everything that depends on the kind lives in one ops object per kind
(``_LineOps``, ``_LatticeOps``, ``_FreeOps``, ``_FiniteOps``), built once
with its ``FactorSpec``.  The ops work on payloads, the canonical element
data: an ``int`` for the line, an integer vector for lattices, reduced
``(base, exponent)`` runs for free groups and a table index for finite
groups.  Other modules go through ``FactorSpec`` and ``FactorElement``
and never read a kind or a payload.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

from .errors import CapExceeded, MixedFactor, NoBoundary

LINE = "line"
LATTICE = "lattice"
FREE = "free"
FINITE = "finite"

# A letter is a signed base-generator index.
Letter = tuple[int, int]

_FINITE_ASSOC_LIMIT = 64  # full associativity check is cubic in the order

_DEFAULT_FREE_NAMES = ("x", "y", "z", "w")


def _reduce_runs(runs) -> tuple[tuple[int, int], ...]:
    out: list[list[int]] = []
    for base, exp in runs:
        if exp == 0:
            continue
        if out and out[-1][0] == base:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([base, exp])
    return tuple((b, e) for b, e in out)


def _runs_to_letters(runs) -> tuple[Letter, ...]:
    letters: list[Letter] = []
    for base, exp in runs:
        sign = 1 if exp > 0 else -1
        letters.extend((base, sign) for _ in range(abs(exp)))
    return tuple(letters)


def _power_token(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


def _runs_text(names, runs) -> str:
    if not runs:
        return "e"
    return " ".join(_power_token(names[b], e) for b, e in runs)


@dataclass(frozen=True)
class Generator:
    """One directed edge label of a factor Cayley graph."""

    symbol: str
    base: int
    sign: int


# -- per-kind operations --------------------------------------------------------


class _Ops:
    """Operations on the payloads of one factor group.

    Every kind supplies ``identity``, ``check``, ``inverse``, ``norm`` and
    ``multiply``, the hot path, in its own terms.  The infinite kinds also
    read a payload as reduced runs ``(base, exponent)`` of generator powers
    (``runs``, ``from_runs``), and powers, text, automorphisms and the
    letter words of boundary kinds follow from that.
    """

    has_boundary = False

    def __init__(self, spec: "FactorSpec"):
        self.names = spec.names
        self.bases = tuple(range(len(spec.names)))
        gens = []
        for base, name in enumerate(spec.names):
            gens += [Generator(name, base, 1), Generator(f"{name}^-1", base, -1)]
        self.generators = tuple(gens)

    def power(self, base, k):
        return self.from_runs(((base, k),))

    def format(self, p):
        return _runs_text(self.names, self.runs(p))

    def sort_key(self, p):
        return (self.norm(p), p)

    def automorphisms(self):
        """Payload maps of the signed generator permutations."""
        n = len(self.bases)
        return tuple(
            functools.partial(self._relabel, perm, signs)
            for perm in itertools.permutations(range(n))
            for signs in itertools.product((1, -1), repeat=n)
        )

    def _relabel(self, perm, signs, p):
        return self.from_runs((perm[b], e * signs[b]) for b, e in self.runs(p))

    # -- kinds with a boundary ---------------------------------------------

    def letters(self, p):
        return _runs_to_letters(self.runs(p))

    def split_first_power(self, p):
        runs = self.runs(p)
        if runs and runs[-1][0] == 0:
            return self.from_runs(runs[:-1]), runs[-1][1]
        return p, 0

    def direction_text(self, prefix, block):
        return f"{_runs_text(self.names, prefix)}~{_runs_text(self.names, block)}"


class _LineOps(_Ops):
    """The integer line; payload: the integer itself."""

    has_boundary = True
    identity = 0
    inverse = staticmethod(operator.neg)
    norm = staticmethod(abs)
    multiply = staticmethod(operator.add)

    def __init__(self, spec: "FactorSpec"):
        if len(spec.names) != 1:
            raise ValueError("the integer line has exactly one base generator")
        super().__init__(spec)

    def check(self, p):
        if not isinstance(p, int):
            raise ValueError("line elements are integers")
        return p

    def runs(self, p):
        return ((0, p),) if p else ()

    def from_runs(self, runs):
        return sum(e for _b, e in runs)

    def sort_key(self, p):
        return (abs(p), 0 if p >= 0 else 1)

    def direction_text(self, prefix, block):
        # a reduced line direction is a bare sign
        return "+inf" if block[0][1] > 0 else "-inf"


class _LatticeOps(_Ops):
    """The integer lattice Z^dim; payload: the coordinate vector."""

    def __init__(self, spec: "FactorSpec"):
        if spec.dim < 2:
            raise ValueError("lattice dimension must be >= 2 (use integer_line for rank one)")
        if len(spec.names) != spec.dim:
            raise ValueError("need one generator name per lattice dimension")
        super().__init__(spec)
        self.identity = (0,) * spec.dim

    def check(self, p):
        p = tuple(p)
        if len(p) != len(self.bases) or not all(isinstance(c, int) for c in p):
            raise ValueError("lattice elements are integer vectors of the right dimension")
        return p

    def inverse(self, p):
        return tuple(-c for c in p)

    def norm(self, p):
        return sum(abs(c) for c in p)

    def multiply(self, p, q):
        return tuple(a + b for a, b in zip(p, q))

    def runs(self, p):
        return tuple((b, c) for b, c in enumerate(p) if c)

    def from_runs(self, runs):
        vec = [0] * len(self.bases)
        for b, e in runs:
            vec[b] += e
        return tuple(vec)


class _FreeOps(_Ops):
    """The free group of rank >= 1; payload: its reduced runs."""

    has_boundary = True
    identity = ()

    def __init__(self, spec: "FactorSpec"):
        if spec.rank < 1:
            raise ValueError("free rank must be >= 1")
        if len(spec.names) != spec.rank:
            raise ValueError("need one generator name per free rank")
        super().__init__(spec)

    def check(self, p):
        p = tuple((b, e) for b, e in p)
        for i, (b, e) in enumerate(p):
            if not (0 <= b < len(self.bases)) or e == 0:
                raise ValueError("free elements are reduced non-trivial runs")
            if i and p[i - 1][0] == b:
                raise ValueError("adjacent runs must use different generators")
        return p

    def inverse(self, p):
        return tuple((b, -e) for b, e in reversed(p))

    def norm(self, p):
        return sum(abs(e) for _b, e in p)

    def multiply(self, p, q):
        return _reduce_runs(itertools.chain(p, q))

    def runs(self, p):
        return p

    def from_runs(self, runs):
        return tuple((b, e) for b, e in runs)

    def sort_key(self, p):
        letters = _runs_to_letters(p)
        return (len(letters), tuple((b, 0 if s > 0 else 1) for b, s in letters))


class _FiniteOps(_Ops):
    """A finite group from its full multiplication table; payload: a table
    index.  Validation computes the identity, inverses and word norms, and
    the ops keep them."""

    def __init__(self, spec: "FactorSpec"):
        t = spec.table
        n = len(t)
        if n == 0 or any(len(row) != n for row in t):
            raise ValueError("finite table must be square and non-empty")
        if any(not (0 <= v < n) for row in t for v in row):
            raise ValueError("finite table entries out of range")
        ident = next(
            (e for e in range(n) if all(t[e][j] == j and t[j][e] == j for j in range(n))), None
        )
        if ident is None:
            raise ValueError("finite table has no identity")
        inverses = []
        for i in range(n):
            inv = next((j for j in range(n) if t[i][j] == ident and t[j][i] == ident), None)
            if inv is None:
                raise ValueError(f"finite table element {i} has no inverse")
            inverses.append(inv)
        if n > _FINITE_ASSOC_LIMIT:
            raise ValueError(f"finite table order {n} above associativity-check limit {_FINITE_ASSOC_LIMIT}")
        for a, b, c in itertools.product(range(n), repeat=3):
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise ValueError(f"finite table is not associative at ({a},{b},{c})")
        gens = spec.gen_elems
        if not gens:
            raise ValueError("finite factor needs at least one generator element")
        if any(not (0 <= g < n) for g in gens):
            raise ValueError("finite generator index out of range")
        if len(set(gens)) != len(gens):
            raise ValueError("finite generator elements must be distinct")
        if len(spec.names) != len(gens):
            raise ValueError("need one name per finite generator element")
        if any(inverses[g] not in gens for g in gens):
            raise ValueError("finite generator set must be closed under inversion")
        # connectivity: the word metric must be total
        norms: list[int | None] = [None] * n
        norms[ident] = 0
        frontier = [ident]
        while frontier:
            nxt = []
            for v in frontier:
                for g in gens:
                    w = t[v][g]
                    if norms[w] is None:
                        norms[w] = norms[v] + 1
                        nxt.append(w)
            frontier = nxt
        if any(d is None for d in norms):
            raise ValueError("finite generator set does not generate the group")
        super().__init__(spec)
        # one directed label per generating element; involutions appear once
        self.generators = tuple(Generator(name, i, 1) for i, name in enumerate(spec.names))
        self.table, self.gen_elems, self.identity = t, gens, ident
        self.inverses, self.norms = tuple(inverses), tuple(norms)
        self.inverse, self.norm = self.inverses.__getitem__, self.norms.__getitem__
        # the powers g^0, g^1, ... of each generator up to its order
        self.cycles = []
        for g in gens:
            cycle = [ident]
            while t[cycle[-1]][g] != ident:
                cycle.append(t[cycle[-1]][g])
            self.cycles.append(tuple(cycle))

    def check(self, p):
        if not isinstance(p, int) or not (0 <= p < len(self.table)):
            raise ValueError("finite elements are table indices")
        return p

    def power(self, base, k):
        cycle = self.cycles[base]
        return cycle[k % len(cycle)]

    def multiply(self, p, q):
        return self.table[p][q]

    def format(self, p):
        """The generator symbols of the lexicographically first geodesic."""
        t, inv, norms = self.table, self.inverses, self.norms
        symbols = []
        cur = self.identity
        while cur != p:
            remaining = norms[t[inv[cur]][p]]
            i = next(i for i, g in enumerate(self.gen_elems) if norms[t[inv[t[cur][g]]][p]] < remaining)
            symbols.append(self.names[i])
            cur = t[cur][self.gen_elems[i]]
        return " ".join(symbols) or "e"

    def automorphisms(self):
        return (lambda p: p,)


_OPS = {LINE: _LineOps, LATTICE: _LatticeOps, FREE: _FreeOps, FINITE: _FiniteOps}


# -- factor groups and their elements ---------------------------------------------


@dataclass(frozen=True)
class FactorSpec:
    """A factor group: identifier, kind and kind-specific data.

    ``names`` lists the base generator names; the full generating set is
    closed under formal inversion.  For the finite kind, ``table`` is a
    full multiplication table over element indices and ``gen_elems``
    lists the generating element indices (closed under inversion).
    ``ops`` holds the kind's operations; it is derived from the other
    fields and takes no part in equality or hashing.
    """

    id: str
    kind: str
    names: tuple[str, ...]
    dim: int = 0
    rank: int = 0
    table: tuple[tuple[int, ...], ...] = ()
    gen_elems: tuple[int, ...] = ()
    ops: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.id:
            raise ValueError("factor id must be non-empty")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be distinct")
        if self.kind not in _OPS:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        ops = _OPS[self.kind](self)
        # generator steps are the inner loop of ball and geodesic searches
        ops.steps = {(g.base, g.sign): FactorElement(self, ops.power(g.base, g.sign)) for g in ops.generators}
        object.__setattr__(self, "ops", ops)

    # -- constructors ---------------------------------------------------

    @classmethod
    def integer_line(cls, id: str, name: str = "x") -> "FactorSpec":
        return cls(id=id, kind=LINE, names=(name,))

    @classmethod
    def integer_lattice(cls, id: str, dim: int, names=None) -> "FactorSpec":
        names = tuple(names) if names else tuple(f"a{i + 1}" for i in range(dim))
        return cls(id=id, kind=LATTICE, names=names, dim=dim)

    @classmethod
    def free_group(cls, id: str, rank: int, names=None) -> "FactorSpec":
        if names is None:
            if rank <= len(_DEFAULT_FREE_NAMES):
                names = _DEFAULT_FREE_NAMES[:rank]
            else:
                names = tuple(f"x{i + 1}" for i in range(rank))
        return cls(id=id, kind=FREE, names=tuple(names), rank=rank)

    @classmethod
    def finite_table(cls, id: str, table, generators, names=None) -> "FactorSpec":
        table = tuple(tuple(row) for row in table)
        generators = tuple(generators)
        names = tuple(names) if names else tuple(f"g{i + 1}" for i in range(len(generators)))
        return cls(id=id, kind=FINITE, names=names, table=table, gen_elems=generators)

    # -- elements --------------------------------------------------------

    def identity(self) -> "FactorElement":
        return FactorElement(self, self.ops.identity)

    def make_element(self, payload) -> "FactorElement":
        """Validating element constructor; payload must be canonical."""
        return FactorElement(self, self.ops.check(payload))

    def power(self, base: int, k: int) -> "FactorElement":
        """The k-th power of the given base generator."""
        if not (0 <= base < len(self.ops.bases)):
            raise ValueError("generator index out of range")
        if k == 0:
            return self.identity()
        return FactorElement(self, self.ops.power(base, k))

    def generators_base_count(self) -> tuple[int, ...]:
        return self.ops.bases

    def generators(self) -> tuple[Generator, ...]:
        return self.ops.generators

    def generator_element(self, gen: Generator) -> "FactorElement":
        return self.ops.steps[gen.base, gen.sign]

    def has_boundary(self) -> bool:
        return self.ops.has_boundary

    def automorphisms(self):
        """Element maps of the label-preserving automorphisms: signed
        coordinate permutations for lattices, signed generator permutations
        for free factors, sign flips for lines, the identity otherwise."""
        return tuple(
            lambda x, f=f: FactorElement(self, f(x.payload)) for f in self.ops.automorphisms()
        )

    def letters(self, x: "FactorElement") -> tuple[Letter, ...]:
        """The reduced word of x as signed generator letters."""
        if not self.has_boundary():
            raise NoBoundary(f"factor {self.id!r} ({self.kind}) has no letter words")
        return self.ops.letters(x.payload)

    def split_first_power(self, x: "FactorElement") -> tuple["FactorElement", int]:
        """Write x as w * g^a with g the first generator and a maximal, so
        that the reduced word of w does not end in g or its inverse."""
        w, a = self.ops.split_first_power(x.payload)
        return FactorElement(self, w), a

    # -- presentation -----------------------------------------------------

    def format_element(self, x: "FactorElement") -> str:
        return self.ops.format(x.payload)

    def element_sort_key(self, x: "FactorElement"):
        return self.ops.sort_key(x.payload)


@dataclass(frozen=True)
class FactorElement:
    """An element of a factor group in canonical form."""

    spec: FactorSpec
    payload: object

    @property
    def factor(self) -> str:
        return self.spec.id

    def is_identity(self) -> bool:
        return self.payload == self.spec.ops.identity

    def __mul__(self, other: "FactorElement") -> "FactorElement":
        return multiply(self, other)

    def inverse(self) -> "FactorElement":
        return FactorElement(self.spec, self.spec.ops.inverse(self.payload))

    def norm(self) -> int:
        return self.spec.ops.norm(self.payload)

    def sort_key(self):
        return self.spec.ops.sort_key(self.payload)

    def __repr__(self) -> str:
        return self.spec.format_element(self)


def _same_factor(x: FactorElement, y: FactorElement) -> FactorSpec:
    if x.spec != y.spec:
        raise MixedFactor(f"elements of {x.spec.id!r} and {y.spec.id!r} cannot be combined")
    return x.spec


def multiply(x: FactorElement, y: FactorElement) -> FactorElement:
    spec = _same_factor(x, y)
    return FactorElement(spec, spec.ops.multiply(x.payload, y.payload))


def distance(x: FactorElement, y: FactorElement) -> int:
    _same_factor(x, y)
    return (x.inverse() * y).norm()


def step(x: FactorElement, gen: Generator) -> FactorElement:
    return multiply(x, x.spec.generator_element(gen))


def geodesics(x: FactorElement, y: FactorElement, cap: int | None = None):
    """All geodesic vertex paths from x to y, in generator-index order."""
    spec = _same_factor(x, y)
    paths: list[tuple[FactorElement, ...]] = []
    count = 0
    gens = spec.generators()

    def rec(cur: FactorElement, acc: list[FactorElement], remaining: int):
        nonlocal count
        if remaining == 0:
            count += 1
            if cap is None or count <= cap:
                paths.append(tuple(acc))
            return
        for gen in gens:
            nxt = step(cur, gen)
            if distance(nxt, y) == remaining - 1:
                acc.append(nxt)
                rec(nxt, acc, remaining - 1)
                acc.pop()

    rec(x, [x], distance(x, y))
    if cap is not None and count > cap:
        raise CapExceeded(count)
    return paths


def first_geodesic(x: FactorElement, y: FactorElement) -> tuple[FactorElement, ...]:
    """The lexicographically first geodesic from x to y (greedy, linear time)."""
    spec = _same_factor(x, y)
    gens = spec.generators()
    path = [x]
    cur = x
    remaining = distance(x, y)
    while remaining:
        for gen in gens:
            nxt = step(cur, gen)
            if distance(nxt, y) == remaining - 1:
                path.append(nxt)
                cur = nxt
                remaining -= 1
                break
        else:
            raise RuntimeError("no distance-decreasing step; metric is inconsistent")
    return tuple(path)


def _canonical(prefix, block) -> tuple[tuple[Letter, ...], tuple[Letter, ...]]:
    """The same eventually periodic word with the prefix tail absorbed into
    the block and the block cut to its primitive root."""
    prefix, block = [tuple(l) for l in prefix], [tuple(l) for l in block]
    while prefix and block and prefix[-1] == block[-1]:
        block.insert(0, block.pop())
        prefix.pop()
    n = len(block)
    root = next((d for d in range(1, n) if n % d == 0 and block == block[:d] * (n // d)), n)
    return tuple(prefix), tuple(block[:root])


@dataclass(frozen=True)
class BoundaryPoint:
    """An eventually periodic boundary direction of a factor group.

    Stored as (prefix, repeating block) over signed generator letters, in
    the canonical form with the shortest prefix and a primitive block.
    For the integer line the two directions reduce to a bare sign.
    """

    spec: FactorSpec
    prefix: tuple[Letter, ...]
    block: tuple[Letter, ...]

    def __post_init__(self):
        if not self.spec.has_boundary():
            raise NoBoundary(f"factor {self.spec.id!r} ({self.spec.kind}) has no boundary directions")
        if not self.block:
            raise ValueError("repeating block must be non-empty")
        bases = self.spec.generators_base_count()
        for b, s in itertools.chain(self.prefix, self.block):
            if b not in bases or s not in (1, -1):
                raise ValueError("letters must be signed base-generator indices")
        word = self.prefix + self.block + self.block
        if any(a[0] == b[0] and a[1] == -b[1] for a, b in zip(word, word[1:])):
            raise ValueError("unrolled word is not reduced")
        if (self.prefix, self.block) != _canonical(self.prefix, self.block):
            raise ValueError("direction must have the shortest prefix and a primitive block (use make)")

    @classmethod
    def make(cls, spec: FactorSpec, prefix, block) -> "BoundaryPoint":
        return cls(spec, *_canonical(prefix, block))

    @classmethod
    def line_end(cls, spec: FactorSpec, sign: int) -> "BoundaryPoint":
        if not spec.has_boundary():
            raise NoBoundary(f"factor {spec.id!r} has no line ends")
        return cls(spec, (), ((0, 1 if sign > 0 else -1),))

    @property
    def sign(self) -> int:
        if self.prefix:
            raise ValueError("sign is only defined for bare directions")
        return self.block[0][1]

    def letters(self, n: int) -> tuple[Letter, ...]:
        out = list(self.prefix[:n])
        i = 0
        while len(out) < n:
            out.append(self.block[i % len(self.block)])
            i += 1
        return tuple(out)

    def realization(self, depth: int) -> tuple[FactorElement, ...]:
        """The geodesic ray prefix of the given length representing this direction."""
        spec = self.spec
        from_runs = spec.ops.from_runs
        verts = [spec.identity()]
        runs: list[list[int]] = []
        for base, sign in self.letters(depth):
            if runs and runs[-1][0] == base:
                runs[-1][1] += sign
            else:
                runs.append([base, sign])
            verts.append(FactorElement(spec, from_runs(runs)))
        return tuple(verts)

    def format(self) -> str:
        return self.spec.ops.direction_text(self.prefix, self.block)


@dataclass(frozen=True)
class FactorSpace:
    """Adapter giving a factor group the shared metric-space interface."""

    spec: FactorSpec

    def identity(self) -> FactorElement:
        return self.spec.identity()

    def generators(self):
        return self.spec.generators()

    def step(self, x: FactorElement, gen: Generator) -> FactorElement:
        return step(x, gen)

    def distance(self, x: FactorElement, y: FactorElement) -> int:
        return distance(x, y)

    def geodesics(self, x, y, cap=None):
        return geodesics(x, y, cap)

    def first_geodesic(self, x, y):
        return first_geodesic(x, y)

    def sort_key(self, x: FactorElement):
        return x.sort_key()

    def format(self, x: FactorElement) -> str:
        return self.spec.format_element(x)
