import itertools
import os
from fractions import Fraction

import pytest

from morse_forge import CANONICAL_TREE_GAUGE, FactorSpec, FreeProduct, Gauge
from morse_forge.factors import BoundaryPoint

Z2_TABLE = [[0, 1], [1, 0]]
Z6_TABLE = [[(i + j) % 6 for j in range(6)] for i in range(6)]

# gauges whose ceil(delta) is 0, 1, 2 and 5; delta is 1/2 and 3/2 in the middle two
CLOSENESS_GAUGES = (
    Gauge.affine(0, 0, 0),
    Gauge.affine(0, 0, Fraction(1, 16)),
    Gauge.affine(0, 0, Fraction(3, 16)),
    CANONICAL_TREE_GAUGE,
)


def directions(spec, size):
    """Every boundary direction written with |prefix| + |block| <= size."""
    letters = [(b, s) for b in spec.generators_base_count() for s in (1, -1)]
    out = set()
    for n in range(1, size + 1):
        for word in itertools.product(letters, repeat=n):
            for cut in range(n):
                prefix, block = word[:cut], word[cut:]
                unrolled = prefix + block + block
                if all(a != (b[0], -b[1]) for a, b in zip(unrolled, unrolled[1:])):
                    out.add(BoundaryPoint.make(spec, prefix, block))
    return sorted(out, key=lambda z: (len(z.prefix) + len(z.block), z.prefix, z.block))


@pytest.fixture
def line_a():
    return FactorSpec.integer_line("A", "x")


@pytest.fixture
def line_b():
    return FactorSpec.integer_line("B", "y")


@pytest.fixture
def lattice2():
    return FactorSpec.integer_lattice("A", 2)


@pytest.fixture
def free2():
    return FactorSpec.free_group("A", 2, names=("x", "y"))


@pytest.fixture
def z6():
    return FactorSpec.finite_table("A", Z6_TABLE, [1, 5], names=["s", "s_inv"])


@pytest.fixture
def zz(line_a, line_b):
    return FreeProduct(line_a, line_b)


@pytest.fixture
def dihedral():
    a = FactorSpec.finite_table("A", Z2_TABLE, [1], names=["a"])
    b = FactorSpec.finite_table("B", Z2_TABLE, [1], names=["b"])
    return FreeProduct(a, b)


@pytest.fixture
def lattice_product(lattice2, line_b):
    return FreeProduct(lattice2, line_b)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(count) makes the checks share their items among ``count`` CPUs
    from then on; it returns a list that gains one entry per fork."""
    forks = []
    fork = os.fork

    def share(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(count)))
        monkeypatch.setattr(os, "fork", lambda: forks.append(count) or fork())
        return forks

    return share
