"""Shared exception types.

Every hard budget in the package fails loudly through one of these
instead of silently truncating an allegedly exhaustive enumeration.
"""


class MorseForgeError(Exception):
    pass


class MixedFactor(MorseForgeError):
    """Two factor elements from different factor groups were combined."""


class NoBoundary(MorseForgeError):
    """The factor group has no boundary directions."""


class NoLine(MorseForgeError):
    """The factor group has no usable bi-infinite geodesic through the basepoint."""


class EmptyWord(MorseForgeError):
    """The operation needs a non-trivial word."""


class ParseError(MorseForgeError):
    """Unparseable word, element or tail text."""


class Inconclusive(MorseForgeError):
    """A verdict could not be reached within a budget; the CLI exits 3."""


class CapExceeded(Inconclusive):
    """A path search met more paths than the path_cap budget allows."""

    def __init__(self, cap: int):
        super().__init__(f"budget path_cap {cap} exceeded: {cap + 1} paths enumerated")


class BudgetExceeded(Inconclusive):
    """A configured hard budget (vertices, path length, depth) is too small."""


class PossiblyTruncated(Inconclusive):
    """The ball cannot certify that a distance or path family is fully inside it."""


class GridMiss(Inconclusive):
    """A table gauge lacks a sample point required by a derived constant."""


class BallTooSmall(Inconclusive):
    """A constructed path would leave the ball."""


class DepthBudgetExceeded(Inconclusive):
    """A matching step could not be certified within the truncation budget."""
