"""Exact geometry of two-factor free products, with brute-force verification
of quasi-geodesic stability properties on finite balls."""

from .errors import MorseForgeError
from .factors import BoundaryPoint, FactorElement, FactorSpec, FactorSpace
from .graph import Ball
from .morse import CANONICAL_TREE_GAUGE, Gauge, nesting_constant, tracking_bound
from .rays import CombRay, corresponding_ray, standard_line
from .matching import BoundaryHomeo, MatchState, ProductMatching, run_matching
from .words import FreeProduct, Word

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BoundaryHomeo",
    "BoundaryPoint",
    "CANONICAL_TREE_GAUGE",
    "CombRay",
    "FactorElement",
    "FactorSpace",
    "FactorSpec",
    "FreeProduct",
    "Gauge",
    "MatchState",
    "MorseForgeError",
    "ProductMatching",
    "Word",
    "corresponding_ray",
    "nesting_constant",
    "run_matching",
    "standard_line",
    "tracking_bound",
    "__version__",
]
