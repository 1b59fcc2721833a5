"""Lazy constructions around automorphisms of the countable random graph."""

from .graph import adjacent, realize, to_dot
from .partial import PartialAutomorphism

__all__ = [
    "adjacent",
    "realize",
    "to_dot",
    "PartialAutomorphism",
]
