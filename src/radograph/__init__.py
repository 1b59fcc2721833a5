"""Lazy constructions around automorphisms of the countable random graph."""

from .graph import adjacent, realize, induced_subgraph, to_dot
from .partial import PartialAutomorphism

__all__ = [
    "adjacent",
    "realize",
    "induced_subgraph",
    "to_dot",
    "PartialAutomorphism",
]
