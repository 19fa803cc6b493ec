"""Hierarchical interconnect construction from the four basic components."""

from .builder import Fabric, FabricError, FabricSpec

__all__ = ["FabricSpec", "Fabric", "FabricError"]
