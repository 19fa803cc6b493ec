"""Address decoding: which target port serves which address range.

The node performs "routing of the information from the initiators
interfaces to the targets interfaces"; routing is by address ranges, one
or more per target port.  Addresses that decode to no target produce an
error response generated by the node itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class RoutingError(ValueError):
    """Overlapping or malformed address map."""


@dataclass(frozen=True)
class Region:
    """One decoded range ``[base, base+size)`` mapping to ``target``."""

    base: int
    size: int
    target: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise RoutingError(f"region at {self.base:#x}: size must be > 0")
        if self.base < 0 or self.target < 0:
            raise RoutingError("region base and target must be non-negative")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class AddressMap:
    """An ordered, non-overlapping set of regions."""

    def __init__(self, regions: Sequence[Region]):
        ordered = sorted(regions, key=lambda r: r.base)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.base < prev.end:
                raise RoutingError(
                    f"regions overlap: [{prev.base:#x},{prev.end:#x}) and "
                    f"[{cur.base:#x},{cur.end:#x})"
                )
        self.regions: Tuple[Region, ...] = tuple(ordered)
        # Decode memo: test programs revisit a small set of addresses
        # many thousands of times per run (hotspot/linear patterns), and
        # both DUT views decode every cycle a request is up — a dict hit
        # replaces the whole binary search.
        self._decode_cache: Dict[int, Optional[int]] = {}

    def decode(self, address: int) -> Optional[int]:
        """Target port index for ``address``, or None (decode error)."""
        cache = self._decode_cache
        try:
            return cache[address]
        except KeyError:
            pass
        lo, hi = 0, len(self.regions) - 1
        result: Optional[int] = None
        while lo <= hi:
            mid = (lo + hi) // 2
            region = self.regions[mid]
            if address < region.base:
                hi = mid - 1
            elif address >= region.end:
                lo = mid + 1
            else:
                result = region.target
                break
        cache[address] = result
        return result

    def targets(self) -> List[int]:
        return sorted({r.target for r in self.regions})

    def region_of(self, target: int) -> Region:
        """First region mapped to ``target`` (for traffic generation)."""
        for region in self.regions:
            if region.target == target:
                return region
        raise RoutingError(f"no region maps to target {target}")

    def random_address_in(self, target: int, rng, alignment: int = 1) -> int:
        """A random ``alignment``-aligned address inside ``target``'s region."""
        region = self.region_of(target)
        span = region.size // alignment
        if span < 1:
            raise RoutingError(
                f"target {target} region smaller than alignment {alignment}"
            )
        return region.base + rng.randrange(span) * alignment

    def __len__(self) -> int:
        return len(self.regions)

    @staticmethod
    def default(n_targets: int, block_size: int = 0x1000, base: int = 0) -> "AddressMap":
        """One ``block_size`` region per target, contiguous from ``base``."""
        return AddressMap(
            [Region(base + t * block_size, block_size, t) for t in range(n_targets)]
        )
