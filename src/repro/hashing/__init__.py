"""Hash data structures: the BFH, its weighted extension, and HashRF-style hashing."""

from repro.hashing.bfh import BipartitionFrequencyHash, MaskTransform
from repro.hashing.multihash import UniversalSplitHasher, collision_rate
from repro.hashing.weighted import WeightedBipartitionHash

__all__ = [
    "BipartitionFrequencyHash",
    "MaskTransform",
    "WeightedBipartitionHash",
    "UniversalSplitHasher",
    "collision_rate",
]
