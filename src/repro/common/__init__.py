"""Shared utilities used by every subsystem.

This package is dependency-free (standard library + numpy only) and holds
the small building blocks the rest of the reproduction is made of: byte
units, deterministic hashing and partitioning, logical size estimation for
records, error types, seeded RNG derivation, and running statistics.
"""

from repro.common.errors import (
    ReproError,
    ConfigError,
    GraphError,
    MemoryBudgetExceeded,
    SimulationError,
    StorageError,
)
from repro.common.units import (
    KB,
    MB,
    GB,
    TB,
    format_bytes,
    format_duration,
    parse_bytes,
)
from repro.common.partitioner import (
    Partitioner,
    HashPartitioner,
    ModPartitioner,
    RangePartitioner,
    stable_hash,
    stable_hashes,
)
from repro.common.sizeof import logical_sizeof, pair_size, pair_sizes
from repro.common.rng import derive_seed, make_rng
from repro.common.stats import Histogram, RunningStats

__all__ = [
    "ReproError",
    "ConfigError",
    "GraphError",
    "MemoryBudgetExceeded",
    "SimulationError",
    "StorageError",
    "KB",
    "MB",
    "GB",
    "TB",
    "format_bytes",
    "format_duration",
    "parse_bytes",
    "Partitioner",
    "HashPartitioner",
    "ModPartitioner",
    "RangePartitioner",
    "stable_hash",
    "stable_hashes",
    "logical_sizeof",
    "pair_size",
    "pair_sizes",
    "derive_seed",
    "make_rng",
    "Histogram",
    "RunningStats",
]
