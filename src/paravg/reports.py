"""Experiment reports: named scalar results with provenance.

Every empirical sweep in this package returns an ExperimentReport so that
recorded constants (sup norms, ratios, fitted slopes) travel together with
the configuration and seed that produced them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["substream_seed", "ExperimentReport"]


def substream_seed(seed: int, name: str) -> int:
    """Derive a deterministic per-experiment RNG seed from (seed, name).

    Named splitting keeps parallel experiments reproducible: the stream an
    experiment sees depends only on the master seed and its own name, never
    on scheduling order.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class ExperimentReport:
    """A named bundle of scalar results plus the config that produced them."""

    name: str
    params: dict = field(default_factory=dict)
    constant: float | None = None
    samples: int | None = None
    seed: int | None = None
    values: dict = field(default_factory=dict)
    notes: str = ""
