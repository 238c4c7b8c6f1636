"""Shared data containers: covariates, ordinary-event records, datasets."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

SNAPSHOT_SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class StandardizationSnapshot:
    """Training-station covariate means/sds, persisted for grid prediction."""

    names: tuple[str, ...]
    means: np.ndarray
    sds: np.ndarray
    schema_version: int = SNAPSHOT_SCHEMA_VERSION

    def __post_init__(self):
        if len(self.names) != self.means.size or len(self.names) != self.sds.size:
            raise ValueError("snapshot names/means/sds lengths differ")
        if np.any(self.sds <= 0.0):
            raise ValueError("snapshot sds must be positive")

    def standardize(self, raw: np.ndarray) -> np.ndarray:
        """Map raw covariate rows (n, k) to design rows with a leading intercept."""
        raw = np.atleast_2d(np.asarray(raw, dtype=float))
        if raw.shape[1] != len(self.names):
            raise ValueError(
                f"expected {len(self.names)} covariates {self.names}, got {raw.shape[1]}"
            )
        z = (raw - self.means) / self.sds
        return np.hstack([np.ones((z.shape[0], 1)), z])

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "names": list(self.names),
            "means": [float(v) for v in self.means],
            "sds": [float(v) for v in self.sds],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "StandardizationSnapshot":
        return cls(
            names=tuple(d["names"]),
            means=np.asarray(d["means"], dtype=float),
            sds=np.asarray(d["sds"], dtype=float),
            schema_version=int(d.get("schema_version", SNAPSHOT_SCHEMA_VERSION)),
        )


@dataclass(frozen=True, eq=False)
class SiteCovariates:
    """Standardized covariate row for one station (leading 1 for the intercept)."""

    station: str
    z: np.ndarray
    raw: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        if self.z.ndim != 1 or self.z.size < 1:
            raise ValueError("covariate row must be a non-empty 1-d vector")
        if self.z[0] != 1.0:
            raise ValueError("covariate row must start with the intercept value 1")


class Dataset:
    """Immutable ordinary-event dataset over S sites and J common blocks.

    ``events[s][j]`` holds the positive magnitudes for site ``s`` in block
    ``j``; block labels (calendar years) are shared across sites.
    """

    def __init__(
        self,
        sites: Sequence[SiteCovariates],
        blocks: Sequence[int],
        events: Sequence[Sequence[np.ndarray]],
        trials_per_block: int = 366,
        snapshot: StandardizationSnapshot | None = None,
    ):
        self.sites = list(sites)
        self.blocks = [int(b) for b in blocks]
        if trials_per_block < 1:
            raise ValueError("trials_per_block must be >= 1")
        self.trials_per_block = int(trials_per_block)
        self.snapshot = snapshot
        if len(events) != len(self.sites):
            raise ValueError("events must have one row of blocks per site")
        p1 = self.sites[0].z.size if self.sites else 1
        cleaned: list[list[np.ndarray]] = []
        for s, site_events in enumerate(events):
            if len(site_events) != len(self.blocks):
                raise ValueError(
                    f"site {self.sites[s].station}: {len(site_events)} blocks, expected {len(self.blocks)}"
                )
            if self.sites[s].z.size != p1:
                raise ValueError("all sites must share the covariate dimension")
            row = []
            for j, mags in enumerate(site_events):
                arr = np.asarray(mags, dtype=float)
                if np.any(arr <= 0.0):
                    raise ValueError("magnitudes must be strictly positive")
                if arr.size > self.trials_per_block:
                    raise ValueError(
                        f"site {self.sites[s].station} block {self.blocks[j]}: "
                        f"{arr.size} events exceed trials_per_block={self.trials_per_block}"
                    )
                arr.setflags(write=False)
                row.append(arr)
            cleaned.append(row)
        self.events = cleaned

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_covariates(self) -> int:
        return self.sites[0].z.size - 1 if self.sites else 0

    def counts(self) -> np.ndarray:
        """Event counts n_j(s) as an (S, J) integer array."""
        return np.array(
            [[mags.size for mags in row] for row in self.events], dtype=np.int64
        )

    def design_matrix(self) -> np.ndarray:
        return np.vstack([s.z for s in self.sites]) if self.sites else np.zeros((0, 1))
