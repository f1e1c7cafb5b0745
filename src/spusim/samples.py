"""Sample batches and the one covariance accumulator behind every estimate.

A ``SampleBatch`` is a matrix of readout samples (rows = time points,
columns = cells) with sampling-rate metadata.  Batches produced by
multi-chain runs are stored chain-major: the first ``n // chains`` rows
belong to chain 0, and so on; merging independent chains in chain-index
order keeps every artifact deterministic.

Every sample covariance in the package (a batch's covariance, the inverse
estimate and the error-versus-sample-count series) comes from
``OnlineCovariance``; ``prefix_covariances`` reads the covariance of the
first n rows at each checkpoint n in a single pass over the rows.

On-disk format: CSV with header ``t,v0,...,v{d-1}`` (SI units) plus a JSON
sidecar (same stem, ``.json``) carrying the run metadata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DimensionMismatchError

FLOAT_FMT = "%.17g"


@dataclass
class SampleBatch:
    values: np.ndarray            # (n_samples, dimension)
    sample_rate: float            # Hz
    start_time: float = 0.0
    chains: int = 1
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.chains < 1 or self.values.shape[0] % self.chains:
            raise ValueError("sample count must be an integer multiple of chains")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @property
    def samples_per_chain(self) -> int:
        return self.n_samples // self.chains

    def per_chain(self) -> np.ndarray:
        """View shaped (chains, samples_per_chain, dimension)."""
        return self.values.reshape(self.chains, self.samples_per_chain, self.dimension)

    def time_major(self) -> np.ndarray:
        """Rows reordered so record k of every chain precedes record k+1.

        A prefix of this ordering is "the first T seconds of all chains",
        which is what convergence-versus-sample-count series should consume.
        """
        return self.per_chain().transpose(1, 0, 2).reshape(-1, self.dimension)

    def times(self) -> np.ndarray:
        """Per-row sample times; each chain restarts at ``start_time``."""
        t = self.start_time + (1.0 + np.arange(self.samples_per_chain)) / self.sample_rate
        return np.tile(t, self.chains)

    def covariance(self) -> np.ndarray:
        """Unbiased mean-subtracted sample covariance, exactly symmetrized."""
        return OnlineCovariance(self.dimension).add(self.values).covariance()

    def scaled(self, column_factors: np.ndarray) -> "SampleBatch":
        """Column-wise rescale (used by the calibration post-processing)."""
        factors = np.asarray(column_factors, dtype=float)
        if factors.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"expected {self.dimension} factors, got shape {factors.shape}"
            )
        return SampleBatch(self.values * factors, self.sample_rate, self.start_time,
                           self.chains, dict(self.meta))

    def thinned(self, stride: int) -> "SampleBatch":
        """Keep every ``stride``-th sample within each chain."""
        if stride < 1:
            raise ValueError("stride must be >= 1")
        kept = self.per_chain()[:, stride - 1::stride, :]
        return SampleBatch(kept.reshape(-1, self.dimension), self.sample_rate / stride,
                           self.start_time, self.chains,
                           dict(self.meta, thinned_by=stride))

    def to_csv(self, path: str | Path, sidecar: dict | None = None) -> Path:
        path = Path(path)
        header = "t," + ",".join(f"v{i}" for i in range(self.dimension))
        data = np.column_stack([self.times(), self.values])
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt=FLOAT_FMT)
        side = {
            "sample_rate": self.sample_rate,
            "start_time": self.start_time,
            "chains": self.chains,
            "n_samples": self.n_samples,
            "dimension": self.dimension,
        }
        side.update(self.meta)
        if sidecar:
            side.update(sidecar)
        path.with_suffix(".json").write_text(json.dumps(side, indent=2, sort_keys=True, default=str))
        return path

    @classmethod
    def from_csv(cls, path: str | Path) -> "SampleBatch":
        path = Path(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        sidecar_path = path.with_suffix(".json")
        meta = json.loads(sidecar_path.read_text()) if sidecar_path.exists() else {}
        rate = float(meta.get("sample_rate", 1.0))
        chains = int(meta.get("chains", 1))
        start = float(meta.get("start_time", 0.0))
        known = {"sample_rate", "start_time", "chains", "n_samples", "dimension"}
        extra = {k: v for k, v in meta.items() if k not in known}
        return cls(data[:, 1:], rate, start, chains, extra)


class OnlineCovariance:
    """One-pass mean/comoment accumulator with exact pairwise merging.

    Independent chains accumulate separately and merge in chain-index
    order, which makes multi-chain covariance estimates deterministic and
    independent of how rows were batched.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.count = 0
        self.mean = np.zeros(dimension)
        self._m2 = np.zeros((dimension, dimension))

    def add(self, rows: np.ndarray) -> "OnlineCovariance":
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"rows have dimension {rows.shape[1]}, accumulator {self.dimension}"
            )
        other = OnlineCovariance(self.dimension)
        other.count = rows.shape[0]
        other.mean = rows.mean(axis=0)
        centered = rows - other.mean
        other._m2 = centered.T @ centered
        return self.merge(other)

    def merge(self, other: "OnlineCovariance") -> "OnlineCovariance":
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self._m2 = other.count, other.mean.copy(), other._m2.copy()
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 = (self._m2 + other._m2
                    + np.outer(delta, delta) * (self.count * other.count / total))
        self.mean = self.mean + delta * (other.count / total)
        self.count = total
        return self

    def covariance(self) -> np.ndarray:
        """Unbiased (n - 1) covariance of the rows seen so far, exactly symmetrized."""
        if self.count < 2:
            raise ValueError("need at least two samples for a covariance")
        cov = self._m2 / (self.count - 1)
        return 0.5 * (cov + cov.T)


def prefix_covariances(rows: np.ndarray, counts) -> Iterator[tuple[int, np.ndarray]]:
    """Covariance of the first n rows for each n of increasing ``counts``.

    One pass: the rows between consecutive checkpoints are added to a single
    accumulator, so each row is centered and multiplied once however many
    checkpoints there are.
    """
    acc = OnlineCovariance(rows.shape[1])
    start = 0
    for n in counts:
        if n <= start:
            raise ValueError("checkpoint counts must be strictly increasing")
        acc.add(rows[start:n])
        start = n
        yield int(n), acc.covariance()
