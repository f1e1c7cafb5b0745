"""Sample batches and the one covariance accumulator behind every estimate.

A ``SampleBatch`` is a matrix of readout samples (rows = time points,
columns = cells) with sampling-rate metadata.  Batches produced by
multi-chain runs are stored chain-major: the first ``n // chains`` rows
belong to chain 0, and so on; merging independent chains in chain-index
order keeps every artifact deterministic.

Every sample covariance in the package (a batch's covariance, the inverse
estimate and the error-versus-sample-count series) comes from
``OnlineCovariance``; ``prefix_covariances`` reads the covariance of the
first n time-major rows at each checkpoint n in a single pass over the
rows.  It is the one prefix accumulator: a stored batch feeds it its
time-major view, and the inversion streams a run's records into it chunk
by chunk as the run steps, so those records are never held whole; either
way the rows pass through one reused slab.

On-disk format: CSV with header ``t,v0,...,v{d-1}`` (SI units) plus a JSON
sidecar (same stem, ``.json``) carrying the run metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DimensionMismatchError

FLOAT_FMT = "%.17g"
_SLAB_BYTES = 8 << 20  # rows ``prefix_covariances`` merges at once


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

    def to_csv(self, path: str | Path) -> Path:
        """Write the CSV and its sidecar: the batch's shape, rate, start time
        and ``meta``."""
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
        path.with_suffix(".json").write_text(json.dumps(side, indent=2, sort_keys=True, default=str))
        return path


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
        mean = rows.mean(axis=0)
        return self._add_centered(rows - mean, mean)

    def _add_centered(self, centered: np.ndarray, mean: np.ndarray) -> "OnlineCovariance":
        """Merge rows given as their own mean and their deviations from it."""
        other = OnlineCovariance(self.dimension)
        other.count = centered.shape[0]
        other.mean = mean
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
        self._m2 += other._m2  # in place: the accumulator owns its comoment
        self._m2 += np.outer(delta, delta) * (self.count * other.count / total)
        self.mean = self.mean + delta * (other.count / total)
        self.count = total
        return self

    def covariance(self) -> np.ndarray:
        """Unbiased (n - 1) covariance of the rows seen so far, exactly symmetrized."""
        if self.count < 2:
            raise ValueError("need at least two samples for a covariance")
        cov = self._m2 / (self.count - 1)
        return 0.5 * (cov + cov.T)


def prefix_covariances(blocks, counts) -> Iterator[tuple[int, np.ndarray]]:
    """Covariance of the first n rows for each n of increasing ``counts``.

    The rows are read time-major: record k of every chain before record
    k+1.  ``blocks`` is an iterable of time-major blocks of any size and
    memory order, each shaped (records, chains, ...), the axes after the
    second holding a row: a run's chunks, read once each as they come, or
    the one block of a stored batch (``batch.per_chain().swapaxes(0, 1)``).
    Reading stops at the last checkpoint, and rows that run out before it
    raise ValueError.

    One pass and one slab: rows are copied into a slab of at most
    ``_SLAB_BYTES``, which is centered in place and merged into a single
    accumulator whenever it fills or a checkpoint is reached.  So the
    merges, and the bytes, depend on ``counts`` and ``_SLAB_BYTES`` alone,
    never on how the rows arrive, and each row is centered and multiplied
    once however many checkpoints there are.
    """
    counts = [int(n) for n in counts]
    gaps = np.diff(counts, prepend=0)
    if (gaps <= 0).any():
        raise ValueError("checkpoint counts must be strictly increasing")
    pending = iter(counts)
    n = next(pending, None)
    if n is None:
        return
    slab = acc = None
    seen = filled = 0  # rows read; rows in the slab
    for block in blocks:
        if slab is None:
            d = math.prod(block.shape[2:])
            slab = np.empty((min(int(gaps.max()), max(1, _SLAB_BYTES // (8 * d))), d))
            acc = OnlineCovariance(d)
        size, taken = block.shape[0] * block.shape[1], 0
        while taken < size and n is not None:
            count = min(size - taken, len(slab) - filled, n - seen)
            _copy_rows(block, taken, slab[filled:filled + count])
            taken, filled, seen = taken + count, filled + count, seen + count
            if filled == len(slab) or seen == n:
                part = slab[:filled]
                mean = part.mean(axis=0)
                part -= mean
                acc._add_centered(part, mean)
                filled = 0
            if seen == n:
                yield n, acc.covariance()
                n = next(pending, None)
        if n is None:
            return
    raise ValueError(f"the rows ran out at {seen}, before checkpoint {n}")


def _copy_rows(block: np.ndarray, first: int, out: np.ndarray) -> None:
    """Rows first, first + 1, ... of a time-major block into the rows of
    ``out``: the whole records in one strided copy, and the partial records
    at either end."""
    width, rest = block.shape[1], block.shape[2:]
    rows = len(out)
    out = out.reshape((rows,) + rest)
    k, c = divmod(first, width)
    pos = 0
    if c:  # the rest of a record begun before
        head = block[k, c:c + rows]
        out[:len(head)] = head
        pos, k = len(head), k + 1
    whole = (rows - pos) // width
    out[pos:pos + whole * width].reshape((whole, width) + rest)[...] = block[k:k + whole]
    pos += whole * width
    if pos < rows:  # the start of a record read on later
        out[pos:] = block[k + whole, :rows - pos]
