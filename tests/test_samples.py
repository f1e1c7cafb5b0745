"""Tests for sample batches and covariance accumulation."""

import json

import numpy as np
import pytest

from spusim.errors import DimensionMismatchError
from spusim.linalg import checkpoint_counts
from spusim.samples import OnlineCovariance, SampleBatch, prefix_covariances


def make_batch(seed=0, n=600, d=3, chains=2):
    rng = np.random.default_rng(seed)
    return SampleBatch(rng.standard_normal((n, d)), sample_rate=1e6, chains=chains)


class TestSampleBatch:
    def test_covariance_symmetric_unbiased(self):
        batch = make_batch()
        cov = batch.covariance()
        np.testing.assert_array_equal(cov, cov.T)
        np.testing.assert_allclose(cov, np.cov(batch.values.T, ddof=1), rtol=1e-12)

    def test_scaled_transforms_covariance(self):
        batch = make_batch(1)
        s = np.array([0.5, 2.0, 1.5])
        cov = batch.covariance()
        cov_scaled = batch.scaled(s).covariance()
        np.testing.assert_allclose(cov_scaled, np.outer(s, s) * cov, rtol=1e-12)

    def test_thinning(self):
        batch = make_batch(2, n=600, chains=2)
        thin = batch.thinned(3)
        assert thin.n_samples == 200
        assert thin.sample_rate == pytest.approx(batch.sample_rate / 3)
        np.testing.assert_array_equal(thin.per_chain()[0, 0], batch.per_chain()[0, 2])

    def test_csv_round_trip(self, tmp_path):
        batch = make_batch(3)
        batch.meta["dt"] = 1e-9
        path = batch.to_csv(tmp_path / "run.csv")
        assert path.read_text().splitlines()[0] == "t,v0,v1,v2"
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        np.testing.assert_array_equal(data[:, 0], batch.times())
        np.testing.assert_array_equal(data[:, 1:], batch.values)
        side = json.loads(path.with_suffix(".json").read_text())
        assert side == {"sample_rate": batch.sample_rate, "start_time": batch.start_time,
                        "chains": batch.chains, "n_samples": batch.n_samples,
                        "dimension": 3, "dt": 1e-9}

    def test_csv_deterministic_bytes(self, tmp_path):
        batch = make_batch(4)
        p1 = batch.to_csv(tmp_path / "a.csv")
        p2 = batch.to_csv(tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_chain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SampleBatch(np.zeros((10, 2)), sample_rate=1.0, chains=3)


class TestOnlineCovariance:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((1000, 4)) + rng.uniform(-2, 2, 4)
        acc = OnlineCovariance(4).add(rows)
        np.testing.assert_allclose(acc.covariance(), np.cov(rows.T, ddof=1), rtol=1e-10)
        np.testing.assert_allclose(acc.mean, rows.mean(axis=0), rtol=1e-12)

    def test_merge_equals_monolithic(self):
        rng = np.random.default_rng(6)
        chunks = [rng.standard_normal((n, 3)) * s + m
                  for n, s, m in [(100, 1.0, 0.0), (350, 2.0, 1.0), (17, 0.5, -3.0)]]
        merged = OnlineCovariance(3)
        for chunk in chunks:
            merged = merged.merge(OnlineCovariance(3).add(chunk))
        everything = np.vstack(chunks)
        np.testing.assert_allclose(merged.covariance(), np.cov(everything.T, ddof=1),
                                   rtol=1e-9)
        assert merged.count == len(everything)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            OnlineCovariance(3).add(np.zeros((5, 2)))


def one_block(rows, chains=1):
    """Chain-major rows of ``chains`` equal chains as the one time-major
    block of a stored batch, as the program passes them."""
    return [SampleBatch(rows, 1.0, chains=chains).per_chain().swapaxes(0, 1)]


class TestPrefixCovariances:
    @staticmethod
    def shifted_rows():
        rng = np.random.default_rng(8)
        return np.vstack([rng.standard_normal((n, 4)) * s + rng.uniform(-40, 40, 4)
                          for n, s in [(250, 1.0), (400, 3.0), (350, 0.5)]])

    @pytest.mark.parametrize("counts", [
        checkpoint_counts(1000, 20),
        # the sampling-rate study appends the requested sample budget
        np.unique(np.append(checkpoint_counts(1000, 12, start=10), 333)),
    ])
    def test_matches_np_cov_on_each_prefix(self, counts):
        rows = self.shifted_rows()
        series = list(prefix_covariances(one_block(rows), counts))
        assert [n for n, _ in series] == counts.tolist()
        for n, cov in series:
            np.testing.assert_array_equal(cov, cov.T)
            np.testing.assert_allclose(cov, np.cov(rows[:n].T, ddof=1), rtol=1e-10)

    @pytest.mark.parametrize("chains", [1, 4])
    def test_equals_adding_time_major_slices(self, chains):
        # the rows are gathered and centered in place: the same bytes as adding
        # each slice of a time-major copy, and the caller's rows untouched
        rows = self.shifted_rows()
        kept = rows.copy()
        counts = np.unique(np.append(checkpoint_counts(1000, 12, start=10), 333))
        time_major = SampleBatch(rows, 1.0, chains=chains).time_major()
        acc, start = OnlineCovariance(4), 0
        for n, cov in prefix_covariances(one_block(rows, chains), counts):
            acc.add(time_major[start:n])
            start = n
            np.testing.assert_array_equal(cov, acc.covariance())
        np.testing.assert_array_equal(rows, kept)

    def test_counts_must_increase(self):
        with pytest.raises(ValueError):
            list(prefix_covariances(one_block(self.shifted_rows()), [10, 10]))

    @pytest.mark.parametrize("chains", [1, 3])
    def test_slabs_match_one_gather(self, monkeypatch, chains):
        # an interval of several slabs, straddling records of several chains,
        # merges to the single gather's covariance; one that fits a slab keeps
        # its bytes
        import spusim.samples

        rows = self.shifted_rows()[:999]
        counts = [60, 999]
        (_, first), (_, last) = prefix_covariances(one_block(rows, chains), counts)
        monkeypatch.setattr(spusim.samples, "_SLAB_BYTES", 100 * rows.itemsize * 4)
        (_, first_slabbed), (_, last_slabbed) = prefix_covariances(one_block(rows, chains), counts)
        np.testing.assert_array_equal(first_slabbed, first)
        assert not np.array_equal(last_slabbed, last)  # ten slabs merged, not one gather
        np.testing.assert_allclose(last_slabbed, last, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("slab_bytes", [None, 256 << 10])
    def test_streamed_blocks_equal_the_gathered_array(self, monkeypatch, slab_bytes):
        # the rows streamed in time-major blocks of random sizes, each laid out
        # as the engine lays a chunk (chains inner to records, a row over two
        # axes), merge where the array's gather does: the same bytes at every
        # checkpoint, at the default slab and at a small one
        import spusim.samples

        if slab_bytes is not None:
            monkeypatch.setattr(spusim.samples, "_SLAB_BYTES", slab_bytes)
        chains, d = 6, 64
        slab = spusim.samples._SLAB_BYTES // (8 * d)  # the rows a slab holds
        rng = np.random.default_rng(24)
        per_chain = 8000
        chain_major = rng.standard_normal((chains, per_chain, d)) * 3.0 + rng.uniform(-40, 40, d)
        counts = [5, 999, 17_001, 40_003, chains * per_chain]  # gaps of more than a slab
        sizes = []
        while sum(sizes) < per_chain:
            sizes.append(int(min(rng.integers(1, 3 * slab // chains + 2), per_chain - sum(sizes))))
        edges = set((chains * np.cumsum(sizes)).tolist())
        merges = {n for n in counts} | {lo + k * slab for lo, hi in zip([0] + counts, counts)
                                         for k in range(1, -(-(hi - lo) // slab))}
        assert {n for n in counts if n % chains} - edges  # a checkpoint splits a record in a block
        assert merges - set(counts) - edges  # a full slab ends inside a block

        def blocks():
            time_major = chain_major.swapaxes(0, 1)
            for lo, size in zip(np.cumsum([0] + sizes), sizes):
                block = time_major[lo:lo + size].reshape(size, chains, d // 2, 2)
                yield np.ascontiguousarray(block.transpose(2, 0, 1, 3)).transpose(1, 2, 0, 3)

        streamed = list(prefix_covariances(blocks(), counts))
        gathered = list(prefix_covariances(one_block(chain_major.reshape(-1, d), chains),
                                           counts))
        assert [n for n, _ in streamed] == counts
        for (_, cov), (_, ref) in zip(streamed, gathered):
            np.testing.assert_array_equal(cov, ref)

    def test_rows_that_run_out_are_refused(self):
        rows = self.shifted_rows()
        with pytest.raises(ValueError, match="ran out at 1000, before checkpoint 1001"):
            list(prefix_covariances([rows[:, None]], [10, 1001]))
