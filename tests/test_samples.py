"""Tests for sample batches and covariance accumulation."""

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
        restored = SampleBatch.from_csv(path)
        np.testing.assert_allclose(restored.values, batch.values, rtol=1e-15)
        assert restored.chains == batch.chains
        assert restored.sample_rate == batch.sample_rate
        assert restored.meta["dt"] == 1e-9

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
        series = list(prefix_covariances(rows, counts))
        assert [n for n, _ in series] == counts.tolist()
        for n, cov in series:
            np.testing.assert_array_equal(cov, cov.T)
            np.testing.assert_allclose(cov, np.cov(rows[:n].T, ddof=1), rtol=1e-10)

    def test_counts_must_increase(self):
        with pytest.raises(ValueError):
            list(prefix_covariances(self.shifted_rows(), [10, 10]))
