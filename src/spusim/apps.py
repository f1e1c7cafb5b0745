"""Probabilistic-AI applications built on the sampler and inverter.

Gaussian process regression and linear least squares consume the matrix
inverse; both run with either the exact digital inverse (the oracle) or
the sampled thermodynamic inverse.  Patch-wise posterior sampling splits a
grid covariance into diagonal blocks so each fits on the 8-cell device,
draws per-patch zero-mean samples via the chosen sampler, and adds the
mean digitally; inter-patch correlations are dropped by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .compiler import TargetSpec, _validate_pd, _validate_symmetric
from .errors import DimensionMismatchError, NotPositiveDefiniteError
from .linalg import SamplingPlan, invert_matrix, sample_gaussian

DEVICE_CELLS = 8


@dataclass(frozen=True)
class Dataset1D:
    """Scalar regression data."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).ravel()
        y = np.asarray(self.y, dtype=float).ravel()
        if x.shape != y.shape:
            raise DimensionMismatchError("x and y must have equal lengths")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class KernelSpec:
    """Radial-basis-function kernel with observation noise."""

    length_scale: float = 1.0
    signal_variance: float = 1.0
    observation_noise: float = 0.0

    def __post_init__(self):
        # NaN fails every comparison below
        for name in ("length_scale", "signal_variance"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not 0.0 <= self.observation_noise < np.inf:
            raise ValueError("observation_noise must be non-negative and finite, "
                             f"got {self.observation_noise}")
        # the kernel divides by 2 l^2 and adds noise^2; products, as a float's
        # power raises OverflowError
        if not 0.0 < 2.0 * self.length_scale * self.length_scale < np.inf:
            raise ValueError("length_scale must be such that 2 length_scale^2 is positive "
                             f"and finite, got {self.length_scale}")
        if not self.observation_noise * self.observation_noise < np.inf:
            raise ValueError("observation_noise must be such that observation_noise^2 is "
                             f"finite, got {self.observation_noise}")


def kernel_matrix(xa, xb, spec: KernelSpec, include_observation_noise: bool = False) -> np.ndarray:
    """K[i, j] = s^2 exp(-(xa_i - xb_j)^2 / (2 l^2)), plus noise^2 I if asked.

    Observation noise belongs only on the train-train block, so it is off
    by default and enabled explicitly by the caller building that block.
    """
    xa = np.asarray(xa, dtype=float).ravel()
    xb = np.asarray(xb, dtype=float).ravel()
    diff = xa[:, None] - xb[None, :]
    k = spec.signal_variance * np.exp(-(diff ** 2) / (2.0 * spec.length_scale ** 2))
    if include_observation_noise:
        if xa.shape != xb.shape or not np.allclose(xa, xb):
            raise ValueError("observation noise only applies to the train-train block")
        k = k + spec.observation_noise ** 2 * np.eye(len(xa))
    return k


@dataclass(frozen=True)
class GprPosterior:
    """Posterior mean and covariance at the test points."""

    mean: np.ndarray
    covariance: np.ndarray

    @property
    def stddev(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))

    def band(self, k: float = 2.0):
        s = self.stddev
        return self.mean - k * s, self.mean + k * s


def _inverse(matrix: np.ndarray, inverter: str, plan: SamplingPlan | None,
             seed: int) -> np.ndarray:
    if inverter == "digital":
        # the checks of the thermodynamic path, not a bare LinAlgError
        _validate_symmetric(matrix, "target matrix")
        try:
            _validate_pd(matrix, "precision matrix")
        except NotPositiveDefiniteError as err:
            raise NotPositiveDefiniteError(
                f"cannot invert: {err}", min_eigenvalue=err.min_eigenvalue) from err
        return np.linalg.inv(matrix)
    if inverter == "thermodynamic":
        return invert_matrix(matrix, plan, seed=seed).estimate
    raise ValueError(f"unknown inverter {inverter!r}")


def gpr_posterior(train: Dataset1D, test_x, spec: KernelSpec,
                  inverter: str = "digital", plan: SamplingPlan | None = None,
                  seed: int = 0) -> GprPosterior:
    """Gaussian process regression posterior at the test points.

    The train-train kernel block is inverted with the chosen backend; the
    digital path is the oracle the thermodynamic path is judged against.
    Thermodynamic mode emulates the 8-cell device, so it accepts at most 8
    training points.  A posterior covariance whose smallest eigenvalue is
    below -1e-8 max(1, ||cov||_F) is refused as indefinite.
    """
    test_x = np.asarray(test_x, dtype=float).ravel()
    if len(train) == 0:
        raise ValueError("training set is empty")
    if inverter == "thermodynamic" and len(train) > DEVICE_CELLS:
        raise ValueError(
            f"thermodynamic mode handles at most {DEVICE_CELLS} training points, "
            f"got {len(train)}"
        )
    k11 = kernel_matrix(train.x, train.x, spec, include_observation_noise=True)
    k21 = kernel_matrix(test_x, train.x, spec)
    k22 = kernel_matrix(test_x, test_x, spec)
    k11_inv = _inverse(k11, inverter, plan, seed)
    mean = k21 @ k11_inv @ train.y
    cov = k22 - k21 @ k11_inv @ k21.T
    cov = 0.5 * (cov + cov.T)
    lam = float(np.linalg.eigvalsh(cov)[0]) if cov.size else 0.0
    if lam < -1e-8 * max(1.0, float(np.linalg.norm(cov))):
        raise NotPositiveDefiniteError(
            f"posterior covariance is indefinite beyond tolerance "
            f"(min eigenvalue {lam:.3g})", min_eigenvalue=lam)
    return GprPosterior(mean=mean, covariance=cov)


def linear_least_squares(design: np.ndarray, y: np.ndarray,
                         inverter: str = "digital", plan: SamplingPlan | None = None,
                         seed: int = 0) -> np.ndarray:
    """Normal-equations coefficients beta = (X^T X)^-1 X^T y.

    The Gram matrix inverse comes from the chosen backend.  Rank-deficient
    designs, a Gram condition number above 1e12 included, are rejected.
    """
    x = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError("design and response lengths differ")
    gram = x.T @ x
    gram = 0.5 * (gram + gram.T)
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= 0 or eigs[-1] / eigs[0] > 1e12:
        raise ValueError(
            f"design matrix is rank deficient (Gram condition "
            f"{np.inf if eigs[0] <= 0 else eigs[-1] / eigs[0]:.3g})"
        )
    gram_inv = _inverse(gram, inverter, plan, seed)
    return gram_inv @ (x.T @ y)


def sngp_patch_sample(mean: np.ndarray, covariance: np.ndarray, n_draws: int,
                      patch_size: int = DEVICE_CELLS, sampler: str = "digital",
                      plan: SamplingPlan | None = None, seed: int = 0) -> np.ndarray:
    """Posterior draws over a grid, sampled patch by patch.

    The covariance is truncated to its diagonal blocks of ``patch_size``
    (a remainder patch is padded with the identity); each block is sampled
    zero-mean with the chosen backend and the mean is added afterward.
    With a block-diagonal covariance the truncation is exact; for a dense
    covariance the draws reproduce blockdiag(cov) by construction.
    """
    mean = np.asarray(mean, dtype=float).ravel()
    cov = np.asarray(covariance, dtype=float)
    n = mean.shape[0]
    if cov.shape != (n, n):
        raise DimensionMismatchError("mean and covariance sizes differ")
    if patch_size < 1:
        raise ValueError("patch_size must be >= 1")
    draws = np.empty((n_draws, n))
    for start in range(0, n, patch_size):
        stop = min(start + patch_size, n)
        width = stop - start
        block = cov[start:stop, start:stop]
        if width < patch_size:
            padded = np.eye(patch_size)
            padded[:width, :width] = block
            block = padded
        lam = float(np.linalg.eigvalsh(block)[0])
        if lam <= 0:
            raise NotPositiveDefiniteError(
                f"covariance block for patch starting at {start} is not positive "
                f"definite (min eigenvalue {lam:.3g})", min_eigenvalue=lam)
        target = TargetSpec(block, "covariance")
        patch_plan = plan or SamplingPlan()
        if patch_plan.n_samples < n_draws:
            patch_plan = replace(patch_plan, n_samples=n_draws)
        backend = "digital" if sampler == "digital" else "emulated-spu"
        batch = sample_gaussian(target, patch_plan, backend=backend,
                                seed=seed + start)
        draws[:, start:stop] = batch.values[:n_draws, :width]
    return draws + mean


def make_two_moons(n_points: int = 200, seed: int = 0):
    """The interleaved half-circles dataset: features (n, 2) and labels {0, 1},
    the points scattered by N(0, 0.08^2) noise."""
    rng = np.random.default_rng(seed)
    n_half = n_points // 2
    theta = rng.uniform(0, np.pi, n_half)
    upper = np.column_stack([np.cos(theta), np.sin(theta)])
    lower = np.column_stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)])
    pts = np.vstack([upper, lower]) + rng.normal(0, 0.08, (2 * n_half, 2))
    labels = np.concatenate([np.zeros(n_half), np.ones(n_half)])
    return pts, labels


def synthetic_two_moons_posterior(grid_size: int = 64, n_train: int = 200, seed: int = 0):
    """Precomputed (mean, covariance) posterior over a grid for the demo.

    A fixed random-Fourier-feature map (256 features of an RBF kernel of
    length scale 0.6) stands in for a trained feature extractor: ridge
    regression (ridge 1e-2) on the features gives the predictive mean, and
    the ridge posterior over the last-layer weights gives a grid covariance
    whose uncertainty grows away from the training data.
    Returns (grid_points, mean, covariance, train_x, train_y).
    """
    n_features, ridge, length_scale = 256, 1e-2, 0.6
    rng = np.random.default_rng(seed)
    x, y = make_two_moons(n_train, seed=seed)
    side = int(round(np.sqrt(grid_size)))
    if side * side != grid_size:
        raise ValueError("grid_size must be a perfect square")
    gx = np.linspace(-1.8, 2.8, side)
    gy = np.linspace(-1.3, 1.8, side)
    grid = np.array([(a, b) for b in gy for a in gx])

    w = rng.normal(0, 1.0 / length_scale, (2, n_features))
    phase = rng.uniform(0, 2 * np.pi, n_features)

    def features(points):
        return np.sqrt(2.0 / n_features) * np.cos(points @ w + phase)

    phi = features(x)
    targets = 2.0 * y - 1.0
    gram = phi.T @ phi + ridge * np.eye(n_features)
    chol = np.linalg.cholesky(gram)
    weights = np.linalg.solve(chol.T, np.linalg.solve(chol, phi.T @ targets))
    phi_g = features(grid)
    mean = phi_g @ weights
    half = np.linalg.solve(chol, phi_g.T)
    cov = half.T @ half  # phi_g (Phi^T Phi + ridge I)^-1 phi_g^T
    cov = 0.5 * (cov + cov.T) + 1e-10 * np.eye(grid_size)
    return grid, mean, cov, x, y
