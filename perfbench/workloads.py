"""The four benchmark workloads: seeded inputs, CLI argv and correctness gates.

Each workload writes its inputs from the seed alone, names the ``spusim``
CLI arguments of one operation, and checks one operation's output
directory.  A check returns ``(ok, lines)``: every residual is reported
beside its gate so a near miss is visible even when the gate passes.

Only numpy is imported at module level; the spectroscopy gate imports
``spusim`` (from the checkout's ``src``) to recompute the true parameters
outside the program.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17g"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def spd_matrix(rng: np.random.Generator, d: int, lo: float = 0.5,
               hi: float = 2.0) -> np.ndarray:
    """Random-basis SPD matrix with eigenvalues in [lo, hi], both ends attained.

    Pinning the extreme eigenvalues fixes the correlation time and the
    integrator step the program derives from them, so every seed asks for
    the same number of steps and only the values change.
    """
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q *= np.sign(np.diag(r))
    eigs = np.sort(rng.uniform(lo, hi, d))
    eigs[0], eigs[-1] = lo, hi
    m = (q * eigs) @ q.T
    return 0.5 * (m + m.T)


def write_matrix(path: Path, matrix: np.ndarray) -> np.ndarray:
    """Write a CSV matrix and return it as read back (what the program sees)."""
    np.savetxt(path, matrix, delimiter=",", fmt=FLOAT_FMT)
    return np.loadtxt(path, delimiter=",", ndmin=2)


def wishart_error(sigma: np.ndarray, n: int) -> float:
    """Expected relative Frobenius error of an n-sample covariance of N(0, sigma)."""
    fro2 = float(np.sum(sigma * sigma))
    return math.sqrt((np.trace(sigma) ** 2 + fro2) / (n - 1) / fro2)


def _gate(lines: list, name: str, value: float, lo: float, hi: float) -> bool:
    ok = bool(np.isfinite(value) and lo <= value <= hi)
    lines.append(f"{name} = {value:.6g}  gate [{lo:.6g}, {hi:.6g}]  "
                 f"{'ok' if ok else 'FAILED'}")
    return ok


def _results(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text())["results"]


class InvertD512:
    """Headline inversion, d=512: BLAS-3 bound, heavy set-up, 11 MB of CSV."""

    name = "invert-d512"
    d, chains, n = 512, 32, 20_000

    def __init__(self, workdir: Path, seed: int):
        matrix = write_matrix(workdir / "matrix.csv", spd_matrix(_rng(seed, 1), self.d))
        self.sigma = np.linalg.inv(matrix)
        self.seed = seed

    def argv(self, outdir: Path) -> list[str]:
        return ["invert", "--matrix", str(outdir.parent / "matrix.csv"),
                "--chains", str(self.chains), "--n", str(self.n),
                "--seed", str(self.seed), "--outdir", str(outdir)]

    def check(self, outdir: Path) -> tuple[bool, list[str]]:
        lines: list[str] = []
        norm = np.linalg.norm(self.sigma)
        exact = np.loadtxt(outdir / "exact_inverse.csv", delimiter=",")
        estimate = np.loadtxt(outdir / "inverse.csv", delimiter=",")
        ok = _gate(lines, "exact_inverse_residual",
                   float(np.linalg.norm(exact - self.sigma) / norm), 0.0, 1e-9)
        err = float(np.linalg.norm(estimate - self.sigma) / norm)
        reported = float(_results(outdir)["final_error"])
        ok &= _gate(lines, "reported_minus_recomputed_error", abs(reported - err),
                    0.0, 1e-9)
        lines.append(f"law sqrt((d+1)/n) = {math.sqrt((self.d + 1) / self.n):.4f}")
        pred = wishart_error(self.sigma, self.n)
        ok &= _gate(lines, "final_error / wishart_prediction", err / pred, 0.9, 1.1)
        return ok, lines


class SampleLfsrD8:
    """LFSR-chain sampling, d=8: the explicit per-step stepper and ``noise``.

    The spectrum is pinned to [0.75, 2] so the program picks one integrator
    step per noise bit: 4.0M steps over the chains, 32M noise lane-steps.
    """

    name = "sample-lfsr-d8"
    d, chains, n = 8, 8, 2_000

    def __init__(self, workdir: Path, seed: int):
        precision = write_matrix(workdir / "precision.csv",
                                 spd_matrix(_rng(seed, 2), self.d, lo=0.75))
        self.sigma = np.linalg.inv(precision)
        self.seed = seed

    def argv(self, outdir: Path) -> list[str]:
        return ["sample", "--precision", str(outdir.parent / "precision.csv"),
                "--noise-mode", "lfsr-chain", "--chains", str(self.chains),
                "--n", str(self.n), "--seed", str(self.seed), "--outdir", str(outdir)]

    def check(self, outdir: Path) -> tuple[bool, list[str]]:
        lines: list[str] = []
        samples = np.loadtxt(outdir / "samples.csv", delimiter=",", skiprows=1)[:, 1:]
        moments = np.loadtxt(outdir / "moments.csv", delimiter=",", skiprows=1, ndmin=2)
        ok = _gate(lines, "samples_rows", float(samples.shape[0]), self.n, self.n)
        err = float(np.linalg.norm(np.cov(samples, rowvar=False) - self.sigma)
                    / np.linalg.norm(self.sigma))
        reported = float(moments[-1, 1])
        ok &= _gate(lines, "reported_minus_recomputed_error", abs(reported - err),
                    0.0, 1e-9)
        pred = wishart_error(self.sigma, self.n)
        ok &= _gate(lines, "final_cov_error / wishart_prediction", err / pred, 0.5, 2.0)
        return ok, lines


class FaultscanD8:
    """Fault scan of the 8-cell board: 92 small integrations, per-call cost."""

    name = "faultscan-d8"
    cells = 8

    def __init__(self, workdir: Path, seed: int):
        i, j = sorted(_rng(seed, 3).choice(self.cells, size=2, replace=False).tolist())
        self.pair = (int(i), int(j))
        self.seed = seed

    def argv(self, outdir: Path) -> list[str]:
        return ["faultscan", "--kill-coupling", "%d,%d" % self.pair,
                "--seed", str(self.seed), "--outdir", str(outdir)]

    def check(self, outdir: Path) -> tuple[bool, list[str]]:
        lines: list[str] = []
        report = json.loads((outdir / "faultscan.json").read_text())
        runs = self.cells + 3 * self.cells * (self.cells - 1) // 2
        ok = _gate(lines, "runs", float(report["runs"]), runs, runs)
        flags = sorted((f["drive"], f["probe"], f["coupling"], f["flag"])
                       for f in report["flags"])
        want = sorted((*self.pair, c, "absent") for c in (1, -1))
        match = flags == want
        lines.append(f"flags = {flags}  gate {want}  {'ok' if match else 'FAILED'}")
        return ok and match, lines


class SpectroscopyD8:
    """Spectroscopy of 8 scattered cells: the Nelder-Mead calibration fit."""

    name = "spectroscopy-d8"
    cells, bank, tolerance = 8, 3, 0.05
    # relative error allowed between fitted and true cell properties
    gates = {"f0": 0.01, "linewidth": 0.05, "variance": 0.02}

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed

    def argv(self, outdir: Path) -> list[str]:
        return ["spectroscopy", "--cells", str(self.cells), "--bank", str(self.bank),
                "--tolerance", str(self.tolerance), "--seed", str(self.seed),
                "--outdir", str(outdir)]

    @staticmethod
    def properties(l: float, r: float, k: float, c: float) -> dict:
        return {"f0": 1.0 / (2 * math.pi * math.sqrt(l * c)),
                "linewidth": 1.0 / (2 * math.pi * r * c),
                "variance": r * k / c}

    def check(self, outdir: Path) -> tuple[bool, list[str]]:
        from spusim.device import SpuEmulator

        truth = SpuEmulator(n_cells=self.cells, tolerance_sigma=self.tolerance,
                            tolerance_seed=self.seed).true_params(bank_config=self.bank)
        report = json.loads((outdir / "fit.json").read_text())
        lines: list[str] = []
        ok = _gate(lines, "cells_fitted", float(len(report)), self.cells, self.cells)
        converged = sum(bool(f["converged"]) for f in report.values())
        ok &= _gate(lines, "cells_converged", float(converged), self.cells, self.cells)
        worst = dict.fromkeys(self.gates, 0.0)
        for key, fit in report.items():
            cell = truth.cells[int(key)]
            want = self.properties(cell.inductance, cell.resistance,
                                   cell.noise_psd, cell.capacitance)
            got = self.properties(fit["inductance_h"], fit["resistance_ohm"],
                                  fit["noise_psd_a2_per_hz"], fit["capacitance_f"])
            for prop in worst:
                worst[prop] = max(worst[prop], abs(got[prop] / want[prop] - 1.0))
        for prop, tol in self.gates.items():
            ok &= _gate(lines, f"worst_rel_error_{prop}", worst[prop], 0.0, tol)
        return ok, lines


WORKLOADS = {w.name: w for w in (InvertD512, SampleLfsrD8, FaultscanD8, SpectroscopyD8)}
