"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from conftest import random_psd_matrix

from spusim.cli import load_matrix, main


def write_matrix(path, m):
    np.savetxt(path, m, delimiter=",")
    return str(path)


def read(path):
    return path.read_bytes()


class TestLoadMatrix:
    def test_rejects_nonsquare(self, tmp_path):
        p = tmp_path / "m.csv"
        np.savetxt(p, np.zeros((2, 3)), delimiter=",")
        from spusim.errors import MatrixFormatError
        with pytest.raises(MatrixFormatError):
            load_matrix(str(p))

    def test_rejects_asymmetric(self, tmp_path):
        p = tmp_path / "m.csv"
        np.savetxt(p, np.array([[1.0, 0.5], [0.0, 1.0]]), delimiter=",")
        from spusim.errors import MatrixFormatError
        with pytest.raises(MatrixFormatError):
            load_matrix(str(p))


class TestBadMatrixInput:
    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_entry_exit_code(self, tmp_path, capsys, entry):
        p = tmp_path / f"{entry}.csv"
        p.write_text(f"1,0\n0,{entry}\n")
        assert main(["invert", "--matrix", str(p), "--outdir", str(tmp_path / "o")]) == 3
        assert str(p) in capsys.readouterr().err

    def test_overflowing_error_is_not_a_result(self, tmp_path, capsys):
        m = write_matrix(tmp_path / "tiny.csv", np.diag([1e-300, 1.0]))
        out = tmp_path / "o"
        assert main(["invert", "--matrix", m, "--n", "400", "--chains", "4",
                     "--outdir", str(out)]) == 1
        assert "not finite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestSampleVerb:
    def test_identity_covariance(self, tmp_path):
        m = write_matrix(tmp_path / "p.csv", np.eye(4))
        out = tmp_path / "out"
        code = main(["sample", "--precision", m, "--n", "20000", "--seed", "5",
                     "--chains", "20", "--outdir", str(out)])
        assert code == 0
        samples = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
        cov = np.cov(samples[:, 1:].T, ddof=1)
        assert np.linalg.norm(cov - np.eye(4)) / np.linalg.norm(np.eye(4)) < 0.05
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "sample"
        assert (out / "compiled_device.json").exists()

    def test_requires_exactly_one_target(self, tmp_path):
        m = write_matrix(tmp_path / "p.csv", np.eye(2))
        assert main(["sample", "--precision", m, "--covariance", m,
                     "--outdir", str(tmp_path / "o")]) == 3

    def test_non_psd_exit_code(self, tmp_path):
        m = write_matrix(tmp_path / "bad.csv", np.diag([1.0, -1.0]))
        assert main(["sample", "--precision", m,
                     "--outdir", str(tmp_path / "o")]) == 4

    def test_chain_seeds_select_the_noise(self, tmp_path):
        m = write_matrix(tmp_path / "p.csv", np.eye(2))

        def samples(name, seed_a, seed_b):
            out = tmp_path / name
            assert main(["sample", "--precision", m, "--noise-mode", "lfsr-chain",
                         "--n", "64", "--chains", "2", "--chain-seed-a", seed_a,
                         "--chain-seed-b", seed_b, "--outdir", str(out)]) == 0
            return read(out / "samples.csv")

        first = samples("a", "0x0042", "0x7FFF")
        assert samples("b", "0x0042", "0x7FFF") == first
        assert samples("c", "0xACE1", "0x1D2F") != first


class TestInvertVerb:
    def test_matches_dense_inverse(self, tmp_path):
        a = random_psd_matrix(4, 1)
        m = write_matrix(tmp_path / "a.csv", a)
        out = tmp_path / "out"
        code = main(["invert", "--matrix", m, "--samples", "12000", "--seed", "7",
                     "--outdir", str(out)])
        assert code == 0
        estimate = np.loadtxt(out / "inverse.csv", delimiter=",")
        exact = np.linalg.inv(a)
        assert np.linalg.norm(estimate - exact) / np.linalg.norm(exact) < 0.08
        series = np.loadtxt(out / "error_series.csv", delimiter=",", skiprows=1)
        assert series[-1, 0] >= 12000

    def test_determinism_byte_identical(self, tmp_path):
        a = random_psd_matrix(3, 2)
        m = write_matrix(tmp_path / "a.csv", a)
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["invert", "--matrix", m, "--samples", "3000",
                         "--seed", "9", "--outdir", str(out)]) == 0
            outs.append(out)
        for csv in ("inverse.csv", "error_series.csv", "exact_inverse.csv"):
            assert read(outs[0] / csv) == read(outs[1] / csv)


class TestGprVerb:
    def test_demo_run_digital(self, tmp_path):
        out = tmp_path / "out"
        code = main(["gpr", "--inverter", "digital", "--seed", "3",
                     "--test", "0:6:20", "--outdir", str(out)])
        assert code == 0
        post = np.loadtxt(out / "posterior.csv", delimiter=",", skiprows=1)
        assert post.shape == (20, 3)
        assert np.all(post[:, 2] >= 0)
        assert (out / "train.csv").exists()


class TestLsqVerb:
    def test_exact_line(self, tmp_path):
        x = np.linspace(0, 4, 25)
        data = tmp_path / "d.csv"
        np.savetxt(data, np.column_stack([x, 1 + 2 * x]), delimiter=",")
        out = tmp_path / "out"
        code = main(["lsq", "--data", str(data), "--inverter", "digital",
                     "--outdir", str(out)])
        assert code == 0
        beta = np.loadtxt(out / "coefficients.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(beta, [1.0, 2.0], atol=1e-8)


class TestSngpVerb:
    def test_demo_fixture(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sngp-sample", "--demo", "--draws", "500",
                     "--sampler", "digital", "--grid-size", "16",
                     "--outdir", str(out)])
        assert code == 0
        draws = np.loadtxt(out / "draws.csv", delimiter=",", skiprows=1)
        assert draws.shape == (500, 16)
        assert (out / "cov.csv").exists()


class TestCalibrateVerb:
    def test_corrects_diagonal(self, tmp_path):
        out = tmp_path / "out"
        code = main(["calibrate", "--n", "100000", "--chains", "25",
                     "--outdir", str(out)])
        assert code == 0
        report = json.loads((out / "calibration.json").read_text())
        assert report["max_diagonal_deviation"] < 0.05
        assert report["loading_fit"]["a"] > 0


class TestFaultscanVerb:
    def test_injected_fault_reported(self, tmp_path):
        out = tmp_path / "out"
        code = main(["faultscan", "--cells", "3", "--kill-coupling", "0,2",
                     "--outdir", str(out)])
        assert code == 0
        report = json.loads((out / "faultscan.json").read_text())
        assert any(f["drive"] == 0 and f["probe"] == 2 for f in report["flags"])


class TestPerfVerb:
    def test_curves_and_crossover(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["perf", "--outdir", str(out)])
        assert code == 0
        table = np.loadtxt(out / "perf_curves.csv", delimiter=",", skiprows=1)
        assert table.shape[1] == 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert 1000 <= manifest["results"]["crossover_dimension"] <= 10_000
        assert (out / "perf.svg").exists()


class TestStudyVerb:
    def test_noise_level_study(self, tmp_path):
        out = tmp_path / "out"
        code = main(["study", "--axis", "noise_level", "--grid", "0.5,1.0",
                     "--identity", "2", "--n", "2000", "--chains", "4",
                     "--outdir", str(out)])
        assert code == 0
        rows = np.loadtxt(out / "study.csv", delimiter=",", skiprows=1)
        assert set(np.unique(rows[:, 0])) == {0.5, 1.0}


class TestCovarianceTarget:
    def test_sample_covariance_kind(self, tmp_path):
        sigma = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        m = write_matrix(tmp_path / "s.csv", sigma)
        out = tmp_path / "out"
        code = main(["sample", "--covariance", m, "--n", "20000", "--seed", "4",
                     "--chains", "20", "--outdir", str(out)])
        assert code == 0
        samples = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
        cov = np.cov(samples[:, 1:].T, ddof=1)
        assert np.linalg.norm(cov - sigma) / np.linalg.norm(sigma) < 0.08


class TestSpectroscopyVerb:
    def test_single_cell_run(self, tmp_path):
        out = tmp_path / "out"
        code = main(["spectroscopy", "--cells", "1", "--cell", "0",
                     "--n", "150000", "--chains", "16", "--outdir", str(out)])
        assert code == 0
        report = json.loads((out / "fit.json").read_text())
        # nominal board values recovered
        assert report["0"]["inductance_h"] == pytest.approx(1.3e-6, rel=0.1)
        assert (out / "spectrum_cell0.csv").exists()

    def test_device_json_route(self, tmp_path):
        from spusim.circuit import CircuitParams, CouplingConfig, UnitCell
        params = CircuitParams.build(
            [UnitCell(1.5e-6, 40.0, 2e-13, bank_config=3)], CouplingConfig.none(1))
        device_path = tmp_path / "device.json"
        device_path.write_text(params.to_json())
        out = tmp_path / "out"
        code = main(["spectroscopy", "--device", str(device_path), "--n", "150000",
                     "--chains", "16", "--outdir", str(out)])
        assert code == 0
        report = json.loads((out / "fit.json").read_text())
        assert report["0"]["resistance_ohm"] == pytest.approx(40.0, rel=0.1)


class TestLsqDesignRoute:
    def test_design_and_response_files(self, tmp_path):
        rng = np.random.default_rng(6)
        design = rng.standard_normal((30, 2))
        y = design @ np.array([0.5, -1.5])
        dp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        np.savetxt(dp, design, delimiter=",")
        np.savetxt(yp, y, delimiter=",")
        out = tmp_path / "out"
        code = main(["lsq", "--design", str(dp), "--y", str(yp),
                     "--inverter", "digital", "--outdir", str(out)])
        assert code == 0
        beta = np.loadtxt(out / "coefficients.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(beta, [0.5, -1.5], atol=1e-8)


class TestUnknownFlags:
    def test_usage_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["invert", "--nope"])
        assert err.value.code == 2
