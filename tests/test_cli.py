"""Tests for the command-line interface."""

import json
import math
import re
from pathlib import Path

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

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_library_target_exit_code(self, tmp_path, capsys):
        # finite kernel settings whose train-train diagonal overflows
        # (s^2 + noise^2 = 2e308): the infinite target reaches the compiler
        # through the GPR kernel matrix, not through load_matrix
        assert main(["gpr", "--signal-variance", "1e308", "--noise", "1e154",
                     "--inverter-samples", "2000", "--outdir", str(tmp_path / "o")]) == 3
        assert "NaN or infinite" in capsys.readouterr().err

    def test_overflowing_error_is_not_a_result(self, tmp_path, capsys):
        # well conditioned, but the inverse's norm overflows
        m = write_matrix(tmp_path / "tiny.csv", np.diag([1e-160, 2e-160]))
        out = tmp_path / "o"
        assert main(["invert", "--matrix", m, "--n", "400", "--chains", "4",
                     "--outdir", str(out)]) == 1
        assert "not finite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


    def test_numerically_singular_exit_code(self, tmp_path, capsys):
        m = write_matrix(tmp_path / "singular.csv", np.diag([1e-300, 1.0]))
        out = tmp_path / "o"
        assert main(["invert", "--matrix", m, "--n", "200000", "--chains", "4",
                     "--outdir", str(out)]) == 4
        assert "numerically singular" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()


class TestNonFiniteState:
    """An overflowing simulation exits 1 with one ``error:`` line and no traceback."""

    def test_exit_code_and_one_line(self, tmp_path):
        # a fresh interpreter, so stderr is what a shell sees; the integrator
        # step is 1000x the stable one, and the state overflows within the run
        import os
        import subprocess
        import sys

        import spusim
        matrix = write_matrix(tmp_path / "p.csv", np.array([[2.0, 0.5], [0.5, 1.0]]))
        argv = ["sample", "--precision", matrix, "--n", "200", "--chains", "2",
                "--outdir", str(tmp_path / "o")]
        script = f"""
import sys
import spusim.cli, spusim.langevin as lg
stable = lg.suggest_dt
lg.suggest_dt = lambda params, **kw: 1000.0 * stable(params, **kw)
sys.exit(spusim.cli.main({argv!r}))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(spusim.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert re.fullmatch(r"error: non-finite state at step \d+ \(record \d+\)", line)
        assert not (tmp_path / "o" / "manifest.json").exists()


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

    def test_export_noise_is_lane_zero_of_the_run(self, tmp_path):
        from spusim.noise import ChainNoiseSource, NoiseChainConfig
        m = write_matrix(tmp_path / "p.csv", np.eye(2))
        n_bits, level = 9000, 0.6

        def stream(seed):
            out = tmp_path / f"s{seed}"
            assert main(["sample", "--precision", m, "--n", "8", "--chains", "2",
                         "--seed", str(seed), "--noise-level", str(level),
                         "--export-noise", str(n_bits), "--outdir", str(out)]) == 0
            return np.loadtxt(out / "noise_stream.csv", delimiter=",", skiprows=1)

        first = stream(1)
        assert not np.array_equal(first[:, 3], stream(2)[:, 3])
        # lane 0 of the source a seed-1 run drives: source seed 2, 2 chains x 2
        # cells, unit gain so increments are the per-bit filtered values
        chain = NoiseChainConfig(duty_cycle=level, bit_rate=1.0, rc_time_constant=8.0)
        source = ChainNoiseSource(chain, seed=2, dimension=2, kappa0=0.5, dt=1.0, chains=2)
        np.testing.assert_allclose(first[:, 3], source.increments(n_bits)[:, 0, 0],
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(first[:, 0], np.arange(n_bits))
        np.testing.assert_array_equal(first[:, 2], (2 * first[:, 1] - 1)
                                      * (first[:, 2] != 0))

    def test_export_noise_memory_holds_one_block_of_lanes(self):
        import argparse
        import tracemalloc

        from spusim.cli import _lane0_noise
        from spusim.compiler import compile_precision
        params = compile_precision(np.eye(8)).ideal_params  # 8 chains x 8 cells: 64 lanes

        def peak(n_bits):
            args = argparse.Namespace(noise_level=1.0, chain_seed_a=0xACE1,
                                      chain_seed_b=0x1D2F, seed=0, chains=8,
                                      export_noise=n_bits)
            tracemalloc.start()
            try:
                rows = _lane0_noise(args, params)
                return tracemalloc.get_traced_memory()[1], rows
            finally:
                tracemalloc.stop()

        one, short = peak(8192)
        four, long = peak(4 * 8192)
        np.testing.assert_array_equal(long[:8192], short)
        # three more blocks add lane 0's rows, not every lane's stages: one
        # block's filtered stage alone is 8192 bits x 64 lanes x 8 bytes
        assert four - one < 8192 * 64 * 8

    # SHA-256 of the artifacts of a seeded lfsr-chain run at duty 0.6, as
    # written by the source that read each register's bits separately and
    # XORed them (numpy 2.4, OpenBLAS, x86-64).  The samples are those of the
    # blocked record scan, which moved each by at most 1.4e-15 of the largest
    # (1.1e-12 of itself) from the record-by-record loop, with the chain's
    # RC filter and gain folded into the injection kernels, which moved each
    # written sample by at most 2.9e-17 of the largest (1.0e-11 of itself)
    CHAIN_DIGESTS = {
        "samples.csv": "101bfb4c7e2b0a3c20a5991dcf534ecb90d6d78867845309c9890f43c7b48bd9",
        "noise_stream.csv":
            "29816e8c0d4779e9165ecf33b046994111fc25b26b50d04f2681196d86d16a07",
    }

    def test_lfsr_chain_artifacts_are_unchanged(self, tmp_path):
        import hashlib

        m = write_matrix(tmp_path / "p.csv", random_psd_matrix(3, 7))
        out = tmp_path / "out"
        assert main(["sample", "--precision", m, "--noise-mode", "lfsr-chain",
                     "--noise-level", "0.6", "--n", "200", "--chains", "2", "--seed", "4",
                     "--export-noise", "9000", "--outdir", str(out)]) == 0
        # a gated-off -1 bit is written as -0
        assert re.search(rb"^\d+,0,-0,", read(out / "noise_stream.csv"), re.M)
        for name, digest in self.CHAIN_DIGESTS.items():
            assert hashlib.sha256(read(out / name)).hexdigest() == digest


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

    # SHA-256 of the artifacts of a seeded d=16 inversion, as written by the
    # modal-basis estimator (numpy 2.4, OpenBLAS, x86-64).  Reading out the
    # covariance of the kept charge records instead of every record moved
    # inverse.csv by at most 3.0e-15 of its largest entry and error_series.csv
    # by at most 3.1e-15 of itself; the test holds both to the voltage readout
    DIGESTS = {
        8: {"inverse.csv": "f9b0ce299402b94864161afdad835e32e422d5ea77380fcbbdfc727d4ff6767e",
            "error_series.csv":
                "659ba4149a48b069a407626692f139f7cf77269a245af13063b202d887666ce1"},
        1: {"inverse.csv": "f87c50a15722f68d5459c7183824d52ef526a986622ca82a577db573751a2cd7",
            "error_series.csv":
                "89111c0b4f698e7c164ace65fca92a028870792842dbddc167959e7b8963c8a5"},
    }

    @pytest.mark.parametrize("chains,n", [(8, 4000), (1, 1000)])
    def test_artifacts_are_unchanged(self, tmp_path, chains, n):
        import hashlib

        from spusim.linalg import SamplingPlan, relative_frobenius_error, sample_gaussian
        from spusim.samples import prefix_covariances

        m = write_matrix(tmp_path / "a.csv", random_psd_matrix(16, 16))
        out = tmp_path / "out"
        assert main(["invert", "--matrix", m, "--n", str(n), "--chains", str(chains),
                     "--seed", "3", "--outdir", str(out)]) == 0
        for name, digest in self.DIGESTS[chains].items():
            assert hashlib.sha256(read(out / name)).hexdigest() == digest
        # the voltage readout, then the prefix covariances: the same numbers
        a = load_matrix(m)
        batch = sample_gaussian(a, SamplingPlan(n_samples=n, chains=chains), seed=3)
        series = np.loadtxt(out / "error_series.csv", delimiter=",", skiprows=1)
        covs = list(prefix_covariances(batch.values, series[:, 0].astype(int), chains))
        errors = [relative_frobenius_error(cov, np.linalg.inv(a)) for _, cov in covs]
        np.testing.assert_allclose(series[:, 1], errors, rtol=1e-12, atol=0)
        cov = covs[-1][1]
        np.testing.assert_allclose(np.loadtxt(out / "inverse.csv", delimiter=","), cov,
                                   rtol=0, atol=1e-12 * np.abs(cov).max())


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

    @pytest.mark.parametrize("inverter", ["digital", "thermodynamic"])
    def test_singular_kernel_exit_code(self, tmp_path, capsys, inverter):
        # a repeated training point without observation noise: two equal kernel rows
        train = tmp_path / "train.csv"
        train.write_text("1,0.5\n1,0.5\n2,0.3\n")
        out = tmp_path / "out"
        assert main(["gpr", "--train", str(train), "--noise", "0", "--inverter", inverter,
                     "--inverter-samples", "2000", "--outdir", str(out)]) == 4
        assert "numerically singular" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("points", ["0", "-2"])
    @pytest.mark.parametrize("inverter", ["digital", "thermodynamic"])
    def test_empty_train_set_is_usage_error(self, tmp_path, capsys, points, inverter):
        # an empty generated set used to crash (IndexError) or fail deep in the
        # compiler; it is refused at parse time, naming the flag
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["gpr", "--train-points", points, "--inverter", inverter,
                  "--outdir", str(out)])
        assert err.value.code == 2
        assert "--train-points" in capsys.readouterr().err
        assert not out.exists()


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

    def test_negative_degree_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        np.savetxt(data, np.ones((4, 2)), delimiter=",")
        with pytest.raises(SystemExit) as err:
            main(["lsq", "--data", str(data), "--degree", "-1", "--outdir", str(tmp_path / "o")])
        assert err.value.code == 2
        assert "--degree" in capsys.readouterr().err


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

    # SHA-256 of the default scan's faultscan.json below, as written when the
    # scan fixed its chain count at 8 (numpy 2.4, OpenBLAS, x86-64)
    DEFAULT_DIGEST = "79f0fc260a366a971d069cf9f878929579e3e4debb87d5c480806524ffb37d7b"

    def test_chains_reach_the_scan(self, tmp_path, monkeypatch):
        import hashlib

        import spusim.calibration as calibration
        batches = calibration.integrate_circuits
        chains = []

        def spy(runs):
            runs = list(runs)
            chains.append({cfg.chains for _, cfg in runs})
            return batches(runs)

        monkeypatch.setattr(calibration, "integrate_circuits", spy)
        argv = ["faultscan", "--cells", "3", "--scale-cap", "1:1.5", "--seed", "4"]
        assert main(argv + ["--outdir", str(tmp_path / "default")]) == 0
        assert main(argv + ["--chains", "4", "--outdir", str(tmp_path / "four")]) == 0
        assert chains == [{8}, {4}]
        written = (tmp_path / "default" / "faultscan.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == self.DEFAULT_DIGEST


class TestCellIndexInput:
    @pytest.mark.parametrize("flag,value", [
        ("--kill-coupling", "1,9"), ("--kill-coupling", "2,2"),
        ("--kill-cell", "9"), ("--kill-cell", "-1"), ("--scale-cap", "9:2")])
    def test_faultscan_out_of_range_exit_code(self, tmp_path, capsys, flag, value):
        assert main(["faultscan", "--cells", "8", flag, value,
                     "--outdir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert value.split(",")[-1].split(":")[0] in err

    @pytest.mark.parametrize("flag,value", [
        ("--kill-coupling", "1"), ("--kill-coupling", "1,x"), ("--scale-cap", "1"),
        ("--scale-cap", "1:x"), ("--scale-cap", "1:2:3"), ("--kill-cell", "x")])
    def test_faultscan_malformed_value_is_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            main(["faultscan", flag, value, "--outdir", str(tmp_path / "o")])
        assert err.value.code == 2
        assert flag in capsys.readouterr().err

    def test_negative_export_noise_is_usage_error(self, tmp_path, capsys):
        m = write_matrix(tmp_path / "p.csv", np.eye(2))
        with pytest.raises(SystemExit) as err:
            main(["sample", "--precision", m, "--export-noise", "-3",
                  "--outdir", str(tmp_path / "o")])
        assert err.value.code == 2
        assert "--export-noise" in capsys.readouterr().err

    def test_spectroscopy_cell_out_of_range(self, tmp_path, capsys):
        assert main(["spectroscopy", "--cells", "2", "--cell", "9",
                     "--outdir", str(tmp_path / "o")]) == 1
        assert "--cell 9" in capsys.readouterr().err

    def test_spectroscopy_device_cell_out_of_range(self, tmp_path, capsys):
        from spusim.circuit import CircuitParams, CouplingConfig, UnitCell
        params = CircuitParams.build(
            [UnitCell(1.5e-6, 40.0, 2e-13, bank_config=3)], CouplingConfig.none(1))
        device_path = tmp_path / "device.json"
        device_path.write_text(params.to_json())
        assert main(["spectroscopy", "--device", str(device_path), "--cell", "9",
                     "--outdir", str(tmp_path / "o")]) == 1
        assert "--cell 9" in capsys.readouterr().err


class TestBoardSizeInput:
    @pytest.mark.parametrize("argv,message", [
        (["faultscan", "--cells", "0"], "at least one cell"),
        (["faultscan", "--cells", "-1"], "at least one cell"),
        (["faultscan", "--cells", "1"], "at least two cells"),
        (["spectroscopy", "--cells", "0", "--n", "1000"], "at least one cell"),
        (["calibrate", "--cells", "0", "--n", "1000"], "at least one cell"),
    ])
    def test_empty_board_exit_code(self, tmp_path, capsys, argv, message):
        out = tmp_path / "o"
        assert main(argv + ["--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (out / "manifest.json").exists()


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


class TestCountFlags:
    """Counts are refused at parse time, exit 2, naming the flag."""

    @pytest.mark.parametrize("argv,flag", [
        (["perf", "--points", "0"], "--points"),
        (["perf", "--d-min", "0"], "--d-min"),
        (["sngp-sample", "--demo", "--draws", "-3"], "--draws"),
        (["sngp-sample", "--demo", "--grid-size", "0"], "--grid-size"),
        (["study", "--axis", "noise_level", "--grid", "1", "--identity", "0"], "--identity"),
        (["study", "--axis", "noise_level", "--grid", "1", "--identity", "-1"], "--identity"),
        (["perf", "--d-max", "0"], "--d-max"),
        (["perf", "--d-max", "50"], "--d-max"),  # below the default --d-min 100
    ])
    def test_non_positive_count_is_usage_error(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(argv + ["--outdir", str(out)])
        assert err.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["gpr", "--n", "5"], ["lsq", "--n", "5"],
                                      ["sngp-sample", "--demo", "--n", "5"],
                                      ["perf", "--chains", "4"], ["perf", "--seed", "1"]])
    def test_removed_flags_are_refused(self, tmp_path, capsys, argv):
        # no flag abbreviates to another: gpr --n is not gpr --noise
        with pytest.raises(SystemExit) as err:
            main(argv + ["--outdir", str(tmp_path / "out")])
        assert err.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


class TestRealFlags:
    """A non-finite or out-of-range real flag exits 1 naming its quantity,
    before any artifact or manifest is written."""

    @pytest.mark.parametrize("argv,quantity", [
        (["calibrate", "--loading", "nan"], "coupling_resistance"),
        (["calibrate", "--loading", "inf"], "coupling_resistance"),
        (["calibrate", "--loading", "0"], "coupling_resistance"),
        (["gpr", "--length-scale", "nan"], "length_scale"),
        (["gpr", "--signal-variance", "inf"], "signal_variance"),
        (["gpr", "--noise", "nan"], "observation_noise"),
        (["gpr", "--noise", "nan", "--inverter", "digital"], "observation_noise"),
    ])
    def test_bad_real_is_refused_naming_the_quantity(self, tmp_path, capsys, argv, quantity):
        out = tmp_path / "out"
        assert main(argv + ["--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and quantity in err
        assert not (out / "manifest.json").exists()


# verb: (a small run, {numeric flag: the quantity that an exit 1 or 3 names,
# None where only exit 0 or 2 is right}); "{P}" is a 2 x 2 precision matrix
# file and "{D}" an x,y data file
_SWEPT = {
    "sample": (["sample", "--precision", "{P}", "--n", "64", "--chains", "2"],
               {"--seed": None, "--chains": "chains", "--n": "n_samples",
                "--rate": "sampling_rate", "--noise-level": "noise_level",
                "--tolerance": "tolerance_sigma", "--export-noise": None}),
    "sample-chain": (["sample", "--precision", "{P}", "--noise-mode", "lfsr-chain",
                      "--n", "64", "--chains", "2"],
                     {"--chain-seed-a": "register", "--chain-seed-b": "register"}),
    "invert": (["invert", "--matrix", "{P}", "--n", "64", "--chains", "2"],
               {"--seed": None, "--chains": "chains", "--n": "n_samples",
                "--samples": "n_samples", "--tolerance": "tolerance_sigma"}),
    "gpr": (["gpr", "--train-points", "3", "--test", "0:1:3", "--inverter-samples", "200",
             "--chains", "2"],
            {"--seed": None, "--chains": "chains", "--train-points": None,
             "--test": None, "--length-scale": "length_scale",
             "--signal-variance": "signal_variance", "--noise": "observation_noise",
             "--inverter-samples": "n_samples"}),
    "lsq": (["lsq", "--data", "{D}", "--inverter-samples", "200", "--chains", "2"],
            {"--seed": None, "--chains": "chains", "--degree": None,
             "--inverter-samples": "n_samples"}),
    "sngp-sample": (["sngp-sample", "--demo", "--grid-size", "4", "--draws", "10",
                     "--chains", "2"],
                    {"--seed": None, "--chains": "chains", "--draws": None,
                     "--patch-size": "patch_size", "--grid-size": None}),
    "calibrate": (["calibrate", "--cells", "2", "--n", "64", "--chains", "2"],
                  {"--seed": None, "--chains": "chains", "--n": "n_samples",
                   "--cells": "cell", "--loading": "coupling_resistance"}),
    "spectroscopy": (["spectroscopy", "--cells", "1", "--n", "8192", "--chains", "1"],
                     {"--seed": None, "--chains": "chains", "--n": "n_samples",
                      "--cells": "cell", "--cell": "--cell", "--bank": "bank_config",
                      "--rate": "sample_rate", "--tolerance": "tolerance_sigma"}),
    "faultscan": (["faultscan", "--cells", "2", "--n", "2048", "--chains", "1"],
                  {"--seed": None, "--chains": "chains", "--n": "n_samples",
                   "--cells": "cell", "--bank": "bank_config", "--kill-cell": "cell index"}),
    "perf": (["perf", "--points", "3"],
             {"--n": "n_samples", "--d-min": None, "--d-max": None, "--points": None}),
    "study": (["study", "--axis", "noise_level", "--grid", "1", "--identity", "2",
               "--n", "200", "--chains", "2"],
              {"--seed": None, "--chains": "chains", "--n": "n_samples",
               "--grid": "noise_level", "--identity": None}),
}
# (argv, flag, quantity, exit code) of values that used to reach numpy or
# Python float arithmetic: kernel scales whose square leaves the floats, an
# infinite kernel matrix on either inverter, malformed string-valued flags
# and non-physical capacitance scales
_EDGES = [
    (["gpr", "--noise", "1e200"], "--noise", "observation_noise", 1),
    (["gpr", "--train-points", "3", "--length-scale", "1e300"], "--length-scale",
     "length_scale", 1),
    (["gpr", "--length-scale", "1e-300"], "--length-scale", "length_scale", 1),
    (["gpr", "--signal-variance", "1e308", "--noise", "1e154", "--inverter", "digital"],
     "--signal-variance", "target matrix", 3),
    (["gpr", "--signal-variance", "1e308", "--noise", "1e154", "--inverter-samples", "200"],
     "--signal-variance", "target matrix", 3),
    (["gpr", "--test", "0:1:-1"], "--test", None, 2),
    (["gpr", "--test", "0:nan:5"], "--test", None, 2),
    (["gpr", "--test", "0:1:0"], "--test", None, 2),
    (["gpr", "--test", "-1e308:1e308:3"], "--test", None, 2),
    (["study", "--axis", "noise_level", "--grid", ""], "--grid", None, 2),
    (["study", "--axis", "sampling_rate", "--grid", "1e6,x"], "--grid", None, 2),
] + [(["faultscan", "--cells", "2", "--scale-cap", f"0:{factor}"], "--scale-cap",
      "capacitance_scale", 1) for factor in ("0", "-1", "nan", "inf")]


def _boundary_cases():
    for base, flags in _SWEPT.values():
        for flag, quantity in flags.items():
            for value in ("0", "-1", "nan", "inf"):
                yield pytest.param(base + [flag, value], flag, quantity, None,
                                   id=" ".join([base[0], flag, value]))
    for argv, flag, quantity, code in _EDGES:
        yield pytest.param(argv, flag, quantity, code, id=" ".join(argv))


def _assert_finite_artifacts(out):
    """Every number of the run's artifacts and manifest is finite; a CSV
    column may be all nan, which marks a value that does not apply."""
    manifest = out / "manifest.json"
    paths = [manifest] + [Path(p) for p in json.loads(manifest.read_text())["artifacts"].values()]
    for path in paths:
        if path.suffix == ".json":
            def walk(node):
                if isinstance(node, dict):
                    node = list(node.values())
                if isinstance(node, list):
                    return all(walk(item) for item in node)
                return not isinstance(node, float) or math.isfinite(node)
            assert walk(json.loads(path.read_text())), path.name
        elif path.suffix == ".csv":
            first = path.read_text().split(",", 1)[0]
            header = not re.fullmatch(r"[-+0-9.eE]+|nan|inf", first.strip())
            table = np.loadtxt(path, delimiter=",", skiprows=int(header), ndmin=2)
            columns = np.isfinite(table).all(axis=0) | np.isnan(table).all(axis=0)
            assert table.size and columns.all(), path.name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv,flag,quantity,code", _boundary_cases())
def test_numeric_flag_boundaries(tmp_path, capsys, argv, flag, quantity, code):
    # every outcome is one of three: exit 0 with finite artifacts, exit 2
    # naming the flag, or exit 1 or 3 naming the quantity; nothing raises
    files = {"{P}": write_matrix(tmp_path / "p.csv", np.array([[2.0, 0.5], [0.5, 1.0]])),
             "{D}": write_matrix(tmp_path / "d.csv", [[0.0, 1.0], [1.0, 2.5], [2.0, 5.0]])}
    out = tmp_path / "out"
    try:
        got = main([files.get(a, a) for a in argv] + ["--outdir", str(out)])
    except SystemExit as exit_:
        got = exit_.code
    err = capsys.readouterr().err
    assert code in (None, got)
    if got == 0:
        _assert_finite_artifacts(out)
    elif got == 2:
        assert f"argument {flag}" in err
    else:
        assert got in (1, 3) and quantity is not None, err
        assert err.startswith("error: ") and quantity in err
        assert not (out / "manifest.json").exists()


def _option_reads(function: str) -> set[str]:
    """Options that a ``cli`` function reads as ``args.X`` or ``getattr(args,
    "X")``, itself or through the ``cli`` functions and classes it hands ``args``."""
    import ast
    import inspect

    import spusim.cli as cli
    tree = ast.parse(inspect.getsource(cli))
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}

    def is_args(node):
        return isinstance(node, ast.Name) and node.id == "args"

    reads, todo, seen = set(), [function], {function}
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Attribute) and is_args(node.value):
                reads.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                name = node.func.id
                if name == "getattr" and is_args(node.args[0]):
                    reads.add(node.args[1].value)
                elif name in defs and name not in seen and any(map(is_args, node.args)):
                    seen.add(name)
                    todo.append(name)
    return reads


def test_every_verb_reads_every_option_it_declares():
    import argparse

    from spusim.cli import build_parser
    verbs = next(action for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)).choices
    assert len(verbs) == 10
    for verb, parser in verbs.items():
        declared = {action.dest for action in parser._actions if action.dest != "help"}
        unread = declared - _option_reads(parser.get_default("func").__name__)
        assert not unread, f"{verb} parses options it never reads: {sorted(unread)}"


class TestStudyVerb:
    def test_noise_level_study(self, tmp_path):
        out = tmp_path / "out"
        code = main(["study", "--axis", "noise_level", "--grid", "0.5,1.0",
                     "--identity", "2", "--n", "2000", "--chains", "4",
                     "--outdir", str(out)])
        assert code == 0
        rows = np.loadtxt(out / "study.csv", delimiter=",", skiprows=1)
        assert set(np.unique(rows[:, 0])) == {0.5, 1.0}

    def test_zero_sampling_rate_exit_code(self, tmp_path, capsys):
        assert main(["study", "--axis", "sampling_rate", "--grid", "0",
                     "--outdir", str(tmp_path / "o")]) == 1
        assert "positive and finite" in capsys.readouterr().err


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

    def test_undriven_device_cell_exit_code(self, tmp_path, capsys, monkeypatch):
        import spusim.langevin as langevin
        from spusim.circuit import CircuitParams, CouplingConfig, UnitCell
        params = CircuitParams.build(
            [UnitCell(1.5e-6, 40.0, 2e-13, bank_config=3),
             UnitCell(1.5e-6, 40.0, 0.0, bank_config=3)], CouplingConfig.none(2))
        device_path = tmp_path / "device.json"
        device_path.write_text(params.to_json())
        stacks = []
        monkeypatch.setattr(langevin, "_run_stack", stacks.append)
        out = tmp_path / "out"
        assert main(["spectroscopy", "--device", str(device_path), "--cell", "1",
                     "--n", "20000", "--chains", "4", "--outdir", str(out)]) == 1
        assert "error: cell 1 has no noise drive" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert stacks == []  # rejected before any run is stepped

    def test_device_json_steps_only_the_driven_cell(self, tmp_path, monkeypatch):
        import spusim.langevin as langevin
        from spusim.circuit import CircuitParams, CouplingConfig, UnitCell
        params = CircuitParams.build(
            [UnitCell(1.5e-6, 40.0, 2e-13, bank_config=b) for b in (1, 2, 3)],
            CouplingConfig.none(3))
        device_path = tmp_path / "device.json"
        device_path.write_text(params.to_json())
        stepped = []
        run_stack = langevin._run_stack

        def spy(runs):
            stepped.extend(run.sys_.dimension for run in runs)
            return run_stack(runs)

        monkeypatch.setattr(langevin, "_run_stack", spy)
        assert main(["spectroscopy", "--device", str(device_path), "--n", "20000",
                     "--chains", "4", "--outdir", str(tmp_path / "out")]) == 0
        assert stepped == [1, 1, 1]

    # SHA-256 of fit.json and one spectrum of a seeded spectroscopy run, as
    # written by the blocked record scan (numpy 2.4, OpenBLAS, x86-64): the
    # scattered emulator, and a device file whose cells 0 and 1 are coupled,
    # so that their runs step two cells.  Against the per-record loop each
    # spectrum value moved by at most 3.9e-15 of itself, and each fitted
    # number, through the Nelder-Mead path, by at most 3.9e-8 of itself
    DIGESTS = {
        "emulator": {
            "fit.json": "9838ae72b3a0fd6ba51ea036ab9a637e02906db053c9e0345c2df5e4e2211a13",
            "spectrum_cell1.csv":
                "872a23a140c291db700825490211f5dd96f806132923033e2571ff6bc4d255e9"},
        "device": {
            "fit.json": "215bed9ea96241a29cf9194a191d2b15552d8eb38a620a2f9be35db9634a2aaf",
            "spectrum_cell1.csv":
                "b937600844842f12e30a5910af5c80a6719e716acf20a341a694706f09a79057"},
    }

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_artifacts_are_unchanged(self, tmp_path, case):
        import hashlib

        from spusim.circuit import CircuitParams, CouplingConfig, UnitCell
        out = tmp_path / "out"
        argv = ["--n", "20000", "--chains", "4", "--outdir", str(out)]
        if case == "emulator":
            argv += ["--cells", "3", "--tolerance", "0.05", "--seed", "5"]
        else:
            states = np.zeros((3, 3), dtype=np.int8)
            states[0, 1] = states[1, 0] = 1
            params = CircuitParams.build(
                [UnitCell(1.5e-6, 40.0, 2e-13, bank_config=b) for b in (3, 2, 3)],
                CouplingConfig(states))
            device_path = tmp_path / "device.json"
            device_path.write_text(params.to_json())
            argv += ["--device", str(device_path), "--seed", "6"]
        assert main(["spectroscopy"] + argv) == 0
        for name, digest in self.DIGESTS[case].items():
            assert hashlib.sha256(read(out / name)).hexdigest() == digest


class TestRateAndLevelInput:
    @pytest.mark.parametrize("rate", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize("verb", ["sample", "spectroscopy"])
    def test_non_finite_rate_exit_code(self, tmp_path, capsys, verb, rate):
        argv = [verb, f"--rate={rate}", "--n", "1000", "--chains", "2"]
        if verb == "sample":
            argv += ["--precision", write_matrix(tmp_path / "p.csv", np.eye(2))]
        else:
            argv += ["--cells", "1"]
        out = tmp_path / "o"
        assert main(argv + ["--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be positive and finite" in err
        assert f"got {float(rate)}" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("level", ["1e300", "nan", "0"])
    def test_noise_level_out_of_range_exit_code(self, tmp_path, capsys, level):
        m = write_matrix(tmp_path / "p.csv", np.eye(2))
        out = tmp_path / "o"
        assert main(["sample", "--precision", m, "--noise-level", level, "--n", "1000",
                     "--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: noise_level must be in (0, 1e6], got {float(level)}" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("tolerance", ["-0.5", "nan"])
    @pytest.mark.parametrize("verb", ["sample", "invert", "spectroscopy"])
    def test_bad_tolerance_exit_code(self, tmp_path, capsys, verb, tolerance):
        # a negative or NaN tolerance used to run as 0 and be recorded as given
        m = write_matrix(tmp_path / "p.csv", np.eye(2))
        argv = {"sample": ["sample", "--precision", m], "invert": ["invert", "--matrix", m],
                "spectroscopy": ["spectroscopy", "--cells", "2"]}[verb]
        out = tmp_path / "o"
        assert main(argv + ["--tolerance", tolerance, "--n", "1000", "--chains", "2",
                            "--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"error: tolerance_sigma must be non-negative and finite, got {float(tolerance)}"
                in err)
        assert not (out / "manifest.json").exists()


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


class TestNumpyOnlyPath:
    def test_cli_import_and_verbs_load_no_scipy(self, tmp_path):
        # a fresh interpreter: importing the CLI, and small runs of the verbs
        # the benchmark times, must not load scipy (about 1 s of start-up)
        import os
        import subprocess
        import sys

        import spusim
        write_matrix(tmp_path / "p.csv", np.array([[1.2, 0.3], [0.3, 0.9]]))
        out = tmp_path / "out"
        script = f"""
import json, sys
import spusim.cli
spusim.cli.build_parser()
loaded = {{"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}}
runs = {{
    "sample": ["sample", "--precision", {str(tmp_path / "p.csv")!r},
               "--noise-mode", "lfsr-chain", "--n", "200", "--chains", "2"],
    "faultscan": ["faultscan", "--cells", "2"],
    "spectroscopy": ["spectroscopy", "--cells", "2", "--cell", "1", "--n", "16384",
                     "--chains", "2"],
}}
for name, argv in runs.items():
    code = spusim.cli.main(argv + ["--outdir", {str(out)!r} + "/" + name])
    loaded[name] = [code] + sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps(loaded))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(spusim.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert loaded == {"import": [], "sample": [0], "faultscan": [0],
                          "spectroscopy": [0]}
