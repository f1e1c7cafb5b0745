"""Self-tests of the benchmark harness.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.
They cover seeded input generation, span self-time arithmetic (including a
child that raises), the rebinding of traced names inside ``spusim``, the
speed probe and the scaling to the reference speed, the artifact digest
and the percentile report.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import op  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, spd_matrix  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "selftest"


def scratch(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def snapshot(workdir: Path, argv: list[str]) -> tuple:
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()}
    return files, [a.replace(str(workdir), "<w>") for a in argv]


class InputsAreSeeded(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                seen = []
                for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
                    workdir = scratch(f"{name}-{tag}")
                    seen.append(snapshot(workdir, cls(workdir, seed).argv(workdir / "out")))
                self.assertEqual(seen[0], seen[1])
                self.assertNotEqual(seen[0], seen[2])

    def test_spd_matrix_pins_extreme_eigenvalues(self):
        m = spd_matrix(np.random.default_rng(0), 16, lo=0.75, hi=2.0)
        eigs = np.linalg.eigvalsh(m)
        np.testing.assert_allclose(m, m.T, rtol=0, atol=0)
        self.assertAlmostEqual(eigs[0], 0.75, places=12)
        self.assertAlmostEqual(eigs[-1], 2.0, places=12)


class FakeClock:
    """Each call advances time by one unit."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class SelfTimes(unittest.TestCase):
    def build_tree(self) -> tracing.Tracer:
        tracer = tracing.Tracer("t", clock=FakeClock())
        leaf = tracer.wrap(lambda: None, "leaf", "samples")

        def failing():
            leaf()
            raise ValueError("boom")

        child_ok = tracer.wrap(lambda: leaf(), "child_ok", "langevin",
                               counter=lambda _: {"records": 7})
        child_bad = tracer.wrap(failing, "child_bad", "langevin")

        def root():
            child_ok()
            try:
                child_bad()
            except ValueError:
                pass

        tracer.wrap(root, "main", "cli")()
        return tracer

    def test_self_time_is_duration_minus_child_coverage(self):
        spans = {s.name + str(s.sid): s for s in self.build_tree().spans}
        # clock ticks: main 1..10, child_ok 2..5 (leaf 3..4), child_bad 6..9 (leaf 7..8)
        self.assertEqual([(s.start, s.end) for s in spans.values()],
                         [(1, 10), (2, 5), (3, 4), (6, 9), (7, 8)])
        own = tracing.self_times(list(spans.values()))
        self.assertEqual([own[s.sid] for s in spans.values()], [3, 2, 1, 2, 1])

    def test_raising_child_is_closed_marked_and_counted(self):
        tracer = self.build_tree()
        bad = next(s for s in tracer.spans if s.name == "child_bad")
        self.assertTrue(bad.error)
        self.assertEqual(bad.parent, 0)
        self.assertEqual(tracer._stack, [])
        m = tracing.layer_metrics(tracer.spans)
        self.assertEqual(m["langevin.errors"], 1)
        self.assertEqual(m["langevin.calls"], 2)
        self.assertEqual(m["langevin.self_s"], 4)
        self.assertEqual(m["samples.self_s"], 2)
        self.assertEqual(m["cli.self_s"], 3)
        self.assertEqual(m["langevin.records"], 7)
        self.assertEqual(m["trace.attributed_s"], 9)

    def test_overlapping_children_are_counted_once(self):
        spans = [tracing.Span(0, None, "main", "cli", "t", 0.0, 10.0),
                 tracing.Span(1, 0, "a", "x", "t", 1.0, 5.0),
                 tracing.Span(2, 0, "b", "x", "t", 4.0, 6.0),
                 tracing.Span(3, 0, "c", "x", "t", 9.0, 12.0)]
        self.assertEqual(tracing.self_times(spans)[0], 10.0 - 5.0 - 1.0)


class TracingSpusim(unittest.TestCase):
    def test_install_rebinds_imported_names_and_attributes_all_time(self):
        import spusim.cli
        import spusim.device
        import spusim.langevin
        import spusim.linalg

        workdir = scratch("traced-cli")
        np.savetxt(workdir / "p.csv", np.diag([1.0, 2.0]), delimiter=",")
        tracer = tracing.Tracer("selftest")
        tracer.install()
        wrapped = spusim.langevin.integrate_circuit
        self.assertTrue(hasattr(wrapped, "__wrapped__"))
        self.assertIs(spusim.linalg.integrate_circuit, wrapped)
        self.assertIs(spusim.device.integrate_circuit, wrapped)
        code = spusim.cli.main(["sample", "--precision", str(workdir / "p.csv"),
                                "--n", "200", "--chains", "2",
                                "--outdir", str(workdir / "out")])
        self.assertEqual(code, 0)
        names = {s.name for s in tracer.spans}
        self.assertTrue({"main", "load_matrix", "sample_gaussian", "compile_precision",
                         "integrate_circuit", "moment_errors", "SampleBatch.to_csv",
                         "CircuitParams.build"} <= names)
        root = tracer.spans[0]
        self.assertEqual(root.name, "main")
        m = tracing.layer_metrics(tracer.spans)
        self.assertAlmostEqual(m["trace.attributed_s"], root.end - root.start, places=9)
        self.assertEqual(m["langevin.records"], 200)
        self.assertEqual(m["linalg.checkpoints"], 20)
        self.assertEqual(m["compiler.calls"], 1)


class SpeedProbe(unittest.TestCase):
    def test_probe_samples_a_busy_phase_and_stops(self):
        probe = op.SpeedProbe()
        probe.start()
        try:
            got = []
            for kernel in (op.python_kernel, op.numpy_kernel()):
                probe.kernel = kernel
                end = time.perf_counter() + 0.3
                while time.perf_counter() < end:
                    pass
                got.append(probe.take())
        finally:
            probe.stop()
        for phase in got:
            self.assertGreaterEqual(phase["probe_count"], 3)
            self.assertGreater(phase["probe_total_s"], 0.0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        time.sleep(2 * op.PROBE_INTERVAL_S)
        self.assertEqual(probe.take(), {"probe_total_s": 0.0, "probe_count": 0})

    def test_wall_time_less_probe_time_is_scaled_to_the_reference_speed(self):
        # the probe ran at twice its reference time, so the host ran at half speed
        probe = {"probe_total_s": 10 * 2 * run.PROBE_REF_S, "probe_count": 10}
        wall = 1.0 + probe["probe_total_s"]
        self.assertAlmostEqual(run.at_reference_speed(wall, probe), 0.5, places=12)
        with self.assertRaises(RuntimeError):
            run.at_reference_speed(1.0, {"probe_total_s": 0.0, "probe_count": 0})


class Reporting(unittest.TestCase):
    def test_manifest_duration_and_outdir_do_not_change_the_digest(self):
        digests = []
        for tag, duration in (("x", 1.0), ("y", 2.0)):
            out = scratch(f"digest-{tag}")
            (out / "a.csv").write_text("1,2\n")
            (out / "manifest.json").write_text(json.dumps(
                {"duration_s": duration, "config": {"outdir": str(out)}}))
            digests.append(run.artifact_summary(out))
        self.assertEqual(digests[0], digests[1])
        self.assertEqual(digests[0][1], 4)

    def test_inputs_under_other_run_directories_do_not_change_the_digest(self):
        # an untraced and a traced run of one seed read their inputs from
        # different work directories, and their operations differ in index
        digests = []
        for run_dir, op in (("w-s3-t0", "op0"), ("w-s3-t1", "op2")):
            out = scratch(run_dir) / op
            out.mkdir()
            (out / "a.csv").write_text("1,2\n")
            (out / "manifest.json").write_text(json.dumps({"config": {
                "matrix": str(out.parent / "matrix.csv"), "outdir": str(out)}}))
            digests.append(run.artifact_summary(out))
        self.assertEqual(digests[0], digests[1])

    def test_tail_percentile_needs_ten_samples_beyond_it(self):
        self.assertIn("no tail percentile", run.timing_line("x", [1.0] * 19, "s"))
        self.assertIn(", p50 ", run.timing_line("x", [1.0] * 20, "s"))
        line = run.timing_line("x", [float(v) for v in range(1, 101)], "s")
        self.assertIn(", p90 90.1 s", line)


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
