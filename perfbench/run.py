"""spusim benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload invert-d512 --seed 0 --seconds 30 --trace 0

Load is a closed loop with one client.  Every operation is one
``spusim.cli.main(argv)`` call in a fresh interpreter (``op.py``), so the
lazy set-up a CLI user pays on every run is inside ``op_s``.  The run
starts another operation while one as long as the last (its process, not
its checks) still ends within ``--seconds``, and times at least
``MIN_OPS`` operations whatever they take.  It checks each output against
the workload's correctness gates, and prints as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``op_s`` (median seconds of one
operation), ``setup_s`` (median seconds to import ``spusim`` and build the
CLI parser in a fresh process, at least three samples) and ``peak_rss_mb``
(largest peak resident memory of an operation's process).  Both times are
host seconds taken to the reference speed: the host's speed drifts by
+-20-30% over seconds to minutes, so every process runs ``op.SpeedProbe``,
which times a fixed kernel every 50 ms inside the phase being timed, and a
phase's wall time, less the probe's own time, is scaled by ``PROBE_REF_S``
over the probe's mean time in that phase.  Wall-clock medians are printed
too.  With ``--trace 1`` no probe runs; one untraced operation is followed
by at least two traced ones, and the metrics are those of
``tracing.layer_metrics`` (medians over the traced operations, in wall
seconds) plus ``cli.artifact_bytes``, ``trace.op_s`` and
``trace.overhead_s`` (traced minus untraced wall ``op_s``).
The time no layer accounts for (traced ``op_s`` minus the layers' self
times) is printed and must stay within ``trace.overhead_s``.

An operation fails on a nonzero exit or a failed correctness gate; any
failure makes ``correct`` false, and the failed ratio is printed above the
result.  Every output is deterministic in the seed, so all operations of a
run must write the same artifacts and repeat their exact work counts; both
are also kept under ``.perfbench_work/counts`` and compared with earlier
runs of the same seed on the same sources.  A disagreement is reported on
standard error and makes ``correct`` false.  BLAS threads are pinned here
(at most ``MAX_BLAS_THREADS``), not inherited from the shell.  The exit
code is 0 whenever a result is printed, 2 outside a checkout.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
MAX_BLAS_THREADS = 2
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_SETUP_SAMPLES = 3
MIN_OPS = 2
# time of a probe kernel that defines the reference speed (both kernels of
# op.py take 0.75-1.3 ms on a 2-vCPU x86-64 VM as the host's speed drifts)
PROBE_REF_S = 1e-3
RUN_LIMIT_S = 170.0
EXACT_COUNTS = ("langevin.records", "langevin.sim_steps", "noise.lane_steps",
                "calibration.fit_evals", "linalg.checkpoints", "cli.artifact_bytes")
END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def pin_blas_threads() -> int:
    threads = min(len(os.sched_getaffinity(0)), MAX_BLAS_THREADS)
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(threads: int, args, src_digest: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {"nproc": len(os.sched_getaffinity(0)), "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": metadata.version("scipy"),
            "git_commit": commit, "src_sha256": src_digest,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def artifact_summary(outdir: Path) -> tuple[str, int]:
    """(digest, bytes) of an operation's artifacts.

    ``manifest.json`` enters the digest without its wall-clock duration,
    with the output directory and then the run's work directory (which holds
    the seeded inputs) blanked out, so the digest depends neither on the
    operation's index, the trace flag nor where the checkout sits.  Its size
    is not counted.
    """
    h = hashlib.sha256()
    size = 0
    for path in sorted(outdir.rglob("*")):
        if not path.is_file():
            continue
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("duration_s", None)
            text = json.dumps(manifest, sort_keys=True).replace(str(outdir), "<out>")
            data = text.replace(str(outdir.parent), "<work>").encode()
        else:
            size += len(data)
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), size


def at_reference_speed(wall_s: float, probe: dict) -> float:
    """Seconds a phase takes at the reference speed, from its probe samples.

    The probe's own time is taken off the wall time, and the rest is scaled
    by ``PROBE_REF_S`` over the probe's mean time during the phase.
    """
    if probe["probe_count"] == 0:
        raise RuntimeError("the speed probe took no sample during a timed phase")
    mean = probe["probe_total_s"] / probe["probe_count"]
    return (wall_s - probe["probe_total_s"]) * PROBE_REF_S / mean


class Bench:
    """Runs and checks the operations of one benchmark run."""

    def __init__(self, workload, workdir: Path, spans: Path, deadline: float,
                 probe: bool):
        self.workload = workload
        self.probe = probe
        self.workdir = workdir
        self.spans = spans
        self.deadline = deadline
        self.ops: list[dict] = []
        self.failed = 0

    def _spawn(self, argv, traced: bool, tag: str) -> tuple[dict | None, str]:
        result = self.workdir / f"{tag}.result.json"
        spec = self.workdir / f"{tag}.spec.json"
        spec.write_text(json.dumps({
            "src": str(SRC), "argv": argv, "trace": traced, "probe": self.probe,
            "run_id": tag,
            "result": str(result), "spans": str(self.spans / f"{tag}.json")}))
        timeout = max(5.0, self.deadline - time.perf_counter())
        try:
            proc = subprocess.run([sys.executable, str(HERE / "op.py"), str(spec)],
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not result.exists():
            return None, f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        out = json.loads(result.read_text())
        if not Path(out["spusim_file"]).resolve().is_relative_to(SRC.resolve()):
            return None, f"imported spusim from {out['spusim_file']}, not {SRC}"
        return out, proc.stderr.strip()

    def setup_only(self, k: int) -> dict | None:
        out, _ = self._spawn(None, False, f"setup{k}")
        return None if out is None else {
            "setup_s": out["setup_s"],
            "setup_ref_s": at_reference_speed(out["setup_s"], out["setup_probe"])}

    def op(self, traced: bool) -> dict:
        k = len(self.ops)
        outdir = self.workdir / f"op{k}"
        start = time.perf_counter()
        out, err = self._spawn(self.workload.argv(outdir), traced, f"op{k}")
        record = {"traced": traced, "ok": False, "wall_s": time.perf_counter() - start}
        if out is None:
            print(f"op {k}: FAILED {err}")
        elif out["exit_code"] != 0:
            record.update(out)
            print(f"op {k}: FAILED exit code {out['exit_code']}: {err[-2000:]}")
        else:
            record.update(out)
            speed = ""
            if self.probe:
                record["setup_ref_s"] = at_reference_speed(out["setup_s"], out["setup_probe"])
                record["op_ref_s"] = at_reference_speed(out["op_s"], out["op_probe"])
                p = out["op_probe"]
                speed = (f" (at reference speed: setup {record['setup_ref_s']:.4f} s, "
                         f"op {record['op_ref_s']:.4f} s; probe "
                         f"{1e3 * p['probe_total_s'] / p['probe_count']:.4f} ms x "
                         f"{p['probe_count']})")
            ok, lines = self.workload.check(outdir)
            digest, size = artifact_summary(outdir)
            record["ok"] = ok
            record["exact"] = {"digest": digest, "cli.artifact_bytes": size}
            if traced:
                out["layers"]["cli.artifact_bytes"] = size
                record["exact"].update((key, out["layers"][key]) for key in EXACT_COUNTS)
            print(f"op {k}{' traced' if traced else ''}: setup {out['setup_s']:.4f} s, "
                  f"op {out['op_s']:.4f} s, peak rss {out['peak_rss_mb']:.1f} MB, "
                  f"artifacts {size} B, check {'ok' if ok else 'FAILED'}{speed}")
            for line in lines:
                print(f"    {line}")
        shutil.rmtree(outdir, ignore_errors=True)
        self.failed += not record["ok"]
        self.ops.append(record)
        return record


def check_exact(exacts: list[dict], store: Path) -> str | None:
    """Every operation, and any earlier run of the seed, must agree exactly.

    Returns a description of the first disagreement, or None.
    """
    seen = json.loads(store.read_text()) if store.exists() else {}
    for k, exact in enumerate(exacts):
        diff = {key: (seen[key], value) for key, value in exact.items()
                if key in seen and seen[key] != value}
        if diff:
            return (f"op {k} disagrees with an earlier op or an earlier run of this "
                    f"seed ({store.name}): {diff}")
        seen.update(exact)
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(seen, sort_keys=True))
    return None


def timing_line(name: str, values: list[float], unit: str) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    tails = [pm for pm in (500, 750, 900, 950, 990, 999) if n * (1000 - pm) >= 10_000]
    line = f"{name}: median {statistics.median(values):.6g} {unit}, n={n}"
    if tails:
        q = statistics.quantiles(values, n=1000, method="inclusive")
        line += f", p{tails[-1] / 10:g} {q[tails[-1] - 1]:.6g} {unit}"
    else:
        line += ", no tail percentile (needs n >= 20)"
    return line


def run(args) -> int:
    if not (SRC / "spusim" / "__init__.py").is_file():
        print(f"error: no spusim sources under {SRC}; run from the root of a "
              "spusim checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()
    threads = pin_blas_threads()
    compileall.compile_dir(str(SRC / "spusim"), quiet=1)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    src_digest = tree_digest(SRC / "spusim")
    inputs_digest = hashlib.sha256((src_digest + tree_digest(HERE)).encode()).hexdigest()
    env = environment(threads, args, src_digest)
    print("env " + json.dumps(env, sort_keys=True))
    run_name = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir, spans = WORK / run_name, WORK / "spans" / run_name
    for path in (workdir, spans):
        shutil.rmtree(path, ignore_errors=True)
    workdir.mkdir(parents=True)
    if args.trace:
        spans.mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload](workdir, args.seed), workdir, spans,
                  started + RUN_LIMIT_S, probe=not args.trace)
    store = WORK / "counts" / f"{args.workload}-s{args.seed}-{inputs_digest[:16]}.json"

    t0 = time.perf_counter()
    if args.trace:
        bench.op(traced=False)
    while True:
        wall = bench.op(traced=bool(args.trace))["wall_s"]
        # start another operation only if one as long as the last ends in time,
        # but time at least MIN_OPS so the median is not a single sample
        fits = time.perf_counter() - t0 + wall <= args.seconds
        measured = sum(o["traced"] == bool(args.trace) for o in bench.ops)
        if not fits and measured >= MIN_OPS:
            break

    # operations that ran to the end; an untraced run times only those that
    # exited 0, since only they are taken to the reference speed
    timed = [o for o in bench.ops if ("op_s" if args.trace else "op_ref_s") in o]
    if not timed:
        print("error: no operation completed", file=sys.stderr)
        return 1
    attempted, failed = len(bench.ops), bench.failed
    correct = failed == 0
    print(f"failed_ratio: {failed}/{attempted} = {failed / attempted:.4g}")
    disagreement = check_exact([o["exact"] for o in bench.ops if "exact" in o], store)
    if disagreement:
        print(f"DETERMINISM FAILURE: {disagreement}", file=sys.stderr)
        correct = False
    if args.trace:
        untraced = [o["op_s"] for o in timed if not o["traced"]]
        traced = [o for o in timed if o["traced"] and "layers" in o]
        if not untraced or not traced:
            print("error: a traced run needs an untraced and a traced operation",
                  file=sys.stderr)
            return 1
        values = {k: statistics.median(o["layers"][k] for o in traced)
                  for k in traced[0]["layers"]}
        values["trace.op_s"] = statistics.median(o["op_s"] for o in traced)
        values["trace.overhead_s"] = values["trace.op_s"] - untraced[0]
        unattributed = values["trace.op_s"] - values.pop("trace.attributed_s")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
        for name in sorted(metrics):
            print(f"{name}: {metrics[name]['value']:.6g} {metrics[name]['unit']}")
        # main is the root span, so this is timer noise; time spent outside any
        # wrapped layer shows in cli.self_s instead
        attributed = abs(unattributed) <= abs(values["trace.overhead_s"])
        print(f"unattributed: {unattributed:.6g} s  gate |.| <= |trace.overhead_s|  "
              f"{'ok' if attributed else 'FAILED'}")
        if not attributed:
            print("ATTRIBUTION FAILURE: layer self times do not add up to trace.op_s",
                  file=sys.stderr)
            correct = False
    else:
        setup = [{k: o[k] for k in ("setup_s", "setup_ref_s")} for o in timed]
        while len(setup) < MIN_SETUP_SAMPLES:
            extra = bench.setup_only(len(setup))
            if extra is None:
                print("error: a set-up-only process failed", file=sys.stderr)
                return 1
            setup.append(extra)
        op_s = [o["op_ref_s"] for o in timed]
        setup_s = [s["setup_ref_s"] for s in setup]
        print(timing_line("op_s", op_s, "s"))
        print(timing_line("setup_s", setup_s, "s"))
        print(timing_line("op_wall_s", [o["op_s"] for o in timed], "s"))
        print(timing_line("setup_wall_s", [s["setup_s"] for s in setup], "s"))
        values = {"op_s": statistics.median(op_s), "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": max(o["peak_rss_mb"] for o in timed)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(f"peak_rss_mb: {values['peak_rss_mb']:.6g} MB")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
