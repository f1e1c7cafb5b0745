"""One benchmark operation in a fresh interpreter.

Usage: ``python3 perfbench/op.py SPEC.json``, where the spec names the
source directory to import ``spusim`` from, the CLI ``argv`` (null for a
process that only sets up), whether to trace, whether to run the speed probe, and where
to write the result.  The result records ``setup_s`` (import ``spusim.cli``
and build its parser), ``op_s`` (``spusim.cli.main(argv)`` until it
returns, so every artifact and ``manifest.json`` are written), the exit
code, the peak resident memory of this process and, when traced, the
per-layer metrics.  With the speed probe on, both phases also record the
probe's samples taken during them (see ``SpeedProbe``): with the
pure-Python kernel during set-up, before numpy is imported, and with the
kernel that adds small-array numpy arithmetic during the operation.
"""

import json
import resource
import signal
import sys
import time
from pathlib import Path

PROBE_INTERVAL_S = 0.05


def python_kernel(loops: int = 10_000) -> int:
    """Fixed pure-Python work, about 1 ms on a 2-vCPU x86-64 VM."""
    s = 0
    for i in range(loops):
        s += i * i % 7
    return s


def numpy_kernel():
    """Fixed Python and small-array numpy work, about 1 ms on the same VM.

    Most of ``spusim``'s host time goes to Python loops over small arrays,
    and this kernel's time follows theirs more closely than pure Python
    does as the host's speed drifts.  Build it once numpy is imported.
    """
    import numpy as np

    a = np.full(8, 0.5)

    def kernel() -> None:
        python_kernel(5_000)
        x = np.zeros(8)
        for _ in range(300):
            x = x * a + 1.0

    return kernel


class SpeedProbe:
    """Samples the host's speed while the operation runs, from the inside.

    A real-time interval timer raises SIGALRM every ``PROBE_INTERVAL_S``;
    the handler, which Python runs in the main thread between bytecodes,
    times one call of ``kernel``.  The mean of those times tracks how fast
    the host runs such code during the phase being timed, and the sum is
    the time the probe took from it.  Interrupted system calls are
    restarted, so the program sees no EINTR.
    """

    def __init__(self):
        self.kernel = python_kernel
        self.total = 0.0
        self.count = 0

    def _sample(self, signum, frame) -> None:
        t = time.perf_counter()
        self.kernel()
        self.total += time.perf_counter() - t
        self.count += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def take(self) -> dict:
        """The samples since the last ``take`` (or ``start``), then reset."""
        out = {"probe_total_s": self.total, "probe_count": self.count}
        self.total, self.count = 0.0, 0
        return out

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # ignore, not default: a signal already on its way must not end us
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


def run_phases(spec: dict, probe) -> dict:
    """Set up, then run the operation if the spec names one; the result so far."""
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import spusim.cli

    spusim.cli.build_parser()
    out = {"setup_s": time.perf_counter() - t0, "spusim_file": spusim.cli.__file__}
    if probe is not None:
        out["setup_probe"] = probe.take()
        probe.kernel = numpy_kernel()
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer, layer_metrics

            tracer = Tracer(spec["run_id"])
            tracer.install()
        t1 = time.perf_counter()
        out["exit_code"] = spusim.cli.main(spec["argv"])
        out["op_s"] = time.perf_counter() - t1
        if probe is not None:
            out["op_probe"] = probe.take()
        if tracer is not None:
            out["layers"] = layer_metrics(tracer.spans)
            Path(spec["spans"]).write_text(json.dumps([vars(s) for s in tracer.spans]))
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    probe = SpeedProbe() if spec["probe"] else None
    if probe is not None:
        probe.start()
    try:
        out = run_phases(spec, probe)
    finally:
        # also on the way out of an exception, or SIGALRM ends the interpreter
        if probe is not None:
            probe.stop()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
