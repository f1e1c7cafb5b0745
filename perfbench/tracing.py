"""Outside-in tracing of the ``spusim`` modules, installed from the benchmark.

``install`` wraps the public functions and methods listed in ``TARGETS``
without editing the package: each function is rebound in every ``spusim``
module that holds it by name (``from .langevin import integrate_circuit``
makes ``linalg.integrate_circuit`` a second reference), and each method is
replaced on its class.  A wrapped call records a ``Span`` (name, layer,
start, end, parent span, run id) in memory and, where the call's result
holds a work count, adds it to the span.  ``layer_metrics`` folds the spans
into the per-layer metrics; a span's self time is its duration minus the
part of it that child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    layer: str
    run_id: str
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


def _batch_counts(batch) -> dict:
    meta = batch.meta
    burn_steps = round(meta["burn_in"] / meta["dt"])
    steps = batch.chains * (burn_steps + batch.samples_per_chain * meta["record_stride"])
    return {"records": batch.n_samples, "sim_steps": steps}


# (layer, module, qualified name, counts taken from the call's result)
TARGETS = [
    ("langevin", "spusim.langevin", "integrate_circuit", _batch_counts),
    ("noise", "spusim.noise", "ChainNoiseSource.increments",
     lambda out: {"lane_steps": out.size}),
    ("linalg", "spusim.linalg", "sample_gaussian", None),
    ("linalg", "spusim.linalg", "invert_matrix",
     lambda res: {"checkpoints": len(res.n_series)}),
    ("linalg", "spusim.linalg", "moment_errors",
     lambda rep: {"checkpoints": len(rep.n_samples)}),
    ("compiler", "spusim.compiler", "compile_precision", None),
    ("compiler", "spusim.compiler", "compile_covariance", None),
    ("circuit", "spusim.circuit", "CircuitParams.build", None),
    ("circuit", "spusim.circuit", "CircuitParams.from_maxwell", None),
    ("circuit", "spusim.circuit", "CircuitParams.with_tolerance", None),
    ("samples", "spusim.samples", "SampleBatch.to_csv", None),
    ("samples", "spusim.samples", "SampleBatch.time_major", None),
    ("samples", "spusim.samples", "SampleBatch.covariance", None),
    ("calibration", "spusim.calibration", "estimate_spectrum", None),
    ("calibration", "spusim.calibration", "fit_circuit_params",
     lambda fit: {"evals": fit.n_evaluations, "converged": int(fit.converged)}),
    ("calibration", "spusim.calibration", "characterize_cell", None),
    ("calibration", "spusim.calibration", "two_cell_fault_scan", None),
    ("device", "spusim.device", "SpuEmulator.sample", None),
    ("device", "spusim.device", "SpuEmulator.true_params", None),
    ("device", "spusim.device", "SpuEmulator.nominal_params", None),
    ("cli", "spusim.cli", "load_matrix", None),
    ("cli", "spusim.cli", "write_csv", None),
    ("cli", "spusim.cli", "write_matrix", None),
    ("cli", "spusim.cli", "main", None),
]


class Tracer:
    """In-memory span recorder for one traced operation (single-threaded)."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, layer: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        name, layer, self.run_id, self.clock())
            self.spans.append(span)
            self._stack.append(span.sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target; functions are rebound wherever spusim holds them."""
        for layer, module_name, qualname, counter in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(raw.__func__, qualname, layer, counter))
                else:
                    wrapped = self.wrap(raw, qualname, layer, counter)
                setattr(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, qualname, layer, counter)
            for name, mod in list(sys.modules.items()):
                if name != "spusim" and not name.startswith("spusim."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.sid] = (span.end - span.start) - covered
    return out


def _per_s(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and self times (seconds) from one operation's spans."""
    own = self_times(spans)

    def total(pred, value=lambda s: own[s.sid]):
        return float(sum(value(s) for s in spans if pred(s)))

    def by_name(*names):
        return lambda s: s.name in names

    def count(key, pred=lambda s: True):
        return total(pred, lambda s: s.counts.get(key, 0))

    def layer(name):
        return lambda s: s.layer == name

    m = {}
    for name in ("langevin", "noise", "compiler", "device"):
        m[f"{name}.calls"] = total(layer(name), lambda s: 1)
    for name in ("langevin", "noise", "linalg", "compiler", "circuit", "samples",
                 "calibration", "device"):
        m[f"{name}.self_s"] = total(layer(name))
    m["langevin.records"] = count("records")
    m["langevin.sim_steps"] = count("sim_steps")
    m["langevin.steps_per_s"] = _per_s(m["langevin.sim_steps"], m["langevin.self_s"])
    m["langevin.errors"] = total(lambda s: s.layer == "langevin" and s.error,
                                 lambda s: 1)
    m["noise.lane_steps"] = count("lane_steps")
    m["noise.lane_steps_per_s"] = _per_s(m["noise.lane_steps"], m["noise.self_s"])
    m["linalg.checkpoints"] = count("checkpoints")
    welch, fit = by_name("estimate_spectrum"), by_name("fit_circuit_params")
    m["calibration.welch_calls"] = total(welch, lambda s: 1)
    m["calibration.welch_s"] = total(welch)
    m["calibration.fit_calls"] = total(fit, lambda s: 1)
    m["calibration.fit_s"] = total(fit)
    m["calibration.fit_evals"] = count("evals")
    m["calibration.fit_evals_per_s"] = _per_s(m["calibration.fit_evals"],
                                              m["calibration.fit_s"])
    m["calibration.fit_converged_ratio"] = (
        count("converged") / m["calibration.fit_calls"] if m["calibration.fit_calls"] else 0.0)
    m["calibration.scan_self_s"] = total(by_name("two_cell_fault_scan"))
    m["cli.load_s"] = total(by_name("load_matrix"))
    m["cli.write_s"] = total(by_name("write_csv", "write_matrix"))
    m["cli.self_s"] = total(by_name("main"))
    m["trace.attributed_s"] = total(lambda s: True)
    return m
