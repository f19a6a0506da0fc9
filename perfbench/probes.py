"""Probes: wrappers the benchmark puts around the program's public calls.

Untraced, the only probe is on ``Engine.run``: it keeps every
:class:`~repro.sim.metrics.RunMetrics` the workload produces, so the
outputs can be verified after the timed region, and marks the
host-speed clock (``hostspeed.py``) after each run.  Traced, every layer
entry point below becomes a span (see ``tracing.py``):

==========================  ============================================
span                        wrapped call
==========================  ============================================
``kernel.boot``             ``Kernel``, ``TintMalloc``,
                            ``ColoredTeam.create``,
                            ``MemorySystem.for_machine``, ``Engine``
``kernel.fault``            each process's ``AddressSpace.fault_handler``
``workloads.build``         ``build_spmd_program``
``sim.run``                 ``Engine.run`` (+ ``engine.kernel_ns`` deltas)
``metrics.serialize``       ``RunMetrics.to_json``, ``RunRecord.to_json``
                            and ``RunRecord.from_json``
``experiments.equivalence`` ``check_equivalence`` (measured whole)
==========================  ============================================

The service and search spans are opened by the tune workload itself,
around the runner and store it hands to ``ServiceClient``.
"""

from __future__ import annotations

import importlib
import inspect

#: ``engine.kernel_ns`` histogram kinds -> ``sim.run`` span attr names.
KERNEL_KINDS = {"decode": "decode_s", "replay": "replay_s",
                "scalar_replay": "scalar_s"}


class Probes:
    """Install/uninstall the wrappers for one workload unit.

    Args:
        tracer: a :class:`tracing.Tracer`, or None for an untraced unit.
        registry: the ``repro.obs.metrics`` registry installed for a
            traced unit (its ``engine.kernel_ns`` histograms are read
            around each ``Engine.run``).
        clock: a :class:`hostspeed.Clock` to mark after each untraced
            ``Engine.run``.
    """

    def __init__(self, tracer=None, registry=None, clock=None) -> None:
        self.tracer = tracer
        self.registry = registry
        self.clock = clock
        #: every RunMetrics returned by Engine.run, in call order.
        self.runs: list = []
        self._undo: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- patching
    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original_function)``,
        keeping classmethods classmethods."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _span(self, owner, attr: str, name: str, leaf: bool = False) -> None:
        tracer = self.tracer
        self._patch(owner, attr, lambda fn: tracer.wrap(fn, name, leaf=leaf))

    def install(self) -> "Probes":
        mod = importlib.import_module
        engine_mod = mod("repro.sim.engine")
        runs = self.runs
        tracer = self.tracer

        if tracer is None:
            clock = self.clock

            def make_run(fn):
                def run(engine, program):
                    metrics = fn(engine, program)
                    runs.append(metrics)
                    if clock is not None:
                        clock.mark()
                    return metrics
                return run
            self._patch(engine_mod.Engine, "run", make_run)
            return self

        registry = self.registry

        def kernel_hists():
            return {attr: registry.histogram("engine.kernel_ns", kind=kind)
                    for kind, attr in KERNEL_KINDS.items()}

        def make_run(fn):
            def run(engine, program):
                with tracer.span("sim.run") as sp:
                    hists = kernel_hists()
                    before = {a: (h.sum, h.count) for a, h in hists.items()}
                    metrics = fn(engine, program)
                    if sp is not None:
                        for a, h in hists.items():
                            s0, c0 = before[a]
                            sp.attrs[a] = (h.sum - s0) / 1e9
                            sp.attrs[a.replace("_s", "_sections")] = h.count - c0
                runs.append(metrics)
                return metrics
            return run

        self._patch(engine_mod.Engine, "run", make_run)

        tm_cls = mod("repro.core.tintmalloc").TintMalloc

        def make_tm_init(fn):
            def init(tm, *args, **kwargs):
                with tracer.span("kernel.boot"):
                    fn(tm, *args, **kwargs)
                space = tm.process.address_space
                space.fault_handler = tracer.wrap(
                    space.fault_handler, "kernel.fault"
                )
            return init

        self._patch(tm_cls, "__init__", make_tm_init)
        self._span(mod("repro.kernel.kernel").Kernel, "__init__", "kernel.boot")
        self._span(mod("repro.core.session").ColoredTeam, "create",
                   "kernel.boot")
        self._span(engine_mod.MemorySystem, "for_machine", "kernel.boot")
        self._span(engine_mod.Engine, "__init__", "kernel.boot")
        for name in ("repro.workloads.base", "repro.experiments.runner",
                     "repro.experiments.matrix"):
            self._span(mod(name), "build_spmd_program", "workloads.build")
        record_cls = mod("repro.experiments.runner").RunRecord
        self._span(mod("repro.sim.metrics").RunMetrics, "to_json",
                   "metrics.serialize")
        self._span(record_cls, "to_json", "metrics.serialize")
        self._span(record_cls, "from_json", "metrics.serialize")
        self._span(mod("repro.experiments.matrix"), "check_equivalence",
                   "experiments.equivalence", leaf=True)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Probes":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
