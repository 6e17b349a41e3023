"""Per-layer tracing from outside the program.

:func:`install` wraps the public functions each layer of :mod:`repro`
exposes — at the names its callers look them up by — so every call into a
layer becomes a span: name, start, end and the span that caused it.
Spans stay in memory (flat ``array`` columns) and are written out once,
when the run ends.  Alongside the spans the wrappers keep exact counters
(lanes, uniforms drawn, FFI calls, trajectory rows) that repeat exactly
for a given seed.

Only a process that will never be used for end-to-end timing may call
:func:`install`: the wrappers cannot be taken out without trace.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

# Layers whose spans are lock-step drivers; budget cohorts are the
# driver spans that ran their repetitions instead of recursing into
# smaller cohorts through the module globals.
DRIVER_SPANS = ("batched", "batched_continuous")


class Tracer:
    """In-memory span store plus deterministic counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.tails: list = []  # tail streams handed out during one call

    def reset(self) -> None:
        """Forget every span and count (the arrays are reused in place)."""
        for col in (self.name_id, self.parent, self.start, self.end):
            del col[:]
        self.counts.clear()
        self.tails.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def caller(self) -> str | None:
        """Name of the innermost open span, or ``None`` at top level."""
        top = self.stack[-1]
        return None if top < 0 else self.names[self.name_id[top]]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as a span ``name``; ``after(args, result)`` then
        runs outside the span (its cost is not charged to the layer)."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def counted(self, key: str, fn):
        """``fn`` with a bare call counter (no span: FFI-call granularity)."""
        counts = self.counts

        def call(*args):
            counts[key] += 1
            return fn(*args)

        return call

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, busy seconds ``s`` and ``self_s``.

        A span's self time is its duration minus the durations of its
        direct children; spans nest strictly (one thread), so the
        children never overlap each other.
        """
        import numpy as np

        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        busy = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(busy[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def cohorts(self) -> int:
        """Driver spans that ran their repetitions themselves: a budget
        that splits a call into cohorts shows as one outer driver span
        whose children are the cohort spans."""
        import numpy as np

        ids = [self._ids[d] for d in DRIVER_SPANS if d in self._ids]
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int64)
        drivers = np.isin(nid, ids)
        has_driver_child = np.zeros(len(nid), dtype=bool)
        has_driver_child[par[drivers & (par >= 0)]] = True
        return int(np.sum(drivers & ~has_driver_child))

    def save(self, path) -> None:
        """Write every span (columns plus the name table) to ``path``."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def install(tr: Tracer) -> None:
    """Wrap every traced layer's public entry points.

    Must run before the kernel provider is first resolved, so the FFI
    counters sit inside the provider's low-level namespace.
    """
    import repro.core.batched as batched
    import repro.core.batched_continuous as cont
    import repro.core.budget as budget
    import repro.core.settlement as settlement
    import repro.core.trajectory as trajectory
    import repro.experiments.runner as runner
    import repro.kernels as kernels
    import repro.kernels.cffi_impl as cffi_impl
    import repro.utils.rng as rng
    import repro.walks.engine as engine

    counts = tr.counts

    # ---- experiments.runner: the estimate call and its dispatch
    def close_call(args, out):
        # tail streams report their generator draws once the call is over
        counts["rng.uniforms"] += sum(s.drawn for s in tr.tails)
        tr.tails.clear()

    runner.estimate_dispersion = tr.wrap(
        "runner", runner.estimate_dispersion, close_call
    )

    def reps_from(kind):
        def after(args, out):
            if tr.caller() == "runner":
                counts[kind] += len(out) if isinstance(out, list) else 1

        return after

    for process, fn in list(runner.PROCESS_DRIVERS.items()):
        runner.PROCESS_DRIVERS[process] = tr.wrap("serial", fn, reps_from("serial_reps"))

    # ---- core.batched / core.batched_continuous: the lock-step drivers,
    # replaced both in the runner's table and at the module globals their
    # cohort recursion (and c-sequential's delegation) looks up
    for mod, layer in ((batched, "batched"), (cont, "batched_continuous")):
        for attr in mod.__all__:
            if not attr.startswith("batched_"):
                continue
            fn = getattr(mod, attr)
            wrapped = tr.wrap(layer, fn, reps_from("batched_reps"))
            setattr(mod, attr, wrapped)
            for process, drv in list(runner.BATCHED_DRIVERS.items()):
                if drv is fn:
                    runner.BATCHED_DRIVERS[process] = wrapped

    # ---- core.budget
    plan = tr.wrap("budget.plan", budget.plan_state)
    budget.plan_state = batched.plan_state = cont.plan_state = plan

    # ---- walks.engine
    def step_lanes(key):
        def after(args, out):
            counts[key] += len(out)

        return after

    engine.neighbor_step = batched.neighbor_step = tr.wrap(
        "engine.step", engine.neighbor_step, step_lanes("engine.step.lanes")
    )

    # ---- graphs: the slot kernel each driver binds via neighbor_kernel
    neighbor_kernel = batched.neighbor_kernel

    def traced_neighbor_kernel(g):
        return tr.wrap(
            "graphs.slots", neighbor_kernel(g), step_lanes("graphs.slots.lanes")
        )

    batched.neighbor_kernel = cont.neighbor_kernel = traced_neighbor_kernel

    # ---- core.settlement
    def found(key):
        def after(args, out):
            counts[key] += out.size > 0

        return after

    settlement.select_settlers = batched.select_settlers = tr.wrap(
        "settlement.select", settlement.select_settlers
    )
    settlement.chunked_vacancies = batched.chunked_vacancies = tr.wrap(
        "settlement.vacancies",
        settlement.chunked_vacancies,
        found("settlement.vacancies.hits"),
    )

    # ---- kernels: the compiled provider's entry points, plus a bare
    # counter on every low-level FFI function the provider loads
    ck = kernels.CompiledKernels
    ck.csr_step = tr.wrap("kernels.step", ck.csr_step, step_lanes("kernels.step.lanes"))
    ck.settle_round = tr.wrap(
        "kernels.settle", ck.settle_round, found("kernels.settle.hits")
    )
    ck.finish_sequential = tr.wrap("kernels.finish", ck.finish_sequential)
    ck.finish_parallel_single = tr.wrap("kernels.finish", ck.finish_parallel_single)
    load = cffi_impl.load

    def counted_load():
        impl = load()
        for attr, fn in vars(impl).items():
            if callable(fn):
                setattr(impl, attr, tr.counted("kernels.ffi_calls", fn))
        return impl

    cffi_impl.load = counted_load

    # ---- utils.rng: stream refills and finisher handoffs
    us = rng.UniformStreams

    def filled(args, out):
        self, rows = args
        counts["rng.uniforms"] += len(rows) * self.block

    def refilled(args, out):
        counts["rng.uniforms"] += int(args[2])

    def handed_off(args, out):
        tr.tails.append(out)

    us.fill = tr.wrap("rng.refill", us.fill, filled)
    us.refill_tail = tr.wrap("rng.refill", us.refill_tail, refilled)
    us.tail = tr.wrap("rng.tail", us.tail, handed_off)

    # ---- core.trajectory
    ts = trajectory.TrajectoryStore

    def appended(args, out):
        counts["trajectory.rows"] += len(args[2])

    ts.append = tr.wrap("trajectory.append", ts.append, appended)
    ts.finalize = tr.wrap("trajectory.finalize", ts.finalize)
    ts.finalize_arrays = tr.wrap("trajectory.finalize", ts.finalize_arrays)
    # the finisher's recorded prefix, materialised as lists mid-run
    ts.handoff = tr.wrap("trajectory.handoff", ts.handoff)
