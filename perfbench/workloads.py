"""The four benchmark workloads and the correctness gate every call passes.

Each workload is one ``estimate_dispersion`` call shape, issued in a
closed loop (one client, one process, ``n_jobs=1``).  Call ``i`` of a run
with seed argument ``S`` uses ``seed=(S, i)``, so the same ``S`` repeats
the same work.  Nothing here imports :mod:`repro` at module level: the
set-up probe times that import itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    graph: str  # generator name in repro.graphs
    graph_args: tuple
    graph_kwargs: dict = field(default_factory=dict)
    process: str = "parallel"
    reps: int = 16
    kwargs: dict = field(default_factory=dict)

    def build_graph(self):
        import repro.graphs

        return getattr(repro.graphs, self.graph)(*self.graph_args, **self.graph_kwargs)

    def describe(self) -> str:
        args = ", ".join(
            [repr(a) for a in self.graph_args]
            + [f"{k}={v!r}" for k, v in self.graph_kwargs.items()]
        )
        extra = "".join(f", {k}={v!r}" for k, v in self.kwargs.items())
        return f"{self.process} on {self.graph}({args}), reps={self.reps}{extra}"


# Why these four, and why these sizes: see BENCHMARK.json and
# perfbench/BASELINE.md.  Sizes keep one call at or below half a second so a
# run holds enough calls for a tail percentile with ten calls beyond it,
# and the tracemalloc call (about ten times slower) stays affordable.
WORKLOADS: dict[str, Workload] = {
    # lock-step round loop + compiled step/settle kernels, deep cycle tail
    "parallel-cycle": Workload("cycle_graph", (128,), process="parallel", reps=32),
    # reps=64 is the auto-dispatch threshold: narrow one-lane-per-rep
    # lock-step, then the compiled sequential finisher
    "sequential-cycle": Workload("cycle_graph", (64,), process="sequential", reps=64),
    # implicit graph: compiled kernels stand down, arithmetic slots + refill
    "ctu-hypercube": Workload(
        "hypercube_graph", (7,), {"implicit": True}, process="ctu", reps=64
    ),
    # per-round trajectory append + list finalisation
    "parallel-torus-record": Workload(
        "torus_graph", (32, 32), process="parallel", reps=8, kwargs={"record": True}
    ),
}


def estimate(runner, w: Workload, g, seed, reps=None, **extra):
    """One workload call through ``runner.estimate_dispersion``.

    The function is looked up on the module at call time, so a traced
    process that wrapped it is measured through the wrapper.
    """
    return runner.estimate_dispersion(
        g, w.process, reps=reps or w.reps, seed=seed, **w.kwargs, **extra
    )


def gate(w: Workload, est) -> str | None:
    """Per-call output check; returns a failure reason or ``None``.

    One sample per repetition, every sample finite, and
    ``0 <= tau <= total steps``.  For the discrete processes ``tau`` is
    one particle's step count, so it cannot exceed the sum.  For CTU-IDLA
    ``tau`` is a clock, and steps arrive at total rate ``k >= 1`` while
    ``k`` particles are unsettled, so the steps far outnumber it.
    """
    import numpy as np

    tau = np.asarray(est.samples, dtype=np.float64)
    tot = np.asarray(est.total_samples)
    if tau.shape != (w.reps,) or tot.shape != (w.reps,):
        return f"expected {w.reps} samples, got {tau.shape} and {tot.shape}"
    if not np.all(np.isfinite(tau)):
        return "non-finite dispersion time"
    if np.any(tau < 0) or np.any(tau > tot):
        return "dispersion time outside [0, total steps]"
    if w.kwargs.get("record") and (
        est.trajectories is None or len(est.trajectories) != w.reps
    ):
        return "missing trajectories"
    return None


def oracle_mismatch(runner, w: Workload, g, seed, est) -> str | None:
    """Compare the first two repetitions of ``est`` with the serial oracle.

    ``est`` must come from a call with ``seed``; repetition ``r`` consumes
    child ``r`` of that seed, so the serial ``reps=2`` run replays the
    batched call's first two repetitions byte for byte.
    """
    ref = estimate(runner, w, g, seed, reps=2, batched=False)
    if ref.samples.tobytes() != est.samples[:2].tobytes():
        return "samples differ from the serial oracle"
    if ref.total_samples.tobytes() != est.total_samples[:2].tobytes():
        return "total_samples differ from the serial oracle"
    if w.kwargs.get("record") and ref.trajectories != est.trajectories[:2]:
        return "trajectories differ from the serial oracle"
    return None
