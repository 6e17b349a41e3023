"""One benchmark phase in a fresh interpreter; prints one JSON object.

    python3 perfbench/worker.py setup  WORKLOAD
    python3 perfbench/worker.py e2e    WORKLOAD SEED SECONDS
    python3 perfbench/worker.py layers WORKLOAD SEED CALLS TRACED [SPANS_PATH]

``setup`` times importing :mod:`repro`, resolving the kernel provider and
building the workload graph.  ``e2e`` makes one ``tracemalloc`` call
(checked against the serial oracle), then issues timed calls in a closed
loop for ``SECONDS`` (and at least ``MIN_CALLS`` calls).  ``layers`` runs
a fixed ``CALLS`` calls, with the per-layer wrappers installed when
``TRACED`` is 1.  :mod:`run` starts these; ``src`` must be importable.

``setup`` and ``e2e`` time CPU seconds of this process and pair each
timing with a pass of :func:`reference.reference`; the times they report
are in reference seconds (see :mod:`reference`), next to the raw ones.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter, process_time

from workloads import WORKLOADS, estimate, gate, oracle_mismatch

#: The tail percentile needs ten calls beyond it, hence eleven calls.
MIN_CALLS = 11
#: Graph builds per per-layer pass (``graphs.build_s`` is their mean).
BUILDS = 5
#: Reference passes after a set-up probe; the fastest is its yardstick.
REF_PASSES = 3


def setup(w) -> dict:
    t0, c0 = perf_counter(), process_time()
    import repro  # noqa: F401  (the import is what is timed)
    from repro.kernels import get_kernels

    get_kernels()
    w.build_graph()
    cpu, wall = process_time() - c0, perf_counter() - t0
    from reference import REF_NOMINAL_S, timed_reference

    ref = min(timed_reference()[0] for _ in range(REF_PASSES))
    return {
        "setup_s": cpu * REF_NOMINAL_S / ref,
        "cpu_s": cpu,
        "wall_s": wall,
        "ref_s": ref,
    }


def e2e(w, seed: int, seconds: float) -> dict:
    import tracemalloc

    import numpy as np
    from reference import REF_NOMINAL_S, timed_reference
    from repro.experiments import runner
    from repro.kernels import get_kernels

    g = w.build_graph()
    provider = get_kernels().name
    failures: list[str] = []

    # memory call, outside the timed loop; also the oracle's subject
    tracemalloc.start()
    first = estimate(runner, w, g, (seed, 0))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    reason = gate(w, first) or oracle_mismatch(runner, w, g, (seed, 0), first)
    if reason:
        failures.append(f"memory call: {reason}")

    # every call sits between two reference passes; their mean is its yardstick
    checksums: set[int] = set()

    def ref() -> float:
        t, checksum = timed_reference()
        checksums.add(checksum)
        return t

    ref()  # warm-up
    cpu: list[float] = []
    wall: list[float] = []
    refs: list[float] = []
    attempted = 1
    loop_start = perf_counter()
    ref_before = ref()
    i = 0
    while i < MIN_CALLS or perf_counter() - loop_start < seconds:
        attempted += 1
        t0, c0 = perf_counter(), process_time()
        try:
            est = estimate(runner, w, g, (seed, i))
        except Exception as exc:  # a failed call counts; the loop goes on
            failures.append(f"call {i}: {type(exc).__name__}: {exc}")
            i += 1
            ref_before = ref()
            continue
        cpu.append(process_time() - c0)
        wall.append(perf_counter() - t0)
        ref_after = ref()
        refs.append((ref_before + ref_after) / 2)
        ref_before = ref_after
        reason = gate(w, est)
        if reason is None and i == 0 and not np.array_equal(est.samples, first.samples):
            reason = "same seed gave different samples"
        if reason:
            failures.append(f"call {i}: {reason}")
        i += 1
    if len(checksums) != 1:
        failures.append("reference passes did different work")
    return {
        "provider": provider,
        "numpy": np.__version__,
        "times": [c * REF_NOMINAL_S / r for c, r in zip(cpu, refs)],
        "cpu_s": cpu,
        "wall_s": wall,
        "ref_s": refs,
        "reps": w.reps,
        "peak_bytes": peak,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
    }


def layers(w, seed: int, calls: int, traced: bool, spans_path: str | None) -> dict:
    import numpy as np
    from repro.experiments import runner
    from repro.kernels import get_kernels

    tr = None
    build = w.build_graph
    if traced:
        from tracer import Tracer, install

        tr = Tracer()
        install(tr)
    provider = get_kernels().name
    if tr is not None:
        tr.reset()  # drop the provider's load-time self-check
        build = tr.wrap("graphs.build", build)
    for _ in range(BUILDS):
        g = build()
    wall = 0.0
    failures: list[str] = []
    for i in range(calls):
        t0 = perf_counter()
        est = estimate(runner, w, g, (seed, i))
        wall += perf_counter() - t0
        reason = gate(w, est)
        if reason:
            failures.append(f"call {i}: {reason}")
    out = {
        "provider": provider,
        "numpy": np.__version__,
        "wall_s": wall,
        "attempted": calls,
        "failed": len(failures),
        "failures": failures[:10],
    }
    if tr is not None:
        out["spans"] = tr.summary()
        out["counts"] = {**tr.counts, "budget.cohorts": tr.cohorts()}
        out["span_count"] = len(tr.start)
        if spans_path:
            tr.save(spans_path)
    return out


def main(argv: list[str]) -> int:
    mode, name = argv[0], argv[1]
    w = WORKLOADS[name]
    if mode == "setup":
        result = setup(w)
    elif mode == "e2e":
        result = e2e(w, int(argv[2]), float(argv[3]))
    elif mode == "layers":
        spans = argv[5] if len(argv) > 5 else None
        result = layers(w, int(argv[2]), int(argv[3]), argv[4] == "1", spans)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
