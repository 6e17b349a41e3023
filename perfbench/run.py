"""Dispersion benchmark: one command, four workloads, closed loop.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a checkout (``src/repro`` must be there).  Every
phase runs in a fresh interpreter (:mod:`worker`); this process never
imports :mod:`repro`.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
five fresh interpreters after one untimed warm-up that builds the kernel
cache), one ``tracemalloc`` call whose first two repetitions are checked
byte for byte against the serial oracle, then timed
``estimate_dispersion`` calls for ``T`` seconds, each gated.  Times are
CPU seconds scaled by a reference pass run next to them, in reference
seconds (see :mod:`reference`), so the shared host's swings largely
cancel; the same figures in wall-clock seconds, and the raw CPU medians,
are printed beside them for reading only.

``--trace 1`` measures the per-layer metrics: a fixed number of calls in
an untraced interpreter, then the same calls twice more in interpreters
with the layer wrappers of :mod:`tracer` installed.  The two traced runs
must agree exactly on every count; timings come from the first, and
``trace.overhead_frac`` compares traced and untraced wall time.  Spans
are written to ``.bench_build/spans/``.

Metric names and units come from ``BENCHMARK.json``; the last line of
standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
#: Calls per per-layer pass: fixed, so counts repeat exactly per seed.
LAYER_CALLS = 10
#: Wall-clock budget of one run, all phases included.
RUN_BUDGET_S = 170


class BenchError(RuntimeError):
    pass


def run_worker(root: Path, deadline: float, *args) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the compiled-kernel cache lives in the checkout, not the system temp dir
    env["REPRO_KERNELS_CACHE"] = str(root / ".bench_build" / "repro-kernels")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError(
            f"worker {' '.join(map(str, args))} exited {proc.returncode}:\n"
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def tail_percentile(times: list[float]) -> tuple[int, float]:
    """Highest integer percentile with at least ten calls beyond it.

    Nearest-rank: percentile ``p`` is the ``ceil(p·N/100)``-th smallest
    call, which leaves ``N - rank >= 10`` calls above it.
    """
    n = len(times)
    p = (100 * (n - 10)) // n
    rank = max(1, -(-p * n // 100))
    return p, sorted(times)[rank - 1]


def end_to_end(
    root: Path, deadline: float, name: str, seed: int, seconds: float
) -> tuple[dict, dict]:
    run_worker(root, deadline, "setup", name)  # warm-up: kernel build, bytecode
    probes = [run_worker(root, deadline, "setup", name) for _ in range(SETUP_PROBES)]
    res = run_worker(root, deadline, "e2e", name, seed, seconds)
    times = res["times"]
    pct, tail = tail_percentile(times)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "estimate_ref_s.p50": statistics.median(times),
        "estimate_ref_s.tail": tail,
        "reps_per_ref_s": res["reps"] * len(times) / sum(times),
        "peak_traced_mb": res["peak_bytes"] / 2**20,
    }
    info = {
        "provider": res["provider"],
        "numpy": res["numpy"],
        "calls": len(times),
        "tail_percentile": pct,
        "raw": {
            "setup_s (wall)": statistics.median(p["wall_s"] for p in probes),
            "estimate_s.p50 (wall)": statistics.median(res["wall_s"]),
            "estimate_s.tail (wall)": tail_percentile(res["wall_s"])[1],
            "reps_per_s (wall)": res["reps"] * len(times) / sum(res["wall_s"]),
            "setup cpu s": statistics.median(p["cpu_s"] for p in probes),
            "setup reference s": statistics.median(p["ref_s"] for p in probes),
            "estimate cpu s p50": statistics.median(res["cpu_s"]),
            "estimate reference s p50": statistics.median(res["ref_s"]),
        },
        "failed_frac": res["failed"] / res["attempted"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
    }
    return values, info


# ----------------------------------------------------------------------
# per layer
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(run: dict, untraced_wall: float, traced_walls: list[float]) -> dict:
    spans, counts = run["spans"], run["counts"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def count(name: str) -> int:
        return counts.get(name, 0)

    batched_reps = count("batched_reps")
    return {
        "runner.self_s": span("runner", "self_s"),
        "runner.batched_reps_frac": _ratio(
            batched_reps, batched_reps + count("serial_reps")
        ),
        "budget.plan.calls": span("budget.plan", "calls"),
        "budget.cohorts": count("budget.cohorts"),
        "batched.self_s": span("batched", "self_s"),
        "batched_continuous.self_s": span("batched_continuous", "self_s"),
        "kernels.step.calls": span("kernels.step", "calls"),
        "kernels.step.lanes": count("kernels.step.lanes"),
        "kernels.step.s": span("kernels.step", "s"),
        "kernels.settle.calls": span("kernels.settle", "calls"),
        "kernels.settle.s": span("kernels.settle", "s"),
        "kernels.settle.hit_ratio": _ratio(
            count("kernels.settle.hits"), span("kernels.settle", "calls")
        ),
        "kernels.finish.calls": span("kernels.finish", "calls"),
        "kernels.finish.s": span("kernels.finish", "s"),
        "kernels.ffi_calls": count("kernels.ffi_calls"),
        "engine.step.calls": span("engine.step", "calls"),
        "engine.step.lanes": count("engine.step.lanes"),
        "engine.step.s": span("engine.step", "s"),
        "graphs.slots.calls": span("graphs.slots", "calls"),
        "graphs.slots.lanes": count("graphs.slots.lanes"),
        "graphs.slots.s": span("graphs.slots", "s"),
        "graphs.build_s": _ratio(span("graphs.build", "s"), span("graphs.build", "calls")),
        "settlement.vacancies.calls": span("settlement.vacancies", "calls"),
        "settlement.vacancies.s": span("settlement.vacancies", "s"),
        "settlement.select.calls": span("settlement.select", "calls"),
        "settlement.select.s": span("settlement.select", "s"),
        "settlement.hit_ratio": _ratio(
            count("settlement.vacancies.hits"), span("settlement.vacancies", "calls")
        ),
        "rng.refill.calls": span("rng.refill", "calls"),
        "rng.refill.s": span("rng.refill", "s"),
        "rng.uniforms": count("rng.uniforms"),
        "rng.tail.calls": span("rng.tail", "calls"),
        "trajectory.append.calls": span("trajectory.append", "calls"),
        "trajectory.append.s": span("trajectory.append", "s"),
        "trajectory.finalize.s": span("trajectory.finalize", "s"),
        "trajectory.handoff.s": span("trajectory.handoff", "s"),
        "trajectory.rows": count("trajectory.rows"),
        "trace.overhead_frac": statistics.mean(traced_walls) / untraced_wall - 1.0,
    }


def exact_counts(run: dict) -> dict:
    """Everything in a traced run that must repeat exactly for one seed."""
    out = {f"{name}.calls": s["calls"] for name, s in run["spans"].items()}
    out.update(run["counts"])
    out["spans"] = run["span_count"]
    return dict(sorted(out.items()))


def per_layer(root: Path, deadline: float, name: str, seed: int) -> tuple[dict, dict]:
    run_worker(root, deadline, "setup", name)  # warm-up: kernel build, bytecode
    spans_dir = root / ".bench_build" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    plain = run_worker(root, deadline, "layers", name, seed, LAYER_CALLS, 0)
    traced = [
        run_worker(
            root, deadline, "layers", name, seed, LAYER_CALLS, 1,
            spans_dir / f"{name}-{tag}.npz",
        )
        for tag in ("a", "b")
    ]
    counts_a, counts_b = exact_counts(traced[0]), exact_counts(traced[1])
    mismatched = sorted(
        k for k in counts_a.keys() | counts_b.keys() if counts_a.get(k) != counts_b.get(k)
    )
    values = layer_values(traced[0], plain["wall_s"], [t["wall_s"] for t in traced])
    runs = [plain, *traced]
    failures = [f for r in runs for f in r["failures"]]
    failures += [
        f"count {k} differs between traced runs: {counts_a.get(k)} vs {counts_b.get(k)}"
        for k in mismatched
    ]
    info = {
        "provider": traced[0]["provider"],
        "numpy": traced[0]["numpy"],
        "calls": LAYER_CALLS,
        "counts": counts_a,
        "attempted": sum(r["attempted"] for r in runs) + 1,  # + the repeat check
        "failed": sum(r["failed"] for r in runs) + bool(mismatched),
        "failures": failures[:10],
    }
    return values, info


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    w = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S

    try:
        if args.trace:
            values, info = per_layer(root, deadline, args.workload, args.seed)
        else:
            values, info = end_to_end(
                root, deadline, args.workload, args.seed, args.seconds
            )
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload   {args.workload}: {w.describe()}, closed loop, 1 client, n_jobs=1")
    print(
        f"env        nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={info['numpy']} kernels={info['provider']} seed={args.seed}"
    )
    if args.trace:
        print(f"traced     {info['calls']} calls per pass, 2 traced passes + 1 untraced")
        print("counts     (exact; repeated by the second traced pass)")
        for k, v in info["counts"].items():
            print(f"  {k:<36} {v}")
    else:
        print(
            f"calls      {info['calls']} timed; tail = p{info['tail_percentile']} "
            f"(>= 10 calls beyond it)"
        )
        print(f"  {'failed_frac':<36} {info['failed_frac']:.6g} ratio")
        print("raw        (not reference-scaled; for reading only)")
        for k, v in info["raw"].items():
            print(f"  {k:<36} {v:.6g}")
    for f in info["failures"]:
        print(f"FAILED     {f}")
    result_metrics = {}
    for m in metrics:
        v = values[m["name"]]
        result_metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"  {m['name']:<36} {v if isinstance(v, int) else f'{v:.6g}'} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": info["failed"] == 0,
                "attempted": info["attempted"],
                "failed": info["failed"],
                "metrics": result_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
