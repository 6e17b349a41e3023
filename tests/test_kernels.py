"""Unit tests of the compiled-kernel seam (:mod:`repro.kernels`).

The differential harness (``tests/test_differential_drivers.py``) pins
whole driver runs bit-identical across providers; this module covers the
layer's own contracts:

* registry resolution precedence (explicit argument > ``REPRO_KERNELS``
  > auto-detection) and its failure modes — an explicitly requested
  provider that cannot initialise raises, auto-detection falls through
  silently, the numpy fallback is always available;
* pickling resolved providers by name (the fan-out runner's kwargs
  path);
* kernel-by-kernel parity of each compiled provider against the
  :class:`~repro.kernels.NumpyKernels` reference implementations on
  irregular graphs, including the offset-clamp edge at ``u -> 1``;
* the single-walker compiled loops against the pure-Python
  :class:`~repro.walks.single.SingleWalkKernel` path;
* the fused lock-step kernel (``advance_rounds``) against the per-round
  numpy path of ``batched_parallel_idla``, across refill hand-backs, the
  tail-finisher handoff and ``max_rounds`` exhaustion;
* the fused sequential tick kernel (``advance_ticks``) against the numpy
  tick loop of ``batched_sequential_idla``, across refills, mid-epoch
  finishes, the tail handoff and ``max_total_steps`` exhaustion;
* the fused CTU tick kernel (``advance_ctu_ticks``) against the numpy
  tick loop of ``batched_ctu_idla`` and the serial oracle, on all seven
  implicit families (edge instances included), their CSR twins and
  irregular CSR graphs, across refills, ticks straddling a chunk and
  clock-logarithm windows; and its dispatch: one kernel call per window,
  none for recording runs or for user subclasses of a family;
* the cffi library cache: a corrupted cached library is rebuilt, a
  multi-word ``$CC`` builds, and the cache key covers compiler, flags
  and platform;
* the ``UniformStream.take_block`` handoff contract the compiled tail
  finishers consume.
"""

from __future__ import annotations

import os
import pickle
import shutil

import numpy as np
import pytest

import repro.core.batched as batched
import repro.core.batched_continuous as batched_continuous
import repro.kernels as kernels_pkg
from repro.core.continuous import ctu_idla
from repro.core.parallel import parallel_idla
from repro.core.sequential import sequential_idla
from repro.graphs import (
    Graph,
    complete_binary_tree,
    cycle_graph,
    lollipop_graph,
    star_graph,
)
from repro.graphs.implicit import (
    ImplicitBinaryTree,
    ImplicitComplete,
    ImplicitCycle,
    ImplicitGrid,
    ImplicitHypercube,
    ImplicitPath,
    ImplicitTorus,
)
from repro.kernels import (
    KernelSet,
    KernelsUnavailableError,
    NumpyKernels,
    adjacency_descriptor,
    available_kernels,
    csr_arrays,
    get_kernels,
)
from repro.utils.rng import (
    UniformStream,
    UniformStreams,
    as_generator,
    spawn_seed_sequences,
)
from repro.walks.single import random_walk, walk_until_hit

AVAILABLE = available_kernels()
COMPILED = [
    pytest.param(
        name,
        marks=()
        if ok
        else pytest.mark.skip(reason=f"kernel provider {name!r} unavailable"),
    )
    for name, ok in sorted(AVAILABLE.items())
    if name != "numpy"
]


# ---------------------------------------------------------------------------
# registry / resolution


def test_numpy_provider_always_available_and_cached():
    ks = get_kernels("numpy")
    assert isinstance(ks, NumpyKernels)
    assert ks.compiled is False
    assert get_kernels("numpy") is ks  # registry caches by name
    assert AVAILABLE["numpy"] is True


def test_kernelset_instance_passes_through():
    ks = get_kernels("numpy")
    assert get_kernels(ks) is ks


def test_explicit_argument_beats_environment(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "definitely-not-a-provider")
    assert get_kernels("numpy").name == "numpy"


def test_environment_resolves_when_no_argument(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "numpy")
    assert get_kernels().name == "numpy"
    monkeypatch.setenv("REPRO_KERNELS", "")
    # empty is unset: auto-detection must yield *some* provider
    assert isinstance(get_kernels(), KernelSet)


def test_unknown_provider_raises_listing_choices(monkeypatch):
    with pytest.raises(ValueError, match="unknown kernel provider"):
        get_kernels("bogus")
    monkeypatch.setenv("REPRO_KERNELS", "bogus")
    with pytest.raises(ValueError, match="bogus"):
        get_kernels()


def test_non_string_spec_raises_typeerror():
    with pytest.raises(TypeError, match="provider name"):
        get_kernels(3)


def test_auto_never_raises():
    assert isinstance(get_kernels("auto"), KernelSet)


def test_explicitly_requesting_missing_provider_raises(fresh_cffi_cache, monkeypatch):
    # no compiler on PATH: an explicit request fails loudly, auto-detection
    # falls back to numpy silently
    monkeypatch.setenv("CC", "definitely-not-a-compiler")
    with pytest.raises(KernelsUnavailableError, match="cffi"):
        get_kernels("cffi")
    assert available_kernels()["cffi"] is False
    assert get_kernels("auto").name == "numpy"


@pytest.mark.parametrize("name", [n for n, ok in sorted(AVAILABLE.items()) if ok])
def test_resolved_providers_pickle_by_name(name):
    ks = get_kernels(name)
    clone = pickle.loads(pickle.dumps(ks))
    assert clone is ks  # same process: the registry cache round-trips


@pytest.mark.parametrize("provider", COMPILED)
def test_compiled_providers_declare_a_width_gate(provider):
    """Compiled providers carry a positive ``min_width``: narrow rounds
    stay on the numpy expressions where FFI overhead would lose."""
    ks = get_kernels(provider)
    assert ks.compiled and ks.min_width > 0
    assert get_kernels("numpy").min_width == 0


def test_csr_arrays_gate():
    g = cycle_graph(12)
    csr = csr_arrays(g)
    assert csr is not None
    indptr, indices = csr
    assert indptr.dtype == np.int64 and indices.dtype == np.int64
    assert csr_arrays(cycle_graph(12, implicit=True)) is None
    assert csr_arrays(object()) is None


# ---------------------------------------------------------------------------
# kernel-by-kernel parity against the numpy reference

#: Irregular fixtures (degree varies per vertex, so the per-position
#: degree gather path is exercised); every vertex has degree >= 1.
GRAPHS = [complete_binary_tree(4), star_graph(20), cycle_graph(17)]


def _positions_and_uniforms(g, rng, k=257):
    pos = rng.integers(0, g.n, size=k)
    u = rng.random(k)
    # force the off == deg clamp edge and the exact-0 edge
    u[:3] = [np.nextafter(1.0, 0.0), 0.0, 0.5]
    return pos, u


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: g.name)
def test_csr_step_matches_reference(provider, g):
    ks = get_kernels(provider)
    ref = get_kernels("numpy")
    indptr, indices = csr_arrays(g)
    rng = np.random.default_rng(42)
    for _ in range(5):
        pos, u = _positions_and_uniforms(g, rng)
        expect = ref.csr_step(indptr, indices, pos, u)
        assert np.array_equal(ks.csr_step(indptr, indices, pos, u), expect)
        out = np.empty(pos.size, dtype=np.int64)
        assert np.array_equal(ks.csr_step(indptr, indices, pos, u, out), expect)
        # the fused per-graph closure is the same kernel
        fused = ks.stepper(g)
        assert fused is not None
        assert np.array_equal(fused(pos, u), expect)


@pytest.mark.parametrize("provider", COMPILED)
def test_stepper_stands_down_without_csr(provider):
    assert get_kernels(provider).stepper(cycle_graph(12, implicit=True)) is None


@pytest.mark.parametrize("provider", COMPILED)
def test_settle_round_matches_reference_and_restores_scratch(provider):
    ks = get_kernels(provider)
    ref = get_kernels("numpy")
    rng = np.random.default_rng(11)
    n, reps = 40, 6
    scratch = ks.make_settle_scratch(n)
    for trial in range(20):
        occ = rng.random(reps * n) < 0.4
        k = int(rng.integers(1, 64))
        # rep-grouped ascending, as the drivers' flat state guarantees
        rep_ids = np.sort(rng.integers(0, reps, size=k))
        pos = rng.integers(0, n, size=k)
        prio = rng.permutation(k).astype(np.int64)
        expect = ref.settle_round(occ.copy(), rep_ids, pos, prio, n)
        got = ks.settle_round(occ.copy(), rep_ids, pos, prio, n, scratch)
        assert np.array_equal(got, expect), trial
        # the persistent scratch must come back all -1, or the next
        # round inherits stale contests
        assert np.all(scratch == -1), trial


@pytest.mark.parametrize("provider", COMPILED)
def test_settle_round_tie_priority_keeps_first(provider):
    """Equal priorities: the reference lexsort is stable, so the first
    occurrence in flat order wins; the compiled strict-< compare must
    agree."""
    ks = get_kernels(provider)
    ref = get_kernels("numpy")
    n = 5
    occ = np.zeros(2 * n, dtype=bool)
    rep_ids = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    pos = np.array([2, 2, 3, 4, 4], dtype=np.int64)
    prio = np.array([9, 9, 1, 3, 3], dtype=np.int64)
    expect = ref.settle_round(occ.copy(), rep_ids, pos, prio, n)
    got = ks.settle_round(occ.copy(), rep_ids, pos, prio, n)
    assert np.array_equal(got, expect)


# ---------------------------------------------------------------------------
# single-walker loops


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: g.name)
def test_single_walks_match_python_loop(provider, g):
    for seed in (0, 1234):
        assert np.array_equal(
            random_walk(g, 0, 3000, seed=seed, kernels="numpy"),
            random_walk(g, 0, 3000, seed=seed, kernels=provider),
        )
        assert walk_until_hit(
            g, 0, [g.n - 1], seed=seed, kernels="numpy"
        ) == walk_until_hit(g, 0, [g.n - 1], seed=seed, kernels=provider)


@pytest.mark.parametrize("provider", COMPILED)
def test_walk_until_hit_limit_and_trivial_cases(provider):
    g = cycle_graph(64)
    assert walk_until_hit(g, 5, [5], seed=1, kernels=provider) == 0
    with pytest.raises(RuntimeError, match="max_steps=3"):
        walk_until_hit(g, 0, [32], seed=2, max_steps=3, kernels=provider)


# ---------------------------------------------------------------------------
# fused lock-step rounds: advance_rounds against the per-round numpy path

#: (graph, driver kwargs): irregular graphs, the random tie-break,
#: m > n surplus particles, and lazy runs whose repetitions cross the
#: ``scalar_threshold`` switch from wide (2k doubles) to narrow (k) rounds.
FUSED_CASES = [
    (star_graph(12), {}),
    (complete_binary_tree(3), {"tie_break": "random"}),
    (cycle_graph(10), {"num_particles": 16}),
    (complete_binary_tree(3), {"num_particles": 20, "tie_break": "random"}),
    (cycle_graph(16), {"lazy": True, "scalar_threshold": 5}),
    (star_graph(9), {"lazy": True, "scalar_threshold": 3, "tie_break": "random"}),
    (cycle_graph(8), {"lazy": True, "num_particles": 12, "scalar_threshold": 4}),
]


def _fused_case_id(case):
    g, kwargs = case
    return "-".join([g.name, *(f"{k}={v}" for k, v in sorted(kwargs.items()))])


def _result_bytes(results):
    return [
        (
            r.dispersion_time,
            r.total_steps,
            r.steps.tobytes(),
            r.settled_at.tobytes(),
            r.settle_order.tobytes(),
        )
        for r in results
    ]


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("tail", [None, 0, 3], ids=["tail-default", "tail-0", "tail-3"])
@pytest.mark.parametrize("case", FUSED_CASES, ids=_fused_case_id)
def test_advance_rounds_matches_per_round_path(
    provider, tail, case, counting_kernels, monkeypatch
):
    """Byte-identical to the numpy per-round body, with the smallest legal
    stream chunk forcing a refill hand-back every round or two, and with
    the tail finisher taking over mid-run (``tail-3``) or never
    (``tail-0``: the kernel plays every round)."""
    g, kwargs = case
    m = kwargs.get("num_particles", g.n)
    monkeypatch.setattr(batched, "_BLOCK", 2 * m + 2)
    ks, calls = counting_kernels(provider)

    def run(kern):
        return batched.batched_parallel_idla(
            g, 0, seeds=spawn_seed_sequences(5, 6), kernels=kern,
            tail_threshold=tail, **kwargs,
        )

    assert _result_bytes(run(ks)) == _result_bytes(run("numpy"))
    # the rounds ran fused, crossing into the kernel once per refill epoch
    assert calls["par_rounds"] > 1
    assert calls["csr_step"] == calls["settle_round"] == 0


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("lazy", [False, True], ids=["simple", "lazy"])
def test_advance_rounds_max_rounds_matches_serial_oracle(provider, lazy):
    """``max_rounds`` exhaustion raises the serial oracle's error at the
    same round: the slowest repetition's dispersion round passes, one
    round less does not."""
    g = cycle_graph(12)

    def seeds():
        return spawn_seed_sequences(3, 4)

    serial = [parallel_idla(g, 0, seed=s, lazy=lazy) for s in seeds()]
    worst = max(r.dispersion_time for r in serial)

    def fused(max_rounds):
        return batched.batched_parallel_idla(
            g, 0, seeds=seeds(), lazy=lazy, max_rounds=max_rounds,
            tail_threshold=0, kernels=provider,
        )

    assert _result_bytes(fused(worst)) == _result_bytes(serial)
    with pytest.raises(RuntimeError) as serial_err:
        for s in seeds():
            parallel_idla(g, 0, seed=s, lazy=lazy, max_rounds=worst - 1)
    with pytest.raises(RuntimeError) as fused_err:
        fused(worst - 1)
    assert str(fused_err.value) == str(serial_err.value)


@pytest.mark.parametrize("provider", COMPILED)
def test_self_check_rejects_a_broken_advance_rounds(provider, counting_kernels):
    """A provider whose fused kernel misbehaves fails at selection."""
    ks, _ = counting_kernels(provider)
    kernels_pkg._self_check(ks)  # the faithful copy passes
    ks._impl.par_rounds = lambda *args: 1  # "all settled" without a round
    with pytest.raises(AssertionError):
        kernels_pkg._self_check(ks)


@pytest.mark.parametrize("provider", COMPILED)
def test_advance_rounds_validates_state_before_passing_pointers(provider):
    """The lanes are compacted in place, so a converting copy would lose
    the result: strided or read-only state is refused up front, and so
    are shapes and ids that would send the kernel out of bounds."""
    ks = get_kernels(provider)
    indptr, indices = csr_arrays(cycle_graph(3))

    class Streams:
        block = 4
        flat = np.array([0.0, 0.0, 0.9, 0.9])

    def call(**over):
        args = dict(
            rep_ids=np.zeros(2, dtype=np.int64),
            pid=np.array([1, 2], dtype=np.int64),
            pos=np.zeros(2, dtype=np.int64),
            bptr=np.zeros(1, dtype=np.int64),
            k=np.array([2], dtype=np.int64),
            free=np.array([2], dtype=np.int64),
            occ=np.array([1, 0, 0], dtype=bool),
            steps2d=np.zeros((1, 3), dtype=np.int64),
            settled2d=np.array([[0, -1, -1]], dtype=np.int64),
            round2d=np.array([[0, -1, -1]], dtype=np.int64),
            prio2d=None,
        )
        args.update(over)
        return ks.advance_rounds(
            indptr, indices, Streams(), *args.values(), t=0, lazy=False,
            scalar_threshold=16, tail_threshold=0, budget=float("inf"),
            limit_msg="",
        )

    assert call() == (0, 3)  # 0 -> 1 (pid 1 wins), then 1 -> 0 -> 2
    read_only = np.zeros(2, dtype=np.int64)
    read_only.flags.writeable = False
    for bad in (np.zeros(4, dtype=np.int64)[::2], read_only):
        with pytest.raises(ValueError, match="in place"):
            call(rep_ids=bad)
    for over in (
        {"occ": np.zeros(2, dtype=bool)},
        {"prio2d": np.zeros((1, 2), dtype=np.int64)},
        {"pos": np.zeros(3, dtype=np.int64)},
    ):
        with pytest.raises(ValueError, match="shapes"):
            call(**over)
    for over in (
        {"k": np.array([3], dtype=np.int64)},
        {"rep_ids": np.array([0, 1], dtype=np.int64)},
        {"pid": np.array([1, 3], dtype=np.int64)},
        {"pos": np.array([0, -1], dtype=np.int64)},
    ):
        with pytest.raises(ValueError, match="out of range"):
            call(**over)
    # a lane on an isolated vertex would make the CSR step read past the
    # arrays (`call` reads the CSR arrays from this scope)
    indptr, indices = csr_arrays(Graph.from_edges(3, [(0, 1)]))
    with pytest.raises(ValueError, match="isolated vertex"):
        call(pos=np.array([0, 2], dtype=np.int64))


# ---------------------------------------------------------------------------
# fused lock-step ticks: advance_ticks against the numpy tick loop

#: (graph, driver kwargs): irregular graphs, the lazy hold, fewer
#: particles than vertices, and uniform random origins, whose vacant
#: starts fire the instant-settle release chain mid-run.
TICK_CASES = [
    (star_graph(12), {}),
    (complete_binary_tree(3), {"lazy": True}),
    (cycle_graph(10), {}),
    (lollipop_graph(10), {"lazy": True}),
    (cycle_graph(12), {"num_particles": 7}),
    (lollipop_graph(10), {"origin": "uniform"}),
    (star_graph(9), {"lazy": True, "num_particles": 5, "origin": "uniform"}),
    (complete_binary_tree(3), {"num_particles": 9, "origin": "uniform"}),
]


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("block", [None, 64], ids=["block-default", "block-64"])
@pytest.mark.parametrize("tail", [None, 0, 3], ids=["tail-default", "tail-0", "tail-3"])
@pytest.mark.parametrize("case", TICK_CASES, ids=_fused_case_id)
def test_advance_ticks_matches_tick_loop(
    provider, block, tail, case, counting_kernels, monkeypatch
):
    """Byte-identical to the numpy tick loop — results and every
    generator's final position — with more repetitions than the default
    tail threshold, so the kernel plays ticks before the finisher takes
    the stragglers (``tail-default``, ``tail-3``) or plays them all
    (``tail-0``); the 64-double chunk adds refill hand-backs and
    repetitions finishing mid-epoch."""
    g, kwargs = case
    kwargs = dict(kwargs)
    origin = kwargs.pop("origin", 0)
    monkeypatch.setattr(batched, "_BLOCK", block)
    ks, calls = counting_kernels(provider)

    def run(kern):
        gens = [as_generator(s) for s in spawn_seed_sequences(9, 24)]
        out = batched.batched_sequential_idla(
            g, origin, seeds=gens, kernels=kern, tail_threshold=tail, **kwargs
        )
        return _result_bytes(out), [gen.random(4).tobytes() for gen in gens]

    assert run(ks) == run("numpy")
    # the ticks ran fused; the finisher alone takes the stragglers
    assert calls["seq_ticks"] >= 1
    assert calls["csr_step"] == 0
    assert (calls["finish_seq"] > 0) == (tail != 0)


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("lazy", [False, True], ids=["simple", "lazy"])
def test_advance_ticks_max_total_steps_matches_serial_oracle(provider, lazy):
    """``max_total_steps`` exhaustion raises the serial oracle's error:
    the largest total step count passes, one step less does not."""
    g = cycle_graph(12)

    def seeds():
        return spawn_seed_sequences(4, 20)

    serial = [sequential_idla(g, 0, seed=s, lazy=lazy) for s in seeds()]
    worst = max(r.total_steps for r in serial)

    def fused(max_total_steps):
        return batched.batched_sequential_idla(
            g, 0, seeds=seeds(), lazy=lazy, max_total_steps=max_total_steps,
            tail_threshold=0, kernels=provider,
        )

    assert _result_bytes(fused(worst)) == _result_bytes(serial)
    with pytest.raises(RuntimeError) as serial_err:
        for s in seeds():
            sequential_idla(g, 0, seed=s, lazy=lazy, max_total_steps=worst - 1)
    with pytest.raises(RuntimeError) as fused_err:
        fused(worst - 1)
    assert str(fused_err.value) == str(serial_err.value)


@pytest.mark.parametrize("provider", COMPILED)
def test_self_check_rejects_a_broken_advance_ticks(provider, counting_kernels):
    """A provider whose sequential tick kernel misbehaves fails at
    selection."""
    ks, _ = counting_kernels(provider)
    kernels_pkg._self_check(ks)
    ks._impl.seq_ticks = lambda *args: 1  # "all finished" without a tick
    with pytest.raises(AssertionError):
        kernels_pkg._self_check(ks)


@pytest.mark.parametrize("provider", COMPILED)
def test_advance_ticks_validates_state_before_passing_pointers(provider):
    """The lanes and per-repetition state are written in place, so a
    converting copy would lose the result: a wrong dtype or a strided
    array is refused up front, and so are shapes, ids and a cursor that
    would send the kernel out of bounds."""
    ks = get_kernels(provider)
    indptr, indices = csr_arrays(cycle_graph(3))

    class Streams:
        block = 2
        flat = np.full(4, 0.9)

        def fill(self, rows):
            pass

        def align_to_serial(self, r, consumed):
            pass

    def call(cursor=0, **over):
        args = dict(
            live=np.array([0, 1], dtype=np.int64),
            pos=np.zeros(2, dtype=np.int64),
            pstep=np.zeros(2, dtype=np.int64),
            current=np.array([1, 1], dtype=np.int64),
            occ=np.array([1, 0, 0, 1, 0, 0], dtype=bool),
            starts2d=np.zeros((2, 3), dtype=np.int64),
            steps2d=np.zeros((2, 3), dtype=np.int64),
            settled2d=np.array([[0, -1, -1], [0, -1, -1]], dtype=np.int64),
        )
        args.update(over)
        return ks.advance_ticks(
            indptr, indices, Streams(), *args.values(), cursor=cursor,
            ticks=0, lazy=False, tail_threshold=0, budget=float("inf"),
            limit_msg="",
        )

    # 0 -> 2 settles particle 1 at tick 1; particle 2 goes 0 -> 2 -> 1
    # across one refill and settles at tick 3
    assert call() == (0, 1, 3)
    for over in (
        {"pos": np.zeros(2)},
        {"current": np.array([1, 1], dtype=np.int32)},
        {"occ": np.array([1, 0, 0, 1, 0, 0], dtype=np.int64)},
        {"live": np.array([0, 0, 1, 1], dtype=np.int64)[::2]},
        {"steps2d": np.zeros((3, 2), dtype=np.int64).T},
    ):
        with pytest.raises(ValueError, match="in place"):
            call(**over)
    for over in (
        {"occ": np.zeros(3, dtype=bool)},
        {"pstep": np.zeros(3, dtype=np.int64)},
        {"starts2d": np.zeros((2, 2), dtype=np.int64)},
    ):
        with pytest.raises(ValueError, match="shapes"):
            call(**over)
    for over in (
        {"live": np.array([0, 2], dtype=np.int64)},
        {"live": np.array([1, 0], dtype=np.int64)},
        {"pos": np.array([0, 3], dtype=np.int64)},
        {"current": np.array([1, 3], dtype=np.int64)},
        {"starts2d": np.array([[0, 0, 0], [0, 0, -1]], dtype=np.int64)},
        {"cursor": 3},
    ):
        with pytest.raises(ValueError, match="out of range"):
            call(**over)
    # walkers step, and so does a later particle released onto an occupied
    # start: on an isolated vertex either would read past the CSR arrays
    # (`call` reads the CSR arrays from this scope)
    indptr, indices = csr_arrays(Graph.from_edges(3, [(0, 1)]))
    for over in (
        {"pos": np.array([0, 2], dtype=np.int64)},
        {
            "starts2d": np.array([[0, 0, 2], [0, 0, 0]], dtype=np.int64),
            "occ": np.array([1, 0, 1, 1, 0, 0], dtype=bool),
        },
        {
            "starts2d": np.array([[0, 2, 2], [0, 0, 0]], dtype=np.int64),
            "current": np.array([0, 1], dtype=np.int64),
        },
    ):
        with pytest.raises(ValueError, match="isolated vertex"):
            call(**over)


# ---------------------------------------------------------------------------
# fused CTU ticks: advance_ctu_ticks against the numpy tick loop

#: The seven implicit families with their edge instances: the one-bit
#: cube, tori with an inactive side-1 axis (a side-2 axis is rejected at
#: construction), grids with side-1 and side-2 axes and reduced-degree
#: boundaries, P2 and a path with degree-1 ends, the one-level tree, K2.
CTU_IMPLICIT = [
    ImplicitCycle(3),
    ImplicitCycle(9),
    ImplicitPath(2),
    ImplicitPath(7),
    ImplicitComplete(2),
    ImplicitComplete(6),
    ImplicitGrid(1, 5),
    ImplicitGrid(3, 4),
    ImplicitGrid(2, 3, 2),
    ImplicitTorus(1, 5),
    ImplicitTorus(3, 4),
    ImplicitTorus(3, 1, 4),
    ImplicitHypercube(1),
    ImplicitHypercube(4),
    ImplicitBinaryTree(1),
    ImplicitBinaryTree(3),
]
#: ... then their CSR twins and two irregular CSR graphs.
CTU_GRAPHS = [
    *CTU_IMPLICIT,
    *(g.materialize() for g in CTU_IMPLICIT),
    star_graph(9),
    lollipop_graph(10),
]


def _ctu_kwargs(i, g):
    """Rotate full dispersion, fewer particles and random origins."""
    fewer = {"num_particles": max(1, g.n // 2 + 1)}
    return [{}, fewer, {"origin": "uniform"}, {**fewer, "origin": "uniform"}][i % 4]


CTU_CASES = [(g, _ctu_kwargs(i, g)) for i, g in enumerate(CTU_GRAPHS)]


def _ctu_case_id(case):
    g, kwargs = case
    build = "implicit" if type(g).__name__.startswith("Implicit") else "csr"
    return "-".join([build, g.name, *(f"{k}={v}" for k, v in sorted(kwargs.items()))])


def _ctu_bytes(results):
    return [
        (r.ticks, r.settle_clock.tobytes(), *row)
        for r, row in zip(results, _result_bytes(results))
    ]


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("block", [3, 4, 5, 64, None], ids=lambda b: f"block-{b}")
@pytest.mark.parametrize("rate", [0.5, 3.0], ids=["rate-0.5", "rate-3"])
@pytest.mark.parametrize("case", CTU_CASES, ids=_ctu_case_id)
def test_advance_ctu_ticks_matches_tick_loop(
    provider, block, rate, case, counting_kernels, monkeypatch
):
    """Byte-identical to the numpy tick loop — results including
    ``settle_clock`` and ``settle_order``, and every generator's final
    position — and to the serial oracle.  Chunks of 3-5 doubles make a
    tick refill every tick or straddle a chunk (the remainder copy)."""
    g, kwargs = case
    kwargs = dict(kwargs)
    origin = kwargs.pop("origin", 0)
    monkeypatch.setattr(batched_continuous, "_BLOCK", block)
    ks, calls = counting_kernels(provider)

    def run(kern):
        gens = [as_generator(s) for s in spawn_seed_sequences(11, 12)]
        out = batched_continuous.batched_ctu_idla(
            g, origin, seeds=gens, rate=rate, kernels=kern, **kwargs
        )
        return _ctu_bytes(out), [gen.random(4).tobytes() for gen in gens]

    fused = run(ks)
    assert fused == run("numpy")
    serial = [
        ctu_idla(g, origin, seed=s, rate=rate, **kwargs)
        for s in spawn_seed_sequences(11, 12)
    ]
    assert fused[0] == _ctu_bytes(serial)
    # the ticks ran fused, in no other kernel; runs that settle every
    # particle at time 0 have no tick to play
    assert sum(calls.values()) == calls["ctu_ticks"]
    assert (calls["ctu_ticks"] > 0) == any(r.total_steps for r in serial)


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize("window", [None, 1, 7], ids=lambda w: f"window-{w}")
@pytest.mark.parametrize(
    "g", [cycle_graph(48), ImplicitHypercube(5)], ids=["csr-cycle", "implicit-cube"]
)
def test_fused_ctu_crosses_ffi_once_per_window(
    provider, window, g, counting_kernels, monkeypatch
):
    """One kernel call per window of clock logarithms, and the windows
    restart at each refill: at most refills + windows + 1 calls, and far
    fewer than ticks at the default window.  A silent stand-down to the
    Python tick loop fails here."""
    monkeypatch.setattr(batched_continuous, "_BLOCK", 300)  # 100 ticks a chunk
    if window is not None:
        monkeypatch.setattr(kernels_pkg, "_CTU_LOG_WINDOW", window)
    epochs: list[list[int]] = []
    refill = UniformStreams.refill_tail

    def counted_refill(self, r, ptr):
        if not epochs or r <= epochs[-1][-1]:
            epochs.append([])  # a new pass over the live rows
        epochs[-1].append(r)
        refill(self, r, ptr)

    monkeypatch.setattr(UniformStreams, "refill_tail", counted_refill)
    ks, calls = counting_kernels(provider)
    seeds = spawn_seed_sequences(5, 20)
    batch = batched_continuous.batched_ctu_idla(g, seeds=seeds, kernels=ks)
    ticks = max(r.total_steps for r in batch)
    windows = -(-ticks // kernels_pkg._CTU_LOG_WINDOW)
    assert len(epochs) > 1, "the small chunk must force refill hand-backs"
    assert sum(calls.values()) == calls["ctu_ticks"] <= len(epochs) + windows + 1
    if window is None:
        assert 20 * calls["ctu_ticks"] < ticks, (dict(calls), ticks)
    serial = [ctu_idla(g, seed=s) for s in seeds]
    assert _ctu_bytes(batch) == _ctu_bytes(serial)


class _ReversedCycle(ImplicitCycle):
    """A user family: the implicit cycle with its two slots swapped."""

    def _slots(self, positions, offsets):
        return super()._slots(positions, 1 - offsets)


@pytest.mark.parametrize("provider", COMPILED)
@pytest.mark.parametrize(
    "g, record",
    [(_ReversedCycle(12), False), (ImplicitCycle(12), True), (cycle_graph(12), True)],
    ids=["subclass", "implicit-record", "csr-record"],
)
def test_subclasses_and_recording_keep_the_numpy_tick_loop(
    provider, g, record, counting_kernels
):
    """The fused path matches a family by exact type — a subclass may
    reorder its slots, which the C helper would not see — and does not
    record trajectories; both keep the numpy tick loop and the serial
    oracle's results."""
    ks, calls = counting_kernels(provider)

    def run(kern):
        return batched_continuous.batched_ctu_idla(
            g, seeds=spawn_seed_sequences(3, 8), record=record, kernels=kern
        )

    out = run(ks)
    assert calls["ctu_ticks"] == 0
    serial = [ctu_idla(g, seed=s, record=record) for s in spawn_seed_sequences(3, 8)]
    for batch in (out, run("numpy")):
        assert _ctu_bytes(batch) == _ctu_bytes(serial)
        assert [r.trajectories for r in batch] == [r.trajectories for r in serial]
    if not record:  # the swapped slots really change the walks
        plain = batched_continuous.batched_ctu_idla(
            ImplicitCycle(12), seeds=spawn_seed_sequences(3, 8), kernels=ks
        )
        assert _ctu_bytes(plain) != _ctu_bytes(out)


def test_adjacency_descriptor_covers_csr_and_the_seven_families():
    """Family code, vertex count and parameters; torus side-1 axes drop
    out; anything but an exact family type or CSR keeps the numpy path."""
    codes = {
        type(g): adjacency_descriptor(g)[2].tolist()
        for g in (
            ImplicitCycle(5), ImplicitPath(4), ImplicitComplete(3),
            ImplicitHypercube(3), ImplicitBinaryTree(2),
        )
    }
    assert codes == {
        ImplicitCycle: [1, 5],
        ImplicitPath: [2, 4],
        ImplicitComplete: [3, 3],
        ImplicitHypercube: [6, 8, 3],
        ImplicitBinaryTree: [7, 7],
    }
    assert adjacency_descriptor(ImplicitGrid(2, 1, 3))[2].tolist() == [
        4, 6, 3, 2, 1, 3, 3, 3, 1,
    ]
    assert adjacency_descriptor(ImplicitTorus(3, 1, 4))[2].tolist() == [
        5, 12, 2, 3, 4, 4, 1,
    ]
    g = cycle_graph(6)
    indptr, indices, fam = adjacency_descriptor(g)
    assert indptr is g.indptr and indices is g.indices and fam.tolist() == [0, 6]
    assert adjacency_descriptor(_ReversedCycle(6)) is None
    assert adjacency_descriptor(object()) is None


@pytest.mark.parametrize("provider", COMPILED)
def test_self_check_rejects_a_broken_advance_ctu_ticks(provider, counting_kernels):
    """A provider whose CTU tick kernel misbehaves fails at selection."""
    ks, _ = counting_kernels(provider)
    kernels_pkg._self_check(ks)
    ks._impl.ctu_ticks = lambda *args: 1  # "all settled" without a tick
    with pytest.raises(AssertionError):
        kernels_pkg._self_check(ks)


@pytest.mark.parametrize("provider", COMPILED)
def test_advance_ctu_ticks_validates_state_before_passing_pointers(provider):
    """The lanes and per-repetition state are written in place, so a
    converting copy would lose the result: a wrong dtype or a strided
    array is refused up front, and so are shapes and ids that would send
    the kernel out of bounds."""
    ks = get_kernels(provider)
    g = cycle_graph(3)

    def call(adjacency=adjacency_descriptor(g), **over):
        streams = UniformStreams([as_generator(s) for s in (1, 2)], block=6)
        args = dict(
            lanes=np.array([0, 1], dtype=np.int64),
            k=np.array([2, 2], dtype=np.int64),
            clock=np.zeros(2),
            pos=np.zeros(6, dtype=np.int64),
            steps=np.zeros(6, dtype=np.int64),
            settled=np.array([0, -1, -1, 0, -1, -1], dtype=np.int64),
            settle_clock=np.zeros(6),
            order=np.array([0, -1, -1, 0, -1, -1], dtype=np.int64),
            pool=np.array([1, 2, 0, 1, 2, 0], dtype=np.int64),
            occ=np.array([1, 0, 0, 1, 0, 0], dtype=bool),
            final_clock=np.zeros(2),
        )
        args.update(over)
        ks.advance_ctu_ticks(adjacency, streams, *args.values(), rate=1.0)
        return args

    done = call()
    assert done["settled"].reshape(2, 3)[:, 1:].min() >= 1 and done["occ"].all()
    assert (done["final_clock"] > 0).all()
    indptr, indices, fam = adjacency_descriptor(g)
    with pytest.raises(ValueError, match="C-contiguous int64"):
        call(adjacency=(indptr, indices, fam.astype(np.int32)))
    with pytest.raises(ValueError, match="family code"):
        call(adjacency=(indptr, indices, np.array([8, 3], dtype=np.int64)))
    for over in (
        {"pos": np.zeros(6)},
        {"k": np.array([2, 2], dtype=np.int32)},
        {"clock": np.zeros(2, dtype=np.float32)},
        {"settle_clock": np.zeros(12)[::2]},
        {"occ": np.array([1, 0, 0, 1, 0, 0], dtype=np.int64)},
        {"lanes": np.array([0, 0, 1, 1], dtype=np.int64)[::2]},
    ):
        with pytest.raises(ValueError, match="in place"):
            call(**over)
    for over in (
        {"occ": np.zeros(3, dtype=bool)},
        {"k": np.array([2], dtype=np.int64)},
        {"order": np.zeros(5, dtype=np.int64)},
    ):
        with pytest.raises(ValueError, match="shapes"):
            call(**over)
    for over in (
        {"lanes": np.array([0, 2], dtype=np.int64)},
        {"lanes": np.array([1, 0], dtype=np.int64)},
        {"k": np.array([2, 0], dtype=np.int64)},
        {"k": np.array([2, 4], dtype=np.int64)},
        {"pool": np.array([1, 2, 0, 1, 3, 0], dtype=np.int64)},
        {"pos": np.array([0, 0, 0, 0, 3, 0], dtype=np.int64)},
    ):
        with pytest.raises(ValueError, match="out of range"):
            call(**over)
    # a settled particle may rest on an isolated vertex (it never steps
    # again); a walking one would make the CSR step read past the arrays
    g = Graph.from_edges(3, [(0, 1)])
    done = call(
        adjacency_descriptor(g), k=np.array([1, 1], dtype=np.int64),
        pos=np.array([2, 0, 0, 2, 0, 0], dtype=np.int64),
        settled=np.array([2, -1, -1, 2, -1, -1], dtype=np.int64),
        occ=np.array([0, 0, 1, 0, 0, 1], dtype=bool),
        pool=np.array([1, 0, 0, 1, 0, 0], dtype=np.int64),
    )
    assert done["settled"].tolist() == [2, 1, -1, 2, 1, -1]
    with pytest.raises(ValueError, match="isolated vertex"):
        call(
            adjacency_descriptor(g), k=np.array([1, 1], dtype=np.int64),
            pos=np.array([0, 2, 0, 0, 0, 0], dtype=np.int64),
            occ=np.array([1, 0, 0, 1, 0, 0], dtype=bool),
        )


# ---------------------------------------------------------------------------
# cffi library cache

needs_cffi = pytest.mark.skipif(
    not AVAILABLE.get("cffi"), reason="kernel provider 'cffi' unavailable"
)


@pytest.fixture
def fresh_cffi_cache(tmp_path, monkeypatch):
    """An empty kernel cache directory and an empty provider registry."""
    monkeypatch.setenv("REPRO_KERNELS_CACHE", str(tmp_path))
    monkeypatch.setattr(kernels_pkg, "_CACHE", {})
    monkeypatch.setattr(kernels_pkg, "_FAILED", {})
    return tmp_path


@needs_cffi
def test_corrupted_cached_library_is_rebuilt(fresh_cffi_cache):
    from repro.kernels import cffi_impl

    path = cffi_impl._so_path()
    junk = b"not a shared object"
    with open(path, "wb") as fh:
        fh.write(junk)
    assert get_kernels("cffi").compiled
    with open(path, "rb") as fh:
        assert fh.read() != junk


@needs_cffi
def test_cached_library_failing_self_check_is_rebuilt_once(
    fresh_cffi_cache, monkeypatch
):
    from repro.kernels import cffi_impl

    get_kernels("cffi")  # populate the cache
    monkeypatch.setattr(kernels_pkg, "_CACHE", {})
    real_check, real_discard = kernels_pkg._self_check, cffi_impl.discard
    checks, discards = [], []

    def flaky_check(ks):
        checks.append(ks)
        if len(checks) == 1:
            raise AssertionError("miscompiled")
        real_check(ks)

    def spy_discard(impl):
        discards.append(real_discard(impl))
        return discards[-1]

    monkeypatch.setattr(kernels_pkg, "_self_check", flaky_check)
    monkeypatch.setattr(cffi_impl, "discard", spy_discard)
    assert get_kernels("cffi").compiled
    assert len(checks) == 2 and discards == [True]
    assert os.path.exists(cffi_impl._so_path())


@needs_cffi
def test_persistent_self_check_failure_gives_up_after_one_rebuild(
    fresh_cffi_cache, monkeypatch
):
    from repro.kernels import cffi_impl

    real_discard = cffi_impl.discard
    discards = []

    def always_fails(ks):
        raise AssertionError("miscompiled")

    def spy_discard(impl):
        discards.append(real_discard(impl))
        return discards[-1]

    monkeypatch.setattr(kernels_pkg, "_self_check", always_fails)
    monkeypatch.setattr(cffi_impl, "discard", spy_discard)
    with pytest.raises(KernelsUnavailableError, match="miscompiled"):
        get_kernels("cffi")
    assert discards == [True]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_multi_word_cc_builds_the_cffi_provider(fresh_cffi_cache, monkeypatch):
    # $CC is split like a shell would: "cc -std=c99" is the compiler cc
    # plus a flag, not one executable name
    monkeypatch.setenv("CC", "cc -std=c99")
    assert get_kernels("cffi").name == "cffi"
    monkeypatch.setattr(kernels_pkg, "_CACHE", {})
    assert get_kernels("auto").name == "cffi"
    assert available_kernels()["cffi"] is True


@pytest.mark.parametrize(
    "cc, argv",
    [
        (None, ["cc"]),
        ("", ["cc"]),
        ("   ", ["cc"]),
        ("gcc -std=c99", ["gcc", "-std=c99"]),
        ("  clang   -O1 ", ["clang", "-O1"]),
        ("'/usr/local/my tools/gcc' -m64", ["/usr/local/my tools/gcc", "-m64"]),
    ],
    ids=["unset", "empty", "blank", "flags", "extra-spaces", "quoted-path"],
)
def test_compiler_argv_splits_cc_like_a_shell(cc, argv, monkeypatch):
    from repro.kernels import cffi_impl

    if cc is None:
        monkeypatch.delenv("CC", raising=False)
    else:
        monkeypatch.setenv("CC", cc)
    assert cffi_impl.compiler_argv() == argv


def test_missing_compiler_behind_flags_disables_cffi(fresh_cffi_cache, monkeypatch):
    # only the first word of $CC names the executable that must exist
    monkeypatch.setenv("CC", "definitely-not-a-compiler -std=c99")
    assert available_kernels()["cffi"] is False
    assert get_kernels("auto").name == "numpy"
    with pytest.raises(KernelsUnavailableError, match="cffi"):
        get_kernels("cffi")


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_compiler_path_with_spaces_builds_the_cffi_provider(
    fresh_cffi_cache, monkeypatch
):
    bindir = fresh_cffi_cache / "my tools"
    bindir.mkdir()
    (bindir / "cc").symlink_to(shutil.which("cc"))
    monkeypatch.setenv("CC", f"'{bindir / 'cc'}' -std=c99")
    assert available_kernels()["cffi"] is True
    assert get_kernels("cffi").name == "cffi"


@pytest.mark.skipif(shutil.which("cc") is None, reason="no cc on PATH")
def test_cache_key_follows_the_resolved_compiler_argv(monkeypatch):
    # spellings of $CC that run the same command share one cached library
    from repro.kernels import cffi_impl

    def key(cc):
        with monkeypatch.context() as mp:
            mp.setenv("CC", cc)
            return cffi_impl._so_path()

    assert key("cc -std=c99") == key("  cc   -std=c99 ")
    assert key("cc") == key(shutil.which("cc")) == key("")
    assert key("cc -std=c99") != key("cc -std=c11")


def test_cache_key_covers_compiler_flags_and_platform(monkeypatch):
    from repro.kernels import cffi_impl

    keys = {cffi_impl._so_path()}
    variants = [
        lambda mp: mp.setenv("CC", "another-cc"),
        lambda mp: mp.setenv("CC", "cc -std=c99"),
        lambda mp: mp.setattr(cffi_impl, "_CFLAGS", (*cffi_impl._CFLAGS, "-g")),
        lambda mp: mp.setattr(cffi_impl.sys, "platform", "elsewhere"),
        lambda mp: mp.setattr(cffi_impl.platform, "machine", lambda: "other-arch"),
    ]
    for vary in variants:
        with monkeypatch.context() as mp:
            vary(mp)
            keys.add(cffi_impl._so_path())
    assert len(keys) == 1 + len(variants)


# ---------------------------------------------------------------------------
# UniformStream.take_block handoff contract


def test_take_block_resumes_buffered_suffix_then_whole_blocks():
    rng = as_generator(99)
    ref = as_generator(99).random(20)
    s = UniformStream(rng, block=8)
    head = [s.uniform() for _ in range(3)]
    first = s.take_block()  # remainder of the current block: 5 doubles
    assert head == ref[:3].tolist()
    assert first.tolist() == ref[3:8].tolist()
    second = s.take_block()  # fresh whole block
    assert second.tolist() == ref[8:16].tolist()
    assert s.drawn == 16  # reconcilable with the serial fetch schedule


def test_take_block_consumes_initial_prefix_first():
    leftover = np.array([0.25, 0.75], dtype=np.float64)
    s = UniformStream(as_generator(5), block=4, initial=leftover)
    first = s.take_block()
    assert first.tolist() == leftover.tolist()
    assert s.drawn == 0  # the prefix was already drawn by the caller
    assert s.take_block().tolist() == as_generator(5).random(4).tolist()
    assert s.drawn == 4
