"""Compiled inner-loop kernels behind an import-time seam.

The lock-step drivers are pure array programs, but two costs survive the
vectorisation: per-round numpy dispatch (a fixed number of ufunc calls
whose overhead dominates once the live-walker count is small) and the
scalar tail finisher's plain-Python micro-loops.  This package provides
an optional compiled replacement — the pattern scikit-learn applies with
its Cython layer — resolved as:

1. an explicit ``kernels=`` argument (name or :class:`KernelSet`),
2. the ``REPRO_KERNELS`` environment variable,
3. auto-detection: the ``cffi`` provider when cffi and a C compiler are
   present, else ``numpy``.

Providers
---------
``numpy``
    The existing vectorised/scalar code paths — no compiled code, always
    available.  ``compiled=False`` makes every driver keep its current
    body, so forcing ``REPRO_KERNELS=numpy`` is the honest fallback mode.
``cffi``
    The kernels as C (:mod:`repro.kernels._csource`), built once with the
    system compiler (``$CC``, default ``cc``) and opened in cffi ABI mode.

Bit-identity contract
---------------------
Compiled kernels activate only for materialised-CSR graphs
(:func:`csr_arrays`), except the CTU tick kernel, which also steps the
seven implicit families (:func:`adjacency_descriptor`); the differential
harness in ``tests/test_differential_drivers.py`` pins every swapped
kernel against the serial oracles, double for double.  The provider
passes a load-time self-check (:func:`_self_check`) exercising all ten
entry points before it can be selected, so a miscompiled or
mis-installed provider fails at resolution, not mid-run.

Fused lock-step
---------------
The eighth entry point, :meth:`CompiledKernels.advance_rounds`, runs
whole rounds of ``batched_parallel_idla`` in place and returns to Python
only at the status protocol's events: ``0`` a live repetition's buffer
cannot serve the next round (the wrapper refills and resumes), ``2`` the
tail-finisher handoff holds, ``1`` every lane settled, ``-1`` the next
round would exceed ``max_rounds``.  The driver takes this path whenever
the compiled gates above hold and the run uses the default rule, no
trajectory recording and no ``state_budget`` step chunk; otherwise the
per-round body runs as before.

The ninth, :meth:`CompiledKernels.advance_ticks`, does the same for
whole ticks of ``batched_sequential_idla``: ``0`` the shared cursor
reached the end of the chunk (the wrapper refills the live rows and
resumes), ``2`` the tail-finisher handoff holds, ``1`` every repetition
finished, ``-1`` the next tick would exceed ``max_total_steps``.  The
sequential driver takes it whenever the compiled tail finisher would
engage: host CSR, the default rule and no trajectory recording.

The tenth, :meth:`CompiledKernels.advance_ctu_ticks`, plays whole ticks
of ``batched_ctu_idla``: ``0`` the window of precomputed clock
logarithms ran out (the wrapper refills the live rows when the chunk is
spent too, computes the next window with ``np.log1p`` and resumes),
``1`` every repetition settled.  The CTU driver takes it on CSR graphs
and on the seven implicit families (matched by exact type) whenever
trajectories are not recorded.
"""

from __future__ import annotations

import os
import warnings
from importlib.util import find_spec

import numpy as np

__all__ = [
    "ENV_VAR",
    "CompiledKernels",
    "KernelSet",
    "KernelsUnavailableError",
    "NumpyKernels",
    "available_kernels",
    "adjacency_descriptor",
    "csr_arrays",
    "get_kernels",
]

ENV_VAR = "REPRO_KERNELS"

#: Auto-detection preference; ``numpy`` is the implicit final fallback.
_AUTO_ORDER = ("cffi",)

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)
#: Placeholder priority buffer for ``advance_rounds`` under the "index"
#: tie-break (the kernel reads ``pid`` instead and never touches it).
_NO_PRIO = np.zeros(1, dtype=np.int64)
#: Placeholder CSR arrays handed to the adjacency helper for an implicit
#: family (it reads the family descriptor instead and never touches them).
_NO_CSR = np.zeros(1, dtype=np.int64)
#: Ticks per window of precomputed CTU clock logarithms: bounds the
#: ``reps x window`` log lane while keeping the hand-backs rare.
_CTU_LOG_WINDOW = 256


class KernelsUnavailableError(ValueError):
    """A requested kernel provider cannot be initialised here."""


def csr_arrays(g) -> tuple[np.ndarray, np.ndarray] | None:
    """Host CSR arrays of ``g``, or ``None`` when compiled kernels must
    stand down.

    Implicit families expose no ``indptr``/``indices`` (their slot kernel
    is arithmetic, and materialising would defeat their O(1)-in-n
    footprint), so they keep the numpy path — except in the CTU tick
    kernel, which steps them from :func:`adjacency_descriptor`.
    :class:`repro.graphs.csr.Graph` stores both arrays C-contiguous
    ``int64``, which is exactly what the kernels consume.
    """
    indptr = getattr(g, "indptr", None)
    indices = getattr(g, "indices", None)
    if not isinstance(indptr, np.ndarray) or not isinstance(indices, np.ndarray):
        return None
    if indptr.dtype != _I64 or indices.dtype != _I64:
        return None
    if not (indptr.flags.c_contiguous and indices.flags.c_contiguous):
        return None
    return indptr, indices


def _family_codes() -> dict:
    """Implicit family class -> its code in the C adjacency helper
    ``repro_adj_step`` (code 0 is CSR)."""
    from repro.graphs import implicit as im

    return {
        im.ImplicitCycle: 1, im.ImplicitPath: 2, im.ImplicitComplete: 3,
        im.ImplicitGrid: 4, im.ImplicitTorus: 5, im.ImplicitHypercube: 6,
        im.ImplicitBinaryTree: 7,
    }


def adjacency_descriptor(g) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(indptr, indices, family)`` for the C adjacency helper, or
    ``None`` when ``g`` must keep the numpy path.

    A CSR graph (:func:`csr_arrays`) gives its arrays and family
    ``[0, n]``.  The seven implicit families give placeholder arrays and
    ``[code, n, params...]`` built from ``g.family`` / ``g.params``: no
    parameters for cycle, path, complete and btree, ``[dim]`` for the
    hypercube, ``[axes, sides..., strides...]`` for the grid and for the
    torus's active (side >= 3) axes.  The family class must match
    ``type(g)`` exactly — a subclass may override the slot order, so it
    keeps the numpy path.
    """
    csr = csr_arrays(g)
    if csr is not None:
        return (*csr, np.array([0, csr[0].shape[0] - 1], dtype=np.int64))
    code = _family_codes().get(type(g))
    if code is None:
        return None
    family, params = g.family, g.params
    if family in ("grid", "torus"):
        sides = [int(s) for s in params["sides"]]
        strides = [1] * len(sides)
        for a in range(len(sides) - 2, -1, -1):
            strides[a] = strides[a + 1] * sides[a + 1]
        axes = [
            (s, st) for s, st in zip(sides, strides) if family == "grid" or s >= 3
        ]
        fam = [len(axes), *(s for s, _ in axes), *(st for _, st in axes)]
    elif family == "hypercube":
        fam = [params["dim"]]
    else:
        fam = []
    return _NO_CSR, _NO_CSR, np.array([code, g.n, *fam], dtype=np.int64)


def _i64(a: np.ndarray) -> np.ndarray:
    if a.dtype == _I64 and a.flags.c_contiguous:
        return a
    return np.ascontiguousarray(a, dtype=np.int64)


def _f64(a: np.ndarray) -> np.ndarray:
    if a.dtype == _F64 and a.flags.c_contiguous:
        return a
    return np.ascontiguousarray(a, dtype=np.float64)


def _u8(a: np.ndarray) -> np.ndarray:
    if a.dtype == np.bool_:
        return a.view(np.uint8)
    return a if a.dtype == np.uint8 else np.ascontiguousarray(a, dtype=np.uint8)


class KernelSet:
    """Resolved kernel provider: the object the drivers thread around.

    ``compiled`` is the single flag call sites gate on — ``False`` (the
    numpy provider) means "keep the existing code path", so the numpy
    fallback costs nothing and cannot drift.  Instances pickle by name
    (:meth:`__reduce__`), so a resolved provider travels through the
    fan-out runner's kwargs and is re-resolved inside each worker.
    """

    __slots__ = ("name",)
    compiled = False
    #: Narrowest array width at which the lock-step drivers call the
    #: compiled array kernels.  Below it the FFI/launch overhead loses to
    #: numpy's ufunc path (measured crossover ~64 lanes on x86-64), so
    #: the narrowest rounds — the very end of the settlement tail — keep
    #: the numpy expressions; the scalar finishers and single-walker
    #: loops ignore this (they replace per-*step* Python loops, where
    #: compiled always wins).  Irrelevant when ``compiled`` is ``False``.
    min_width = 0

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelSet name={self.name!r} compiled={self.compiled}>"

    def __reduce__(self):
        return (get_kernels, (self.name,))

    # ------------------------------------------------------------------
    def stepper(self, g):
        """Fused-step closure ``step(pos, u, out=None)`` for ``g``, or
        ``None`` when this provider (or this graph) keeps the numpy path."""
        return None


class NumpyKernels(KernelSet):
    """Reference provider: the kernels' semantics in plain numpy.

    The array kernels are implemented (they are what the unit tests
    compare the compiled providers against); the drivers never call them
    because ``compiled=False`` keeps the existing inlined bodies.
    """

    __slots__ = ()

    def __init__(self):
        super().__init__("numpy")

    def csr_step(self, indptr, indices, pos, u, out=None):
        deg = indptr[pos + 1] - indptr[pos]
        offsets = (u * deg).astype(np.int64)
        np.minimum(offsets, deg - 1, out=offsets)
        flat = indptr[pos] + offsets
        if out is None:
            return indices[flat]
        np.take(indices, flat, out=out)
        return out

    def vacant_candidates(self, occupied, rep_off, pos):
        return np.flatnonzero(occupied[rep_off + pos] == 0)

    def make_settle_scratch(self, n: int):
        return None

    def settle_round(self, occupied, rep_ids, pos, priority, n, scratch=None):
        from repro.core.settlement import select_settlers

        rep_off = rep_ids * n
        cand = np.flatnonzero(occupied[rep_off + pos] == 0)
        if cand.size == 0:
            return cand
        winners = select_settlers(rep_off[cand] + pos[cand], priority[cand])
        return cand[winners]


class CompiledKernels(KernelSet):
    """Wrapper over the low-level cffi provider namespace.

    The loop kernels speak a shared buffer protocol: they consume
    uniforms from the array they were handed and return ``0`` when it
    runs dry, whereupon the wrapper fetches the next block from the
    stream object (``UniformStream.take_block`` for the finishers, the
    raw generator for the single-walker loops) — the exact fetch cadence
    of the serial scalar loops, so generator positions stay reconcilable
    with the serial grid (``UniformStreams.align_to_serial``).
    """

    __slots__ = ("_impl",)
    compiled = True
    min_width = 64

    def __init__(self, name: str, impl):
        super().__init__(name)
        self._impl = impl

    # ---- array kernels -----------------------------------------------
    def csr_step(self, indptr, indices, pos, u, out=None):
        pos = _i64(pos)
        k = pos.shape[0]
        if out is None:
            out = np.empty(k, dtype=np.int64)
        self._impl.csr_step(indptr, indices, pos, _f64(u), out, k)
        return out

    def stepper(self, g):
        csr = csr_arrays(g)
        if csr is None:
            return None
        indptr, indices = csr

        def step(pos, u, out=None, _self=self, _ip=indptr, _ix=indices):
            return _self.csr_step(_ip, _ix, pos, u, out)

        return step

    def vacant_candidates(self, occupied, rep_off, pos):
        pos = _i64(pos)
        k = pos.shape[0]
        out = np.empty(k, dtype=np.int64)
        c = self._impl.vacant(_u8(occupied), _i64(rep_off), pos, k, out)
        return out[: int(c)]

    def make_settle_scratch(self, n: int) -> np.ndarray:
        """Persistent per-vertex contest scratch (must stay all ``-1``
        between calls; :meth:`settle_round` restores it)."""
        return np.full(n, -1, dtype=np.int64)

    def settle_round(self, occupied, rep_ids, pos, priority, n, scratch=None):
        pos = _i64(pos)
        k = pos.shape[0]
        if scratch is None:
            scratch = self.make_settle_scratch(n)
        touched = np.empty(min(k, n), dtype=np.int64)
        winners = np.empty(k, dtype=np.int64)
        c = self._impl.settle_round(
            _u8(occupied), _i64(rep_ids), pos, _i64(priority), k, n,
            scratch, touched, winners,
        )
        return winners[: int(c)]

    # ---- fused lock-step rounds --------------------------------------
    def advance_rounds(
        self, indptr, indices, streams, rep_ids, pid, pos, bptr, k, free,
        occ, steps2d, settled2d, round2d, prio2d, *,
        t, lazy, scalar_threshold, tail_threshold, budget, limit_msg,
        scratch=None,
    ) -> tuple[int, int]:
        """Run ``batched_parallel_idla``'s lock-step rounds in compiled code.

        One kernel call advances whole rounds — step, vacancy probe,
        per-(repetition, vertex) contest, result writes, surplus-lane stop
        and in-order compaction — over the flat lane arrays ``rep_ids`` /
        ``pid`` / ``pos`` (int64, C-contiguous, writable: they are
        compacted in place) and the per-repetition ``bptr`` / ``k`` /
        ``free``.  The kernel hands back only at the status protocol's
        events: a live repetition's buffer cannot serve the next round
        (status 0: its row is refilled here through
        ``streams.refill_tail`` and the kernel resumes), the tail-finisher
        handoff holds (2), every lane settled (1), or the next round would
        exceed ``budget`` (-1: ``RuntimeError(limit_msg)``).  So a run
        costs one call per refill epoch, not per round.

        Returns ``(live lanes, t)``: the surviving lanes are the first
        ``live`` entries of the lane arrays, ``t`` the last round played.
        """
        for a in (rep_ids, pid, pos, bptr, k, free, steps2d, settled2d, round2d):
            if a.dtype != _I64 or not (a.flags.c_contiguous and a.flags.writeable):
                raise ValueError(
                    "advance_rounds mutates its int64 state in place: "
                    "pass writable C-contiguous int64 arrays"
                )
        R, n = bptr.shape[0], indptr.shape[0] - 1
        m = steps2d.shape[-1]
        lanes = rep_ids.shape[0]
        if not (
            pid.shape == pos.shape == (lanes,)
            and k.shape == free.shape == (R,)
            and occ.shape == (R * n,)
            and steps2d.shape == settled2d.shape == round2d.shape == (R, m)
            and (prio2d is None or prio2d.shape == (R, m))
            and streams.flat.shape == (R * streams.block,)
        ):
            raise ValueError("advance_rounds: inconsistent lane/repetition shapes")
        # the kernel indexes with these unchecked: lanes grouped by
        # repetition ascending, k their per-repetition counts, every
        # repetition, particle and vertex id in range
        if lanes and not (
            0 <= rep_ids[0] and rep_ids[-1] < R
            and bool(np.all(rep_ids[1:] >= rep_ids[:-1]))
            and np.array_equal(np.bincount(rep_ids, minlength=R), k)
            and 0 <= pid.min() and pid.max() < m
            and 0 <= pos.min() and pos.max() < n
        ):
            raise ValueError("advance_rounds: lane state out of range or ungrouped")
        if scratch is None:
            scratch = self.make_settle_scratch(n)
        touched = np.empty(n, dtype=np.int64)
        prio = _NO_PRIO if prio2d is None else _i64(prio2d).reshape(-1)
        state = np.array([lanes, t], dtype=np.int64)
        block = streams.block
        lz = 1 if lazy else 0
        while True:
            status = self._impl.par_rounds(
                indptr, indices, streams.flat, block, rep_ids, pid, pos,
                bptr, k, free, _u8(occ), steps2d.reshape(-1),
                settled2d.reshape(-1), round2d.reshape(-1), prio,
                0 if prio2d is None else 1, n, m, lz, scalar_threshold,
                tail_threshold, budget, scratch, touched, state,
            )
            if status > 0:
                return int(state[0]), int(state[1])
            if status < 0:
                raise RuntimeError(limit_msg)
            need = np.where(lazy & (k > scalar_threshold), 2 * k, k)
            for r in np.flatnonzero((k > 0) & (bptr + need > block)).tolist():
                streams.refill_tail(r, int(bptr[r]))
                bptr[r] = 0

    def advance_ticks(
        self, indptr, indices, streams, live, pos, pstep, current, occ,
        starts2d, steps2d, settled2d, *,
        cursor, ticks, lazy, tail_threshold, budget, limit_msg,
    ) -> tuple[int, int, int]:
        """Run ``batched_sequential_idla``'s lock-step ticks in compiled code.

        One kernel call advances whole ticks — step, settlement, the
        instant-settle release chain and in-order compaction — over the
        lanes ``live`` / ``pos`` / ``pstep`` (int64, C-contiguous,
        writable: they are compacted in place) and the per-repetition
        ``current``, ``occ``, ``steps2d`` and ``settled2d``.  Every live
        lane reads its tick's uniform at the shared ``cursor`` of its row
        of ``streams.flat``.  The kernel hands back only at the status
        protocol's events: the cursor reached the end of the chunk
        (status 0: the live rows are refilled here through
        ``streams.fill`` and the kernel resumes at cursor 0), the
        tail-finisher handoff holds (2), every repetition finished (1), or
        the next tick would exceed ``budget`` (-1:
        ``RuntimeError(limit_msg)``).  Each repetition that finished lands
        its generator on the serial fetch grid through
        ``streams.align_to_serial(r, tick)``.

        Returns ``(live lanes, cursor, ticks)``: the surviving lanes are
        the first ``live`` entries of the lane arrays.
        """
        for a in (live, pos, pstep, current, steps2d, settled2d):
            if a.dtype != _I64 or not (a.flags.c_contiguous and a.flags.writeable):
                raise ValueError(
                    "advance_ticks mutates its int64 state in place: "
                    "pass writable C-contiguous int64 arrays"
                )
        if occ.dtype not in (np.bool_, np.uint8) or not (
            occ.flags.c_contiguous and occ.flags.writeable
        ):
            raise ValueError(
                "advance_ticks mutates occupancy in place: pass a writable "
                "C-contiguous bool or uint8 array"
            )
        R, n = current.shape[0], indptr.shape[0] - 1
        m = steps2d.shape[-1]
        lanes = live.shape[0]
        block = streams.block
        if not (
            pos.shape == pstep.shape == (lanes,)
            and occ.shape == (R * n,)
            and steps2d.shape == settled2d.shape == starts2d.shape == (R, m)
            and streams.flat.shape == (R * block,)
        ):
            raise ValueError("advance_ticks: inconsistent lane/repetition shapes")
        # the kernel indexes with these unchecked: one lane per live
        # repetition, ascending; every repetition, particle and vertex id
        # in range; the cursor inside the chunk
        if not (0 <= cursor <= block) or (
            lanes
            and not (
                0 <= live[0] and live[-1] < R
                and bool(np.all(live[1:] > live[:-1]))
                and 0 <= current[live].min() and current[live].max() < m
                and 0 <= pos.min() and pos.max() < n
            )
        ) or (
            starts2d.size and not (0 <= starts2d.min() and starts2d.max() < n)
        ):
            raise ValueError("advance_ticks: lane state out of range or unordered")
        starts = _i64(starts2d).reshape(-1)
        done = np.empty(2 * lanes, dtype=np.int64)
        state = np.array([lanes, cursor, ticks, 0], dtype=np.int64)
        lz = 1 if lazy else 0
        while True:
            status = self._impl.seq_ticks(
                indptr, indices, streams.flat, block, live, pos, pstep,
                current, _u8(occ), starts, steps2d.reshape(-1),
                settled2d.reshape(-1), n, m, lz, tail_threshold, budget,
                done, state,
            )
            for r, tick in done[: 2 * int(state[3])].reshape(-1, 2).tolist():
                streams.align_to_serial(r, tick)
            if status > 0:
                return int(state[0]), int(state[1]), int(state[2])
            if status < 0:
                raise RuntimeError(limit_msg)
            streams.fill(live[: int(state[0])].tolist())
            state[1] = 0

    def advance_ctu_ticks(
        self, adjacency, streams, lanes, k, clock, pos, steps, settled,
        settle_clock, order, pool, occ, final_clock, *, rate, window=None,
    ) -> None:
        """Run ``batched_ctu_idla``'s lock-step ticks in compiled code.

        One kernel call advances up to ``window`` (default
        ``_CTU_LOG_WINDOW``) whole ticks — exponential clock, ringer pick
        from the unsettled pool, walk step through the adjacency helper,
        settlement with swap-remove, in-order compaction — over the lanes
        ``lanes`` / ``k`` / ``clock`` (one per live repetition, ascending,
        compacted in place) and the flat per-repetition ``pos``,
        ``steps``, ``settled``, ``settle_clock``, ``order`` and ``pool``
        (``R * m`` each), ``occ`` (``R * n``) and ``final_clock`` (``R``).
        ``adjacency`` is :func:`adjacency_descriptor`'s triple.

        Every lane reads three doubles per tick at the shared cursor of its
        row of ``streams.buf``, starting at ``streams.block`` (the first
        tick refills).  Before each call this wrapper refills the live rows
        through ``streams.refill_tail`` when the next tick would straddle
        the chunk — the numpy tick loop's cadence — and computes the
        window's clock logarithms with ``np.log1p``, the ufunc the numpy
        loop uses (C's ``log1p`` differs in the last bit on a few percent
        of doubles).  Returns when every repetition settled.
        """
        indptr, indices, fam = adjacency
        for a in (indptr, indices, fam):
            if a.dtype != _I64 or not a.flags.c_contiguous:
                raise ValueError(
                    "advance_ctu_ticks: adjacency_descriptor() gives C-contiguous "
                    "int64 arrays"
                )
        if not (fam.shape[0] >= 2 and 0 <= fam[0] <= len(_family_codes())):
            raise ValueError("advance_ctu_ticks: unknown adjacency family code")
        for a in (lanes, k, pos, steps, settled, order, pool):
            if a.dtype != _I64 or not (a.flags.c_contiguous and a.flags.writeable):
                raise ValueError(
                    "advance_ctu_ticks mutates its int64 state in place: "
                    "pass writable C-contiguous int64 arrays"
                )
        for a in (clock, settle_clock, final_clock):
            if a.dtype != _F64 or not (a.flags.c_contiguous and a.flags.writeable):
                raise ValueError(
                    "advance_ctu_ticks mutates its clocks in place: pass "
                    "writable C-contiguous float64 arrays"
                )
        if occ.dtype not in (np.bool_, np.uint8) or not (
            occ.flags.c_contiguous and occ.flags.writeable
        ):
            raise ValueError(
                "advance_ctu_ticks mutates occupancy in place: pass a "
                "writable C-contiguous bool or uint8 array"
            )
        R, n, L = final_clock.shape[0], int(fam[1]), lanes.shape[0]
        m = pos.shape[0] // max(R, 1)
        block = streams.block
        if not (
            k.shape == clock.shape == (L,)
            and pos.shape == steps.shape == settled.shape == (R * m,)
            and settle_clock.shape == order.shape == pool.shape == (R * m,)
            and occ.shape == (R * n,)
            and streams.buf.shape == (R, block)
            and (fam[0] != 0 or indptr.shape[0] == n + 1)
        ):
            raise ValueError("advance_ctu_ticks: inconsistent lane/repetition shapes")
        # the kernel indexes with these unchecked: one lane per live
        # repetition, ascending; the first k pool entries of each are
        # particles, each on a vertex it can step from
        def within(a, hi):
            return a.size == 0 or (0 <= a.min() and a.max() < hi)

        if L and not (
            within(lanes, R)
            and bool(np.all(lanes[1:] > lanes[:-1]))
            and 1 <= k.min() and k.max() <= m
        ):
            raise ValueError("advance_ctu_ticks: lane state out of range or unordered")
        ids = pool.reshape(R, m)[lanes][np.arange(m) < k[:, None]]
        walking = pos.reshape(R, m)[np.repeat(lanes, k), ids] if within(ids, m) else None
        if walking is None or not within(walking, n):
            raise ValueError("advance_ctu_ticks: lane state out of range or unordered")
        if fam[0] == 0 and not bool(np.all(indptr[walking + 1] > indptr[walking])):
            raise ValueError(
                "advance_ctu_ticks: an unsettled particle sits on an isolated vertex"
            )
        window = _CTU_LOG_WINDOW if window is None else window
        logs = np.empty((R, window), dtype=np.float64)
        state = np.array([L, block], dtype=np.int64)
        status = 0 if L else 1
        while not status:
            live = lanes[: int(state[0])]
            cursor = int(state[1])
            if cursor + 3 > block:
                for r in live.tolist():
                    streams.refill_tail(r, cursor)
                cursor = 0
            w = min(window, (block - cursor) // 3)
            logs[live, :w] = np.log1p(-streams.buf[live, cursor : cursor + 3 * w : 3])
            state[1] = cursor
            status = self._impl.ctu_ticks(
                indptr, indices, fam, streams.flat, block, logs, window, w,
                lanes, k, clock, pos, steps, settled, settle_clock, order, pool,
                _u8(occ), final_clock, n, m, rate, state,
            )

    # ---- scalar-tail finisher loops ----------------------------------
    def finish_sequential(
        self, indptr, indices, occ_row, starts, tail, *,
        walker, pos, pstep, total, lazy, budget, limit_msg,
        steps_row, settled_row,
    ) -> int:
        """Compiled ``_finish_sequential_rep``; returns consumed doubles."""
        state = np.array([walker, pos, pstep, total], dtype=np.int64)
        occ = _u8(occ_row)
        starts = _i64(starts)
        m = starts.shape[0]
        lz = 1 if lazy else 0
        buf = tail.take_block()
        while True:
            status = self._impl.finish_seq(
                indptr, indices, occ, starts, steps_row, settled_row,
                _f64(buf), buf.shape[0], state, m, lz, budget,
            )
            if status == 1:
                return int(state[3])
            if status < 0:
                raise RuntimeError(limit_msg)
            buf = tail.take_block()

    def finish_parallel_single(
        self, indptr, indices, occ_arr, tail, *,
        v, t, lazy, guard, budget, limit_msg,
    ) -> tuple[int, int]:
        """Compiled single-straggler loop; returns ``(vertex, round)``."""
        state = np.array([v, t], dtype=np.int64)
        occ = _u8(occ_arr)
        lz = 1 if lazy else 0
        gd = 1 if guard else 0
        buf = tail.take_block()
        while True:
            status = self._impl.finish_par1(
                indptr, indices, occ, _f64(buf), buf.shape[0], state,
                lz, gd, budget,
            )
            if status == 1:
                return int(state[0]), int(state[1])
            if status < 0:
                raise RuntimeError(limit_msg)
            buf = tail.take_block()

    # ---- single-walker loops -----------------------------------------
    def walk_positions(self, indptr, indices, out, rng, block: int):
        """Compiled :func:`repro.walks.single.random_walk` loop.

        ``out[0]`` must hold the start; the first block is drawn eagerly
        (``SingleWalkKernel.__init__`` does), refills are whole blocks.
        """
        steps = out.shape[0] - 1
        state = np.array([0, out[0]], dtype=np.int64)
        buf = rng.random(block)
        while True:
            status = self._impl.walk_fill(
                indptr, indices, out, steps, buf, buf.shape[0], state
            )
            if status == 1:
                return out
            buf = rng.random(block)

    def walk_until_hit(
        self, indptr, indices, hit, start, rng, block: int,
        limit: float, limit_msg: str,
    ) -> int:
        """Compiled :func:`repro.walks.single.walk_until_hit` loop."""
        state = np.array([0, start], dtype=np.int64)
        hit = _u8(hit)
        buf = rng.random(block)
        while True:
            status = self._impl.walk_hit(
                indptr, indices, hit, buf, buf.shape[0], state, limit
            )
            if status == 1:
                return int(state[0])
            if status < 0:
                raise RuntimeError(limit_msg)
            buf = rng.random(block)


# ----------------------------------------------------------------------
# load-time self-check
# ----------------------------------------------------------------------
class _BlockFeeder:
    """Fixed block sequence standing in for a stream (self-check only)."""

    def __init__(self, blocks):
        self._blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
        self.drawn = 0

    def take_block(self) -> np.ndarray:
        if not self._blocks:
            raise AssertionError("kernel self-check over-consumed its stream")
        return self._blocks.pop(0)

    def random(self, n: int) -> np.ndarray:  # stub generator for the walks
        out = self.take_block()
        if out.shape[0] != n:
            raise AssertionError("kernel self-check block size mismatch")
        return out


class _RowFeeder(_BlockFeeder):
    """One-repetition stand-in for ``UniformStreams`` (self-check only)."""

    def __init__(self, blocks):
        super().__init__(blocks)
        self.flat = self.take_block().copy()
        self.block = self.flat.shape[0]

    def refill_tail(self, r: int, ptr: int) -> None:
        rem = self.block - ptr
        self.flat[:rem] = self.flat[ptr:]
        self.flat[rem:] = self.take_block()[:ptr]


class _RowsFeeder:
    """Multi-repetition stand-in for ``UniformStreams`` (self-check only):
    row ``r`` serves the blocks ``rows[r]`` in order; the rows refilled
    and the serial-grid alignments requested are recorded."""

    def __init__(self, rows):
        self._rows = [_BlockFeeder(blocks) for blocks in rows]
        self.flat = np.concatenate([row.take_block() for row in self._rows])
        self.block = self.flat.shape[0] // len(rows)
        self.buf = self.flat.reshape(len(rows), self.block)
        self.filled: list[list[int]] = []
        self.refilled: list[tuple[int, int]] = []
        self.aligned: list[tuple[int, int]] = []

    def fill(self, rows) -> None:
        self.filled.append(list(rows))
        for r in rows:
            self.flat[r * self.block : (r + 1) * self.block] = (
                self._rows[r].take_block()
            )

    def refill_tail(self, r: int, ptr: int) -> None:
        self.refilled.append((r, ptr))
        rem = self.block - ptr
        self.buf[r, :rem] = self.buf[r, ptr:]
        self.buf[r, rem:] = self._rows[r].take_block()[:ptr]

    def align_to_serial(self, r: int, consumed: int) -> None:
        self.aligned.append((r, consumed))


def _self_check(ks: CompiledKernels) -> None:
    """Exercise all ten kernels on the path graph P3 and assert the answers.

    Catches toolchain miscompiles and broken cached libraries at
    selection time, loudly.  Inputs cross a buffer-refill boundary so the
    resume protocol is checked too.
    """
    indptr = np.array([0, 1, 3, 4], dtype=np.int64)
    indices = np.array([1, 0, 2, 1], dtype=np.int64)

    stepped = ks.csr_step(
        indptr, indices,
        np.array([0, 1, 1, 2], dtype=np.int64),
        np.array([0.99, 0.0, 0.51, 0.2]),
    )
    assert stepped.tolist() == [1, 0, 2, 1], stepped

    occ2 = np.array([1, 0, 0, 1, 1, 0], dtype=bool)
    cand = ks.vacant_candidates(
        occ2,
        np.array([0, 0, 3, 3], dtype=np.int64),
        np.array([1, 0, 2, 0], dtype=np.int64),
    )
    assert cand.tolist() == [0, 2], cand

    winners = ks.settle_round(
        occ2,
        np.array([0, 0, 1, 1], dtype=np.int64),
        np.array([1, 1, 2, 2], dtype=np.int64),
        np.array([5, 3, 7, 9], dtype=np.int64),
        3,
    )
    assert winners.tolist() == [1, 2], winners

    occ = np.zeros(3, dtype=bool)
    occ[0] = True
    vertex, rounds = ks.finish_parallel_single(
        indptr, indices, occ, _BlockFeeder([[0.9]]),
        v=0, t=0, lazy=False, guard=False, budget=float("inf"),
        limit_msg="self-check",
    )
    assert (vertex, rounds) == (1, 1) and bool(occ[1])

    occ = np.zeros(3, dtype=bool)
    occ[0] = True
    steps_row = np.zeros(2, dtype=np.int64)
    settled_row = np.full(2, -1, dtype=np.int64)
    consumed = ks.finish_sequential(
        indptr, indices, occ,
        np.array([1, 2], dtype=np.int64),
        _BlockFeeder([[0.9], [0.1]]),
        walker=0, pos=1, pstep=0, total=0, lazy=False,
        budget=float("inf"), limit_msg="self-check",
        steps_row=steps_row, settled_row=settled_row,
    )
    assert consumed == 2
    assert settled_row.tolist() == [2, 1] and steps_row.tolist() == [1, 1]

    out = np.empty(3, dtype=np.int64)
    out[0] = 0
    ks.walk_positions(indptr, indices, out, _BlockFeeder([[0.5, 0.5]]), 2)
    assert out.tolist() == [0, 1, 2], out

    hits = ks.walk_until_hit(
        indptr, indices, np.array([0, 0, 1], dtype=np.uint8), 0,
        _BlockFeeder([[0.9, 0.9]]), 2, float("inf"), "self-check",
    )
    assert hits == 2, hits

    # particles 1 and 2 wait at vertex 0 (particle 0 settled there in
    # round 0); both step to 1, where particle 2 wins on priority; the
    # 2-double buffer runs dry and is refilled before particle 1 steps on
    # to vertex 2
    occ = np.array([1, 0, 0], dtype=bool)
    steps2d = np.zeros((1, 3), dtype=np.int64)
    settled2d = np.array([[0, -1, -1]], dtype=np.int64)
    round2d = settled2d.copy()
    k = np.array([2], dtype=np.int64)
    scratch = ks.make_settle_scratch(3)
    lanes, rounds = ks.advance_rounds(
        indptr, indices, _RowFeeder([[0.3, 0.7], [0.9, 0.1]]),
        np.zeros(2, dtype=np.int64), np.array([1, 2], dtype=np.int64),
        np.zeros(2, dtype=np.int64), np.zeros(1, dtype=np.int64), k,
        np.array([2], dtype=np.int64), occ, steps2d, settled2d, round2d,
        np.array([[0, 2, 1]], dtype=np.int64),
        t=0, lazy=False, scalar_threshold=16, tail_threshold=0,
        budget=float("inf"), limit_msg="self-check", scratch=scratch,
    )
    assert (lanes, rounds) == (0, 2) and k.tolist() == [0], (lanes, rounds)
    assert settled2d.tolist() == [[0, 2, 1]] and occ.all(), settled2d
    assert steps2d.tolist() == round2d.tolist() == [[0, 2, 1]], steps2d
    assert (scratch == -1).all(), scratch

    # two repetitions, particle 0 settled at vertex 0 in each; particle 1
    # steps 0 -> 1 and settles at tick 1, releasing particle 2 from 0.
    # The 2-double chunks run dry after ticks 2 and 4.  Repetition 0
    # steps 1 -> 2 at tick 3 and finishes mid-epoch; repetition 1 goes
    # 1 -> 0 -> 1 and reaches vertex 2 at tick 5, after a second refill
    # of its row alone.
    feeder = _RowsFeeder([
        [[0.3, 0.3], [0.9, 0.5]],
        [[0.3, 0.3], [0.1, 0.6], [0.9, 0.9]],
    ])
    occ = np.array([1, 0, 0, 1, 0, 0], dtype=bool)
    steps2d = np.zeros((2, 3), dtype=np.int64)
    settled2d = np.array([[0, -1, -1], [0, -1, -1]], dtype=np.int64)
    current = np.array([1, 1], dtype=np.int64)
    out = ks.advance_ticks(
        indptr, indices, feeder, np.array([0, 1], dtype=np.int64),
        np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.int64), current,
        occ, np.zeros((2, 3), dtype=np.int64), steps2d, settled2d,
        cursor=0, ticks=0, lazy=False, tail_threshold=0,
        budget=float("inf"), limit_msg="self-check",
    )
    assert out == (0, 1, 5), out
    assert steps2d.tolist() == [[0, 1, 2], [0, 1, 4]], steps2d
    assert settled2d.tolist() == [[0, 1, 2], [0, 1, 2]] and occ.all(), settled2d
    assert feeder.filled == [[0, 1], [1]], feeder.filled
    assert feeder.aligned == [(0, 3), (1, 5)], feeder.aligned

    # CTU ticks on the implicit P3 and on its CSR twin, rate 2: particle 0
    # settled at vertex 0 in both repetitions, particles 1 and 2 wait
    # there.  Tick 1 rings particle 1 (pool slot 0), which settles at 1;
    # tick 2 walks particle 2 to 1; at tick 3 repetition 0 steps on to 2
    # and finishes, repetition 1 steps back to 0, refills its 3-tick
    # chunk alone and reaches 2 at tick 5.  Windows of 2 ticks make the
    # three calls hand back by window, by window-and-chunk, and finished.
    from repro.graphs.implicit import ImplicitPath

    row0 = [0.25, 0.3, 0.5, 0.5, 0.5, 0.5, 0.75, 0.5, 0.2]
    row1 = [*row0[:8], 0.7]
    row1b = [0.125, 0.5, 0.5, 0.625, 0.5, 0.1, 0.5, 0.5, 0.5]
    lg = np.log1p(-np.array([*row0[0:9:3], *row1b[0:6:3]]))
    t1 = 0.0 + -lg[0] / (2 * 2.0)
    t3 = t1 + -lg[1] / 2.0 + -lg[2] / 2.0
    t5 = t3 + -lg[3] / 2.0 + -lg[4] / 2.0
    junk = [np.nan] * 9
    p3 = ImplicitPath(3)
    for adjacency in (adjacency_descriptor(p3), adjacency_descriptor(p3.materialize())):
        feeder = _RowsFeeder([[junk, row0], [junk, row1, row1b]])
        lanes = np.array([0, 1], dtype=np.int64)
        steps = np.zeros(6, dtype=np.int64)
        settled = np.array([0, -1, -1, 0, -1, -1], dtype=np.int64)
        settle_clock = np.zeros(6)
        order = np.array([0, -1, -1, 0, -1, -1], dtype=np.int64)
        occ = np.array([1, 0, 0, 1, 0, 0], dtype=bool)
        final_clock = np.zeros(2)
        ks.advance_ctu_ticks(
            adjacency, feeder, lanes, np.array([2, 2], dtype=np.int64),
            np.zeros(2), np.zeros(6, dtype=np.int64), steps, settled,
            settle_clock, order, np.array([1, 2, 0, 1, 2, 0], dtype=np.int64),
            occ, final_clock, rate=2.0, window=2,
        )
        assert feeder.refilled == [(0, 9), (1, 9), (1, 9)], feeder.refilled
        assert steps.tolist() == [0, 1, 2, 0, 1, 4], steps
        assert settled.tolist() == [0, 1, 2] * 2 and occ.all(), settled
        assert order.tolist() == [0, 1, 2] * 2, order
        assert settle_clock.tolist() == [0.0, t1, t3, 0.0, t1, t5], settle_clock
        assert final_clock.tolist() == [t3, t5], final_clock


# ----------------------------------------------------------------------
# registry / resolution
# ----------------------------------------------------------------------
_CACHE: dict[str, KernelSet] = {}
_FAILED: dict[str, str] = {}


def _dep_present(name: str) -> bool:
    if name == "cffi":
        if find_spec("cffi") is None:
            return False
        from shutil import which

        from repro.kernels.cffi_impl import compiler_argv

        return which(compiler_argv()[0]) is not None
    return True


def _load_cffi() -> CompiledKernels:
    """Open and self-check the cffi provider; a cached library that opens
    but fails the self-check (a corrupted or foreign binary) is deleted
    and rebuilt once before the failure stands."""
    from repro.kernels import cffi_impl

    impl = cffi_impl.load()
    ks = CompiledKernels("cffi", impl)
    try:
        _self_check(ks)
    except (AssertionError, AttributeError):  # wrong answers, missing symbols
        if not cffi_impl.discard(impl):
            raise
        ks = CompiledKernels("cffi", cffi_impl.load())
        _self_check(ks)
    return ks


def _load(name: str) -> KernelSet:
    if name in _CACHE:
        return _CACHE[name]
    if name in _FAILED:
        raise KernelsUnavailableError(
            f"kernel provider {name!r} unavailable: {_FAILED[name]}"
        )
    if name == "numpy":
        ks: KernelSet = NumpyKernels()
    elif name in _AUTO_ORDER:
        try:
            ks = _load_cffi()
        except Exception as exc:
            _FAILED[name] = f"{type(exc).__name__}: {exc}"
            raise KernelsUnavailableError(
                f"kernel provider {name!r} unavailable: {_FAILED[name]}"
            ) from exc
    else:
        raise ValueError(
            f"unknown kernel provider {name!r}; available: "
            f"{', '.join(('numpy', *_AUTO_ORDER))} (or 'auto')"
        )
    _CACHE[name] = ks
    return ks


def available_kernels() -> dict[str, bool]:
    """Provider name -> availability *here* (probing builds on demand)."""
    out = {"numpy": True}
    for name in _AUTO_ORDER:
        if name in _CACHE:
            out[name] = True
        elif name in _FAILED or not _dep_present(name):
            out[name] = False
        else:
            try:
                _load(name)
                out[name] = True
            except KernelsUnavailableError:
                out[name] = False
    return out


def get_kernels(spec: str | KernelSet | None = None) -> KernelSet:
    """Resolve ``spec`` to a :class:`KernelSet`.

    ``None`` consults ``REPRO_KERNELS`` and falls back to auto-detection;
    a name is a registry lookup (``"auto"`` runs the detection order); a
    :class:`KernelSet` instance passes through unchanged.  An explicitly
    requested provider that cannot initialise raises
    :class:`KernelsUnavailableError` (a ``ValueError``); under
    auto-detection a *present but broken* provider warns and numpy is
    used — cffi or a compiler simply being absent stays silent.
    """
    if isinstance(spec, KernelSet):
        return spec
    if spec is None:
        spec = os.environ.get(ENV_VAR) or "auto"
    if not isinstance(spec, str):
        raise TypeError(
            f"kernels must be a provider name or a KernelSet instance, "
            f"got {type(spec).__name__}"
        )
    if spec == "auto":
        for name in _AUTO_ORDER:
            if not _dep_present(name):
                continue
            try:
                return _load(name)
            except KernelsUnavailableError as exc:
                warnings.warn(
                    f"kernel provider {name!r} failed to initialise; "
                    f"falling back ({exc})",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return _load("numpy")
    return _load(spec)
