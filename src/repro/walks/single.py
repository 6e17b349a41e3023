"""Fast single-walker primitives.

A single trajectory is inherently sequential, so NumPy gathers cannot help;
instead we drop to plain Python lists + a pre-drawn block of uniforms,
which profiling shows is ~3× faster than per-step ``Generator`` scalar
calls (each block refill amortises RNG overhead over ``_BLOCK`` steps).
The Sequential-IDLA driver builds on :class:`SingleWalkKernel`.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import Graph, check_walkers
from repro.kernels import csr_arrays, get_kernels
from repro.utils.rng import as_generator
from repro.utils.validation import check_limit

__all__ = ["SingleWalkKernel", "random_walk", "walk_until_hit"]

_BLOCK = 8192


class SingleWalkKernel:
    """Single-walker stepping with block-buffered randomness.

    Keeps the adjacency as Python ``list``s of ``list``s so the inner loop
    performs only list indexing and float multiplication — no NumPy scalar
    overhead.  Intended usage::

        kern = SingleWalkKernel(g, seed)
        pos = kern.step(pos)          # one step
    """

    __slots__ = ("adj", "_rng", "_buf", "_i")

    def __init__(self, g: Graph, seed=None):
        self.adj = g.adjacency_lists()
        self._rng = as_generator(seed)
        self._buf = self._rng.random(_BLOCK)
        self._i = 0

    def _uniform(self) -> float:
        i = self._i
        if i == _BLOCK:
            self._buf = self._rng.random(_BLOCK)
            i = 0
        self._i = i + 1
        return self._buf[i]

    def step(self, pos: int) -> int:
        """One simple-random-walk step from ``pos``."""
        nbrs = self.adj[pos]
        return nbrs[int(self._uniform() * len(nbrs))]

    def step_lazy(self, pos: int, hold: float = 0.5) -> int:
        """One lazy step (stay with probability ``hold``)."""
        if self._uniform() < hold:
            return pos
        return self.step(pos)


def random_walk(
    g: Graph, start: int, steps: int, seed=None, *, kernels=None
) -> np.ndarray:
    """Trajectory array of length ``steps + 1`` beginning at ``start``.

    A compiled kernel provider (``kernels`` kwarg > ``REPRO_KERNELS`` >
    auto-detect; see :mod:`repro.kernels`) replaces the Python loop on
    CSR graphs, bit-identical: same block cadence, same
    ``int(u * deg)`` offsets.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if steps:
        check_walkers(g, [start])
    out = np.empty(steps + 1, dtype=np.int64)
    out[0] = int(start)
    ks = get_kernels(kernels)
    if ks.compiled:
        csr = csr_arrays(g)
        if csr is not None:
            return ks.walk_positions(csr[0], csr[1], out, as_generator(seed), _BLOCK)
    kern = SingleWalkKernel(g, seed)
    pos = int(start)
    for t in range(steps):
        pos = kern.step(pos)
        out[t + 1] = pos
    return out


def walk_until_hit(
    g: Graph, start: int, targets, seed=None, *,
    max_steps: int | None = None, kernels=None,
) -> int:
    """Number of steps for a walk from ``start`` to reach the target set.

    Returns the step count (0 if ``start`` is already in the set).  Raises
    ``RuntimeError`` if ``max_steps`` is exceeded (default: no limit —
    finite on connected graphs with probability 1).  ``kernels`` selects
    a compiled inner loop exactly as in :func:`random_walk`.
    """
    limit = check_limit("max_steps", max_steps)
    target_mask = np.zeros(g.n, dtype=bool)
    t_arr = np.asarray(list(targets), dtype=np.int64)
    if t_arr.size == 0:
        raise ValueError("target set must be non-empty")
    target_mask[t_arr] = True
    if target_mask[start]:
        return 0  # before any kernel/RNG setup: the serial path draws nothing
    check_walkers(g, [start])
    ks = get_kernels(kernels)
    if ks.compiled:
        csr = csr_arrays(g)
        if csr is not None:
            return ks.walk_until_hit(
                csr[0], csr[1], target_mask, int(start), as_generator(seed),
                _BLOCK, limit,
                f"walk exceeded max_steps={max_steps} without hitting",
            )
    hit = target_mask.tolist()  # plain list: fastest membership in the loop
    kern = SingleWalkKernel(g, seed)
    pos = int(start)
    steps = 0
    while True:
        pos = kern.step(pos)
        steps += 1
        if hit[pos]:
            return steps
        if steps >= limit:
            raise RuntimeError(f"walk exceeded max_steps={max_steps} without hitting")
