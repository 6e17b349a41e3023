"""Shared fixtures: small canonical graphs reused across the suite."""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.graphs import (
    complete_binary_tree,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    star_graph,
)


@pytest.fixture
def p8():
    return path_graph(8)


@pytest.fixture
def c8():
    return cycle_graph(8)


@pytest.fixture
def k8():
    return complete_graph(8)


@pytest.fixture
def s8():
    return star_graph(8)


@pytest.fixture
def q3():
    return hypercube_graph(3)


@pytest.fixture
def btree3():
    return complete_binary_tree(3)  # 15 vertices


@pytest.fixture
def g44():
    return grid_graph(4, 4)


@pytest.fixture
def lolli12():
    return lollipop_graph(12)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


SMALL_GRAPH_FACTORIES = [
    lambda: path_graph(6),
    lambda: cycle_graph(7),
    lambda: complete_graph(6),
    lambda: star_graph(7),
    lambda: hypercube_graph(3),
    lambda: complete_binary_tree(2),
    lambda: grid_graph(3, 3),
    lambda: lollipop_graph(8),
]


@pytest.fixture(params=range(len(SMALL_GRAPH_FACTORIES)))
def small_graph(request):
    """Parametrised fixture covering one representative of each family."""
    return SMALL_GRAPH_FACTORIES[request.param]()


#: Low-level entry points every compiled kernel provider exposes.
KERNEL_ENTRY_POINTS = (
    "csr_step",
    "settle_round",
    "finish_seq",
    "finish_par1",
    "walk_fill",
    "walk_hit",
    "par_rounds",
    "seq_ticks",
    "ctu_ticks",
)


@pytest.fixture
def counting_kernels():
    """Factory ``provider -> (KernelSet, Counter)``: a copy of a compiled
    provider whose low-level entry points tally their calls by name, so a
    test can see which kernels a run crossed into and how often."""
    from repro.kernels import CompiledKernels, get_kernels

    def make(provider):
        base = get_kernels(provider)
        calls = Counter()

        def counted(name):
            fn = getattr(base._impl, name)

            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        impl = SimpleNamespace(**{e: counted(e) for e in KERNEL_ENTRY_POINTS})
        return CompiledKernels(base.name, impl), calls

    return make
