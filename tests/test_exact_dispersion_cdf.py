"""Tests for the exact dispersion-time CDF of Sequential-IDLA.

The CDF oracle cross-validates three ways: against the independent-
geometric closed form on the clique, against the expected-max formula,
and against the Monte-Carlo driver on several small graphs — in the mean,
and as a whole distribution through the anytime-valid KS gate.
"""

import numpy as np
import pytest

from repro.bounds import expected_max_geometric_sum
from repro.core import sequential_idla
from repro.experiments import AnytimeKS, estimate_dispersion
from repro.graphs import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    star_graph,
)
from repro.markov import (
    exact_expected_sequential_dispersion,
    sequential_dispersion_cdf,
)
from repro.utils.rng import stable_seed


class TestCdfStructure:
    def test_monotone_and_bounded(self):
        cdf = sequential_dispersion_cdf(cycle_graph(6), t_max=120)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == 0.0 or cycle_graph(6).n == 1
        assert cdf[-1] <= 1.0 + 1e-12
        assert cdf[-1] > 0.9  # t_max far beyond the mean

    def test_single_vertex_like_start(self):
        # P2: one particle settles at origin, the other in exactly 1 step
        from repro.graphs import Graph

        g = Graph.from_edges(2, [(0, 1)])
        cdf = sequential_dispersion_cdf(g, t_max=3)
        assert cdf.tolist() == [0.0, 1.0, 1.0, 1.0]

    def test_path3_values(self):
        # τ = max(T1, T2); T1 = 1 always; T2 from 0 with {1} occupied... here
        # origin 1: T2 odd, P[T2 = 2k+1] = 2^{-(k+1)}
        cdf = sequential_dispersion_cdf(path_graph(3), 1, t_max=5)
        assert np.isclose(cdf[1], 0.5)
        assert np.isclose(cdf[3], 0.75)
        assert np.isclose(cdf[5], 0.875)

    def test_validation(self):
        with pytest.raises(ValueError):
            sequential_dispersion_cdf(cycle_graph(20), t_max=10)
        with pytest.raises(ValueError):
            sequential_dispersion_cdf(cycle_graph(6), origin=9, t_max=10)
        with pytest.raises(ValueError):
            sequential_dispersion_cdf(cycle_graph(6), t_max=-1)


class TestExpectedDispersion:
    def test_clique_matches_independent_geometrics(self):
        # on K_n the particles' waits ARE independent geometrics: the DP
        # must reproduce the coupon-collector longest wait to precision
        for n in (5, 7, 9):
            exact = exact_expected_sequential_dispersion(complete_graph(n))
            ref = expected_max_geometric_sum(n - 1)
            assert abs(exact - ref) < 1e-6

    def test_star_is_double_clique_minus_one(self):
        # S_n sequential from the centre: a walk with k failed excursions
        # takes 2k + 1 steps, i.e. T = 2G − 1 with G ~ Geom(free/(n-1)),
        # so E[τ_seq(S_n)] = 2 E[max_i G_i] − 1 exactly (the paper's
        # t_seq(S_n) = 2 t_seq(K_n) is this, up to the additive constant).
        n = 7
        exact = exact_expected_sequential_dispersion(star_graph(n))
        ref = 2.0 * expected_max_geometric_sum(n - 1) - 1.0
        assert abs(exact - ref) < 1e-6

    @pytest.mark.parametrize(
        "g", [cycle_graph(7), path_graph(6), complete_graph(6)], ids=lambda g: g.name
    )
    def test_matches_monte_carlo(self, g):
        exact = exact_expected_sequential_dispersion(g)
        reps = 1500
        mc = np.array(
            [
                sequential_idla(
                    g, 0, seed=stable_seed("cdf-mc", g.name, r)
                ).dispersion_time
                for r in range(reps)
            ]
        )
        sem = mc.std() / np.sqrt(reps)
        assert abs(mc.mean() - exact) < 4 * sem + 0.05

    def test_lazy_roughly_doubles(self):
        g = path_graph(5)
        fast = exact_expected_sequential_dispersion(g)
        slow = exact_expected_sequential_dispersion(g, lazy=True)
        assert 1.8 < slow / fast < 2.2

    def test_dominates_expected_per_particle_max(self):
        # E[max_i T_i] >= max_i E[T_i]
        from repro.markov import analyze_sequential_idla

        g = cycle_graph(8)
        exact = exact_expected_sequential_dispersion(g)
        per = analyze_sequential_idla(g).expected_steps_per_particle
        assert exact >= per.max() - 1e-9


def _inverse_cdf_draws(cdf: np.ndarray, size: int, seed) -> np.ndarray:
    """``size`` draws of tau from its exact CDF over ``t = 0..t_max``."""
    u = np.random.default_rng(seed).random(size)
    return np.searchsorted(np.maximum.accumulate(cdf), u, side="left")


#: Tiny graphs for the whole-law gate: the four symmetric/regular
#: shapes plus irregular ones (a clique on a path, a bridge between
#: cliques, a grid, a hypercube) where the aggregate order matters.
KS_GRAPHS = [
    path_graph(3),
    star_graph(5),
    cycle_graph(5),
    complete_graph(4),
    lollipop_graph(6),
    barbell_graph(3, 1),
    grid_graph(2, 3),
    hypercube_graph(3),
    path_graph(5),
]


def _ks_verdict(taus, cdf, seed):
    return AnytimeKS(alpha=0.01).update(
        taus, _inverse_cdf_draws(cdf, taus.size, seed)
    )


class TestSerialMatchesExactLaw:
    """The simulated sequential process has the exact dispersion law."""

    @pytest.mark.parametrize("g", KS_GRAPHS, ids=lambda g: g.name)
    def test_ks_gate_accepts_exact_and_rejects_lazy(self, g):
        reps = 2000
        taus = estimate_dispersion(
            g, "sequential", reps=reps, seed=stable_seed("ks-exact", g.name)
        ).samples
        exact = sequential_dispersion_cdf(g, 0, t_max=400)
        verdict = _ks_verdict(taus, exact, stable_seed("ks-draws", g.name))
        assert not verdict.reject, (verdict.statistic, verdict.threshold)
        # power: the lazy walk's law is visibly different
        lazy = sequential_dispersion_cdf(g, 0, t_max=400, lazy=True)
        verdict = _ks_verdict(taus, lazy, stable_seed("ks-lazy", g.name))
        assert verdict.reject, (verdict.statistic, verdict.threshold)

    @pytest.mark.parametrize("g", KS_GRAPHS, ids=lambda g: g.name)
    def test_ks_gate_accepts_lazy_law_and_rejects_simple(self, g):
        # the lazy walk holds w.p. 1/2, so its times run about twice as
        # long: a wider t_max keeps the truncated tail negligible
        reps = 2000
        taus = estimate_dispersion(
            g,
            "sequential",
            reps=reps,
            lazy=True,
            seed=stable_seed("ks-lazy-run", g.name),
        ).samples
        lazy = sequential_dispersion_cdf(g, 0, t_max=800, lazy=True)
        verdict = _ks_verdict(taus, lazy, stable_seed("ks-lazy-draws", g.name))
        assert not verdict.reject, (verdict.statistic, verdict.threshold)
        simple = sequential_dispersion_cdf(g, 0, t_max=800)
        verdict = _ks_verdict(taus, simple, stable_seed("ks-simple", g.name))
        assert verdict.reject, (verdict.statistic, verdict.threshold)

    @pytest.mark.parametrize(
        "g, origin",
        [
            (path_graph(3), 1),
            (path_graph(4), 1),
            (star_graph(5), 1),
            (lollipop_graph(6), 5),
            (barbell_graph(3, 1), 3),
            (grid_graph(2, 3), 1),
        ],
        ids=lambda x: getattr(x, "name", str(x)),
    )
    def test_ks_gate_tracks_the_origin(self, g, origin):
        # from a non-root origin the law is the exact one for that origin,
        # and visibly not the law from vertex 0
        reps = 2000
        taus = estimate_dispersion(
            g,
            "sequential",
            reps=reps,
            origin=origin,
            seed=stable_seed("ks-origin", g.name, origin),
        ).samples
        exact = sequential_dispersion_cdf(g, origin, t_max=400)
        verdict = _ks_verdict(taus, exact, stable_seed("ks-origin-draws", g.name))
        assert not verdict.reject, (verdict.statistic, verdict.threshold)
        root = sequential_dispersion_cdf(g, 0, t_max=400)
        verdict = _ks_verdict(taus, root, stable_seed("ks-root", g.name))
        assert verdict.reject, (verdict.statistic, verdict.threshold)
