"""Summary statistics for Monte-Carlo samples.

Dispersion times are heavy-tailed on several families (Proposition 2.1
proves non-concentration), so alongside the mean ± CI we always report
median and extreme quantiles, and provide a bootstrap CI that does not
assume normality.

Distribution-level checks
-------------------------
:class:`AnytimeKS` tests whether a stream of tau samples (from a
simulator) is statistically indistinguishable from a reference stream
(draws from an exact distribution, or another simulator) — the gate that
pins the serial processes to the exact dispersion-time laws of
:mod:`repro.markov.exact_idla` on tiny graphs.  It is an
**anytime-valid** two-sample Kolmogorov–Smirnov test: samples stream in
on both lanes, the caller checks after every batch, and the guarantee
holds *uniformly over checks* — at most an ``alpha`` probability of ever
rejecting equal distributions, no matter how many times or when the
caller peeks.  Validity comes from a time-uniform
Dvoretzky–Kiefer–Wolfowitz envelope with the error budget union-bounded
over checkpoints (check ``k`` spends ``alpha / (k (k+1))``, which sums to
``alpha``); under H0 the two empirical CDFs each stay inside their
envelope, so the two-sample statistic exceeds the summed envelope widths
with probability below the budget.  This is conservative (DKW is
distribution-free and the union bound is loose) but assumption-free and
safe under optional stopping.  Usage::

    gate = AnytimeKS(alpha=0.01)
    while more_samples:
        verdict = gate.update(sample_taus, oracle_taus)
        if verdict.reject:
            raise AssertionError(verdict)

The same machinery doubles as a power check: feed it samples from
visibly different distributions and it must eventually reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator

__all__ = [
    "AnytimeKS",
    "KSVerdict",
    "SummaryStats",
    "bootstrap_ci",
    "empirical_quantile",
    "ks_statistic",
    "summarize",
]


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-plus summary of a sample."""

    n: int
    mean: float
    std: float
    sem: float
    ci95_low: float
    ci95_high: float
    median: float
    q05: float
    q95: float
    min: float
    max: float

    @property
    def halfwidth(self) -> float:
        """Fixed-``n`` 95% half-width (1.96·SEM) — half of ci95_high−ci95_low.

        Only valid at a pre-committed sample size; estimates stopped by a
        :class:`repro.core.anytime.Precision` target report the (wider)
        anytime half-width on ``estimate.adaptive`` instead.
        """
        return 1.96 * self.sem

    def format(self, unit: str = "") -> str:
        """Compact human-readable rendering."""
        u = f" {unit}" if unit else ""
        return (
            f"{self.mean:.4g} ± {self.halfwidth:.2g}{u} "
            f"(median {self.median:.4g}, n={self.n})"
        )


def summarize(samples) -> SummaryStats:
    """Compute :class:`SummaryStats`; the CI is mean ± 1.96·SEM.

    >>> s = summarize([1.0, 2.0, 3.0])
    >>> s.mean, s.median
    (2.0, 2.0)
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("samples must be a non-empty 1-D array")
    mean = float(x.mean())
    std = float(x.std(ddof=1)) if x.size > 1 else 0.0
    sem = std / np.sqrt(x.size) if x.size > 1 else 0.0
    return SummaryStats(
        n=int(x.size),
        mean=mean,
        std=std,
        sem=float(sem),
        ci95_low=mean - 1.96 * sem,
        ci95_high=mean + 1.96 * sem,
        median=float(np.median(x)),
        q05=float(np.quantile(x, 0.05)),
        q95=float(np.quantile(x, 0.95)),
        min=float(x.min()),
        max=float(x.max()),
    )


def bootstrap_ci(
    samples, stat=np.mean, *, level: float = 0.95, resamples: int = 2000, seed=None
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for an arbitrary statistic."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("samples must be non-empty")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    rng = as_generator(seed)
    idx = rng.integers(0, x.size, size=(resamples, x.size))
    if stat is np.mean:
        # vectorised fast path for the default statistic: one reduction
        # over the resample axis instead of a Python-level loop over
        # `resamples` rows.  Bit-identical to np.apply_along_axis — both
        # reduce each contiguous row with NumPy's pairwise summation
        # (pinned by tests/test_streaming_buffers.py).
        boots = x[idx].mean(axis=1)
    else:
        boots = np.apply_along_axis(stat, 1, x[idx])
    alpha = (1.0 - level) / 2.0
    return float(np.quantile(boots, alpha)), float(np.quantile(boots, 1.0 - alpha))


def empirical_quantile(samples, q: float) -> float:
    """Plain empirical quantile (wrapper kept for API symmetry)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0,1], got {q}")
    return float(np.quantile(np.asarray(samples, dtype=np.float64), q))


def ks_statistic(x, y) -> float:
    """Two-sample KS statistic ``sup_t |F_x(t) - F_y(t)|``.

    Both samples may contain ties/duplicates (tau samples are integers
    for the discrete processes); the statistic is evaluated over the
    pooled support, which is exact for step CDFs.
    """
    x = np.sort(np.asarray(x, dtype=np.float64))
    y = np.sort(np.asarray(y, dtype=np.float64))
    if x.size == 0 or y.size == 0:
        raise ValueError("ks_statistic needs non-empty samples on both sides")
    support = np.concatenate([x, y])
    fx = np.searchsorted(x, support, side="right") / x.size
    fy = np.searchsorted(y, support, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


@dataclass(frozen=True)
class KSVerdict:
    """Outcome of one anytime-KS checkpoint."""

    statistic: float  #: two-sample KS distance at this checkpoint
    threshold: float  #: time-uniform rejection envelope at this checkpoint
    n_x: int  #: sample-lane count so far
    n_y: int  #: oracle-lane count so far
    checks: int  #: checkpoints consumed so far (1-based)
    reject: bool  #: True → the distributions are provably different

    @property
    def margin(self) -> float:
        """``threshold - statistic``; negative exactly when rejecting."""
        return self.threshold - self.statistic


class AnytimeKS:
    """Streaming anytime-valid two-sample KS gate.

    Parameters
    ----------
    alpha:
        Total false-rejection budget over the *entire* (unbounded)
        sequence of checkpoints.  A sampler drawing from the oracle's
        distribution survives all checks with probability at least
        ``1 - alpha``.
    """

    def __init__(self, alpha: float = 0.01):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.alpha = float(alpha)
        self._x: list[np.ndarray] = []
        self._y: list[np.ndarray] = []
        self._checks = 0
        self._rejected: KSVerdict | None = None

    @property
    def n_x(self) -> int:
        return sum(a.size for a in self._x)

    @property
    def n_y(self) -> int:
        return sum(a.size for a in self._y)

    def _envelope(self, n: int, alpha_k: float) -> float:
        # Two-sided DKW with half the checkpoint budget per lane:
        # sup |F_hat - F| <= sqrt(ln(4 / alpha_k) / (2 n)).
        return math.sqrt(math.log(4.0 / alpha_k) / (2.0 * n))

    def update(self, sample_taus, oracle_taus) -> KSVerdict:
        """Absorb one batch per lane and run a checkpoint.

        Either batch may be empty (the lanes need not stay in lock
        step), but both lanes must be non-empty overall before the
        first checkpoint.  A rejection is sticky: once the gate
        rejects, every later verdict repeats the rejection.
        """
        if self._rejected is not None:
            return self._rejected
        bx = np.asarray(sample_taus, dtype=np.float64).ravel()
        by = np.asarray(oracle_taus, dtype=np.float64).ravel()
        if bx.size:
            self._x.append(bx)
        if by.size:
            self._y.append(by)
        n_x, n_y = self.n_x, self.n_y
        if n_x == 0 or n_y == 0:
            raise ValueError(
                "AnytimeKS.update: both lanes need at least one sample "
                "before the first checkpoint"
            )
        self._checks += 1
        k = self._checks
        alpha_k = self.alpha / (k * (k + 1))
        stat = ks_statistic(np.concatenate(self._x), np.concatenate(self._y))
        thr = self._envelope(n_x, alpha_k) + self._envelope(n_y, alpha_k)
        verdict = KSVerdict(
            statistic=stat,
            threshold=thr,
            n_x=n_x,
            n_y=n_y,
            checks=k,
            reject=stat > thr,
        )
        if verdict.reject:
            self._rejected = verdict
        return verdict
