"""Tests: scan and eps-scan statistics, multiscale combination, the average
test, the oracle likelihood-ratio test, Monte Carlo calibration, and the
catalog of closed-form detection thresholds.

Statistic values are maxima of standardized sums over a cluster stream; ties
break to the first cluster in enumeration order, so results are deterministic
under any evaluation order.  Finite-sample decisions come from calibrated
empirical null quantiles; the closed-form rates are reported alongside.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .clusters import Cluster
from .metric import EpsNet, Rows, ScanTable
from .models import Field, NoiseModel, sample_null_block, standardized_sum
from .network import NodeSet
from .rng import derive_seeds


def log_dagger(x: float) -> float:
    """log x for x >= e, and 1 otherwise."""
    return math.log(x) if x >= math.e else 1.0


@dataclass(frozen=True)
class ScaleDetail:
    scale: int
    statistic: float
    threshold: float
    members: int


@dataclass(frozen=True)
class TestResult:
    """Statistic plus (optionally) the threshold that turns it into a test.

    decision is None until a threshold is attached; reject iff
    statistic > threshold.
    """

    statistic: float
    threshold: float | None = None
    argmax: Cluster | None = None
    argmax_index: int | None = None
    argmax_window: int | None = None
    per_scale: tuple[ScaleDetail, ...] | None = None

    @property
    def decision(self) -> bool | None:
        if self.threshold is None:
            return None
        return self.statistic > self.threshold

    def with_threshold(self, threshold: float) -> "TestResult":
        return replace(self, threshold=threshold)


def scan(field: Field, clusters: Iterable[Cluster], model: NoiseModel) -> TestResult:
    """Maximum standardized sum over the stream, with the first argmax."""
    return _table_scan(field, ScanTable.of(clusters), model)


def eps_scan(field: Field, net: EpsNet, model: NoiseModel) -> TestResult:
    """scan over the net's members, through the table kept with the net."""
    return _table_scan(field, net.table, model)


def _table_scan(field: Field, table: ScanTable, model: NoiseModel) -> TestResult:
    if not field.static:
        raise ValueError("scan takes a static field; see scan_spacetime_cylinders")
    (stat,), (j,) = table.max_scores(field.values, model)
    return TestResult(statistic=float(stat), argmax=table[j], argmax_index=int(j))


def average_statistics(values: np.ndarray, model: NoiseModel) -> np.ndarray:
    """The average test's statistic for every field of a (B, t_m + 1, m) block."""
    n = values[0].size
    return model.standardize(values.reshape(len(values), n).sum(axis=1), n)


def average_test(field: Field, model: NoiseModel) -> TestResult:
    """Standardized sum over every (node, time) pair (threshold separate)."""
    return TestResult(statistic=float(average_statistics(field.values[None], model)[0]))


def oracle_cutoff(lam: float) -> float:
    """The oracle's cutoff on S_K at signal strength lam: lam/2.

    This is the Neyman-Pearson cutoff for the gaussian shift only; for bernoulli
    and poisson it is not (see the `FOUND:` note on `oracle_test` in CHANGES.md).
    """
    return lam / 2.0


def oracle_test(field: Field, k: Cluster, lam: float, model: NoiseModel) -> TestResult:
    """Likelihood-ratio test for a known cluster: reject iff S_K > oracle_cutoff(lam)."""
    value = standardized_sum(field, k, model)
    return TestResult(statistic=value, threshold=oracle_cutoff(lam), argmax=k)


def scale_term(m: int, d: int, scale: int) -> float:
    """sqrt(2*logdag(m * 2**(-scale*d))), the size term of one scale."""
    return math.sqrt(2.0 * log_dagger(m * 2.0 ** (-scale * d)))


def default_scale_thresholds(m: int, d: int, scales: Iterable[int]) -> dict[int, float]:
    """Conservative per-scale thresholds: a scale term plus a union-bound term.

    scale_term(m, d, scale) + sqrt(2*log(scale**2 + e)); meant for
    running multiscale tests without calibration, and deliberately slack.
    """
    return {
        scale: scale_term(m, d, scale) + math.sqrt(2.0 * math.log(scale * scale + math.e))
        for scale in scales
    }


def scale_offsets(
    nets: Mapping[int, EpsNet], offsets: Mapping[int, float]
) -> tuple[list[int], list[ScanTable], np.ndarray]:
    """The nonempty scales in increasing order, their tables and offsets
    (thresholds or weights); a ValueError names a nonempty scale without one."""
    scales = sorted(s for s, net in nets.items() if len(net))
    if not scales:
        raise ValueError("all scale nets are empty")
    missing = [s for s in scales if s not in offsets]
    if missing:
        raise ValueError(f"no multiscale threshold or weight for scale {missing[0]}")
    return scales, [nets[s].table for s in scales], np.array([offsets[s] for s in scales])


def multiscale_statistics(
    values: np.ndarray, tables: Sequence[ScanTable], offsets: np.ndarray, model: NoiseModel
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """max over scales of S_l - offset_l for every field of a (B, 1, m) block:
    the statistics, the maximizing scale's row in `tables`, its first argmax
    member, and every scale's statistic (scales x B).  Ties go to the first
    member, then the earliest scale.  The scales share one transpose and one
    running sum of the block."""
    rows = Rows(values[:, 0])
    per_scale = [table.max_scores(rows, model) for table in tables]
    stats = np.array([s for s, _ in per_scale])
    excess = stats - offsets[:, None]
    row = excess.argmax(axis=0)
    cols = np.arange(len(values))
    return excess[row, cols], row, np.array([j for _, j in per_scale])[row, cols], stats


def multiscale_test(
    field: Field,
    nets: Mapping[int, EpsNet],
    thresholds: Mapping[int, float] | None,
    model: NoiseModel,
) -> TestResult:
    """Reject iff some scale's eps-scan exceeds its threshold.

    The reported statistic is the maximum threshold excess, so the TestResult
    invariant holds with threshold 0.  Scales with empty nets are skipped;
    each net's table is built once and kept with the net.
    """
    if not field.static:
        raise ValueError("multiscale_test takes a static field")
    if thresholds is None:
        thresholds = default_scale_thresholds(field.net.m, field.net.dim, nets)
    scales, tables, taus = scale_offsets(nets, thresholds)
    excess, row, j, stats = multiscale_statistics(field.values[None], tables, taus, model)
    return TestResult(
        statistic=float(excess[0]),
        threshold=0.0,
        argmax=tables[row[0]][j[0]],
        argmax_index=int(j[0]),
        per_scale=tuple(
            ScaleDetail(s, float(stats[i, 0]), float(taus[i]), len(tables[i]))
            for i, s in enumerate(scales)
        ),
    )


@dataclass(frozen=True)
class Calibration:
    """Empirical conservative (1-alpha) null quantile of a statistic."""

    alpha: float
    b: int
    threshold: float
    seed: int
    null_stats: np.ndarray

    def __post_init__(self) -> None:
        stats = np.asarray(self.null_stats, dtype=float)
        stats.flags.writeable = False
        object.__setattr__(self, "null_stats", stats)


# Monte Carlo passes draw and score their fields in blocks of about this many
# values, so a block's arrays stay small whatever the field size.  A block
# still holds at least KERNEL_ROWS field rows (fields x time groups): the
# sparse product of ScanTable.member_sums_temporal is slow per row with fewer
# columns, and no sum depends on the width.
BLOCK_VALUES = 1 << 16
KERNEL_ROWS = 16


def block_size(rows: int, m: int) -> int:
    """Fields per block, for fields drawn as `rows` rows (time groups) of m
    values: floor(BLOCK_VALUES / (rows m)), but at least
    ceil(KERNEL_ROWS / rows), so never fewer than 1."""
    return max(BLOCK_VALUES // (rows * m), -(-KERNEL_ROWS // rows))


def map_blocks(
    fn: Callable[[int, int], np.ndarray], n: int, size: int, threads: int
) -> np.ndarray:
    """fn(lo, hi) over consecutive blocks of range(n), concatenated in order.

    Each block's values depend only on its span (every trial is keyed by its
    own seed) and land at fixed positions, so any thread count gives the
    same array.  A thread count below 1 is a ValueError.
    """
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    spans = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    if threads == 1 or len(spans) <= 1:
        parts = [fn(lo, hi) for lo, hi in spans]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda span: fn(*span), spans))
    return np.concatenate(parts) if parts else np.empty(0)


def null_statistics(statistic: Callable[[np.ndarray], np.ndarray], net: NodeSet,
                    model: NoiseModel, groups: Sequence[int], seed: int, head: str, n: int,
                    threads: int) -> np.ndarray:
    """statistic of n null fields in blocks, each field drawn as its per-node
    sums over consecutive time groups of sizes `groups`; field i is drawn
    from derive_seed(seed, head, i) alone."""
    t_m = sum(groups) - 1

    def block(lo: int, hi: int) -> np.ndarray:
        seeds = derive_seeds(seed, (head,), ((i,) for i in range(lo, hi)))
        return statistic(sample_null_block(net, model, t_m, seeds, groups))

    return map_blocks(block, n, block_size(len(groups), net.m), threads)


def calibrate(
    statistic: Callable[[np.ndarray], np.ndarray],
    net: NodeSet,
    model: NoiseModel,
    alpha: float,
    b: int,
    seed: int,
    groups: Sequence[int] = (1,),
    threads: int = 1,
) -> Calibration:
    """Threshold = ceil((1-alpha)(b+1))-th order statistic of b null draws.

    statistic maps a (B, G, m) block of null fields, drawn as per-node sums
    over consecutive time groups of sizes `groups` (default: one static
    step), to their B statistics, as a sim.Scorer's block and groups do.
    """
    if b < 99:
        raise ValueError("need b >= 99 null samples")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    rank = math.ceil((1 - alpha) * (b + 1))
    if rank > b:
        raise ValueError(f"alpha={alpha} needs more than b={b} null samples")
    stats = null_statistics(statistic, net, model, groups, seed, "calib", b, threads)
    threshold = float(np.sort(stats)[rank - 1])
    return Calibration(alpha=alpha, b=b, threshold=threshold, seed=seed, null_stats=stats)


# ---------------------------------------------------------------------------
# closed-form detection thresholds


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _rate_thick(m: float, k: float) -> float:
    _check(m > 0 and 0 < k <= m, "need 0 < k <= m")
    return math.sqrt(2.0 * math.log(m / k))


def _rate_ball(d: int, lam: float) -> float:
    _check(d >= 1, "need d >= 1")
    _check(0 < lam < 1, "need lam in (0,1)")
    return math.sqrt(2.0 * d * math.log(1.0 / lam))


def _rate_thin(eps: float, log_n: float, d: int, lam: float) -> float:
    _check(eps > 0, "need eps > 0")
    _check(log_n >= 0, "need log_n >= 0")
    _check(d >= 1 and 0 < lam < 1, "need d >= 1 and lam in (0,1)")
    return (1.0 + eps * eps) * math.sqrt(2.0 * log_n + 2.0 * d * math.log(1.0 / lam))

def _rate_thin_slab(d: int, p: int, r: float, lam: float) -> float:
    _check(1 <= p < d, "need 1 <= p < d")
    _check(0 < r <= lam < 1, "need 0 < r <= lam < 1")
    return math.sqrt(2.0 * (d - p) * math.log(1.0 / r) + 2.0 * p * math.log(1.0 / lam))


def _rate_band_nondecreasing(ell: float, h: float) -> float:
    _check(ell >= h >= 1, "need ell >= h >= 1")
    return math.sqrt(ell / h)


def _rate_band_all(ell: float, h: float, m: float, d: int) -> float:
    _check(ell >= h >= 1, "need ell >= h >= 1")
    _check(m > 0 and d >= 1, "need m > 0, d >= 1")
    return math.sqrt(ell / h + math.log(m / h**d) + log_dagger(math.log(ell)))


def _rate_animal(m: float) -> float:
    _check(m > 1, "need m > 1")
    return math.sqrt(2.0 * math.log(m))


def _rate_bernoulli_p(m: float, k: float) -> float:
    """Cluster mean p* = 1/2 + sigma*sqrt(2 log(m/k)/k) with sigma = 1/2.

    A cluster of mean p has standardized effect sqrt(k)(p - 1/2)/sigma, which
    reaches the thick rate sqrt(2 log(m/k)) exactly at p*.  Clusters with
    2 log(m/k) >= k would need p* >= 1 and are rejected.
    """
    _check(m > 0 and 0 < k <= m, "need 0 < k <= m")
    p = 0.5 + math.sqrt(2.0 * math.log(m / k)) / (2.0 * math.sqrt(k))
    _check(p < 1.0, f"cluster too small: bernoulli threshold p*={p:.6g} >= 1")
    return p


def _rate_poisson_mu(m: float, k: float) -> float:
    """Cluster mean mu* = 1 + sigma*sqrt(2 log(m/k)/k) with sigma = 1."""
    _check(m > 0 and 0 < k <= m, "need 0 < k <= m")
    return 1.0 + math.sqrt(2.0 * math.log(m / k)) / math.sqrt(k)


RATE_FORMULAS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "thick": (_rate_thick, ("m", "k")),
    "ball": (_rate_ball, ("d", "lam")),
    "cylinder": (_rate_ball, ("d", "lam")),
    "thin": (_rate_thin, ("eps", "log_n", "d", "lam")),
    "thin_slab": (_rate_thin_slab, ("d", "p", "r", "lam")),
    "band_nondecreasing": (_rate_band_nondecreasing, ("ell", "h")),
    "band_all": (_rate_band_all, ("ell", "h", "m", "d")),
    "animal": (_rate_animal, ("m",)),
    "bernoulli_p": (_rate_bernoulli_p, ("m", "k")),
    "poisson_mu": (_rate_poisson_mu, ("m", "k")),
    "logdag": (log_dagger, ("x",)),
}


def rate(name: str, **params) -> float:
    """Closed-form threshold by formula id; see RATE_FORMULAS for the catalog."""
    if name not in RATE_FORMULAS:
        raise ValueError(
            f"unknown formula {name!r}; known: {sorted(RATE_FORMULAS)}"
        )
    fn, wanted = RATE_FORMULAS[name]
    missing = [p for p in wanted if p not in params]
    extra = [p for p in params if p not in wanted]
    if missing:
        raise ValueError(f"formula {name!r} missing params: {missing}")
    if extra:
        raise ValueError(f"formula {name!r} got unknown params: {extra}")
    return float(fn(**{p: params[p] for p in wanted}))
