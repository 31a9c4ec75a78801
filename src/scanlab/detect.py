"""Tests: scan and eps-scan statistics, multiscale combination, the average
test, the oracle likelihood-ratio test, Monte Carlo calibration, and the
catalog of closed-form detection thresholds.

Every statistic is one Elements: the max over its elements of a standardized
sum less an offset, scored on a block of fields (Elements.block) or on one
field (Elements.one_row).  Its builders all live here.  scan_elements is the
one table scan: the static and multiscale scans are its one-window case
(t_m = 0), and the cylinder scan crosses the same tables with the trailing
dyadic windows of times 0..t_m.  average_elements and oracle_elements are the
one-element tests.  eps_scan (also named scan; the cylinder scan at t_m > 0),
multiscale_test and average_test wrap them.  Ties break to the first raw
maximum of a table in member-major order, then to the first table, so results
are deterministic under any evaluation order.  oracle_test sums its known
cluster directly.  Finite-sample decisions come from calibrated empirical
null quantiles; the closed-form rates are reported alongside.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .clusters import Cluster
from .metric import EpsNet, Rows, ScanTable
from .models import (Field, NoiseModel, group_sums, planted_cells, sample_null_block,
                     standardized_sum, target_sums)
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


@dataclass(frozen=True)
class Elements:
    """A statistic as the max over its elements of model.standardize(sum, pairs) -
    offset: the one statistic every test scores, a block of fields or one field.

    Fields are read as their per-node sums over consecutive time groups of sizes
    `groups`.  Element (w, j) is member j of `tables`, counted across them, over
    the w-th shortest of the W longest trailing windows of the G groups: all G
    windows for a table scan, every group at once for the average and the
    oracle.  The oracle's one member holds the truth's nodes, and its sum reads
    only the truth's cells.  `sums` maps a (B, G, m) block of group sums to the
    (B, W, J) element sums."""

    sums: Callable[[np.ndarray], np.ndarray]
    tables: Sequence[ScanTable]
    pairs: np.ndarray  # (W, J): the (node, time) pairs each element sums
    offset: np.ndarray  # (J,)
    model: NoiseModel
    groups: tuple[int, ...]
    names: Sequence[Sequence] | None = None  # the argmax of each member; None: tables

    def __call__(self, field: Field) -> tuple[float, object]:
        """(statistic, argmax) of one field: one_row's, its element's name."""
        statistic, table, member, _, _ = self.one_row(field)
        return statistic, (self.names or self.tables)[table][member]

    def scores(self, sums: np.ndarray, at=slice(None)) -> np.ndarray:
        """Element scores of (B, W, J') sums of the members `at` (default all)."""
        return self.model.standardize(sums, self.pairs[:, at]) - self.offset[at]

    def block(self, values: np.ndarray) -> np.ndarray:
        return self.scores(self.sums(values)).reshape(len(values), -1).max(axis=1)

    def one_row(self, field: Field) -> tuple[float, int, int, int, np.ndarray]:
        """(statistic, table, member, window, maxima) of one field.  Each table's
        raw maximum (maxima) is taken at its first element in member-major order
        (member, then window); the statistic is the largest maximum less its
        table's offset, at the first table that reaches it.  window counts the
        element's steps.  Subtracting an offset keeps order, so the statistic is
        the block's on the field's group sums, bit for bit."""
        if sum(self.groups) != len(field.values):
            raise ValueError(f"the statistic reads fields of {sum(self.groups)} time steps, "
                             f"not {len(field.values)}; eps_scan scans in time")
        scores = self.model.standardize(
            self.sums(group_sums(field.values, self.groups)[None])[0], self.pairs)
        n, flat = len(scores), scores.T.ravel()  # member-major: member, then window
        first, lo = [], 0
        for table in self.tables:
            first.append(lo + int(flat[lo : lo + len(table) * n].argmax()))
            lo += len(table) * n
        maxima = flat[first]
        excess = maxima - self.offset[np.array(first) // n]
        t = int(excess.argmax())
        j, w = divmod(first[t], n)
        j -= sum(len(table) for table in self.tables[:t])
        return float(excess[t]), t, j, sum(self.groups[n - 1 - w :]), maxima

    def touched(self, nodes: np.ndarray) -> tuple[np.ndarray, sp.csr_array]:
        """The members holding one of the ascending `nodes`, in order, and the
        (nodes, touched members) 0/1 incidence: one pass over each table's ids."""
        members, at, first = [], [], 0
        for table in self.tables:
            hit = np.flatnonzero(np.isin(table.concat, nodes))
            members.append(first + np.searchsorted(table.indptr, hit, side="right") - 1)
            at.append(np.searchsorted(nodes, table.concat[hit]))
            first += len(table)
        touched, col = np.unique(np.concatenate(members), return_inverse=True)
        return touched, sp.csr_array((np.ones(col.size), (np.concatenate(at), col)),
                                     shape=(nodes.size, touched.size))


def dyadic_windows(horizon: int) -> tuple[int, ...]:
    """{1, 2, 4, ...} up to and including the full horizon (t_m + 1)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    powers = tuple(1 << i for i in range(horizon.bit_length()))  # 1, 2, 4, ... <= horizon
    return powers if powers[-1] == horizon else powers + (horizon,)


def time_groups(horizon: int) -> tuple[int, ...]:
    """The sizes of the consecutive time groups that the starts of the
    trailing dyadic windows cut times 0..horizon - 1 into: window i of
    dyadic_windows(horizon) is the union of the last i + 1 groups, so the
    groups are the windows' increments, the latest first."""
    windows = (0,) + dyadic_windows(horizon)
    return tuple(b - a for a, b in zip(windows, windows[1:]))[::-1]


def scan_elements(tables: Sequence[ScanTable], offsets: np.ndarray, model: NoiseModel,
                  t_m: int = 0) -> Elements:
    """The one table scan: every member of the tables, each less its table's
    offset, over each trailing window of w in dyadic_windows(t_m + 1) steps,
    so a (member, w) element sums |member| * w pairs.  Fields are read as
    their sums over time_groups(t_m + 1), window i being the last i + 1
    groups; with one group (t_m = 0, the static scan) the sums are the
    members' own.  The tables share one transpose and one running sum of a block."""
    tables, windows = [table.encoded() for table in tables], dyadic_windows(t_m + 1)

    def sums(values: np.ndarray) -> np.ndarray:
        n, g, m = values.shape
        rows = Rows(values.reshape(n * g, m))
        per_group = np.hstack([table.member_sums_temporal(rows) for table in tables])
        if g == 1:
            return per_group[:, None]
        cum = np.zeros((n, g + 1, per_group.shape[1]))
        np.cumsum(per_group.reshape(n, g, -1), axis=1, out=cum[:, 1:])
        return cum[:, -1:] - cum[:, g - 1 - np.arange(g)]

    return Elements(sums, tables,
                    np.concatenate([t.sizes for t in tables]) * np.array(windows)[:, None],
                    np.repeat(offsets, [len(t) for t in tables]), model, time_groups(t_m + 1))


def average_elements(m: int, t_m: int, model: NoiseModel) -> Elements:
    """The average test's one element: every node over all t_m + 1 steps."""
    return Elements(lambda values: values.reshape(len(values), -1).sum(axis=1)[:, None, None],
                    [ScanTable([0, m], np.arange(m))], np.array([[(t_m + 1) * m]]),
                    np.zeros(1), model, (1,) * (t_m + 1), [[None]])


def oracle_elements(truth, m: int, t_m: int, model: NoiseModel) -> Elements:
    """The oracle's one element: the truth's own cells, a Cluster or a
    ClusterSequence, whose sum reads nothing else of a field."""
    cells, _ = planted_cells(truth, np.ones(t_m + 1, dtype=int), m)
    nodes = np.unique(cells % m)
    return Elements(lambda values: target_sums(values, truth)[:, None, None],
                    [ScanTable([0, nodes.size], nodes)], np.array([[cells.size]]),
                    np.zeros(1), model, (1,) * (t_m + 1), [[truth]])


def eps_scan(field: Field, net: EpsNet | Iterable[Cluster], model: NoiseModel) -> TestResult:
    """The max standardized sum over the members of an eps-net (through its table) or
    of any cluster stream, and each trailing dyadic window of the field's steps (one
    on a static field), with its argmax: the first member, then the shorter window."""
    net = net if isinstance(net, EpsNet) else EpsNet(0.0, net)
    stat, _, j, window, _ = scan_elements([net.members], np.zeros(1), model,
                                          field.t_m).one_row(field)
    return TestResult(statistic=stat, argmax=net.members[j], argmax_index=j, argmax_window=window)


scan = eps_scan  # the scan over a cluster stream, under its own name


def average_test(field: Field, model: NoiseModel) -> TestResult:
    """Standardized sum over every (node, time) pair (threshold separate)."""
    return TestResult(statistic=average_elements(field.net.m, field.t_m, model)(field)[0])


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
    return scales, [nets[s].members for s in scales], np.array([offsets[s] for s in scales])


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
    if thresholds is None:
        thresholds = default_scale_thresholds(field.net.m, field.net.dim, nets)
    scales, tables, taus = scale_offsets(nets, thresholds)
    stat, t, j, _, maxima = scan_elements(tables, taus, model).one_row(field)
    return TestResult(
        statistic=stat,
        threshold=0.0,
        argmax=tables[t][j],
        argmax_index=j,
        per_scale=tuple(ScaleDetail(s, float(maxima[i]), float(taus[i]), len(tables[i]))
                        for i, s in enumerate(scales)),
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


def calibration_rank(alpha: float, b: int) -> int:
    """ceil((1-alpha)(b+1)), the threshold's rank among b null statistics; a
    ValueError unless b >= 99, 0 < alpha < 1 and the rank is at most b."""
    if b < 99:
        raise ValueError("need b >= 99 null samples")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    rank = math.ceil((1 - alpha) * (b + 1))
    if rank > b:
        raise ValueError(f"alpha={alpha} needs more than b={b} null samples")
    return rank


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
    step), to their B statistics, as an Elements' block and groups do.
    """
    rank = calibration_rank(alpha, b)
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
