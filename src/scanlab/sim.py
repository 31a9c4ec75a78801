"""Monte Carlo risk estimation: calibrate a test once, then sweep signal
strengths and report type-I + worst-case type-II per grid point.

Worst case over the truth class is approximated by the maximum over a set of
truth clusters: every truth a FixedTruths holds, or SampledTruths' draws.
Every trial draws its seed from the master seed and its index path, so
results are bit-identical for a fixed config regardless of thread count.
Trial i of truth k draws one null background, from ("h1", 0, k, i, 0), and
one set of base variates for the truth's cells, from ("h1", 0, k, i, 1), for
the whole lambda grid (common random numbers): every grid point maps trial
i's one draw to the planted cells' sums at its theta, and re-scores only the
elements those cells touch.  So a row equals the row of a one-point grid at
its lambda, and each trial's statistic is nondecreasing in lambda.  A test
is its detect.Elements, the one statistic of a block and of one field, which
scorer picks from detect's builders and builds nothing of itself: the
eps-scan is the one table scan at the field's horizon (the cylinder scan),
and the oracle is one element, the truth's own cells, which read no
background.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .clusters import Cluster
from .detect import (
    Elements,
    average_elements,
    block_size,
    calibrate,
    calibration_rank,
    map_blocks,
    null_statistics,
    oracle_cutoff,
    oracle_elements,
    scale_offsets,
    scale_term,
    scan_elements,
)
from .growth import ClusterSequence
from .metric import EpsNet
from .models import (
    NoiseModel,
    SignalSpec,
    _anomalous_slices,
    planted_cells,
    sample_null_block,
)
from .network import NodeSet
from .rng import derive_seed, derive_seeds

Truth = Union[Cluster, ClusterSequence]

DEFAULT_TRUTH_SAMPLE = 20


@dataclass(frozen=True)
class EpsScanTest:
    """Scan over a fixed net (the full class stream makes it the plain scan), crossed
    with the trailing dyadic windows of the field's steps: the cylinder scan."""

    net: EpsNet


@dataclass(frozen=True)
class MultiscaleScanTest:
    """Calibrated multiscale: statistic is max over scales of S_l - w_l.

    The weights w_l = detect.scale_term, sqrt(2 * logdag(m * 2**(-l*d))),
    equalize scales before the single calibrated cut.
    """

    nets: Mapping[int, EpsNet]


@dataclass(frozen=True)
class AverageTest:
    pass


@dataclass(frozen=True)
class OracleTest:
    """Known-cluster likelihood-ratio test cut at oracle_cutoff(lam); no calibration step."""


TestSpec = Union[EpsScanTest, MultiscaleScanTest, AverageTest, OracleTest]


@dataclass(frozen=True)
class FixedTruths:
    truths: tuple[Truth, ...]


@dataclass(frozen=True)
class SampledTruths:
    """sampler(seed) -> truth; `count` independent draws per experiment."""

    sampler: Callable[[int], Truth]
    count: int = DEFAULT_TRUTH_SAMPLE


@dataclass(frozen=True)
class ExperimentConfig:
    net: NodeSet
    model: NoiseModel
    test: TestSpec
    truth: FixedTruths | SampledTruths
    lambdas: tuple[float, ...]
    trials: int
    alpha: float = 0.05
    calib_b: int = 199
    seed: int = 0
    t_m: int = 0
    n_null: int = 400
    threads: int = 1
    theory: float | None = None

    def __post_init__(self) -> None:
        if self.trials < 50:
            raise ValueError("need trials >= 50")
        if self.n_null < 1:
            raise ValueError(f"need n_null >= 1, got {self.n_null}")
        if not self.lambdas:
            raise ValueError("lambda grid is empty")
        for lam in self.lambdas:
            SignalSpec.check(lam)
        if any(b <= a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValueError("lambda grid must be strictly increasing")
        if self.t_m < 0:
            raise ValueError("t_m must be >= 0")
        if self.threads < 1:
            raise ValueError(f"need threads >= 1, got {self.threads}")
        calibration_rank(self.alpha, self.calib_b)


@dataclass(frozen=True)
class RiskEstimate:
    lam: float
    theory: float | None
    type1: float
    type2_worst: float
    risk: float
    se: float
    se_type1: float
    se_type2: float
    trials: int
    n_truth: int
    seed: int


def _binom_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _resolve_truths(cfg: ExperimentConfig) -> list[Truth]:
    if isinstance(cfg.truth, FixedTruths):
        if not cfg.truth.truths:
            raise ValueError("truth class is empty")
        return list(cfg.truth.truths)
    if cfg.truth.count < 1:
        raise ValueError("need at least one sampled truth")
    return [
        cfg.truth.sampler(derive_seed(cfg.seed, "truth", i))
        for i in range(cfg.truth.count)
    ]


def scorer(
    test: TestSpec, net: NodeSet, model: NoiseModel, t_m: int = 0,
    truth: Truth | None = None,
) -> Elements:
    """The elements of a test specification, from detect's builders: its
    statistic, of a block of fields (.block) and of one field (called:
    statistic and argmax).  estimate_risk and `scanlab calibrate` score
    through them; the one-row tests that `scanlab test` runs build the same
    elements.  Cluster tables are the nets' own, encoded by the builder
    before threads share them.  The oracle scores its one `truth`."""
    if t_m < 0:
        raise ValueError("t_m must be >= 0")
    if isinstance(test, EpsScanTest):
        return scan_elements([test.net.members], np.zeros(1), model, t_m)
    if isinstance(test, MultiscaleScanTest):
        if t_m != 0:  # the scale weights are static
            raise ValueError("MultiscaleScanTest needs a static field (t_m = 0)")
        weights = {s: scale_term(net.m, net.dim, s) for s in test.nets}
        return scan_elements(*scale_offsets(test.nets, weights)[1:], model)
    if isinstance(test, AverageTest):
        return average_elements(net.m, t_m, model)
    if isinstance(test, OracleTest):
        if truth is None:
            raise ValueError("the oracle test scores a known truth; none was given")
        return oracle_elements(truth, net.m, t_m, model)
    raise ValueError(f"no statistic for {type(test).__name__}")


def h1_statistics(cfg: ExperimentConfig, el: Elements, k: int,
                  truth: Truth) -> Callable[[int, int], np.ndarray]:
    """fn(lo, hi) -> the (hi - lo, len(cfg.lambdas)) statistics of trials lo..hi - 1
    of truth k.  A trial's null background, from ("h1", 0, k, i, 0), is scored
    once, and its planted cells' base variates, from ("h1", 0, k, i, 1), drawn
    once; each lambda maps them to the cells' sums at its theta and re-scores
    only the elements whose members hold a planted node, as background sums
    plus the increments y - x over each window's groups.  The statistic is the
    larger of their maximum and the other elements' background maximum, so it
    is nondecreasing in lambda.  Elements that read only planted cells (the
    oracle's: their sums of a field of ones off the planted cells are all zero)
    read no background, so their trials plant into zeros and draw none."""
    groups, m, model = el.groups, cfg.net.m, cfg.model
    cells, count = planted_cells(truth, np.array(groups), m)
    group, node = np.divmod(cells, m)
    steps = np.array(groups)[group]
    nodes, at = np.unique(node, return_inverse=True)
    touched, incidence = el.touched(nodes)
    probe = np.ones(len(groups) * m)
    probe[cells] = 0.0
    background = el.sums(probe.reshape(1, len(groups), m)).any()
    thetas = [SignalSpec(lam).theta(model, int(count.sum())) for lam in cfg.lambdas]

    def block(lo: int, hi: int) -> np.ndarray:
        n = hi - lo
        values = np.zeros((n, len(groups), m))
        if background:
            seeds = derive_seeds(cfg.seed, ("h1", 0, k), lo, hi, (0,))
            values = sample_null_block(cfg.net, model, cfg.t_m, seeds, groups)
        sums = el.sums(values)
        scores = el.scores(sums)
        scores[..., touched] = -np.inf
        rest, base = scores.reshape(n, -1).max(axis=1), sums[..., touched]
        x = values[:, group, node]
        u = model.variates(derive_seeds(cfg.seed, ("h1", 0, k), lo, hi, (1,)), cells.shape)
        stats = np.empty((n, len(cfg.lambdas)))
        for pt, theta in enumerate(thetas):
            step = np.zeros((n, len(groups), nodes.size))
            step[:, group, at] = model.sums(u.copy(), steps, count, theta) - x
            inc = (step.reshape(-1, nodes.size) @ incidence).reshape(n, len(groups), touched.size)
            # sums over the last 1, 2, ..., G groups, of which the elements take the last W
            window = np.cumsum(inc[:, ::-1], axis=1)[:, len(groups) - len(el.pairs):]
            top = el.scores(base + window, touched).reshape(n, -1)
            stats[:, pt] = np.maximum(rest, top.max(axis=1, initial=-np.inf))
        return stats

    return block


def estimate_risk(cfg: ExperimentConfig) -> list[RiskEstimate]:
    """Calibrate once (the oracle cuts at oracle_cutoff), then estimate risk at every lambda.

    The null pass and each truth's pass run over blocks of fields
    (detect.block_size), each field drawn as the sums over the scorer's
    time groups; trial i of a pass draws from its own seeds:
    derive_seed(seed, "null", i) for the null field, and for truth k
    derive_seed(seed, "h1", 0, k, i, 0) for the null background and ("h1",
    0, k, i, 1) for its planted cells' base variates, both shared across the
    lambda grid (see h1_statistics).  The oracle's elements read only the
    target cells, which planting overwrites, so its H1 trials key only
    (..., i, 1) and plant into zeros: the same statistics as planting into
    the background.
    """
    truths = _resolve_truths(cfg)
    for truth in truths:  # refuse a truth the fields cannot hold before any pass
        _anomalous_slices(truth, cfg.t_m)
    oracle = isinstance(cfg.test, OracleTest)
    if oracle and len(truths) != 1:
        raise ValueError(
            "the oracle test is simple-vs-simple: supply exactly one truth"
        )
    score = scorer(cfg.test, cfg.net, cfg.model, cfg.t_m, truths[0] if oracle else None)
    groups = score.groups
    calib = None if oracle else calibrate(
        score.block, cfg.net, cfg.model, cfg.alpha, cfg.calib_b,
        derive_seed(cfg.seed, "calibration"), groups=groups, threads=cfg.threads,
    )
    null_stats = null_statistics(score.block, cfg.net, cfg.model, groups, cfg.seed, "null",
                                 cfg.n_null, cfg.threads)
    size = block_size(len(groups), cfg.net.m)
    thresholds = [oracle_cutoff(lam) if oracle else calib.threshold for lam in cfg.lambdas]
    worst = np.full(len(thresholds), -1.0)
    for k, truth in enumerate(truths):
        stats = map_blocks(h1_statistics(cfg, score, k, truth), cfg.trials, size, cfg.threads)
        worst = np.maximum(worst, (stats <= np.array(thresholds)).mean(axis=0))

    rows: list[RiskEstimate] = []
    for lam, threshold, type2 in zip(cfg.lambdas, thresholds, worst.tolist()):
        type1 = float(np.mean(null_stats > threshold))
        se1 = _binom_se(type1, cfg.n_null)
        se2 = _binom_se(type2, cfg.trials)
        rows.append(RiskEstimate(
            lam=lam, theory=cfg.theory, type1=type1, type2_worst=type2, risk=type1 + type2,
            se=math.hypot(se1, se2), se_type1=se1, se_type2=se2, trials=cfg.trials,
            n_truth=len(truths), seed=cfg.seed))
    return rows


SWEEP_COLUMNS = "lambda,theory_threshold,type1,type2_worst,risk,se,trials,seed"


def write_sweep_csv(rows: Sequence[RiskEstimate], fh, echo: Mapping | None = None) -> None:
    """Plot-ready CSV with the resolved config echoed as # comment lines."""
    for key in sorted(echo or {}):
        fh.write(f"# {key}={echo[key]}\n")
    fh.write(SWEEP_COLUMNS + "\n")
    for r in rows:
        theory = "nan" if r.theory is None else repr(float(r.theory))
        fh.write(
            f"{r.lam!r},{theory},{r.type1!r},{r.type2_worst!r},"
            f"{r.risk!r},{r.se!r},{r.trials},{r.seed}\n"
        )
