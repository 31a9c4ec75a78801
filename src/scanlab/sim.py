"""Monte Carlo risk estimation: calibrate a test once, then sweep signal
strengths and report type-I + worst-case type-II per grid point.

Worst case over the truth class is approximated by the maximum over a
sampled set of truth clusters (the whole class when it is small).  Every
trial draws its seed from the master seed and its index path, so results are
bit-identical for a fixed config regardless of thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .clusters import Cluster
from .detect import (
    TestResult,
    average_statistics,
    average_test,
    block_size,
    calibrate,
    eps_scan,
    map_blocks,
    multiscale_statistics,
    multiscale_test,
    null_statistics,
    oracle_cutoff,
    scale_offsets,
    scale_term,
)
from .growth import (ClusterSequence, cylinder_statistics, scan_spacetime_cylinders,
                     time_groups)
from .metric import EpsNet
from .models import (
    Field,
    NoiseModel,
    SignalSpec,
    _anomalous_slices,
    plant_block,
    sample_null_block,
    standardized_sum,
    standardized_sums,
)
from .network import NodeSet
from .rng import derive_seed, derive_seeds, rng_from_seed

Truth = Union[Cluster, ClusterSequence]

EXHAUSTIVE_TRUTH_MAX = 200
DEFAULT_TRUTH_SAMPLE = 20


@dataclass(frozen=True)
class EpsScanTest:
    """Scan over a fixed net (the full class stream makes it the plain scan)."""

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


@dataclass(frozen=True)
class CylinderScanTest:
    base: EpsNet


TestSpec = Union[EpsScanTest, MultiscaleScanTest, AverageTest, OracleTest, CylinderScanTest]


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
        truths = list(cfg.truth.truths)
        if not truths:
            raise ValueError("truth class is empty")
        if len(truths) > EXHAUSTIVE_TRUTH_MAX:
            rng_idx = np.sort(
                rng_from_seed(derive_seed(cfg.seed, "truthsel"))
                .choice(len(truths), size=DEFAULT_TRUTH_SAMPLE, replace=False)
            )
            truths = [truths[i] for i in rng_idx]
        return truths
    if cfg.truth.count < 1:
        raise ValueError("need at least one sampled truth")
    return [
        cfg.truth.sampler(derive_seed(cfg.seed, "truth", i))
        for i in range(cfg.truth.count)
    ]


@dataclass(frozen=True)
class Scorer:
    """A test's statistic, through one kernel two ways: score.block(sums)
    maps a (B, G, m) block of fields, given as per-node sums over the
    consecutive time groups of sizes `groups`, to their statistics, and
    score(field) -> (statistic, argmax) is the test's one-row call, whose
    statistic equals the block's on the field's group sums bit for bit."""

    block: Callable[[np.ndarray], np.ndarray]
    one_row: Callable[[Field], TestResult]
    groups: tuple[int, ...]

    def __call__(self, fld: Field) -> tuple[float, Truth | None]:
        result = self.one_row(fld)
        return result.statistic, result.argmax


def scorer(
    test: TestSpec, net: NodeSet, model: NoiseModel, t_m: int = 0,
    truth: Truth | None = None,
) -> Scorer:
    """The Scorer of a test specification.

    The one place a TestSpec becomes a statistic: estimate_risk,
    `scanlab calibrate` and `scanlab test` all score through it.  Cluster
    tables are the nets' own, built once and encoded here, before threads
    share them; the oracle scores its one `truth`.  The argmax is the
    maximizing cluster (None for the average test).  The cylinder scan
    reads its fields through the sums over time_groups(t_m + 1), the only
    sums its windows take; every other statistic takes one-step groups, so
    its block reads the values themselves.
    """
    if isinstance(test, (EpsScanTest, MultiscaleScanTest)) and t_m != 0:
        raise ValueError(
            f"{type(test).__name__} needs a static field (t_m = 0); use CylinderScanTest"
        )
    steps = (1,) * (t_m + 1)
    if isinstance(test, EpsScanTest):
        table = test.net.table.encoded()
        return Scorer(lambda values: table.max_scores(values[:, 0], model)[0],
                      lambda fld: eps_scan(fld, test.net, model), steps)
    if isinstance(test, MultiscaleScanTest):
        weights = {s: scale_term(net.m, net.dim, s) for s in test.nets}
        _, tables, offsets = scale_offsets(test.nets, weights)
        tables = [table.encoded() for table in tables]
        return Scorer(lambda values: multiscale_statistics(values, tables, offsets, model)[0],
                      lambda fld: multiscale_test(fld, test.nets, weights, model), steps)
    if isinstance(test, AverageTest):
        return Scorer(lambda values: average_statistics(values, model),
                      lambda fld: average_test(fld, model), steps)
    if isinstance(test, OracleTest):
        if truth is None:
            raise ValueError("the oracle test scores a known truth; none was given")
        return Scorer(lambda values: standardized_sums(values, truth, model),
                      lambda fld: TestResult(standardized_sum(fld, truth, model), argmax=truth),
                      steps)
    if isinstance(test, CylinderScanTest):
        table, groups = test.base.table.encoded(), time_groups(t_m + 1)
        return Scorer(lambda sums: cylinder_statistics(sums, table, model, groups)[0],
                      lambda fld: scan_spacetime_cylinders(fld, test.base, model), groups)
    raise ValueError(f"no statistic for {type(test).__name__}")


def estimate_risk(cfg: ExperimentConfig) -> list[RiskEstimate]:
    """Calibrate once (the oracle cuts at oracle_cutoff), then estimate risk at every lambda.

    The null pass and each (lambda, truth) pass run over blocks of fields
    (detect.block_size), each field drawn as the sums over the scorer's
    time groups; trial i of a pass draws from its own seed,
    derive_seed(seed, "null", i) or derive_seed(seed, "h1", pt, k, i, 0)
    for the null field and (..., i, 1) for the planted cells.  The
    oracle's statistic reads only the target cells, which planting
    overwrites, so its H1 trials key only (..., i, 1) and plant into zeros:
    the same statistics as planting into the (..., i, 0) null field.
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

    rows: list[RiskEstimate] = []
    for pt, lam in enumerate(cfg.lambdas):
        threshold = oracle_cutoff(lam) if oracle else calib.threshold
        type1 = float(np.mean(null_stats > threshold))
        sig = SignalSpec(lam)
        worst = -1.0
        for k, truth in enumerate(truths):

            def miss_block(lo: int, hi: int, head=("h1", pt, k), truth=truth) -> np.ndarray:
                if oracle:  # S_K reads only the target cells, and plant_block assigns them all
                    seeds = derive_seeds(cfg.seed, head, ((i, 1) for i in range(lo, hi)))
                    values = np.zeros((hi - lo, len(groups), cfg.net.m))
                else:
                    tails = ((i, j) for i in range(lo, hi) for j in (0, 1))
                    seeds = derive_seeds(cfg.seed, head, tails)
                    values = sample_null_block(cfg.net, cfg.model, cfg.t_m, seeds[0::2],
                                               groups)
                    seeds = seeds[1::2]
                plant_block(values, truth, sig, cfg.model, seeds, groups)
                return score.block(values) <= threshold

            miss_rate = float(np.mean(map_blocks(miss_block, cfg.trials, size, cfg.threads)))
            worst = max(worst, miss_rate)
        se1 = _binom_se(type1, cfg.n_null)
        se2 = _binom_se(worst, cfg.trials)
        rows.append(
            RiskEstimate(
                lam=lam,
                theory=cfg.theory,
                type1=type1,
                type2_worst=worst,
                risk=type1 + worst,
                se=math.hypot(se1, se2),
                se_type1=se1,
                se_type2=se2,
                trials=cfg.trials,
                n_truth=len(truths),
                seed=cfg.seed,
            )
        )
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
