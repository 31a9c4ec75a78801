"""Monte Carlo risk estimation: calibrate a test once, then sweep signal
strengths and report type-I + worst-case type-II per grid point.

Worst case over the truth class is approximated by the maximum over a
sampled set of truth clusters (the whole class when it is small).  Every
trial draws its seed from the master seed and its index path, so results are
bit-identical for a fixed config regardless of thread count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .clusters import Cluster
from .detect import (
    ScanTable,
    _map_indexed,
    average_test,
    calibrate,
    multiscale_test,
    scale_term,
    scan,
)
from .growth import ClusterSequence, scan_spacetime_cylinders
from .metric import EpsNet
from .models import Field, NoiseModel, SignalSpec, plant, sample_null, standardized_sum
from .network import NodeSet
from .rng import derive_seed, rng_from_seed

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

    The weights w_l equalize scales before the single calibrated cut; by
    default detect.scale_term, sqrt(2 * logdag(m * 2**(-l*d))).
    """

    nets: Mapping[int, EpsNet]
    weights: Mapping[int, float] | None = None


@dataclass(frozen=True)
class AverageTest:
    pass


@dataclass(frozen=True)
class OracleTest:
    """Known-cluster likelihood-ratio cutoff lam/2; no calibration step."""


@dataclass(frozen=True)
class CylinderScanTest:
    base: EpsNet
    windows: tuple[int, ...] | None = None


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
        if any(b <= a for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValueError("lambda grid must be strictly increasing")
        if not self.lambdas:
            raise ValueError("lambda grid is empty")
        if self.t_m < 0:
            raise ValueError("t_m must be >= 0")


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
    wallclock_ms: float = field(compare=False, default=0.0)


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


def scorer(
    test: TestSpec, net: NodeSet, model: NoiseModel, t_m: int = 0,
    truth: Truth | None = None,
) -> Callable[[Field], tuple[float, Truth | None]]:
    """score(field) -> (statistic, argmax) for a test specification.

    The one place a TestSpec becomes a per-field statistic: estimate_risk,
    `scanlab calibrate` and `scanlab test` all score through it.  Cluster
    tables are built here, once; the oracle scores its one `truth`.  The
    argmax is the maximizing cluster (None for the average test).
    """
    if isinstance(test, (EpsScanTest, MultiscaleScanTest)) and t_m != 0:
        raise ValueError(
            f"{type(test).__name__} needs a static field (t_m = 0); use CylinderScanTest"
        )

    def pair(result):
        return result.statistic, result.argmax

    if isinstance(test, EpsScanTest):
        table = ScanTable(test.net.members, model)
        return lambda fld: pair(scan(fld, table, model))
    if isinstance(test, MultiscaleScanTest):
        tables = {s: ScanTable(n.members, model) for s, n in test.nets.items() if len(n)}
        weights = test.weights
        if weights is None:
            weights = {s: scale_term(net.m, net.dim, s) for s in tables}
        return lambda fld: pair(multiscale_test(fld, tables, weights, model))
    if isinstance(test, AverageTest):
        return lambda fld: pair(average_test(fld, model))
    if isinstance(test, OracleTest):
        if truth is None:
            raise ValueError("the oracle test scores a known truth; none was given")
        return lambda fld: (standardized_sum(fld, truth, model), truth)
    if isinstance(test, CylinderScanTest):
        table = ScanTable(test.base.members, model)
        return lambda fld: pair(scan_spacetime_cylinders(fld, table, model, test.windows))
    raise ValueError(f"no statistic for {type(test).__name__}")


def estimate_risk(cfg: ExperimentConfig) -> list[RiskEstimate]:
    """Calibrate once (the oracle cuts at lam/2 instead), then estimate risk at every lambda."""
    truths = _resolve_truths(cfg)
    oracle = isinstance(cfg.test, OracleTest)
    if oracle and len(truths) != 1:
        raise ValueError(
            "the oracle test is simple-vs-simple: supply exactly one truth"
        )
    score = scorer(cfg.test, cfg.net, cfg.model, cfg.t_m, truths[0] if oracle else None)
    calib = None if oracle else calibrate(
        lambda fld: score(fld)[0], cfg.net, cfg.model, cfg.alpha, cfg.calib_b,
        derive_seed(cfg.seed, "calibration"), t_m=cfg.t_m, threads=cfg.threads,
    )

    def null_stat(i: int) -> float:
        fld = sample_null(cfg.net, cfg.model, cfg.t_m, derive_seed(cfg.seed, "null", i))
        return score(fld)[0]

    null_stats = _map_indexed(null_stat, cfg.n_null, cfg.threads)

    rows: list[RiskEstimate] = []
    for pt, lam in enumerate(cfg.lambdas):
        start = time.perf_counter()
        threshold = lam / 2.0 if oracle else calib.threshold
        type1 = float(np.mean(null_stats > threshold))
        sig = SignalSpec(lam)
        worst = -1.0
        for k, truth in enumerate(truths):

            def h1_miss(i: int, _truth=truth) -> float:
                fld = sample_null(
                    cfg.net, cfg.model, cfg.t_m, derive_seed(cfg.seed, "h1", pt, k, i, 0)
                )
                planted = plant(
                    fld, _truth, sig, cfg.model, derive_seed(cfg.seed, "h1", pt, k, i, 1)
                )
                return 1.0 if score(planted)[0] <= threshold else 0.0

            miss_rate = float(np.mean(_map_indexed(h1_miss, cfg.trials, cfg.threads)))
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
                wallclock_ms=(time.perf_counter() - start) * 1e3,
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
