"""One-parameter exponential-family noise, signal planting, and estimation.

The three families share the tilt f_theta(x) = exp(theta*x - log phi(theta))
relative to their base law F0: gaussian N(0,1) (theta shifts the mean),
bernoulli(1/2) (theta is the log-odds offset, sigma^2 = 1/4) and poisson(1)
(theta is log mean, sigma^2 = 1).  A planted cluster K at signal strength
lam receives the natural parameter theta_K = sigma * lam / sqrt(|K|), with
|K| counting (node, time) pairs in the spatio-temporal case.  A draw is
keyed once, as base variates (normals, or uniforms for the discrete
families), and mapped to the law of each cell at theta by a map
nondecreasing in theta, so one draw serves every signal strength.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from dataclasses import field as _field  # `field` names Field arguments below
from typing import TYPE_CHECKING, Union

import numpy as np
from scipy.special import pdtrc

from .clusters import Cluster
from .network import NodeSet, csv_rows
from .rng import _fast_rng

if TYPE_CHECKING:
    from .growth import ClusterSequence

GAUSSIAN = "gaussian"
BERNOULLI = "bernoulli"
POISSON = "poisson"

_MAD_CONSISTENCY = 0.6744897501960817  # Phi^-1(3/4), the normal law's MAD
MIN_CLUSTER_WARN = 30  # non-gaussian planting below this many pairs is suspect
POISSON_MEAN_MAX = 1e6  # a poisson cell's inversion table holds about this many values

# family -> (mean, variance) of its base law F0
MOMENTS = {GAUSSIAN: (0.0, 1.0), BERNOULLI: (0.5, 0.25), POISSON: (1.0, 1.0)}


@dataclass(frozen=True)
class NoiseModel:
    family: str
    null_mean: float = _field(init=False, repr=False, compare=False)
    sigma2: float = _field(init=False, repr=False, compare=False)
    sigma: float = _field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in MOMENTS:
            raise ValueError(f"unknown family {self.family!r}")
        mean, var = MOMENTS[self.family]
        object.__setattr__(self, "null_mean", mean)
        object.__setattr__(self, "sigma2", var)
        object.__setattr__(self, "sigma", math.sqrt(var))

    def standardize(self, total, n):
        """(total - n*null_mean) / (sigma*sqrt(n)): a sum of n values as a
        statistic of mean 0 and variance 1 under H0; arrays broadcast.  The
        one standardization every statistic uses."""
        return (total - n * self.null_mean) / (self.sigma * np.sqrt(n))

    def tilted_mean(self, theta: float) -> float:
        if self.family == GAUSSIAN:
            return theta
        if self.family == BERNOULLI:
            return 1.0 / (1.0 + math.exp(-theta))
        return math.exp(theta)

    def variates(self, seeds, shape: tuple[int, ...]) -> np.ndarray:
        """(len(seeds),) + shape base variates in cell order, row r keyed by
        seeds[r] alone: standard normals for the gaussian, uniforms on [0, 1)
        for the others.  sums maps them to sums of the law, at any theta."""
        out = np.empty((len(seeds),) + shape)
        for row, seed in zip(out, seeds):
            gen = _fast_rng(seed)
            (gen.standard_normal if self.family == GAUSSIAN else gen.random)(out=row)
        return out

    def sums(self, u: np.ndarray, n: np.ndarray, k: np.ndarray | None = None,
             theta: float = 0.0) -> np.ndarray:
        """The sums of the base variates u, (B,) + n.shape, in place.

        Cell c is one draw of the sum of n[c] independent values, k[c] of
        them from F_theta and the rest from F0 (k None: all from F0): of its
        law N(k theta, n) as z sqrt(n) + k theta, or Binomial(n - k, 1/2) +
        Binomial(k, p) or Poisson(n - k + k e^theta) as the inverse of the
        law's survival function at the uniform.  Each map is nondecreasing in
        theta, so one draw serves every signal strength.  A one-step cell
        (n = 1) is the draw of one value: z (+ theta), U < p, or a Poisson
        variate of its mean by inversion.
        """
        if self.family == GAUSSIAN:
            u *= np.sqrt(n)
            if k is not None:
                u += k * theta
            return u
        p = self.tilted_mean(theta)
        if self.family == BERNOULLI and p >= 1.0:
            raise ValueError(f"bernoulli tilt saturates: p={p} >= 1")
        n = np.broadcast_to(n, u.shape[1:])
        k = np.zeros_like(n) if k is None else k
        base = int(n.max()) + 1
        for ni, ki in (divmod(code, base) for code in np.unique(n * base + k).tolist()):
            cells = (n == ni) & (k == ki)
            if self.family == BERNOULLI:
                pmf = np.ones(1)
                for q in (0.5,) * (ni - ki) + (p,) * ki:  # the law of the sum, value by value
                    pmf = np.convolve(pmf, (1.0 - q, q))
                survival = np.cumsum(pmf[::-1])[:ni]  # P(S >= x) for x = ni, ..., 1: ascending
            else:  # the same for x = top, ..., 1; P(S >= top) < 2**-53, the least nonzero uniform
                mean = ni - ki + ki * p
                if mean > POISSON_MEAN_MAX:
                    raise ValueError(f"poisson tilt saturates: mean={mean} > {POISSON_MEAN_MAX:g}")
                survival = pdtrc(np.arange(int(mean + 10 * math.sqrt(mean) + 40))[::-1], mean)
            u[:, cells] = survival.size - np.searchsorted(survival, u[:, cells], side="right")
        return u


def noise_model(family: str) -> NoiseModel:
    return NoiseModel(family)


@dataclass(frozen=True)
class Field:
    """Values at every (node, time) pair; shape (t_m + 1, m), immutable."""

    net: NodeSet
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.net.m:
            raise ValueError(f"values must be (t_m+1, {self.net.m})")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def t_m(self) -> int:
        return self.values.shape[0] - 1


@dataclass(frozen=True)
class SignalSpec:
    """Signal strength lam (finite, >= 0; 0 plants a null-distributed redraw).

    Every planted (node, time) pair of a cluster K takes the one natural
    parameter theta_K = sigma * lam / sqrt(|K|).
    """

    lam: float

    def __post_init__(self) -> None:
        self.check(self.lam)

    @staticmethod
    def check(lam: float) -> None:
        """The rule of a signal strength: refuse lam unless finite and >= 0."""
        if not 0 <= lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {lam!r}")

    def theta(self, model: NoiseModel, total_pairs: int) -> float:
        """theta_K, with a warning below MIN_CLUSTER_WARN non-gaussian pairs."""
        if model.family != GAUSSIAN and total_pairs < MIN_CLUSTER_WARN:
            warnings.warn(
                f"planting {total_pairs} anomalous pairs in a {model.family} field; "
                f"normal approximations assume at least {MIN_CLUSTER_WARN}",
                stacklevel=3,
            )
        return model.sigma * self.lam / math.sqrt(total_pairs)


def _time_steps(groups, horizon: int) -> np.ndarray:
    """The sizes of consecutive time groups partitioning `horizon` steps, as
    an array; None is one step each.  A ValueError names groups that do not."""
    if groups is None:
        return np.ones(horizon, dtype=np.int64)
    steps = np.asarray(groups, dtype=np.int64)
    if steps.ndim != 1 or not steps.size or steps.min() < 1 or steps.sum() != horizon:
        raise ValueError(f"time groups {tuple(groups)} do not partition {horizon} steps")
    return steps


def group_sums(values: np.ndarray, groups) -> np.ndarray:
    """Per-node sums of (..., t_m + 1, m) values over consecutive time groups
    of sizes `groups`: (..., G, m), each summed in time order.  One-step
    groups give the values themselves."""
    if len(groups) == sum(groups) == values.shape[-2]:
        return values
    return np.add.reduceat(values, np.cumsum((0,) + tuple(groups)[:-1]), axis=-2)


def sample_null_block(net: NodeSet, model: NoiseModel, t_m: int, seeds,
                      groups=None) -> np.ndarray:
    """(len(seeds), G, m) null sums over the consecutive time groups of
    times 0..t_m, of sizes `groups` (None: one step each, so G = t_m + 1 and
    the sums are the values); row r is drawn from seeds[r] alone."""
    if t_m < 0:
        raise ValueError("t_m must be >= 0")
    steps = _time_steps(groups, t_m + 1)
    return model.sums(model.variates(seeds, (steps.size, net.m)), steps[:, None])


def sample_null(net: NodeSet, model: NoiseModel, t_m: int, seed: int) -> Field:
    """i.i.d. F0 draws at every (node, time); t_m = 0 gives a static field."""
    return Field(net, sample_null_block(net, model, t_m, (seed,))[0])


def _anomalous_slices(
    target: Union[Cluster, "ClusterSequence"], t_m: int
) -> list[tuple[int, Cluster]]:
    """The target's nonempty (time, cluster) slices in a field of times 0..t_m.

    The one check of a target against a field horizon: a Cluster addresses
    a static field, and a ClusterSequence no longer than the horizon a
    temporal one.  An empty target is refused too.
    """
    if isinstance(target, Cluster):
        if not target:
            raise ValueError("the target is an empty cluster")
        if t_m != 0:
            raise ValueError("pass a ClusterSequence for temporal fields")
        return [(0, target)]
    slices = target.nonempty()
    if not slices:
        raise ValueError("the target is an empty cluster sequence")
    if target.t_m > t_m:
        raise ValueError("cluster sequence is longer than the field horizon")
    return slices


def planted_cells(target: Union[Cluster, "ClusterSequence"], steps: np.ndarray,
                  m: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells (group * m + node, ascending) of (G, m) sums over time groups of
    sizes `steps` that hold target pairs, and how many each: what plant_block redraws."""
    slices = _anomalous_slices(target, int(steps.sum()) - 1)
    group_of = np.repeat(np.arange(steps.size), steps)
    return np.unique(np.concatenate([group_of[t] * m + c.idarray for t, c in slices]),
                     return_counts=True)


def plant_block(
    values: np.ndarray,
    target: Union[Cluster, "ClusterSequence"],
    sig: SignalSpec,
    model: NoiseModel,
    seeds,
    groups=None,
) -> None:
    """Plant the target in every row of a (B, G, m) block of sums over
    consecutive time groups of sizes `groups` (None: one step each), in place.

    Each cell holding k > 0 of the target's (time, node) pairs is redrawn
    whole, as the sum of its n - k F0 and k F_theta values, one draw per cell
    in (group, node) order from seeds[r] alone for row r (with one-step
    groups, the target's pairs in slice order); other cells are untouched.
    """
    steps = _time_steps(groups, values.shape[1] if groups is None else sum(groups))
    if steps.size != values.shape[1]:
        raise ValueError(f"{steps.size} time groups for a block of {values.shape[1]} rows")
    cells, k = planted_cells(target, steps, values.shape[2])
    group, nodes = np.divmod(cells, values.shape[2])
    theta = sig.theta(model, int(k.sum()))
    values[:, group, nodes] = model.sums(model.variates(seeds, k.shape), steps[group], k, theta)


def plant(
    field: Field,
    target: Union[Cluster, "ClusterSequence"],
    sig: SignalSpec,
    model: NoiseModel,
    seed: int,
) -> Field:
    """Replace values on the target by F_theta draws; off-target untouched."""
    values = field.values[None].copy()
    plant_block(values, target, sig, model, (seed,))
    return Field(field.net, values[0])


def mad_variance(field: Field) -> float:
    """Robust variance: (MAD / Phi^-1(3/4))**2 over all field values."""
    values = field.values.ravel()
    if values.size < 2:
        raise ValueError("need at least two values")
    med = np.median(values)
    mad = np.median(np.abs(values - med))
    return float((mad / _MAD_CONSISTENCY) ** 2)


def target_sums(values: np.ndarray, target: Union[Cluster, "ClusterSequence"]) -> np.ndarray:
    """The sum over the target of every field in a (B, t_m + 1, m) block, as
    standardized_sum adds it, bit for bit."""
    slices = _anomalous_slices(target, values.shape[1] - 1)
    # take() gathers C-ordered rows, so each row sums in the order of a 1-D sum
    return sum(values[:, t].take(k.idarray, axis=1).sum(axis=1) for t, k in slices)


def standardized_sum(
    field: Field, target: Union[Cluster, "ClusterSequence"], model: NoiseModel
) -> float:
    """(sum over the target - n*mean0) / (sigma*sqrt(n)): mean 0, var 1 under H0.

    For the gaussian family this is |K|**-0.5 * sum(X).  A Cluster addresses a
    static field; temporal fields take a ClusterSequence and n counts the
    (node, time) pairs.
    """
    slices = _anomalous_slices(target, field.t_m)
    total = sum(field.values[t].take(k.idarray).sum() for t, k in slices)
    return float(model.standardize(total, sum(k.size for _, k in slices)))


def load_field(net: NodeSet, path) -> Field:
    """Read a `node,t,value` CSV holding every (node, t) pair once.

    The header line is checked here; np.loadtxt then reads the rest from the
    path, in C chunks (given an open file, it would read one Python line at a
    time), and the rows are checked on contiguous copies of the three columns.
    A row whose node id is outside 0..m-1, whose time is negative or whose
    value is not finite is a ValueError that names it; so are duplicate and
    missing pairs.
    """
    with open(path) as fh:
        if fh.readline().strip() != "node,t,value":
            raise ValueError("field file must have header node,t,value")
    rows = csv_rows(path, 1, [("node", np.int64), ("t", np.int64), ("value", float)],
                    "the 3 columns node,t,value (two integers, then a number)")
    if not rows.size:
        raise ValueError("field file has no rows")
    node, t, value = (rows[name].copy() for name in rows.dtype.names)
    out_of_range = (node < 0) | (node >= net.m) | (t < 0)
    for bad, problem in (
        (out_of_range, f"is out of range (node ids 0..{net.m - 1}, t >= 0)"),
        (~np.isfinite(value), "has a non-finite value"),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"field file row {node[i]},{t[i]},{float(value[i])!r} {problem}")
    t_m = int(t.max())
    if rows.size < (t_m + 1) * net.m:
        raise ValueError("field file is incomplete")
    flat = t * net.m + node
    values = np.full((t_m + 1) * net.m, np.nan)
    values[flat] = value
    if rows.size > values.size or np.isnan(values).any():  # more rows than pairs, or a pair missing
        t_dup, node_dup = divmod(int(np.argmax(np.bincount(flat) > 1)), net.m)
        raise ValueError(f"field file has duplicate rows for node {node_dup}, t {t_dup}")
    return Field(net=net, values=values.reshape(t_m + 1, net.m))
