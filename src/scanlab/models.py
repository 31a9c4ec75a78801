"""One-parameter exponential-family noise, signal planting, and estimation.

The three families share the tilt f_theta(x) = exp(theta*x - log phi(theta))
relative to their base law F0: gaussian N(0,1) (theta shifts the mean),
bernoulli(1/2) (theta is the log-odds offset, sigma^2 = 1/4) and poisson(1)
(theta is log mean, sigma^2 = 1).  A planted cluster K at signal strength
lam receives the natural parameter theta_K = sigma * lam / sqrt(|K|), with
|K| counting (node, time) pairs in the spatio-temporal case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from dataclasses import field as _field  # `field` names Field arguments below
from typing import TYPE_CHECKING, Union

import numpy as np
from scipy.stats import norm

from .clusters import Cluster
from .network import NodeSet
from .rng import _fast_rng

if TYPE_CHECKING:
    from .growth import ClusterSequence

GAUSSIAN = "gaussian"
BERNOULLI = "bernoulli"
POISSON = "poisson"

_MAD_CONSISTENCY = float(norm.ppf(0.75))  # 0.6744897501960817

# family -> (mean, variance) of its base law F0
_MOMENTS = {GAUSSIAN: (0.0, 1.0), BERNOULLI: (0.5, 0.25), POISSON: (1.0, 1.0)}


@dataclass(frozen=True)
class NoiseModel:
    family: str
    min_cluster_warn: int = 30  # non-gaussian planting below this is suspect
    null_mean: float = _field(init=False, repr=False, compare=False)
    sigma2: float = _field(init=False, repr=False, compare=False)
    sigma: float = _field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in _MOMENTS:
            raise ValueError(f"unknown family {self.family!r}")
        mean, var = _MOMENTS[self.family]
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

    def fill(self, rng: np.random.Generator, out: np.ndarray, theta: float | None = None) -> None:
        """Overwrite `out` with i.i.d. draws from F0 (theta None) or F_theta."""
        if self.family == GAUSSIAN:
            rng.standard_normal(out=out)
            if theta is not None:
                out += theta
        elif self.family == BERNOULLI:
            p = 0.5 if theta is None else self.tilted_mean(theta)
            if p >= 1.0:
                raise ValueError(f"bernoulli tilt saturates: p={p} >= 1")
            rng.random(out=out)
            np.less(out, p, out=out)
        else:
            out[...] = rng.poisson(1.0 if theta is None else self.tilted_mean(theta), out.shape)


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

    @property
    def static(self) -> bool:
        return self.t_m == 0


@dataclass(frozen=True)
class SignalSpec:
    """Signal strength lam (finite, >= 0; 0 plants a null-distributed redraw).

    per_node_theta optionally overrides the natural parameter node by node;
    overrides must not fall below the implied theta_K.
    """

    lam: float
    per_node_theta: dict[int, float] | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")

    def theta(self, model: NoiseModel, total_pairs: int) -> float:
        return model.sigma * self.lam / math.sqrt(total_pairs)


def sample_null_block(net: NodeSet, model: NoiseModel, t_m: int, seeds) -> np.ndarray:
    """(len(seeds), t_m + 1, m) null values; row r is drawn from seeds[r] alone."""
    if t_m < 0:
        raise ValueError("t_m must be >= 0")
    values = np.empty((len(seeds), t_m + 1, net.m))
    for row, seed in zip(values, seeds):
        model.fill(_fast_rng(seed), row)
    return values


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
    slices = [(t, k) for t, k in enumerate(target.slices) if k]
    if not slices:
        raise ValueError("the target is an empty cluster sequence")
    if target.t_m > t_m:
        raise ValueError("cluster sequence is longer than the field horizon")
    return slices


def plant_block(
    values: np.ndarray,
    target: Union[Cluster, "ClusterSequence"],
    sig: SignalSpec,
    model: NoiseModel,
    seeds,
) -> None:
    """Plant the target in every row of a (B, t_m + 1, m) block, in place.

    Row r's F_theta draws come from seeds[r] alone, slice by slice; a node
    with a per_node_theta override takes one further draw at its own theta
    right after its slice's draws.  Off-target values are untouched.
    """
    slices = _anomalous_slices(target, values.shape[1] - 1)
    times = np.concatenate([np.full(k.size, t) for t, k in slices])
    nodes = np.concatenate([k.idarray for _, k in slices])
    theta = sig.theta(model, nodes.size)
    if model.family != GAUSSIAN and nodes.size < model.min_cluster_warn:
        warnings.warn(
            f"planting {nodes.size} anomalous pairs in a {model.family} field; "
            f"normal approximations assume at least {model.min_cluster_warn}",
            stacklevel=3,
        )
    overrides = sig.per_node_theta or {}
    for node, th in overrides.items():
        if th < theta - 1e-12:
            raise ValueError(
                f"override theta for node {node} is below the implied {theta:.6g}"
            )
    draws = np.empty((len(seeds), nodes.size))
    if overrides:
        redraw = [(pos, overrides[int(node)]) for pos, node in enumerate(nodes)
                  if int(node) in overrides]
        ends = np.cumsum([k.size for _, k in slices])
    for row, seed in zip(draws, seeds):
        rng = _fast_rng(seed)
        if not overrides:
            model.fill(rng, row, theta)
            continue
        start = 0
        for end in ends:
            model.fill(rng, row[start:end], theta)
            for pos, th in redraw:
                if start <= pos < end:
                    model.fill(rng, row[pos : pos + 1], th)
            start = end
    values[:, times, nodes] = draws


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


def standardized_sums(
    values: np.ndarray, target: Union[Cluster, "ClusterSequence"], model: NoiseModel
) -> np.ndarray:
    """standardized_sum of every field in a (B, t_m + 1, m) block, bit for bit."""
    slices = _anomalous_slices(target, values.shape[1] - 1)
    # take() gathers C-ordered rows, so each row sums in the order of a 1-D sum
    total = 0
    for t, k in slices:
        total = total + values[:, t].take(k.idarray, axis=1).sum(axis=1)
    return model.standardize(total, sum(k.size for _, k in slices))


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


def save_field(field: Field, path) -> None:
    """CSV `node,t,value`; the t column is present even in static mode."""
    with open(path, "w") as fh:
        fh.write("node,t,value\n")
        for node in range(field.net.m):
            for t in range(field.t_m + 1):
                fh.write(f"{node},{t},{float(field.values[t, node])!r}\n")


def load_field(net: NodeSet, path) -> Field:
    """Read a `node,t,value` CSV holding every (node, t) pair once.

    A row whose node id is outside 0..m-1, whose time is negative or whose
    value is not finite is a ValueError that names it; so are duplicate and
    missing pairs.
    """
    with open(path) as fh:
        if fh.readline().strip() != "node,t,value":
            raise ValueError("field file must have header node,t,value")
        rows = np.loadtxt(fh, delimiter=",", ndmin=1,
                          dtype=[("node", np.int64), ("t", np.int64), ("value", float)])
    if not rows.size:
        raise ValueError("field file has no rows")
    node, t, value = rows["node"], rows["t"], rows["value"]
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
    counts = np.bincount(flat)
    if (counts > 1).any():
        t_dup, node_dup = divmod(int(np.argmax(counts > 1)), net.m)
        raise ValueError(f"field file has duplicate rows for node {node_dup}, t {t_dup}")
    values = np.empty((t_m + 1) * net.m)
    values[flat] = value
    return Field(net=net, values=values.reshape(t_m + 1, net.m))
