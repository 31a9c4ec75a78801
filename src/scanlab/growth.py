"""Spatio-temporal cluster sequences and the space-time cylinder scan.

A ClusterSequence holds one (possibly empty) cluster per time step.  The
generators cover the standing examples: constant-base cylinders, linearly
growing cones, tubes around coordinatewise-constrained trajectories, and the
Richardson lattice growth model.  Two verifiers check the structural
assumptions the cylinder scan relies on: convergence to a limit shape and
bounded variation in the cluster metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .clusters import EMPTY_CLUSTER, Cluster, cluster_from_ids, parse_cluster, read_headed
from .detect import TestResult
from .metric import SQRT2, EpsNet, ScanTable, delta
from .models import Field, NoiseModel
from .network import LATTICE, NodeSet, ball_nodes, closed_ball_ids
from .rng import rng_from_seed


@dataclass(frozen=True)
class ClusterSequence:
    """Per-time clusters K_t for t = 0..t_m; empty slices are allowed."""

    slices: tuple[Cluster, ...]

    def __post_init__(self) -> None:
        if not self.slices:
            raise ValueError("a cluster sequence needs at least one time step")

    @property
    def t_m(self) -> int:
        return len(self.slices) - 1

    @property
    def onset(self) -> int | None:
        """t_K: first nonempty slice, or None for an all-empty sequence."""
        for t, k in enumerate(self.slices):
            if k:
                return t
        return None

    @property
    def t_end(self) -> int | None:
        """t_K+: last nonempty slice."""
        for t in range(len(self.slices) - 1, -1, -1):
            if self.slices[t]:
                return t
        return None

    @property
    def total_pairs(self) -> int:
        return sum(k.size for k in self.slices)

    def nonempty(self) -> list[tuple[int, Cluster]]:
        return [(t, k) for t, k in enumerate(self.slices) if k]

    def window(self, start: int, stop: int) -> "ClusterSequence":
        """Slices start..stop re-indexed to begin at time 0."""
        if not 0 <= start <= stop <= self.t_m:
            raise ValueError("window out of range")
        return ClusterSequence(self.slices[start : stop + 1])


def make_cylinder(
    net: NodeSet, x0, r0: float, t0: int, t_m: int
) -> ClusterSequence:
    """Constant base ball from onset t0 onward."""
    if r0 <= 0:
        raise ValueError("r0 must be > 0")
    if not 0 <= t0 <= t_m:
        raise ValueError("need 0 <= t0 <= t_m")
    base = ball_nodes(net, x0, r0)
    if not base:
        raise ValueError("cylinder base ball is empty; onset undefined")
    slices = tuple(
        base if t >= t0 else EMPTY_CLUSTER for t in range(t_m + 1)
    )
    return ClusterSequence(slices)


def make_cone(
    net: NodeSet, x0, speed: float, t0: int, t_m: int
) -> ClusterSequence:
    """Closed-ball slices of radius speed*(t - t0); nested and nondecreasing."""
    if speed <= 0:
        raise ValueError("speed must be > 0")
    if not 0 <= t0 <= t_m:
        raise ValueError("need 0 <= t0 <= t_m")
    slices = []
    for t in range(t_m + 1):
        if t < t0:
            slices.append(EMPTY_CLUSTER)
        else:
            slices.append(Cluster(closed_ball_ids(net, x0, speed * (t - t0))))
    return ClusterSequence(tuple(slices))


def make_holder_trajectory(
    net: NodeSet,
    controls: np.ndarray,
    alpha: float,
    kappa: float,
    r: float,
    xi: float,
    t_start: int,
    t_end: int,
    t_m: int,
) -> ClusterSequence:
    """Moving ball of radius r along a constrained trajectory.

    `controls` has shape (n, d): values of the center curve g at n uniform
    grid points spanning [0, t_m/xi]; slices are open balls around g(t/xi)
    for t in [t_start, t_end], with g piecewise linear between controls.
    Every coordinate must satisfy |g(x) - g(y)| <= kappa*|x - y|**alpha at
    all pairs of grid points; a violating pair is reported and rejected.
    """
    controls = np.asarray(controls, dtype=float)
    if controls.ndim != 2 or controls.shape[1] != net.dim:
        raise ValueError(f"controls must be (n, {net.dim})")
    if len(controls) < 2:
        raise ValueError("need at least two control points")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    if r <= 0 or xi <= 0:
        raise ValueError("r and xi must be > 0")
    if not 0 <= t_start <= t_end <= t_m:
        raise ValueError("need 0 <= t_start <= t_end <= t_m")
    xs = np.linspace(0.0, t_m / xi, len(controls))
    for j in range(net.dim):
        g = controls[:, j]
        for a in range(len(xs)):
            for b in range(a + 1, len(xs)):
                bound = kappa * abs(xs[b] - xs[a]) ** alpha
                if abs(g[b] - g[a]) > bound + 1e-12:
                    raise ValueError(
                        f"trajectory coordinate {j} violates the smoothness "
                        f"bound between grid points {a} and {b}: "
                        f"|{g[b]:.4g} - {g[a]:.4g}| > {bound:.4g}"
                    )
    slices = []
    for t in range(t_m + 1):
        if t < t_start or t > t_end:
            slices.append(EMPTY_CLUSTER)
            continue
        center = [float(np.interp(t / xi, xs, controls[:, j])) for j in range(net.dim)]
        slices.append(ball_nodes(net, center, r))
    return ClusterSequence(tuple(slices))


def richardson_grow(
    net: NodeSet,
    x0: int,
    p: float,
    t0: int,
    t_m: int,
    seed: int,
    within: Cluster | None = None,
) -> ClusterSequence:
    """Richardson growth: each vacant neighbor is occupied w.p. p per step.

    Starts from node x0 at time t0; occupied sets are nondecreasing, and at
    p=1 the occupied set after s steps is exactly the ball of graph radius s
    around x0 (the closed l1 ball, on a lattice without holes).  `within`
    restricts growth to a node subset (used for capped limit shapes); warmup
    before the observation window is done by growing over a longer horizon
    and calling .window().
    """
    if net.mode != LATTICE:
        raise ValueError("richardson growth runs on lattices")
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    if not 0 <= t0 <= t_m:
        raise ValueError("need 0 <= t0 <= t_m")
    if not 0 <= x0 < net.m:
        raise ValueError("x0 must be a node id")
    allowed = range(net.m) if within is None else set(within.idarray.tolist())
    if x0 not in allowed:
        raise ValueError("x0 must belong to the growth restriction")
    adj = net.neighbors
    rng = rng_from_seed(seed)
    occupied = {x0}
    slices: list[Cluster] = [EMPTY_CLUSTER] * t0
    slices.append(cluster_from_ids(occupied))
    for _ in range(t0 + 1, t_m + 1):
        frontier = sorted({u for v in occupied for u in adj[v] if u in allowed} - occupied)
        if frontier:
            draws = rng.random(len(frontier)) < p
            occupied.update(u for u, hit in zip(frontier, draws) if hit)
        slices.append(cluster_from_ids(occupied))
    return ClusterSequence(tuple(slices))


@dataclass(frozen=True)
class LimitShapeReport:
    """Per-step distance to the limit against the decay envelope."""

    rows: tuple[tuple[int, float, float | None, bool | None], ...]  # t, delta, bound, ok
    passed: bool | None  # None in report-only mode (no envelope given)


def verify_limit_shape(
    seq: ClusterSequence, limit: Cluster, nu: Callable[[float], float] | None = None
) -> LimitShapeReport:
    """Tabulate delta(K_t, limit) against nu(t - onset); pass iff all bounded."""
    if not limit:
        raise ValueError("limit cluster must be nonempty")
    onset = seq.onset
    rows = []
    ok_all: bool | None = None if nu is None else True
    for t, k in seq.nonempty():
        d = delta(k, limit)
        if nu is None:
            rows.append((t, d, None, None))
        else:
            bound = float(nu(t - onset))
            ok = d <= bound + 1e-12
            ok_all = bool(ok_all) and ok
            rows.append((t, d, bound, ok))
    return LimitShapeReport(tuple(rows), ok_all)


@dataclass(frozen=True)
class BoundedVariationReport:
    eta: float
    xi: float
    worst_pair: tuple[int, int] | None
    worst_delta: float
    passed: bool


def verify_bounded_variation(
    seq: ClusterSequence, eta: float, xi: float
) -> BoundedVariationReport:
    """Check delta(K_t, K_s) <= eta over nonempty slices with |t-s| <= xi."""
    if not 0 <= eta <= SQRT2 + 1e-12:
        raise ValueError("eta must lie in [0, sqrt(2)]")
    items = seq.nonempty()
    worst_pair = None
    worst = -1.0
    for i in range(len(items)):
        t, kt = items[i]
        for j in range(i + 1, len(items)):
            s, ks = items[j]
            if s - t > xi:
                break
            d = delta(kt, ks)
            if d > worst:
                worst = d
                worst_pair = (t, s)
    worst = max(worst, 0.0)
    return BoundedVariationReport(eta, xi, worst_pair, worst, worst <= eta + 1e-12)


def dyadic_windows(horizon: int) -> tuple[int, ...]:
    """{1, 2, 4, ...} up to and including the full horizon (t_m + 1)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    out = []
    w = 1
    while w <= horizon:
        out.append(w)
        w *= 2
    if out[-1] != horizon:
        out.append(horizon)
    return tuple(out)


def cylinder_statistics(
    values: np.ndarray, table: ScanTable, model: NoiseModel, windows: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max standardized sum over base clusters crossed with trailing windows,
    for every field of a (B, t_m + 1, m) block.

    Window w covers times [t_m - w + 1, t_m], over the dyadic grid by
    default; a (base, w) statistic is normalized by its |base| * w pairs.
    Returns the statistics, the argmax members and their windows; ties break
    to the smallest member index, then the earliest window in grid order.
    """
    n_fields, horizon, m = values.shape
    windows = np.array(dyadic_windows(horizon) if windows is None else windows, dtype=int)
    if not windows.size or ((windows < 1) | (windows > horizon)).any():
        raise ValueError("windows must lie in 1..t_m+1")
    per_t = table.member_sums_temporal(values.reshape(n_fields * horizon, m))
    cum = np.zeros((n_fields, horizon + 1, len(table)))
    np.cumsum(per_t.reshape(n_fields, horizon, len(table)), axis=1, out=cum[:, 1:])
    n_pairs = table.sizes * windows[:, None]  # (windows, members)
    tails = cum[:, -1:] - cum[:, horizon - windows]
    stats = model.standardize(tails, n_pairs)
    flat = stats.transpose(0, 2, 1).reshape(n_fields, -1).argmax(axis=1)  # member-major
    j, col = np.divmod(flat, len(windows))
    return stats[np.arange(n_fields), col, j], j, windows[col]


def scan_spacetime_cylinders(
    field: Field, base: EpsNet | Sequence[Cluster], model: NoiseModel,
    windows: Sequence[int] | None = None,
) -> TestResult:
    """cylinder_statistics of one field, with its argmax cluster and window;
    a net is scored through the table kept with it."""
    table = base.table if isinstance(base, EpsNet) else ScanTable(base)
    stats, j, window = cylinder_statistics(field.values[None], table, model, windows)
    return TestResult(
        statistic=float(stats[0]),
        argmax=table.members[j[0]],
        argmax_index=int(j[0]),
        argmax_window=int(window[0]),
    )


def write_sequence(seq: ClusterSequence, fh, meta: dict | None = None) -> None:
    """Lines `t: id id ...` under # key=value headers; empty slices kept."""
    for key, value in (meta or {}).items():
        fh.write(f"# {key}={value}\n")
    for t, k in enumerate(seq.slices):
        fh.write(f"{t}: " + " ".join(map(str, k.idarray.tolist())) + "\n")


def save_sequence(seq: ClusterSequence, path, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        write_sequence(seq, fh, meta)


def load_sequence(path) -> tuple[ClusterSequence, dict[str, str]]:
    """A sequence file's slices and header; a bad line is a ValueError naming path:line."""
    meta, body = read_headed(path)
    slices: dict[int, Cluster] = {}
    for lineno, line in body:
        head, _, rest = line.partition(":")
        try:
            t = int(head)
            if t < 0:
                raise ValueError(f"time {t} is negative")
            if t in slices:
                raise ValueError(f"time {t} appears twice")
            slices[t] = parse_cluster(rest)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not slices:
        raise ValueError("empty sequence file")
    t_m = max(slices)
    ordered = tuple(slices.get(t, EMPTY_CLUSTER) for t in range(t_m + 1))
    return ClusterSequence(ordered), meta
