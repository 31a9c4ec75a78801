"""Spatio-temporal cluster sequences and the space-time cylinder scan.

A ClusterSequence holds one (possibly empty) cluster per time step.  The
generators cover the standing examples: constant-base cylinders, linearly
growing cones, tubes around coordinatewise-constrained trajectories, and the
Richardson lattice growth model.  Two verifiers check the structural
assumptions the cylinder scan relies on: convergence to a limit shape and
bounded variation in the cluster metric.  The scan itself is detect.eps_scan,
the one table scan at the field's horizon, named scan_spacetime_cylinders here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clusters import EMPTY_CLUSTER, Cluster, _boundary, _padded_grid, holder_violation
from .detect import eps_scan as scan_spacetime_cylinders  # the space-time cylinder scan
from .metric import SQRT2, delta
from .network import LATTICE, NodeSet, ball_ids, ball_nodes, int_lines
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
        return next((t for t, k in enumerate(self.slices) if k), None)

    @property
    def t_end(self) -> int | None:
        """t_K+: last nonempty slice."""
        return next((t for t in range(self.t_m, -1, -1) if self.slices[t]), None)

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
    return ClusterSequence(tuple(base if t >= t0 else EMPTY_CLUSTER for t in range(t_m + 1)))


def make_cone(
    net: NodeSet, x0, speed: float, t0: int, t_m: int
) -> ClusterSequence:
    """Closed-ball slices of radius speed*(t - t0); nested and nondecreasing."""
    if speed <= 0:
        raise ValueError("speed must be > 0")
    if not 0 <= t0 <= t_m:
        raise ValueError("need 0 <= t0 <= t_m")
    return ClusterSequence(tuple(Cluster(ball_ids(net, x0, speed * (t - t0), closed=True))
                                 if t >= t0 else EMPTY_CLUSTER for t in range(t_m + 1)))


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
        for b in range(1, len(xs)):
            if (a := holder_violation(xs, g[: b + 1], alpha, kappa)) is not None:
                raise ValueError(
                    f"trajectory coordinate {j} violates the smoothness "
                    f"bound between grid points {a} and {b}: "
                    f"|{g[b]:.4g} - {g[a]:.4g}| > {kappa * abs(xs[b] - xs[a]) ** alpha:.4g}"
                )
    slices = [EMPTY_CLUSTER] * (t_m + 1)
    for t in range(t_start, t_end + 1):
        center = [float(np.interp(t / xi, xs, controls[:, j])) for j in range(net.dim)]
        slices[t] = ball_nodes(net, center, r)
    return ClusterSequence(tuple(slices))


def richardson_grow(
    net: NodeSet,
    x0: int,
    p: float,
    t0: int,
    t_m: int,
    seed: int,
    radius: float | None = None,
) -> ClusterSequence:
    """Richardson growth: each vacant neighbor is occupied w.p. p per step.

    Starts from node x0 at time t0; occupied sets are nondecreasing, and at
    p=1 the occupied set after s steps is exactly the ball of graph radius s
    around x0 (the closed l1 ball, on a lattice without holes).  `radius`
    restricts growth to the closed l1 ball of that radius around x0 (a capped
    limit shape); warmup before the observation window is done by growing
    over a longer horizon and calling .window().  Each step draws one uniform
    of the seed's stream per frontier node (the vacant neighbors, within
    `radius`), in increasing id order, and occupies those below p; a step
    with an empty frontier draws nothing.
    """
    if net.mode != LATTICE:
        raise ValueError("richardson growth runs on lattices")
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    if not 0 <= t0 <= t_m:
        raise ValueError("need 0 <= t0 <= t_m")
    if not 0 <= x0 < net.m:
        raise ValueError("x0 must be a node id")
    closed = np.full(net.m, radius is not None)  # occupied, or outside the ball
    if radius is not None:
        closed[ball_ids(net, net.coords[x0], radius, closed=True)] = False
    rng, padded, occupied = rng_from_seed(seed), _padded_grid(net, 1), np.array([x0])
    closed[x0] = True
    live = occupied  # the occupied nodes that may have an open neighbour
    slices = [EMPTY_CLUSTER] * t0 + [Cluster(occupied)]
    for _ in range(t0 + 1, t_m + 1):
        frontier, open_ = _boundary(net, padded, live, closed)
        live = live[open_]
        if frontier.size:
            hit = frontier[rng.random(frontier.size) < p]
            closed[hit] = True
            occupied, live = np.sort(np.concatenate([occupied, hit])), np.append(live, hit)
        slices.append(Cluster(occupied))
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


def write_sequence(seq: ClusterSequence, fh, meta: dict | None = None) -> None:
    """Lines `t: id id ...` under # key=value headers; empty slices kept."""
    text = int_lines(np.cumsum([0] + [k.size for k in seq.slices]),
                     np.concatenate([k.idarray for k in seq.slices]))
    fh.write("".join(f"# {key}={value}\n" for key, value in (meta or {}).items())
             + "".join(f"{t}: {line}" for t, line in enumerate(text.splitlines(True))))
