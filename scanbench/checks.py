"""Independent recomputations the workloads' outputs are checked against.

Nothing here calls scanlab: statistics are plain numpy sums over member ids
read from the program's own files or objects, thresholds come from the
formulas the package documents, and Monte Carlo estimates are held to their
sampling law.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.stats import betabinom

# Two-sided tail mass of the type-I acceptance region; small enough that a
# correct program fails it on about one seed in half a million.
TYPE1_TAIL = 1e-6


def type1_in_law(type1: float, n_null: int, b: int, alpha: float) -> list[str]:
    """Type-I rate within the central region of its exact law.

    The threshold is the ceil((1-alpha)(b+1))-th of b null statistics, so a
    fresh null statistic exceeds it with probability Beta(b+1-rank, rank);
    the count over n_null fresh nulls is then beta-binomial.  A plain
    binomial band around alpha leaves out the threshold's own sampling error
    and fails a correct program on a few seeds in a hundred.
    """
    rank = math.ceil((1 - alpha) * (b + 1))
    law = betabinom(n_null, b + 1 - rank, rank)
    count = round(type1 * n_null)
    lo, hi = law.ppf(TYPE1_TAIL / 2), law.isf(TYPE1_TAIL / 2)
    if abs(count - type1 * n_null) > 1e-6 or not lo <= count <= hi:
        return [f"type-I {type1!r} over {n_null} nulls is outside [{lo / n_null}, "
                f"{hi / n_null}], the central region of its law (b={b}, alpha={alpha})"]
    return []


def risk_at_least(row, bound: float, z: float) -> list[str]:
    if row.risk < bound - z * row.se:
        return [f"risk {row.risk!r} at lam={row.lam} is below {bound} - {z}se"]
    return []


def risk_at_most(row, bound: float, z: float) -> list[str]:
    if row.risk > bound + z * row.se:
        return [f"risk {row.risk!r} at lam={row.lam} is above {bound} + {z}se"]
    return []


def check_packing(idx: dict, epsilon: float, m: int, samples: int, seed: int) -> list[str]:
    """Sampled members of each net lie more than epsilon from every other member."""
    bad = []
    rng = np.random.default_rng(seed)
    for scale, members in idx.items():
        sizes = np.array([len(ids) for ids in members], dtype=float)
        for k in rng.choice(len(members), size=min(samples, len(members)), replace=False):
            mask = np.zeros(m, dtype=bool)
            mask[members[k]] = True
            inter = np.array([mask[ids].sum() for ids in members], dtype=float)
            d = np.sqrt(np.maximum(2.0 * (1.0 - inter / np.sqrt(sizes[k] * sizes)), 0.0))
            d[k] = np.inf
            if d.min() <= epsilon:
                bad.append(f"scale {scale}: members {k} and {int(d.argmin())} are "
                           f"{d.min():.6f} <= epsilon {epsilon} apart")
    return bad


def _log_dagger(x: float) -> float:
    return math.log(x) if x >= math.e else 1.0


def multiscale_decision(values: np.ndarray, idx: dict, m: int, d: int) -> dict:
    """The uncalibrated multiscale test, from member ids and plain sums.

    Per-scale threshold sqrt(2 logdag(m 2^(-s d))) + sqrt(2 log(s^2 + e));
    the statistic is the largest excess of a scale's best standardized sum
    over its threshold, scales taken in increasing order, first maximum wins.
    """
    best, argmax, thresholds = -math.inf, None, {}
    for scale in sorted(s for s, members in idx.items() if members):
        tau = math.sqrt(2.0 * _log_dagger(m * 2.0 ** (-scale * d))) + math.sqrt(
            2.0 * math.log(scale * scale + math.e)
        )
        thresholds[scale] = tau
        members = idx[scale]
        scores = np.array([values[ids].sum() / math.sqrt(len(ids)) for ids in members])
        j = int(np.argmax(scores))
        if scores[j] - tau > best:
            best, argmax = float(scores[j] - tau), tuple(int(v) for v in members[j])
    return {"statistic": best, "argmax": argmax, "scale_thresholds": thresholds}


def dyadic_windows(horizon: int) -> list[int]:
    """1, 2, 4, ... up to the horizon, and the horizon itself."""
    out = [1 << k for k in range(horizon.bit_length()) if 1 << k <= horizon]
    return out if out[-1] == horizon else out + [horizon]


def cylinder_statistic(values: np.ndarray, members: list, windows: list[int]) -> tuple[float, int]:
    """Max over members x trailing windows of sum / sqrt(|K| w), and its |K|."""
    best, size = -math.inf, 0
    for ids in members:
        per_t = values[:, ids].sum(axis=1)
        for w in windows:
            s = per_t[-w:].sum() / math.sqrt(len(ids) * w)
            if s > best:
                best, size = s, len(ids)
    return float(best), size


def parse_cluster_file(path, timed: bool = False):
    """Cluster or sequence file: a list of id arrays, or {t: id array}."""
    out = {} if timed else []
    for line in Path(path).read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if timed:
            head, _, rest = line.partition(":")
            out[int(head)] = np.array(rest.split(), dtype=np.int64)
        else:
            out.append(np.array(line.split(), dtype=np.int64))
    return out


def parse_field_file(path, m: int) -> np.ndarray:
    """`node,t,value` CSV into a (T+1, m) array; every pair exactly once."""
    text = Path(path).read_text()
    header, _, body = text.partition("\n")
    if header != "node,t,value":
        raise ValueError(f"{path}: unexpected header {header!r}")
    rows = np.array(body.replace(",", " ").split(), dtype=float).reshape(-1, 3)
    nodes, times = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
    out = np.full((times.max() + 1, m), np.nan)
    out[times, nodes] = rows[:, 2]
    if np.isnan(out).any() or len(rows) != out.size:
        raise ValueError(f"{path}: not one value per (node, t)")
    return out
