"""Node sets: lattices and uniform clouds, balls, and the even-spread check.

Two geometries are supported.  Lattice mode places nodes on integer points
of {0..side-1}^d, in any id order and with holes allowed, and measures
distance in l1 (the shortest-path metric of the full grid graph).  Euclidean
mode places nodes in [0,1]^d and measures distance in l2.  Balls are open
everywhere: a node at distance exactly r is excluded.  A ball or blob query
tests only the slab of nodes that `NodeSet.near` finds by binary search.
"""

from __future__ import annotations

import bisect
import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError
from .rng import rng_from_seed

if TYPE_CHECKING:
    from .clusters import Cluster

LATTICE = "lattice-l1"
EUCLIDEAN = "euclidean-l2"

# Hard guard on node count; everything here is desk-scale.
MAX_NODES = 1 << 26


def _check_lattice_size(d: int, side: int) -> None:
    if side**d > MAX_NODES:
        raise CapacityError(f"lattice of {side**d} points exceeds the {MAX_NODES} node guard")


@dataclass(frozen=True)
class NodeSet:
    """An immutable set of m nodes with ids 0..m-1 and coordinates in R^d.

    A lattice is indexed by its coordinates: `grid` holds the node id at
    each point of {0..side-1}^d and `neighbors` the graph it spans, so ids
    may come in any order and points may be missing.  `near` reads an index
    built on first use: ids in stable first-coordinate order, coordinates as (d, m) rows.
    """

    mode: str
    dim: int
    coords: np.ndarray  # (m, dim), read-only
    side: int | None = None  # lattice mode only

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords)
        if coords.ndim != 2 or coords.shape[1] != self.dim:
            raise ValueError(f"coords must be (m, {self.dim})")
        if self.mode not in (LATTICE, EUCLIDEAN):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not np.isfinite(coords).all():
            raise ValueError("node coordinates must be finite")
        if self.mode == LATTICE:
            if self.side is None or self.side < 1:
                raise ValueError("lattice mode requires a positive side")
            _check_lattice_size(self.dim, self.side)
            if coords.dtype.kind not in "iu" and not np.array_equal(coords, np.floor(coords)):
                raise ValueError("lattice coordinates must be integers")
            if coords.min() < 0 or coords.max() > self.side - 1:
                raise ValueError("lattice coordinates out of range")
            coords = coords.astype(np.int64, copy=False)
            points = np.ravel_multi_index(tuple(coords.T), (self.side,) * self.dim)
            repeated = np.bincount(points).max() > 1
        else:
            if coords.size and (coords.min() < 0.0 or coords.max() > 1.0):
                raise ValueError("euclidean coordinates must lie in [0,1]^d")
            repeated = len(np.unique(coords, axis=0)) != len(coords)
        if repeated:
            raise ValueError("node coordinates must be unique")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)

    @property
    def m(self) -> int:
        return len(self.coords)

    @cached_property
    def grid(self) -> np.ndarray:
        """Lattice mode: the node id at each point of {0..side-1}^d, -1 at a hole."""
        if self.mode != LATTICE:
            raise ValueError("the node grid is defined for lattice mode")
        grid = np.full((self.side,) * self.dim, -1, dtype=np.int64)
        grid[tuple(self.coords.T)] = np.arange(self.m)
        grid.flags.writeable = False
        return grid

    def node_at(self, points) -> np.ndarray:
        """Node ids at the integer points (..., d), -1 where no node sits."""
        grid, points = self.grid, np.asarray(points)
        inside = ((points >= 0) & (points < self.side)).all(axis=-1)
        ids = np.full(points.shape[:-1], -1, dtype=np.int64)
        ids[inside] = grid[tuple(points[inside].T)]
        return ids

    @cached_property
    def neighbors(self) -> list[list[int]]:
        """Lattice mode: the ids at l1 distance 1 of each node, increasing."""
        unit = np.eye(self.dim, dtype=np.int64)
        near = np.sort(self.node_at(self.coords[:, None] + np.vstack([unit, -unit])), axis=1)
        holes = (near < 0).sum(axis=1)  # the -1 padding sorts first
        return [row[k:] for row, k in zip(near.tolist(), holes.tolist())]

    @cached_property
    def _by_first(self) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.coords[:, 0], kind="stable")
        return order, np.ascontiguousarray(self.coords[order].T, dtype=float)

    def near(self, center, reach: float) -> tuple[np.ndarray, np.ndarray]:
        """Ids and (d, n) coordinates of the slab |x_0 - center_0| <= reach, widened by a
        relative 1e-9 so that it holds every node a ball of radius `reach` (or a blob of
        outer scale `reach`) around `center` can hold under rounding."""
        center = np.asarray(center, dtype=float)
        if center.shape != (self.dim,) or not (np.isfinite(center).all() and np.isfinite(reach)):
            raise ValueError(f"need a finite center of shape ({self.dim},) and a finite reach, "
                             f"got {center.tolist()} and {reach!r}")
        order, rows = self._by_first
        first, pad = rows[0], reach + 1e-9 * (abs(reach) + abs(center[0]))
        lo, hi = first.searchsorted(center[0] - pad), first.searchsorted(center[0] + pad, "right")
        return order[lo:hi], rows[:, lo:hi]


def make_lattice(d: int, side: int) -> NodeSet:
    """Regular grid {0..side-1}^d with row-major node ids.

    Node id of coordinate (c_0,...,c_{d-1}) is sum(c_i * side**(d-1-i)).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if side < 2:
        raise ValueError("side must be >= 2")
    _check_lattice_size(d, side)
    coords = np.indices((side,) * d).reshape(d, -1).T.astype(np.int64)
    return NodeSet(mode=LATTICE, dim=d, coords=coords, side=side)


def make_uniform_cloud(d: int, m: int, seed: int) -> NodeSet:
    """m i.i.d. uniform points in [0,1]^d; deterministic given seed."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > MAX_NODES:
        raise CapacityError(f"cloud of {m} nodes exceeds the {MAX_NODES} node guard")
    coords = rng_from_seed(seed).random((m, d))
    return NodeSet(mode=EUCLIDEAN, dim=d, coords=coords)


def rescale_lattice(net: NodeSet) -> NodeSet:
    """The lattice mapped to cell centers (x+1/2)/side in [0,1]^d, l2 metric.

    Euclidean-geometry experiments on grid-shaped node sets run on this view;
    node ids are unchanged.
    """
    if net.mode != LATTICE:
        raise ValueError("rescale_lattice expects a lattice NodeSet")
    coords = (net.coords.astype(float) + 0.5) / float(net.side)
    return NodeSet(mode=EUCLIDEAN, dim=net.dim, coords=coords)


def ball_ids(net: NodeSet, center, r: float, closed: bool = False) -> np.ndarray:
    """Sorted ids of nodes strictly within distance r > 0 of center (<= r >= 0 if `closed`)."""
    if r < 0 or (r == 0 and not closed):
        raise ValueError(f"r must be {'>=' if closed else '>'} 0")
    ids, rows = net.near(center, r)
    diff = rows - np.asarray(center, dtype=float)[:, None]
    dist = np.abs(diff).sum(axis=0) if net.mode == LATTICE else np.sqrt((diff * diff).sum(axis=0))
    return np.sort(ids[dist <= r if closed else dist < r])


def closed_ball_ids(net: NodeSet, center, r: float) -> np.ndarray:
    """Sorted ids of nodes within distance <= r of center (r >= 0)."""
    return ball_ids(net, center, r, closed=True)


def ball_nodes(net: NodeSet, center, r: float) -> "Cluster":
    """The open ball around `center` as a Cluster (possibly empty)."""
    from .clusters import Cluster  # import here: clusters builds on network

    return Cluster(ball_ids(net, center, r))


@dataclass(frozen=True)
class SpreadProbe:
    node: int
    r: float
    count: int
    lo: float
    hi: float
    ok: bool


@dataclass(frozen=True)
class SpreadCertificate:
    """Record of a sampled check of the even-spread condition.

    pass_ requires C**-1 * m * r**d <= |B(x,r) ∩ V| <= C * m * r**d for every
    probed (x, r).  Probes, constant and seed are kept for reproducibility;
    the check is sampled, not exhaustive.
    """

    constant: float
    r_star: float
    probes: tuple[SpreadProbe, ...] = field(repr=False)
    pass_: bool

    @property
    def first_violation(self) -> SpreadProbe | None:
        for p in self.probes:
            if not p.ok:
                return p
        return None


def check_spread(
    net: NodeSet, constant: float, r_star: float, probes: int, seed: int
) -> SpreadCertificate:
    """Probe the even-spread condition at random (node, radius) pairs.

    Centers are nodes chosen uniformly; radii are log-uniform in [r_star, 1].
    Failure is reported in the certificate, never raised.
    """
    if constant < 1:
        raise ValueError("constant must be >= 1")
    if not 0 < r_star <= 1:
        raise ValueError("r_star must lie in (0, 1]")
    if probes < 1:
        raise ValueError("probes must be >= 1")
    rng = rng_from_seed(seed)
    nodes = rng.integers(0, net.m, size=probes)
    radii = np.exp(rng.uniform(np.log(r_star), 0.0, size=probes))
    records = []
    ok_all = True
    for node, r in zip(nodes, radii):
        count = int(len(ball_ids(net, net.coords[node], float(r))))
        lo = net.m * float(r) ** net.dim / constant
        hi = constant * net.m * float(r) ** net.dim
        ok = lo <= count <= hi
        ok_all = ok_all and ok
        records.append(SpreadProbe(int(node), float(r), count, lo, hi, ok))
    return SpreadCertificate(constant, r_star, tuple(records), ok_all)


def int_lines(indptr, values, sep: str = " ") -> str:
    """Lines of non-negative integers, values[indptr[i]:indptr[i + 1]] joined by the
    one character `sep`, as "%d" writes them.  The numbers are the rows of a byte
    table, right-aligned, and a pass sets one digit of each; the text is the table
    less its leading zeros.  A row with no digits opens each line: an empty line's newline."""
    indptr = np.asarray(indptr, np.int64)
    count = np.diff(indptr)
    head = indptr[:-1] + np.arange(len(count))
    cell = np.zeros(len(count) + indptr[-1], np.int64)
    value = np.ones(cell.size, dtype=bool)
    value[head] = False
    cell[value] = values
    top = int(cell.max(initial=0))
    width, cell = len(str(top)), cell.astype(np.min_scalar_type(top))
    text = np.full((cell.size, width + 1), ord(sep), np.uint8)
    keep = np.empty(text.shape, dtype=bool)
    for j in range(width - 1, -1, -1):
        keep[:, j] = cell > 0
        q = cell // 10
        text[:, j] = cell - 10 * q + ord("0")
        cell = q
    keep[:, width - 1:] = value[:, None]  # a value's units digit, also 0, and its separator
    keep[head, width] = count == 0
    text[head + count, width] = ord("\n")  # after a line's last value, or alone
    return text[keep].tobytes().decode()


def write_nodeset(net: NodeSet, fh) -> None:
    """CSV with a one-line JSON sidecar comment: # {mode, d, m[, side]}."""
    meta = {"mode": net.mode, "d": net.dim, "m": net.m}
    if net.side is not None:
        meta["side"] = net.side
    fh.write(f"# {json.dumps(meta)}\nid,{','.join(f'x{i}' for i in range(net.dim))}\n")
    if net.mode == LATTICE:
        rows = np.column_stack([np.arange(net.m), net.coords])
        fh.write(int_lines(np.arange(net.m + 1) * (net.dim + 1), rows.ravel(), ","))
        return
    rows = zip(map(str, range(net.m)), *(map(repr, c) for c in net.coords.T.astype(float).tolist()))
    fh.write("".join(f"{','.join(row)}\n" for row in rows))


def _positive_int(meta: dict, key: str) -> int:
    """meta[key] as an int; a ValueError names the key unless it is an integer >= 1."""
    value = meta[key]
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole or value < 1:
        raise ValueError(f"node set file: {key!r} must be an integer >= 1, got {value!r}")
    return int(value)


def csv_rows(path, skiprows: int, dtype, columns: str) -> np.ndarray:
    """np.loadtxt's rows of the CSV at `path` below its first `skiprows` lines,
    read from the path in C chunks.  A line it refuses is a ValueError naming
    path:line and `columns`, the columns expected; only then are the lines read
    in Python, and that line found by bisection over their prefixes.  A body
    with no rows is read as no rows, without np.loadtxt's warning: the callers
    refuse it by name."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=1, dtype=dtype)
    except ValueError as exc:
        error = exc
    with open(path) as fh:
        lines = fh.readlines()[skiprows:]

    def refused(k: int) -> bool:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty prefix holds no data
                np.loadtxt(lines[:k], delimiter=",", ndmin=1, dtype=dtype)
        except ValueError:
            return True
        return False

    k = bisect.bisect_left(range(len(lines) + 1), True, key=refused)
    if k > len(lines):
        raise error
    bad = lines[k - 1].rstrip("\n")
    raise ValueError(f"{path}:{skiprows + k}: expected {columns}, got {bad!r}")


def load_nodeset(path) -> NodeSet:
    """Read a node set file; each row is placed by its `id` column.

    The metadata line is checked here; np.loadtxt then reads the rows below
    the column header from the path, in C chunks.  The metadata line needs
    `mode` and `d`, and `side` in lattice mode; a missing key, an unknown
    mode, or a `d`, `side` or `m` that is not an integer >= 1 is a ValueError
    that names the key.  The ids must be 0..m-1, each exactly once (m from
    the metadata line); an id out of range, repeated or missing is a
    ValueError that names it.
    """
    with open(path) as fh:
        header = fh.readline().strip()
    if not header.startswith("#"):
        raise ValueError("node set file must start with a # metadata line")
    meta = json.loads(header[1:].strip())
    need = ("mode", "d", "side") if meta.get("mode") == LATTICE else ("mode", "d")
    for key in need:
        if key not in meta:
            raise ValueError(f"node set file: the metadata line lacks {key!r}")
    if meta["mode"] not in (LATTICE, EUCLIDEAN):
        raise ValueError(f"node set file: unknown 'mode' {meta['mode']!r}; "
                         f"known: {LATTICE!r}, {EUCLIDEAN!r}")
    d = _positive_int(meta, "d")
    side = _positive_int(meta, "side") if meta["mode"] == LATTICE else None
    coord = np.int64 if meta["mode"] == LATTICE else float
    kinds = "integers" if coord is np.int64 else "an integer, then numbers"
    rows = csv_rows(path, 2, [("id", np.int64), ("x", coord, (d,))],  # below the column header
                    f"the {d + 1} columns id,{','.join(f'x{i}' for i in range(d))} ({kinds})")
    ids = rows["id"]
    m = _positive_int(meta, "m") if "m" in meta else len(ids)
    outside = ids[(ids < 0) | (ids >= m)]
    if outside.size:
        raise ValueError(f"node set file: id {outside[0]} is out of range 0..{m - 1}")
    counts = np.bincount(ids, minlength=m)
    for bad, problem in ((counts > 1, "appears more than once"), (counts == 0, "is missing")):
        if bad.any():
            raise ValueError(f"node set file: id {np.argmax(bad)} {problem}")
    return NodeSet(mode=meta["mode"], dim=d, coords=rows["x"][np.argsort(ids)], side=side)
