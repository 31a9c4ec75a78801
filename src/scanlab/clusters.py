"""Cluster families: balls, thick blobs, thin tubes, bands, and animals.

Every generator yields Cluster objects over a fixed NodeSet, deduplicated as
id sets, in a deterministic canonical order.  Emitted sizes are capped at
ceil(m/4) by default (clusters comparable to the whole network are the
average test's job, not the scan's); generators accept a `size_cap` override
for small toy grids where the default would swallow legitimate members.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import CapacityError
from .network import EUCLIDEAN, LATTICE, NodeSet, ball_ids
from .rng import rng_from_seed

BALLS = "balls"
THICK = "thick"
TUBES = "tubes"
BANDS = "bands"
ANIMALS = "animals"
PATH_MODES = ("nondecreasing", "self-avoiding")
ID_MAX = np.iinfo(np.int32).max  # node ids are below network.MAX_NODES = 2**26


@dataclass(frozen=True, eq=False)
class Cluster:
    """A set of node ids: one read-only, strictly increasing int32 array.

    `ids` is the same set as a tuple of Python ints, built on each access."""

    idarray: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.idarray)
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise ValueError(f"node ids must be integers in 0..{ID_MAX}")
        if np.count_nonzero(arr[1:] <= arr[:-1]):
            raise ValueError("cluster ids must be strictly increasing")
        if arr.size and arr[0] < 0:
            raise ValueError(f"node id {arr[0]} is negative")
        if arr.size and arr[-1] > ID_MAX:
            raise ValueError(f"node id {arr[-1]} is above {ID_MAX}")
        arr = arr.astype(np.int32)
        arr.flags.writeable = False
        object.__setattr__(self, "idarray", arr)

    def __reduce__(self):
        return Cluster, (self.idarray,)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(self.idarray.tolist())

    @property
    def size(self) -> int:
        return self.idarray.size

    def __len__(self) -> int:  # also the truth value: empty clusters are false
        return self.idarray.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Cluster) and np.array_equal(self.idarray, other.idarray)

    def __hash__(self) -> int:
        return hash(self.idarray.tobytes())


EMPTY_CLUSTER = Cluster(())


def cluster_from_ids(ids: Iterable[int]) -> Cluster:
    return Cluster(np.unique(np.fromiter(ids, np.int64)))


def default_size_cap(m: int) -> int:
    return max(1, -(-m // 4))


def _emit(raw: Iterator, m: int, size_cap: int | None) -> Iterator[Cluster]:
    """Shared stream postprocessing: drop empties/oversize, dedup as id sets."""
    cap = default_size_cap(m) if size_cap is None else size_cap
    seen: set[bytes] = set()
    for ids in raw:
        if 0 < len(ids) <= cap:
            cluster = Cluster(ids)
            if (key := cluster.idarray.tobytes()) not in seen:
                seen.add(key)
                yield cluster


# ---------------------------------------------------------------------------
# balls


def enumerate_balls(net: NodeSet, lam: float, size_cap: int | None = None):
    """One open ball of radius lam per node center, deduplicated."""
    if lam <= 0:
        raise ValueError("lam must be > 0")

    def raw():
        for i in range(net.m):
            yield ball_ids(net, net.coords[i], lam)

    return _emit(raw(), net.m, size_cap)


# ---------------------------------------------------------------------------
# thick blobs


@dataclass(frozen=True)
class ShapeSpec:
    """A concrete blob: ball, axis-scaled ball, or box, possibly rotated.

    `lam` is the declared outer scale: the shape is contained in the mode
    ball of radius lam around `center` and contains the mode ball of radius
    `inner_radius`.  Rotation is Euclidean-mode only.
    """

    kind: str  # "ball" | "ellipsoid" | "rect"
    center: tuple[float, ...]
    half_axes: tuple[float, ...]
    lam: float
    rotation: tuple[tuple[float, ...], ...] | None = None

    @property
    def inner_radius(self) -> float:
        return min(self.half_axes)

    def member_ids(self, net: NodeSet) -> np.ndarray:
        z = net.coords - np.asarray(self.center)
        if self.rotation is not None:
            if net.mode != EUCLIDEAN:
                raise ValueError("rotations require euclidean mode")
            z = z @ np.asarray(self.rotation)
        scaled = z / np.asarray(self.half_axes)
        if self.kind == "rect":
            inside = np.abs(scaled).max(axis=1) < 1.0
        elif net.mode == LATTICE:
            inside = np.abs(scaled).sum(axis=1) < 1.0
        else:
            inside = (scaled * scaled).sum(axis=1) < 1.0
        return np.flatnonzero(inside)


def _outer_scale(kind: str, half_axes: np.ndarray, mode: str) -> float:
    if kind != "rect":
        return float(half_axes.max())
    if mode == LATTICE:
        return float(half_axes.sum())
    return float(np.sqrt((half_axes * half_axes).sum()))


def make_shape(
    kind, center, half_axes, kappa: float, mode: str, rotation=None
) -> ShapeSpec:
    """Validate aspect and the two-ball sandwich before admitting a shape."""
    half_axes = np.asarray(half_axes, dtype=float)
    if (half_axes <= 0).any():
        raise ValueError("half axes must be positive")
    if half_axes.max() / half_axes.min() > kappa * (1 + 1e-9):
        raise ValueError(
            f"aspect {half_axes.max() / half_axes.min():.3f} exceeds kappa={kappa}"
        )
    lam = _outer_scale(kind, half_axes, mode)
    if half_axes.min() * kappa < lam * (1 - 1e-9):
        raise ValueError("shape violates the inner-ball sandwich for this kappa")
    rot = None
    if rotation is not None:
        rotation = np.asarray(rotation, dtype=float)
        rot = tuple(tuple(float(v) for v in row) for row in rotation)
    return ShapeSpec(kind, tuple(float(c) for c in center), tuple(half_axes), lam, rot)


@dataclass(frozen=True)
class ThickParams:
    """Scale range, distortion bound and shape dictionary for thick blobs."""

    lam_lo: float
    lam_hi: float
    kappa: float = 1.0
    shapes: tuple[str, ...] = ("ball", "ellipsoid", "rect")
    grid_eps: float = 0.5  # center grid pitch, in units of lam

    def __post_init__(self) -> None:
        if not 0 < self.lam_lo <= self.lam_hi < math.inf:
            raise ValueError("need 0 < lam_lo <= lam_hi < inf")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if not 0 < self.grid_eps <= 1:
            raise ValueError("grid_eps must lie in (0, 1]")
        bad = set(self.shapes) - {"ball", "ellipsoid", "rect"}
        if bad:
            raise ValueError(f"unknown shapes: {sorted(bad)}")


def _scale_grid(lo: float, hi: float) -> list[float]:
    grid = []
    lam = hi
    while lam >= lo * (1 - 1e-9):
        grid.append(lam)
        lam /= 2.0
    return grid or [hi]


def thick_templates(d: int, lam: float, kappa: float, shapes, mode: str):
    """Sandwich-valid (kind, half_axes) templates at one scale."""
    out: list[tuple[str, tuple[float, ...]]] = []
    if "ball" in shapes:
        out.append(("ball", (lam,) * d))
    if "ellipsoid" in shapes and kappa > 1:
        for j in range(d):
            axes = [lam / kappa] * d
            axes[j] = lam
            out.append(("ellipsoid", tuple(axes)))
    if "rect" in shapes:
        short = lam / kappa
        if mode == LATTICE:
            long = lam - (d - 1) * short
        else:
            long = math.sqrt(max(lam * lam - (d - 1) * short * short, 0.0))
        # infeasible when kappa is too small for a box to fit the sandwich
        if long >= short * (1 - 1e-9) and long / short <= kappa * (1 + 1e-9):
            for j in range(d):
                axes = [short] * d
                axes[j] = long
                out.append(("rect", tuple(axes)))
    return out


def _domain_extent(net: NodeSet) -> float:
    return 1.0 if net.mode == EUCLIDEAN else float(net.side - 1)


def enumerate_thick_shapes(
    net: NodeSet, params: ThickParams
) -> Iterator[tuple[ShapeSpec, np.ndarray]]:
    """(shape, raw member ids) pairs over the scale/center/template grid."""
    d = net.dim
    extent = _domain_extent(net)
    for lam in _scale_grid(params.lam_lo, params.lam_hi):
        pitch = lam * params.grid_eps
        axis = np.arange(pitch / 2, extent + 1e-9, pitch)
        if len(axis) == 0:
            axis = np.array([extent / 2])
        templates = thick_templates(d, lam, params.kappa, params.shapes, net.mode)
        for center in itertools.product(axis, repeat=d):
            for kind, half_axes in templates:
                spec = make_shape(kind, center, half_axes, params.kappa, net.mode)
                yield spec, spec.member_ids(net)


def enumerate_thick(net: NodeSet, params: ThickParams, size_cap: int | None = None):
    raw = (ids for _, ids in enumerate_thick_shapes(net, params))
    return _emit(raw, net.m, size_cap)


def sample_thick_shape(
    net: NodeSet, params: ThickParams, seed: int, rotate: bool = False
) -> ShapeSpec:
    """Random member of the shape dictionary (truth sampling).

    Scale log-uniform in [lam_lo, lam_hi], uniform template and center;
    optional random rotation (euclidean mode only) so planted truth is not
    axis-aligned like the scanned dictionary.
    """
    rng = rng_from_seed(seed)
    d = net.dim
    lam = math.exp(rng.uniform(math.log(params.lam_lo), math.log(params.lam_hi)))
    templates = thick_templates(d, lam, params.kappa, params.shapes, net.mode)
    if not templates:
        raise ValueError("no sandwich-feasible shapes for these parameters")
    kind, half_axes = templates[int(rng.integers(len(templates)))]
    extent = _domain_extent(net)
    margin = min(lam, extent / 2)  # uniform needs margin <= extent - margin
    center = rng.uniform(margin, extent - margin, size=d)
    rotation = None
    if rotate and net.mode == EUCLIDEAN:
        mat = rng.standard_normal((d, d))
        q, r = np.linalg.qr(mat)
        q *= np.sign(np.diag(r))
        rotation = q
    return make_shape(kind, center, half_axes, params.kappa, net.mode, rotation)


# ---------------------------------------------------------------------------
# thin tubes


@dataclass(frozen=True)
class ThinParams:
    """Tubes of radius r around graphs of coordinatewise-constrained curves.

    Curves are x -> (x, g_1(x), ..., g_{d-1}(x)) with each g_j piecewise
    linear between `n_control` control points on a uniform grid of [0,1];
    control values live on a grid of pitch `value_pitch` (at most r/2, so the
    enumerated family is dense at tube-radius resolution) and must satisfy
    |g(x) - g(y)| <= kappa * |x - y|**alpha at every pair of grid points.
    """

    r: float
    alpha: float = 1.0
    kappa: float = 1.0
    n_control: int = 4
    value_pitch: float | None = None
    lambda_over_r_min: float = 4.0  # not paper-derived; see package docs
    max_curves: int = 200_000

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ValueError("r must be > 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        if self.n_control < 2:
            raise ValueError("need at least two control points")
        pitch = self.pitch
        if pitch > self.r / 2 + 1e-12:
            raise ValueError("value_pitch must be <= r/2")
        if self.r * self.lambda_over_r_min > 1 + 1e-9:
            raise ValueError(
                f"r too large: requires r <= 1/{self.lambda_over_r_min:g}"
            )

    @property
    def pitch(self) -> float:
        return self.r / 2 if self.value_pitch is None else self.value_pitch


def _holder_ok(xs, values, alpha, kappa) -> bool:
    n = len(values)
    j = n - 1
    for i in range(j):
        if abs(values[j] - values[i]) > kappa * abs(xs[j] - xs[i]) ** alpha + 1e-12:
            return False
    return True


def _holder_sequences(xs, levels, alpha, kappa, cap: int):
    """Control-value sequences passing the pairwise constraint (at most cap)."""
    out: list[tuple[float, ...]] = []

    def rec(prefix: list[float]):
        if len(out) > cap:
            return
        if len(prefix) == len(xs):
            out.append(tuple(prefix))
            return
        for v in levels:
            prefix.append(v)
            if _holder_ok(xs, prefix, alpha, kappa):
                rec(prefix)
            prefix.pop()

    rec([])
    return out


def polyline_distances(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to a polyline."""
    a = vertices[:-1]
    ab = vertices[1:] - a
    denom = (ab * ab).sum(axis=1)
    denom[denom == 0] = 1.0
    ap = points[:, None, :] - a[None, :, :]
    t = np.clip((ap * ab[None, :, :]).sum(axis=2) / denom[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d2 = ((points[:, None, :] - proj) ** 2).sum(axis=2)
    return np.sqrt(d2.min(axis=1))


def curve_vertices(xs: np.ndarray, gs: tuple[tuple[float, ...], ...]) -> np.ndarray:
    cols = [xs] + [np.asarray(g) for g in gs]
    return np.column_stack(cols)


def enumerate_tube_curves(net: NodeSet, params: ThinParams):
    """(curve vertices, raw member ids) for the control-grid curve family."""
    if net.mode != EUCLIDEAN:
        raise ValueError("thin tubes are defined in euclidean mode")
    d = net.dim
    if d < 2:
        raise ValueError("tubes need d >= 2")
    xs = np.linspace(0.0, 1.0, params.n_control)
    levels = tuple(np.arange(0.0, 1.0 + 1e-9, params.pitch))
    per_coord = _holder_sequences(xs, levels, params.alpha, params.kappa,
                                  cap=params.max_curves)
    n_curves = len(per_coord) ** (d - 1)
    if n_curves > params.max_curves:
        raise CapacityError(
            f"over {params.max_curves} control-point curves (max_curves); "
            "coarsen the grids"
        )
    for gs in itertools.product(per_coord, repeat=d - 1):
        vertices = curve_vertices(xs, gs)
        dist = polyline_distances(net.coords, vertices)
        yield vertices, np.flatnonzero(dist < params.r)


def enumerate_tubes(net: NodeSet, params: ThinParams, size_cap: int | None = None):
    raw = (ids for _, ids in enumerate_tube_curves(net, params))
    return _emit(raw, net.m, size_cap)


# ---------------------------------------------------------------------------
# bands around lattice paths


@dataclass(frozen=True)
class BandParams:
    length: int  # steps; the path visits length+1 nodes
    width: int  # h
    path_mode: str = "nondecreasing"  # or "self-avoiding"

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError("width must be >= 1")
        if self.length < self.width:
            raise ValueError("need length >= width")
        if self.path_mode not in PATH_MODES:
            raise ValueError(f"unknown path mode {self.path_mode!r}")


def _l1_offsets(d: int, width: int) -> np.ndarray:
    """The integer vectors of l1 norm below `width`, shape (n, d)."""
    box = np.indices((2 * width - 1,) * d).reshape(d, -1).T - (width - 1)
    return box[np.abs(box).sum(axis=1) < width]


def _path_band_ids(net: NodeSet, path_coords: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Nodes within open l1 distance h of the path: the nodes at a path point
    plus one of the `offsets`, which are _l1_offsets(d, h)."""
    ids = net.node_at(path_coords[:, None] + offsets)
    return np.unique(ids[ids >= 0])


def _nondecreasing_path(net: NodeSet, steps) -> np.ndarray | None:
    """Origin-anchored path from a step direction sequence; None if it exits."""
    side, d = net.side, net.dim
    pos = np.zeros(d, dtype=np.int64)
    out = [pos.copy()]
    for axis in steps:
        pos[axis] += 1
        if pos[axis] > side - 1:
            return None
        out.append(pos.copy())
    return np.array(out)


def enumerate_bands(
    net: NodeSet,
    params: BandParams,
    budget: int,
    seed: int,
    size_cap: int | None = None,
):
    """Bands B(path, h) over nondecreasing or self-avoiding lattice paths.

    Nondecreasing mode with d=2 and length <= 20 is exhausted (2**length step
    sequences); anything else draws `budget` distinct paths.  Sampling is
    uniform over step sequences, not over bands.
    """
    if net.mode != LATTICE:
        raise ValueError("bands are defined on lattices")
    if params.length > net.side:
        raise ValueError("need side >= length (m**(1/d) >= ell)")
    d = net.dim
    offsets = _l1_offsets(d, params.width)

    def raw():
        if params.path_mode == "nondecreasing" and d == 2 and params.length <= 20:
            for steps in itertools.product(range(d), repeat=params.length):
                path = _nondecreasing_path(net, steps)
                if path is not None:
                    yield _path_band_ids(net, path, offsets)
            return
        rng = rng_from_seed(seed)
        seen_paths: set[tuple] = set()
        attempts = 0
        max_attempts = max(50 * budget, 1000)
        while len(seen_paths) < budget and attempts < max_attempts:
            attempts += 1
            if params.path_mode == "nondecreasing":
                steps = tuple(rng.integers(0, d, size=params.length).tolist())
                if steps in seen_paths:
                    continue
                path = _nondecreasing_path(net, steps)
                if path is None:
                    continue
                seen_paths.add(steps)
                yield _path_band_ids(net, path, offsets)
            else:
                path_ids = _sample_self_avoiding(net, params.length, rng)
                if path_ids is None or path_ids in seen_paths:
                    continue
                seen_paths.add(path_ids)
                yield _path_band_ids(net, net.coords[list(path_ids)], offsets)

    return _emit(raw(), net.m, size_cap)


def _sample_self_avoiding(net: NodeSet, length: int, rng) -> tuple[int, ...] | None:
    adj = net.neighbors
    current = int(rng.integers(0, net.m))
    visited = [current]
    taken = {current}
    for _ in range(length):
        options = [u for u in adj[current] if u not in taken]
        if not options:
            return None
        current = options[int(rng.integers(len(options)))]
        visited.append(current)
        taken.add(current)
    return tuple(visited)


def sample_band(net: NodeSet, params: BandParams, seed: int) -> Cluster:
    """One random band from the same distribution enumerate_bands samples."""
    stream = enumerate_bands(net, params, budget=1, seed=seed, size_cap=net.m)
    for cluster in stream:
        return cluster
    raise ValueError("failed to sample a band; grid too small for the path length")


# ---------------------------------------------------------------------------
# animals (connected node sets of the lattice graph)

ANIMAL_KMAX_GUARD = 12


@dataclass(frozen=True)
class AnimalParams:
    k_max: int


def enumerate_animals(net: NodeSet, k_max: int, size_cap: int | None = None):
    """All connected node sets of size 1..k_max, each exactly once.

    Canonical order: grown from their smallest id by ordered extension, which
    makes the stream deterministic and duplicate-free by construction.
    """
    if net.mode != LATTICE:
        raise ValueError("animals are defined on lattices")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > ANIMAL_KMAX_GUARD:
        raise CapacityError(
            f"k_max={k_max} above the enumeration guard ({ANIMAL_KMAX_GUARD}); "
            "counts grow exponentially - sample random animals instead "
            "(sample_animal)"
        )
    adj = net.neighbors

    def extensions(root, current, pool, visited):
        yield tuple(sorted(current))
        if len(current) == k_max:
            return
        while pool:
            v = pool[0]
            pool = pool[1:]
            new = [u for u in adj[v] if u > root and u not in visited]
            yield from extensions(
                root, current + [v], pool + new, visited | set(new)
            )

    def raw():
        for root in range(net.m):
            init = [u for u in adj[root] if u > root]
            yield from extensions(root, [root], init, {root} | set(init))

    return _emit(raw(), net.m, size_cap)


def sample_animal(net: NodeSet, k: int, seed: int) -> Cluster:
    """Random connected set of size k grown by uniform boundary additions."""
    if net.mode != LATTICE:
        raise ValueError("animals are defined on lattices")
    if not 1 <= k <= net.m:
        raise ValueError("need 1 <= k <= m")
    rng = rng_from_seed(seed)
    adj = net.neighbors
    start = int(rng.integers(0, net.m))
    current = {start}
    while len(current) < k:
        boundary = sorted({u for v in current for u in adj[v]} - current)
        if not boundary:
            raise ValueError(f"the component of node {start} holds fewer than {k} nodes")
        current.add(boundary[int(rng.integers(len(boundary)))])
    return cluster_from_ids(current)


# ---------------------------------------------------------------------------
# cluster list files


def read_headed(path) -> tuple[dict[str, str], list[tuple[int, str]]]:
    """A cluster or sequence file's `# key=value` header, and its other
    nonblank lines with their line numbers."""
    meta: dict[str, str] = {}
    body: list[tuple[int, str]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                if eq:
                    meta[key.strip()] = value.strip()
                continue
            body.append((lineno, line))
    return meta, body


def write_clusters(clusters: Iterable[Cluster], fh, meta: Mapping | None = None) -> None:
    """One cluster per line (space-separated ids) under # key=value headers."""
    for key, value in (meta or {}).items():
        fh.write(f"# {key}={value}\n")
    for cluster in clusters:
        fh.write(" ".join(map(str, cluster.idarray.tolist())) + "\n")


def save_clusters(clusters: Iterable[Cluster], path, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        write_clusters(clusters, fh, meta)


def parse_cluster(text: str) -> Cluster:
    """The cluster of a line of space-separated ids."""
    try:
        return Cluster(np.array(text.split(), dtype=np.int64))
    except OverflowError:
        raise ValueError(f"a node id is above {ID_MAX}") from None


def load_clusters(path) -> tuple[list[Cluster], dict[str, str]]:
    """A cluster file's clusters and header; a bad line is a ValueError naming path:line."""
    meta, body = read_headed(path)
    clusters = []
    for lineno, line in body:
        try:
            clusters.append(parse_cluster(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return clusters, meta


# family -> (its parameter keys, its parameter record built from their
# values).  The keys are also the `scan.*` config keys; `size_cap` applies
# to every family.
FAMILIES = {
    BALLS: (("lambda",), lambda v: v["lambda"]),
    THICK: (("lambda_lo", "lambda_hi", "kappa", "grid_eps"),
            lambda v: ThickParams(v["lambda_lo"], v["lambda_hi"], v["kappa"],
                                  grid_eps=v["grid_eps"])),
    TUBES: (("r", "alpha", "kappa", "n_control", "value_pitch"),
            lambda v: ThinParams(v["r"], v["alpha"], v["kappa"], v["n_control"],
                                 v.get("value_pitch"))),
    BANDS: (("ell", "h", "path_mode", "budget"),
            lambda v: BandParams(v["ell"], v["h"], v["path_mode"])),
    ANIMALS: (("kmax",), lambda v: AnimalParams(v["kmax"])),
}


@dataclass(frozen=True)
class ClusterClass:
    """A cluster family: its tag, parameter record, path budget and size cap.

    params: a radius for balls, else the family's params dataclass; `budget`
    is the number of paths sampled for bands.  This is the one dispatch from
    a family tag to its enumerator, which is looked up when `stream` runs.
    """

    family: str
    params: object
    budget: int = 2000
    size_cap: int | None = None

    @classmethod
    def of(cls, family: str, values: Mapping[str, object]) -> "ClusterClass":
        """The class from parameter values keyed as in FAMILIES (plus size_cap)."""
        if family not in FAMILIES:
            raise ValueError(f"unknown cluster family {family!r}")
        params = FAMILIES[family][1](values)
        return cls(family, params, values.get("budget", 2000), values.get("size_cap"))

    def stream(self, net: NodeSet, seed: int = 0) -> Iterator[Cluster]:
        """The family's clusters on `net`; `seed` keys the sampled band paths."""
        cap = self.size_cap
        if self.family == BALLS:
            return enumerate_balls(net, float(self.params), size_cap=cap)
        if self.family == THICK:
            return enumerate_thick(net, self.params, size_cap=cap)
        if self.family == TUBES:
            return enumerate_tubes(net, self.params, size_cap=cap)
        if self.family == BANDS:
            return enumerate_bands(net, self.params, self.budget, seed, size_cap=cap)
        if self.family == ANIMALS:
            return enumerate_animals(net, self.params.k_max, size_cap=cap)
        raise ValueError(f"unknown cluster family {self.family!r}")


def connectivity_check(net: NodeSet, cluster: Cluster) -> bool:
    """True iff the cluster is connected in the lattice graph."""
    if not cluster:
        return False
    adj = net.neighbors
    ids = set(cluster.idarray.tolist())
    stack = [int(cluster.idarray[0])]
    seen = set(stack)
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u in ids and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(ids)
