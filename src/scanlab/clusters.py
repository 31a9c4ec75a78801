"""Cluster families: balls, thick blobs, thin tubes, bands, and animals.

Every generator returns a ClusterStream over a fixed NodeSet: checked CSR
blocks (indptr, ids), deduplicated as id sets, in a deterministic canonical
order.  Iterating a stream gives each row as a read-only Cluster view, made
on access; build_net and write_clusters read the blocks.  Emitted sizes are
capped at ceil(m/4) by default (clusters comparable to the whole network are
the average test's job, not the scan's); generators accept a `size_cap`
override (at least 1) for small toy grids where the default would swallow
legitimate members.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .errors import CapacityError
from .network import EUCLIDEAN, LATTICE, NodeSet, _check_lattice_size, ball_ids, int_lines
from .rng import derive_seed, rng_from_seed

BALLS = "balls"
THICK = "thick"
TUBES = "tubes"
BANDS = "bands"
ANIMALS = "animals"
PATH_MODES = ("nondecreasing", "self-avoiding")
BAND_CHUNK = 256  # paths walked or drawn in one round at most, whose bands one gather finds
LINE_CELLS = 1 << 15  # (center, node) pairs one pass of _line_shapes tests
# clusters given one at a time that one CSR block holds, and of a stream that
# metric.build_net and verify_cover take at once: 512 nets balls, thick balls,
# clouds and bands in 0.5-0.9x the time of 256; 1024 is slower at epsilon = 1
# (2-core x86, numpy 2.4, scipy 1.17)
BLOCK = 512
ID_MAX = np.iinfo(np.int32).max  # node ids are below network.MAX_NODES = 2**26


def _problem(indptr: np.ndarray | None, ids: np.ndarray) -> tuple[int, str] | None:
    """The first row of a CSR incidence (rows nonempty; None: one row, Cluster's
    ids) that Cluster would refuse, and its words for it; None if none."""
    down = ids[1:] <= ids[:-1]
    row, lo, hi = 0, 0, ids.size  # one row (indptr None): no pairs across rows, no row search
    if indptr is not None:
        down[indptr[1:-1] - 1] = False  # the pairs across rows
        bad = (ids < 0) | (ids > ID_MAX)  # in a row whose ids increase, also its first or last
        bad[1:] |= down
        if not np.count_nonzero(bad):
            return None
        row = int(np.searchsorted(indptr, np.argmax(bad), "right")) - 1
        lo, hi = indptr[row], indptr[row + 1]
    elif not ids.size or not (down.any() or ids[0] < 0 or ids[-1] > ID_MAX):
        return None
    if np.count_nonzero(down[lo : hi - 1]):
        return row, "cluster ids must be strictly increasing"
    if ids[lo] < 0:
        return row, f"node id {ids[lo]} is negative"
    return row, f"node id {ids[hi - 1]} is above {ID_MAX}"


@dataclass(frozen=True, eq=False)
class Cluster:
    """A set of node ids: one read-only, strictly increasing int32 array.

    `ids` is the same set as a tuple of Python ints, built on each access."""

    idarray: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.idarray)
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise ValueError(f"node ids must be integers in 0..{ID_MAX}")
        if (problem := _problem(None, arr)) is not None:
            raise ValueError(problem[1])
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


def _frozen(ids: np.ndarray) -> np.ndarray:
    """A read-only view of ids."""
    ids = ids.view()
    ids.flags.writeable = False
    return ids


def _view(ids: np.ndarray) -> Cluster:
    """A Cluster over checked read-only int32 ids, without the constructor's copy and checks."""
    view = object.__new__(Cluster)
    object.__setattr__(view, "idarray", ids)
    return view


def _indptr(sizes) -> np.ndarray:
    """A CSR incidence's row offsets from its row sizes."""
    indptr = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


def _rows(indptr, ids, keep, sizes=None) -> tuple[np.ndarray, np.ndarray]:
    """Rows `keep` of a CSR incidence, or their first `sizes` ids, as a CSR incidence."""
    sizes = np.diff(indptr)[keep] if sizes is None else sizes
    starts = _indptr(sizes)
    return starts, ids[np.repeat(indptr[:-1][keep] - starts[:-1], sizes) + np.arange(starts[-1])]


class ClusterStream:
    """A cluster stream as checked CSR blocks (indptr, ids): row i of a block is
    ids[indptr[i]:indptr[i + 1]], strictly increasing read-only int32 ids.

    `blocks()` gives the blocks; iterating gives each row as a read-only Cluster
    view, afresh each time when the blocks are a collection and, like a
    generator, once when they are an iterator."""

    def __init__(self, blocks: Iterable[tuple[np.ndarray, np.ndarray]]):
        self._blocks, self._rows = blocks, None

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return iter(self._blocks)

    def _clusters(self) -> Iterator[Cluster]:
        for indptr, ids in self.blocks():
            for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
                yield _view(ids[lo:hi])

    def __iter__(self) -> Iterator[Cluster]:
        return self if iter(self._blocks) is self._blocks else self._clusters()

    def __next__(self) -> Cluster:
        self._rows = self._rows or self._clusters()
        return next(self._rows)


def _join(blocks: list) -> tuple[np.ndarray, np.ndarray]:
    """CSR blocks as one."""
    if len(blocks) == 1:
        return blocks[0]
    sizes = [np.diff(indptr) for indptr, _ in blocks] or [np.zeros(0, np.int64)]
    ids = [ids for _, ids in blocks] or [EMPTY_CLUSTER.idarray]
    return _indptr(np.concatenate(sizes)), np.concatenate(ids)


def _chunks(rows: Iterable) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Rows given one id array each, BLOCK at a time, as CSR incidences."""
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, BLOCK)):
        yield _indptr([len(r) for r in chunk]), np.concatenate(chunk)


def blocks(stream: Iterable) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """A stream's CSR blocks: a ClusterStream's own, else its clusters BLOCK at a
    time, the one way from Clusters to an incidence.  Empty clusters are empty rows."""
    if isinstance(stream, ClusterStream):
        return stream.blocks()
    return _chunks(c.idarray for c in stream)


def cluster_from_ids(ids: Iterable[int]) -> Cluster:
    return Cluster(np.unique(np.fromiter(ids, np.int64)))


def default_size_cap(m: int) -> int:
    return max(1, -(-m // 4))


def _emit(raw: Iterable, m: int, size_cap: int | None) -> ClusterStream:
    """The shared stream postprocessing, once per raw CSR block: drop empty and
    oversized rows, check the rest as Cluster does, and drop each row equal as
    an id set to an earlier row of the stream, so the first occurrence wins.
    Rows are compared exactly, as the bytes of their int32 ids, in one set."""
    cap = default_size_cap(m) if size_cap is None else size_cap
    if cap < 1:
        raise ValueError(f"size_cap must be at least 1, got {size_cap}")

    def emitted():
        seen: set[bytes] = set()  # the rows emitted so far
        for indptr, ids in raw:
            sizes = np.diff(indptr)
            keep = (sizes > 0) & (sizes <= cap)
            indptr, ids = (indptr, ids) if keep.all() else _rows(indptr, ids, keep)
            if problem := _problem(indptr, ids):
                raise ValueError(problem[1])
            ids, at = ids.astype(np.int32, copy=False), (4 * indptr).tolist()
            words = ids.tobytes()
            new = np.array([(row := words[lo:hi]) not in seen and not seen.add(row)
                            for lo, hi in zip(at[:-1], at[1:])], dtype=bool)
            if new.any():
                indptr, ids = (indptr, ids) if new.all() else _rows(indptr, ids, new)
                yield indptr, _frozen(ids)

    return ClusterStream(emitted())


# ---------------------------------------------------------------------------
# balls


def enumerate_balls(net: NodeSet, lam: float, size_cap: int | None = None):
    """One open ball of radius lam per node center, deduplicated."""
    if lam <= 0:
        raise ValueError("lam must be > 0")
    return _emit(_chunks(ball_ids(net, x, lam) for x in net.coords), net.m, size_cap)


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
        ids, rows = net.near(self.center, self.lam)
        z = rows - np.asarray(self.center)[:, None]
        if self.rotation is not None:
            if net.mode != EUCLIDEAN:
                raise ValueError("rotations require euclidean mode")
            z = (z.T @ np.asarray(self.rotation)).T
        term, combine = _norm(self.kind, net.mode)
        inside = combine.reduce(term(z / np.asarray(self.half_axes)[:, None]), axis=0) < 1.0
        return np.sort(ids[inside])


def _norm(kind: str, mode: str):
    """(term, combine): a blob holds z iff combine.reduce(term(z / half_axes)) < 1."""
    if kind == "rect":
        return np.abs, np.maximum
    return (np.abs if mode == LATTICE else np.square), np.add


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


# (center, template) pairs a thick family may hold, at most: 20x the largest enumeration in
# the tests and benchmark (448,000), 120x tools/setup_rss.py at 512^2; finer grids put centers
# between nodes, whose sets repeat (16^2: the same 545 from 19 k pairs and from 1.2 M)
MAX_BLOBS = 10_000_000


def _thick_lines(net: NodeSet, params: ThickParams):
    """(templates, head, axis, raw block) per line of centers head + (a,), a in axis,
    over the scale grid; the block's rows go center-major, then by template."""
    d = net.dim
    extent = _domain_extent(net)
    scales = []
    for lam in _scale_grid(params.lam_lo, params.lam_hi):
        # the aspect and sandwich checks do not depend on the center: run them once
        shapes = thick_templates(d, lam, params.kappa, params.shapes, net.mode)
        scales.append((lam * params.grid_eps,
                       [make_shape(k, (0.0,) * d, a, params.kappa, net.mode) for k, a in shapes]))
    # each axis's length as np.arange counts it, clipped so that a fine pitch's is finite
    count = sum(max(1, math.ceil(min((extent + 1e-9 - p / 2) / p, MAX_BLOBS + 1))) ** d * len(t)
                for p, t in scales)
    if count > MAX_BLOBS:
        raise CapacityError(f"over {MAX_BLOBS} thick blobs (centers x templates); "
                            "coarsen the grids")
    for pitch, templates in scales:
        axis = np.arange(pitch / 2, extent + 1e-9, pitch).tolist() or [extent / 2]
        for head in itertools.product(axis, repeat=d - 1) if templates else ():
            yield templates, head, axis, _line_shapes(net, templates, head, axis)


def enumerate_thick_shapes(
    net: NodeSet, params: ThickParams
) -> Iterator[tuple[ShapeSpec, np.ndarray]]:
    """(shape, raw member ids) pairs over the scale/center/template grid, center-major."""
    for templates, head, axis, (indptr, ids) in _thick_lines(net, params):
        rows = np.split(ids, indptr[1:-1])
        for (a, t), members in zip(itertools.product(axis, templates), rows):
            yield ShapeSpec(t.kind, head + (a,), t.half_axes, t.lam), members


def _line_shapes(net: NodeSet, templates, head: tuple, axis: list):
    """The members of the shapes centered at head + (a,) for a in axis, as a CSR
    incidence, center-major and then by template.  These centers share a slab of
    `near` (for d = 1, over their span) that holds every member.  Each node's
    fixed-coordinate terms are combined once, then with its last term per center
    and template within the largest half axis, LINE_CELLS (center, node) pairs at
    a time, in the order member_ids combines them, so the ids are the same."""
    lo, hi = (head[0], head[0]) if head else (axis[0], axis[-1])
    ids, rows = net.near(((lo + hi) / 2,) * net.dim, max(t.lam for t in templates) + (hi - lo) / 2)
    order = np.argsort(ids)  # then each center's members come out in id order
    ids, last = ids[order].astype(np.int32), rows[-1, order]
    fixed = rows[:-1, order] - np.reshape(head, (-1, 1))
    norms = []
    for t in templates:
        term, combine = _norm(t.kind, net.mode)
        scaled = fixed / np.reshape(t.half_axes[:-1], (-1, 1))
        fixed_norm = combine.reduce(term(scaled), axis=0, initial=0.0)
        norms.append((term, combine, t.half_axes[-1], fixed_norm))
    step, sizes, parts = max(1, LINE_CELLS // max(ids.size, 1)), [], []
    reach = max(h for _, _, h, _ in norms)
    for k in range(0, len(axis), step):
        centers = np.array(axis[k : k + step])
        pad = reach + 1e-9 * (reach + centers[-1])  # no blob holds a node farther out
        near = np.flatnonzero((last > centers[0] - pad) & (last < centers[-1] + pad))
        inside = np.stack([combine(fixed_norm[near], term((last[near] - centers[:, None]) / h))
                           < 1.0 for term, combine, h, fixed_norm in norms], axis=1)
        sizes.append(np.count_nonzero(inside, axis=2).ravel())
        parts.append(np.tile(ids[near], len(centers) * len(norms))[inside.ravel()])
    return _indptr(np.concatenate(sizes)), np.concatenate(parts)


def enumerate_thick(net: NodeSet, params: ThickParams, size_cap: int | None = None):
    return _emit((block for *_, block in _thick_lines(net, params)), net.m, size_cap)


def sample_thick_shape(net: NodeSet, params: ThickParams, seed: int) -> ShapeSpec:
    """Random member of the shape dictionary (truth sampling).

    Scale log-uniform in [lam_lo, lam_hi], uniform template and center; in
    euclidean mode a random rotation too, so planted truth is not
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
    if net.mode == EUCLIDEAN:
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        rotation = q * np.sign(np.diag(r))
    return make_shape(kind, center, half_axes, params.kappa, net.mode, rotation)


TRUTH_RETRIES = 1000  # draws of a thick truth that holds no node, at most


def sample_thick(net: NodeSet, params: ThickParams, seed: int) -> Cluster:
    """The nodes of a random shape (rotated in euclidean mode) that holds one;
    a shape holding none is drawn again, at most TRUTH_RETRIES times."""
    for _ in range(TRUTH_RETRIES):
        ids = sample_thick_shape(net, params, seed).member_ids(net)
        if ids.size:
            return Cluster(ids)
        seed = derive_seed(seed, "retry")
    raise ValueError(f"no thick truth holding a node in {TRUTH_RETRIES} draws")


# ---------------------------------------------------------------------------
# thin tubes

LAMBDA_OVER_R_MIN = 4.0  # tubes need r <= 1/LAMBDA_OVER_R_MIN: a guard, not from the paper
MAX_CURVES = 200_000  # control-point curves a tube family may hold, at most


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
        if self.r * LAMBDA_OVER_R_MIN > 1 + 1e-9:
            raise ValueError(
                f"r too large: requires r <= 1/{LAMBDA_OVER_R_MIN:g}"
            )

    @property
    def pitch(self) -> float:
        return self.r / 2 if self.value_pitch is None else self.value_pitch


def holder_violation(xs, values, alpha, kappa) -> int | None:
    """The Hölder rule, last value j against each earlier i: the first i with
    |values[j] - values[i]| > kappa*|xs[j] - xs[i]|**alpha + 1e-12, or None."""
    j = len(values) - 1
    return next((i for i in range(j) if abs(values[j] - values[i])
                 > kappa * abs(xs[j] - xs[i]) ** alpha + 1e-12), None)


def _holder_sequences(xs, levels, alpha, kappa, coords: int):
    """Control-value sequences passing the pairwise constraint, in lexicographic
    order, one control point at a time.  A curve takes one for each of its `coords`
    coordinates; a prefix extends by its last value, so the counts never fall.  A point
    keeps at most MAX_CURVES + 1, already over budget, and over MAX_CURVES curves is refused."""
    seqs = [()]
    for _ in xs:
        kept = (s + (v,) for s in seqs for v in levels
                if holder_violation(xs, s + (v,), alpha, kappa) is None)
        seqs = list(itertools.islice(kept, MAX_CURVES + 1))
        if len(seqs) ** coords > MAX_CURVES:
            raise CapacityError(f"over {MAX_CURVES} control-point curves; coarsen the grids")
    return seqs


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
    return np.column_stack([xs, *(np.asarray(g) for g in gs)])


def enumerate_tube_curves(net: NodeSet, params: ThinParams):
    """(curve vertices, raw member ids) for the control-grid curve family."""
    if net.mode != EUCLIDEAN:
        raise ValueError("thin tubes are defined in euclidean mode")
    d = net.dim
    if d < 2:
        raise ValueError("tubes need d >= 2")
    xs = np.linspace(0.0, 1.0, params.n_control)
    levels = tuple(np.arange(0.0, 1.0 + 1e-9, params.pitch))
    per_coord = _holder_sequences(xs, levels, params.alpha, params.kappa, d - 1)
    for gs in itertools.product(per_coord, repeat=d - 1):
        vertices = curve_vertices(xs, gs)
        dist = polyline_distances(net.coords, vertices)
        yield vertices, np.flatnonzero(dist < params.r)


def enumerate_tubes(net: NodeSet, params: ThinParams, size_cap: int | None = None):
    return _emit(_chunks(ids for _, ids in enumerate_tube_curves(net, params)), net.m, size_cap)


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


def exhausts(params: BandParams, d: int) -> bool:
    """Whether enumerate_bands lists every path of `params` on a d-dimensional
    lattice rather than sampling them: nondecreasing paths, d = 2, at most 20 steps."""
    return params.path_mode == "nondecreasing" and d == 2 and params.length <= 20


def _l1_offsets(d: int, width: int) -> np.ndarray:
    """The integer vectors of l1 norm below `width`, shape (n, d)."""
    box = np.indices((2 * width - 1,) * d).reshape(d, -1).T - (width - 1)
    return box[np.abs(box).sum(axis=1) < width]


def _padded_grid(net: NodeSet, pad: int) -> tuple[np.ndarray, np.ndarray, int]:
    """net.grid as int32 padded by `pad` cells of -1, flat; the flat step of a unit
    move along each axis; and the flat index of point 0: x is at origin + x @ steps."""
    _check_lattice_size(net.dim, net.side + 2 * pad)
    grid = np.pad(net.grid.astype(np.int32), pad, constant_values=-1)
    steps = np.array(grid.strides) // grid.itemsize
    return grid.ravel(), steps, pad * int(steps.sum())


def _boundary(net: NodeSet, padded, ids: np.ndarray, closed: np.ndarray):
    """The nodes at l1 distance 1 of nodes `ids` that the mask `closed` over node ids
    leaves open, increasing, and which of `ids` have one: one gather at the 2d unit
    moves on `padded`, a _padded_grid(net, pad) with pad >= 1, where holes read -1,
    then a sort (numpy 2.4's np.unique takes a hash path about 10x slower here)."""
    grid, steps, origin = padded
    near = grid[(net.coords[ids] @ steps + origin)[:, None] + np.concatenate([-steps, steps])]
    shut = near < 0
    shut[~shut] = closed[near[~shut]]
    found = np.sort(near[~shut])
    return found[np.diff(found, prepend=found[:1] - 1) != 0], ~shut.all(axis=1)


def _path_band_ids(net: NodeSet, paths: np.ndarray, offsets: np.ndarray, padded=None):
    """For each path of `paths` (n, length+1, d), the sorted nodes at a path point
    plus one of the `offsets` (with _l1_offsets(d, h), those within open l1
    distance h), as a CSR incidence, gathered by flat index from `padded`:
    _padded_grid(net, pad) for a pad of h - 1 or more."""
    grid, steps, origin = padded or _padded_grid(net, int(np.abs(offsets).max(initial=0)))
    flat = (paths @ steps + origin)[:, :, None] + offsets @ steps
    ids = np.sort(grid[flat].reshape(len(paths), -1), axis=1)
    keep = ids >= 0
    keep[:, 1:] &= ids[:, 1:] != ids[:, :-1]
    return _indptr(np.count_nonzero(keep, axis=1)), ids[keep]


def _self_avoiding_walks(net: NodeSet, padded, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The growth walks (n, length+1) of node ids that rows of uniforms u (n, length+1)
    give, and which were never trapped (a trapped walk stays put), on `padded`, a
    _padded_grid(net, pad) with pad >= 1.  Walk r starts at node floor(u[r, 0] * m),
    and step s takes free neighbour floor(u[r, s] * k) of its k free ones (not yet
    visited), counted in the row-major order of their points."""
    grid, steps, origin = padded
    moves = np.sort(np.concatenate([-steps, steps]))  # the neighbours in row-major order
    flat = np.empty(u.shape, dtype=np.int64)
    flat[:, 0] = net.coords[(u[:, 0] * net.m).astype(np.int64)] @ steps + origin
    kept = np.ones(len(u), dtype=bool)
    for s in range(1, u.shape[1]):
        near = flat[:, s - 1, None] + moves
        free = (grid[near] >= 0) & (near[:, :, None] != flat[:, None, :s]).all(axis=2)
        k = np.count_nonzero(free, axis=1)
        pick = np.argmax(np.cumsum(free, axis=1) > (u[:, s] * k).astype(np.int64)[:, None], axis=1)
        kept &= k > 0
        flat[:, s] = np.where(kept, near[np.arange(len(u)), pick], flat[:, s - 1])
    return grid[flat], kept


def enumerate_bands(
    net: NodeSet,
    params: BandParams,
    budget: int,
    seed: int,
    size_cap: int | None = None,
    exhaust: bool = True,
):
    """Bands B(path, h) over nondecreasing or self-avoiding lattice paths.

    Where `exhaust` and exhausts(params, d), the 2**length step sequences are
    listed, in itertools.product order.  Otherwise paths are drawn until
    `budget` (at least 1) distinct ones are found or max(50 * budget, 1000)
    draws are spent: uniform step sequences from the origin that stay on the
    grid (uniform over step sequences, not over bands), or untrapped growth
    walks (Rosenbluth & Rosenbluth 1955; _self_avoiding_walks).  Draw r reads
    row r of the seed's step rows or uniforms, whatever the round size
    BAND_CHUNK.
    """
    if net.mode != LATTICE:
        raise ValueError("bands are defined on lattices")
    if params.length > net.side:
        raise ValueError("need side >= length (m**(1/d) >= ell)")
    d, length = net.dim, params.length
    nondecreasing = params.path_mode == "nondecreasing"
    exhausted = exhaust and exhausts(params, d)
    if budget < 1 and not exhausted:
        raise ValueError(f"need a budget of at least 1 path to sample, got {budget}")
    # a pad of h covers the band offsets (h - 1) and the walks' moves (1)
    offsets, padded = _l1_offsets(d, params.width), _padded_grid(net, params.width)

    def walk(steps):  # the nondecreasing paths of step axis rows, and which stay on the grid
        paths = np.zeros((len(steps), length + 1, d), dtype=np.int64)
        np.cumsum(np.eye(d, dtype=np.int64)[steps], axis=1, out=paths[:, 1:])
        return paths, (paths[:, -1] < net.side).all(axis=1)

    def drawn():
        if exhausted:  # the step sequences are the bits of their index, first step highest
            for lo in range(0, 2**length, BAND_CHUNK):
                index = np.arange(lo, min(lo + BAND_CHUNK, 2**length))
                paths, ok = walk((index[:, None] >> np.arange(length - 1, -1, -1)) & 1)
                yield paths[ok]
            return
        rng, seen, attempts, max_attempts = rng_from_seed(seed), set(), 0, max(50 * budget, 1000)
        while len(seen) < budget and attempts < max_attempts:
            need = budget - len(seen)  # and a margin for the draws that are refused
            n = min(BAND_CHUNK, max_attempts - attempts, need + need // 4 + 16)
            attempts += n
            if nondecreasing:
                keys = rng.integers(0, d, size=(n, length))
                paths, ok = walk(keys)
            else:
                keys, ok = _self_avoiding_walks(net, padded, rng.random((n, length + 1)))
                paths = net.coords[keys]
            new = [fine and len(seen) < budget and (key := row.tobytes()) not in seen
                   and not seen.add(key) for fine, row in zip(ok.tolist(), keys)]
            yield paths[np.array(new, dtype=bool)]

    raw = (_path_band_ids(net, paths, offsets, padded) for paths in drawn() if len(paths))
    return _emit(raw, net.m, size_cap)


def sample_band(net: NodeSet, params: BandParams, seed: int) -> Cluster:
    """The first band enumerate_bands draws from `seed`, also where it would exhaust instead."""
    stream = enumerate_bands(net, params, budget=1, seed=seed, size_cap=net.m, exhaust=False)
    for cluster in stream:
        return cluster
    raise ValueError("failed to sample a band; grid too small for the path length")


# ---------------------------------------------------------------------------
# animals (connected node sets of the lattice graph)

ANIMAL_KMAX_GUARD = 12


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

    return _emit(_chunks(raw()), net.m, size_cap)


def sample_animal(net: NodeSet, k: int, seed: int) -> Cluster:
    """Random connected set of size k grown by uniform boundary additions, each
    picked by the seed's next integer draw from the boundary in increasing id order."""
    if net.mode != LATTICE:
        raise ValueError("animals are defined on lattices")
    if not 1 <= k <= net.m:
        raise ValueError("need 1 <= k <= m")
    rng, padded = rng_from_seed(seed), _padded_grid(net, 1)
    start = int(rng.integers(0, net.m))
    ids = live = np.array([start])  # live: the nodes of ids that may have an open neighbour
    taken = np.zeros(net.m, dtype=bool)
    taken[start] = True
    while ids.size < k:
        boundary, open_ = _boundary(net, padded, live, taken)
        if not boundary.size:
            raise ValueError(f"the component of node {start} holds fewer than {k} nodes")
        pick = boundary[int(rng.integers(boundary.size))]
        taken[pick] = True
        ids, live = np.append(ids, pick), np.append(live[open_], pick)
    return Cluster(np.sort(ids))


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


def write_clusters(clusters: Iterable, fh, meta: Mapping | None = None) -> None:
    """One cluster per line (space-separated ids) under # key=value headers, from
    the stream's CSR rows, a block at a time by network.int_lines."""
    fh.write("".join(f"# {key}={value}\n" for key, value in (meta or {}).items()))
    for indptr, ids in blocks(clusters):
        fh.write(int_lines(indptr, ids))


def parse_cluster(text: str) -> Cluster:
    """The cluster of a line of whitespace-separated ids."""
    try:
        return Cluster(np.array(text.split(), dtype=np.int64))
    except OverflowError:
        raise ValueError(f"a node id is above {ID_MAX}") from None


def _parsed_ids(lines: list[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """The number of ids on each line, and all of their ids, read by one
    np.fromstring call over the lines' bytes, with every byte up to b" " a
    separator.  None where a token is 19 bytes or longer (it could overflow
    int64), np.fromstring stops short, or it reads another number of ids than
    there are tokens: a lone sign reads as 0, or as the sign of the next token.
    A last line "0" is read too, so that no such token goes unseen at the end."""
    text = "\n".join(lines + ["0"]).encode()
    buf = np.frombuffer(text, np.uint8)
    edges = np.flatnonzero(np.diff(buf > 32, prepend=False, append=False))
    starts = edges[::2]  # and edges[1::2] the ends
    if (edges[1::2] - starts).max() > 18:
        return None
    try:
        ids = np.fromstring(text, np.int64, sep=" ")
    except ValueError:  # a token that is no integer
        return None
    if ids.size != starts.size:
        return None
    before = np.searchsorted(starts, np.flatnonzero(buf == ord("\n")))  # tokens before each newline
    return np.diff(before, prepend=0), ids[:-1]


def load_clusters(path) -> tuple[ClusterStream, dict[str, str]]:
    """A cluster file's clusters, as one checked CSR block, and its header; the
    first bad line is a ValueError naming path:line.

    The lines are split off in Python (read_headed) and their ids read by one
    C call (_parsed_ids).  Where that call cannot vouch for its ids,
    parse_cluster reads the file line by line: it words the first bad line,
    and reads what np.fromstring does not (Python int syntax such as 1_000)."""
    meta, body = read_headed(path)
    parsed = _parsed_ids([line for _, line in body])
    if parsed is None:
        rows = []
        for lineno, line in body:
            try:
                rows.append(parse_cluster(line).idarray)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        parsed = [row.size for row in rows], np.concatenate(rows)
    sizes, ids = parsed
    indptr = _indptr(sizes)
    if problem := _problem(indptr, ids):
        raise ValueError(f"{path}:{body[problem[0]][0]}: {problem[1]}")
    return ClusterStream([(indptr, _frozen(ids.astype(np.int32)))]), meta


class Family(NamedTuple):
    """A cluster family's row in FAMILIES; `size_cap` is a value of every family."""

    keys: tuple[str, ...]  # its parameters, also its scan.* config keys
    params: Callable[[Mapping], object]  # their values -> its parameter record
    stream: Callable[..., ClusterStream]  # (net, record, values, seed) -> clusters
    truth: Callable[[NodeSet, object, int], Cluster] | None = None  # (net, record, seed)


class _Families(dict):
    def __missing__(self, family):
        raise ValueError(f"unknown cluster family {family!r}")


# the one dispatch from a family name to its code; `seed` keys sampled band
# paths, and `truth` draws one member where truths can be drawn from the family
FAMILIES = _Families({
    BALLS: Family(("lambda",), lambda v: v["lambda"],
                  lambda net, lam, v, seed: enumerate_balls(net, lam, v.get("size_cap"))),
    THICK: Family(("lambda_lo", "lambda_hi", "kappa", "grid_eps"),
                  lambda v: ThickParams(v["lambda_lo"], v["lambda_hi"], v["kappa"],
                                        grid_eps=v["grid_eps"]),
                  lambda net, p, v, seed: enumerate_thick(net, p, v.get("size_cap")),
                  sample_thick),
    TUBES: Family(("r", "alpha", "kappa", "n_control", "value_pitch"),
                  lambda v: ThinParams(v["r"], v["alpha"], v["kappa"], v["n_control"],
                                       v.get("value_pitch")),
                  lambda net, p, v, seed: enumerate_tubes(net, p, v.get("size_cap"))),
    BANDS: Family(("ell", "h", "path_mode", "budget"),
                  lambda v: BandParams(v["ell"], v["h"], v["path_mode"]),
                  lambda net, p, v, seed: enumerate_bands(net, p, v["budget"], seed,
                                                          v.get("size_cap")),
                  sample_band),
    ANIMALS: Family(("kmax",), lambda v: v["kmax"],
                    lambda net, k, v, seed: enumerate_animals(net, k, v.get("size_cap")),
                    sample_animal),
})

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
