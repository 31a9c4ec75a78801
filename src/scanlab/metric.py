"""Cluster dissimilarity, the cluster table, greedy epsilon-nets, and
covering verification.

The dissimilarity is delta(K, L) = sqrt(2) * (1 - |K∩L| / sqrt(|K||L|))**0.5,
which lives in [0, sqrt(2)]: 0 exactly for equal sets, sqrt(2) for disjoint
ones.  A ScanTable is a cluster x node incidence, one CSR array pair: its
sparse product with a block of field rows sums every member in every row (by
running sums, two terms per run of consecutive ids, where cheaper).  Overlaps
between two incidences are counted by a sparse product, or a dense one where
denser.  Nets are built greedily, as a minimal covering is NP-hard: a cluster
is admitted iff it is more than epsilon away from every member admitted so
far.  build_net reads a stream's CSR blocks and keeps its members as one
incidence, which is the net's table.  The result is an epsilon-packing, hence
covers everything it scanned; verify_cover certifies covering against any
stream.  Where it pays, build_net counts only the pairs that can lie within
epsilon, those whose prefixes (`_prefix`) share an id, by popcounts of ANDed
64-bit words (`_within`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .clusters import BLOCK, Cluster, ClusterStream, _frozen, _join, _view, blocks, _rows

SQRT2 = math.sqrt(2.0)

# a running sum costs PREFIX_COST gathered ids: cumsum 3.4 ns a value, the
# sparse product 0.45 ns an id and row (2-core x86, numpy 2.4, scipy 1.17)
PREFIX_COST = 8

# a dense 0/1 product costs 0.02-0.03 ns a cell, a sparse one 2.3-2.6 ns a
# multiply-add (one BLAS thread, same box); a dense product holds at most
# DENSE_CELLS cells of 0/1 rows at once, 16 MB in float32
DENSE_COST = 128
DENSE_CELLS = 1 << 22

# a prefix join (see build_net) costs PAIR_COST sparse multiply-adds per
# multiply-add of its prefix products and BIT_COST per 64-bit word made or ANDed
# (4-10 ns, 10-14 ns, 4-8 ns a multiply-add it spares; same box); BIT_CHUNK
# words are ANDed at once
PAIR_COST = 2
BIT_COST = 2
BIT_CHUNK = 1 << 16

_ONES = np.ones(0)


def _ones(n: int) -> np.ndarray:
    """n ones, read-only: a view of one buffer that every table's incidence shares."""
    global _ONES
    ones = _ONES
    if ones.size < n:
        ones = _ONES = np.ones(n)
        ones.flags.writeable = False
    return ones[:n]


def delta(k: Cluster, l: Cluster) -> float:
    """Dissimilarity in [0, sqrt(2)]; both clusters must be nonempty."""
    if not k or not l:
        raise ValueError("delta is undefined for empty clusters")
    inter = np.intersect1d(k.idarray, l.idarray, assume_unique=True).size
    return float(_delta(inter / math.sqrt(k.size * l.size)))


@dataclass(eq=False)
class Rows:
    """A (B, m) block of rows as the kernel reads it; its transpose and its
    running sums under a zero row are made at most once, for every table."""

    rows: np.ndarray

    @cached_property
    def t(self) -> np.ndarray:
        return np.ascontiguousarray(self.rows.T)

    @cached_property
    def prefix(self) -> np.ndarray:
        prefix = np.zeros((self.rows.shape[1] + 1, len(self.rows)))
        np.cumsum(self.rows, axis=1, out=prefix[1:].T)  # along rows: 2-3x faster
        return prefix


class ScanTable(ClusterStream):
    """A cluster stream as one int32 CSR incidence (indptr, concat) of nonempty
    checked rows: build once, score many fields.

    Member j's ids are concat[indptr[j]:indptr[j + 1]], and table[j] is member j
    as a read-only Cluster view, made on access.  ScanTable.of makes the table of
    any cluster stream.  The one scoring kernel, `member_sums_temporal`, sums a
    member in a row by its indicator (value by value, in id order) or, iff 2 runs
    + PREFIX_COST * width < ids, by its `runs` (P[b] - P[a] per maximal run
    [a, b) of consecutive ids, P the row's running sums).  Either way a block
    sums as its rows do one at a time, and integer-valued rows sum exactly.
    """

    def __init__(self, indptr: np.ndarray, concat: np.ndarray):
        self.indptr = np.asarray(indptr, np.int32)
        self.concat = _frozen(np.asarray(concat, np.int32))
        self.sizes = np.diff(self.indptr).astype(np.int64)
        self.width = int(self.concat.max(initial=-1)) + 1
        super().__init__([(self.indptr, self.concat)])

    @classmethod
    def of(cls, clusters: Iterable) -> "ScanTable":
        """The table of a stream's clusters, which must be nonempty."""
        table = cls(*_join(list(blocks(clusters))))
        if table.sizes.size and not table.sizes.min():
            raise ValueError("clusters must be nonempty")
        return table

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, j):
        if isinstance(j, slice):
            return tuple(map(self.__getitem__, range(len(self))[j]))
        j = range(len(self))[j]
        return _view(self.concat[self.indptr[j] : self.indptr[j + 1]])

    def __eq__(self, other) -> bool:  # the same clusters in the same order
        return (isinstance(other, ScanTable) and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.concat, other.concat))

    def __hash__(self) -> int:
        return hash(self.concat.tobytes())

    def incidence(self, width: int) -> sp.csr_array:
        """The (members, width) 0/1 matrix; every id must lie below width."""
        data = _ones(self.concat.size)
        return sp.csr_array((data, self.concat, self.indptr), shape=(len(self), width))

    def encoded(self) -> "ScanTable":
        """The table with `runs` and `indicator` set, on first call: either
        `runs`, the (members, width + 1) matrix of -1 at a and +1 at b per run
        [a, b), or `indicator`, the (members, width) incidence; the other is
        None.  The elements that score a table call it before threads share it."""
        if "runs" not in vars(self):
            ids, start = self.concat, np.ones(self.concat.size, dtype=bool)
            start[1:] = ids[1:] != ids[:-1] + 1
            start[self.indptr[:-1]] = True
            n, runs = int(start.sum()), None
            if 2 * n + PREFIX_COST * self.width < ids.size:
                cols = np.stack([ids[start], ids[np.append(start[1:], True)] + 1], axis=1)
                indptr = (2 * np.append(0, np.cumsum(start))[self.indptr]).astype(np.int32)
                runs = sp.csr_array((np.tile([-1.0, 1.0], n), cols.ravel(), indptr),
                                    shape=(len(self), self.width + 1))
            # each assigned whole, runs last, so a concurrent first call sees no partial state
            self.indicator = self.incidence(self.width) if runs is None else None
            self.runs = runs
        return self

    def member_sums_temporal(self, rows: np.ndarray | Rows) -> np.ndarray:
        """(B, members) sums of a (B, m) block of rows, fields or one field's
        time steps, by one sparse product: the one scoring kernel.  No sum
        depends on B; the product is fastest per row from about 16 rows up."""
        block = rows if isinstance(rows, Rows) else Rows(rows)
        m = block.rows.shape[1]
        if not len(self):
            raise ValueError("empty cluster stream")
        if m < self.width:
            raise ValueError(f"cluster id {self.width - 1} outside 0..{m - 1}")
        if self.encoded().runs is None:
            return (self.indicator @ block.t[: self.width]).T
        return (self.runs @ block.prefix[: self.width + 1]).T

    def max_score(self, row: np.ndarray, model) -> tuple[float, int]:
        # unused by the library; kept because scanbench/spans.py patches it as detect.score
        scores = model.standardize(self.member_sums_temporal(row[None])[0], self.sizes)
        return float(scores.max()), int(scores.argmax())

    @cached_property
    def _by_node(self) -> sp.csr_array:
        return self.incidence(self.width).T.tocsr()  # node -> members

    @cached_property
    def _load(self) -> np.ndarray:
        return np.bincount(self.concat)  # the number of members holding each node

    def _work(self, rows: int, concat) -> tuple[int, bool]:
        """The multiply-adds of overlaps with `rows` clusters holding `concat`, and
        whether DENSE_COST times that is above rows * members * width (then dense)."""
        load = self._load
        work = int(load @ load if concat is self.concat else load[concat[concat < len(load)]].sum())
        return work, rows * len(self) * self.width < DENSE_COST * work

    def overlaps(self, indptr, concat) -> sp.csr_array:
        """|K∩L| / sqrt(|K||L|) from each cluster K of a CSR incidence (indptr,
        concat) to each member L.  The sparse product with the members' node
        index makes a multiply-add per node and pair of clusters holding it; iff
        DENSE_COST times that is above rows * members * width, the 0/1 rows are
        multiplied densely, in float32 while counts stay below 2**24.  Either way
        the counts are exact; the result is the sparse matrix of overlapping pairs."""
        sizes, width = np.diff(indptr), max(int(concat.max()) + 1, self.width)
        work, dense = self._work(len(sizes), concat)
        dtype = np.float32 if dense and self.width < 2**24 else float
        data = np.ones(concat.size, dtype) if dense else _ones(concat.size)
        rows = sp.csr_array((data, concat, indptr), shape=(len(sizes), width))
        if dense:
            same = concat is self.concat  # then one operand: rows @ rows.T is symmetric
            cols = rows if same else self.incidence(width).astype(dtype)
            step, counts = max(1, DENSE_CELLS // (len(sizes) + (0 if same else len(self)))), 0
            for lo in range(0, self.width, step):
                part = rows[:, lo : lo + step].toarray()
                counts = counts + part @ (part if same else cols[:, lo : lo + step].toarray()).T
            return sp.csr_array(counts / np.sqrt(np.outer(sizes, self.sizes)))
        overlap = rows[:, : self.width] @ self._by_node
        at = np.repeat(np.arange(len(sizes)), np.diff(overlap.indptr))
        overlap.data /= np.sqrt(sizes[at] * self.sizes[overlap.indices].astype(float))
        return overlap


@dataclass(frozen=True)
class EpsNet:
    """Greedy packing at separation epsilon; members keep stream order.

    `members` is the net's ScanTable, one incidence: members[j] is a read-only
    Cluster view, made on access.  Any other cluster stream given is made one."""

    epsilon: float
    members: ScanTable
    family: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.members, ScanTable):
            object.__setattr__(self, "members", ScanTable.of(self.members))

    def __len__(self) -> int:
        return len(self.members)


def _tables(stream: Iterable) -> Iterator[ScanTable]:
    """The stream's nonempty clusters as tables of at most BLOCK rows: its CSR
    blocks, joined while they fit and cut where they do not."""
    parts, rows = [], 0
    for indptr, ids in blocks(stream):
        if (sizes := np.diff(indptr)).size and not sizes.min():
            indptr, ids = _rows(indptr, ids, sizes > 0)
        for lo in range(0, len(indptr) - 1, BLOCK):
            ptr = indptr[lo : lo + BLOCK + 1]
            if rows + len(ptr) - 1 > BLOCK:
                yield ScanTable(*_join(parts))
                parts, rows = [], 0
            parts.append((ptr - ptr[0], ids[ptr[0] : ptr[-1]]))
            rows += len(ptr) - 1
    if rows:
        yield ScanTable(*_join(parts))


def _delta(ratio):
    """delta from overlap ratios, as `delta` computes it; it falls as the ratio rises."""
    return np.sqrt(np.maximum(2.0 * (1.0 - ratio), 0.0))


def _nearest(ratios: sp.csr_array, axis: int) -> np.ndarray:
    """delta to the nearest cluster along `axis` of a matrix of overlap ratios."""
    return _delta(ratios.max(axis=axis).toarray())


def _prefix(sizes: np.ndarray, epsilon: float, power: int) -> np.ndarray:
    """How many first ids of a cluster K of each size hold an id of every L within
    epsilon no smaller (power 1) or no larger (power 2) than K: rho(K, L) >= c =
    1 - epsilon**2 / 2 forces |K∩L| >= c sqrt(|K||L|) >= c**power |K|, hence
    |K| - ceil(c**power |K|) + 1 (c**power less 1e-9: rounding drops no pair)."""
    c = (1.0 - epsilon * epsilon / 2) ** power
    return np.minimum(sizes - np.ceil((c - 1e-9) * sizes).astype(sizes.dtype) + 1, sizes)


def _pairs(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) for each row i of CSR incidence a and row j of b that share an id."""
    width = int(max(a[1].max(initial=0), b[1].max(initial=0))) + 1
    a, b = (sp.csr_array((_ones(ids.size), ids, ptr), shape=(len(ptr) - 1, width))
            for ptr, ids in (a, b))
    shared = (a @ b.T).tocoo()
    return shared.row, shared.col


def _bits(indptr, concat) -> tuple:
    """A CSR incidence as (indptr, each row's first 64-bit word, its words' offsets
    over its id span, the words); bit b of a word is bit b % 8 of its byte b // 8."""
    lo = concat[indptr[:-1]] >> 6
    offsets = np.append(0, np.cumsum((concat[indptr[1:] - 1] >> 6) - lo + 1))
    bits = np.zeros(64 * offsets[-1], dtype=bool)
    bits[np.repeat(64 * (offsets[:-1] - lo), np.diff(indptr)) + concat] = True
    return indptr, lo, offsets, np.packbits(bits, bitorder="little").view(np.uint64)


def _within(a, b, i, j, epsilon: float) -> np.ndarray:
    """Whether each pair (row i of a, row j of b; both from _bits) whose id spans
    meet lies within epsilon: its count is the AND of their words over the
    overlap of the spans, popcounted, BIT_CHUNK words at a time."""
    lo = np.maximum(a[1][i], b[1][j])
    n = np.minimum(a[1][i] + np.diff(a[2])[i], b[1][j] + np.diff(b[2])[j]) - lo
    at_a, at_b, counts = a[2][i] + lo - a[1][i], b[2][j] + lo - b[1][j], np.zeros(len(i))
    step = max(1, BIT_CHUNK // int(n.max(initial=1)))
    for s in range(0, len(n), step):
        m = n[s : s + step]
        first = np.cumsum(m) - m
        at = np.arange(first[-1] + m[-1])
        both = (a[3][np.repeat(at_a[s : s + step] - first, m) + at]
                & b[3][np.repeat(at_b[s : s + step] - first, m) + at])
        counts[s : s + step] = np.add.reduceat(np.bitwise_count(both), first, dtype=np.int64)
    return _delta(counts / np.sqrt(np.diff(a[0])[i] * np.diff(b[0])[j].astype(float))) <= epsilon


def build_net(stream: Iterable, epsilon: float, family: str = "") -> EpsNet:
    """Greedy epsilon-net in stream order: admit iff min delta > epsilon.

    The stream's CSR blocks are read BLOCK clusters at a time (`_tables`).
    The members admitted so far are one CSR incidence, appended to, and the net
    keeps it as its table.  A block is checked against the members whose id
    ranges meet its own, then admitted in order against its own pairwise
    distances, so the net is the one-by-one greedy net.  Both checks are a
    prefix join where it pays for the second: only pairs sharing an id of their
    prefixes (`_prefix`) are counted, by bits (`_within`); otherwise every
    overlap is counted by ScanTable.overlaps.
    """
    if not 0 < epsilon <= SQRT2:
        raise ValueError("epsilon must lie in (0, sqrt(2)]")
    # the members so far, in stream order: member j's ids are concat[indptr[j]:indptr[j + 1]]
    indptr, concat = np.zeros(1, np.int64), np.zeros(0, np.int32)
    for block in _tables(stream):
        short, long = (_prefix(block.sizes, epsilon, power) for power in (1, 2))
        lo, hi = (block.concat[at] >> 6 for at in (block.indptr[:-1], block.indptr[1:] - 1))
        # a join's cost per multiply-add of the products it spares: its prefix products',
        # about 2 * short * long shares of theirs, and about long share words ANDed per
        # span word per id; never at sqrt(2), where disjoint pairs lie within
        fs, fl, per_id = (x.sum() / block.concat.size for x in (short, long, hi - lo + 1))
        spare = fl * (2 * PAIR_COST * fs + BIT_COST * per_id) if epsilon < SQRT2 else 1.0
        join = False  # iff it costs at most block.overlaps for the block against itself
        if spare < 1:
            work, dense = block._work(len(block), block.concat)
            cost = len(block) ** 2 * block.width / DENSE_COST if dense else work
            join = spare * work + BIT_COST * per_id * block.concat.size <= cost
        if join:
            own = _bits(block.indptr, block.concat)
            shorts, longs = (_rows(block.indptr, block.concat, slice(None), prefix)
                             for prefix in (short, long))
        ok = np.ones(len(block), dtype=bool)
        if len(indptr) > 1:  # a member that shares no node with a cluster is sqrt(2) from it
            near = np.flatnonzero((concat[indptr[1:] - 1] >= block.concat.min())
                                  & (concat[indptr[:-1]] < block.width))
            if join:  # the smaller cluster's short prefix meets the larger one's long one
                size = np.diff(indptr)[near]
                j1, i1 = _pairs(_rows(indptr, concat, near, _prefix(size, epsilon, 2)), shorts)
                j2, i2 = _pairs(_rows(indptr, concat, near, _prefix(size, epsilon, 1)), longs)
                keep1, keep2 = size[j1] >= block.sizes[i1], size[j2] < block.sizes[i2]
                j, i = np.append(j1[keep1], j2[keep2]), np.append(i1[keep1], i2[keep2])
                near, j = np.unique(near[j], return_inverse=True)  # the candidates
                ok[i[_within(_bits(*_rows(indptr, concat, near)), own, j, i, epsilon)]] = False
            else:
                rows = _rows(indptr, concat, near)
                ratios = block.overlaps(*rows) if near.size else sp.csr_array((1, len(block)))
                ok = _nearest(ratios, 0) > epsilon
        if join:
            i, j = _pairs(longs, shorts)  # a candidate iff i is no smaller than j
            size_i, size_j = block.sizes[i], block.sizes[j]
            keep = (size_i > size_j) | ((size_i == size_j) & (i < j))
            i, j = np.minimum(i, j)[keep], np.maximum(i, j)[keep]
            close = np.zeros((len(block), len(block)), dtype=bool)
            close[i, j] = _within(own, own, i, j, epsilon)
        else:
            close = _delta(block.overlaps(block.indptr, block.concat).toarray()) <= epsilon
        hit = close.any(axis=1)  # rows that can turn a later cluster away
        kept = []
        for i in np.flatnonzero(ok):
            if ok[i]:
                kept.append(i)
                if hit[i]:
                    ok &= ~close[i]
        if kept:
            start, indptr = indptr[-1], np.append(indptr, indptr[-1] + np.cumsum(block.sizes[kept]))
            if indptr[-1] > concat.size:  # grown at least twofold: each id is copied O(1) times
                grown = np.empty(max(indptr[-1], 2 * concat.size), np.int32)
                grown[:start], concat = concat[:start], grown
            concat[start : indptr[-1]] = _rows(block.indptr, block.concat, kept)[1]
    table = ScanTable(indptr, concat[: indptr[-1]].copy() if concat.size > indptr[-1] else concat)
    return EpsNet(epsilon=epsilon, members=table, family=family)


@dataclass(frozen=True)
class CoverReport:
    epsilon: float
    max_min_dist: float
    worst: Cluster | None
    checked: int

    @property
    def passed(self) -> bool:
        return self.max_min_dist <= self.epsilon + 1e-12


def verify_cover(net: EpsNet, stream: Iterable[Cluster]) -> CoverReport:
    """max over the stream of min member distance, with the worst witness."""
    if not len(net):
        raise ValueError("cannot verify an empty net")
    worst, worst_dist, checked = None, -1.0, 0
    for block in _tables(stream):
        checked += len(block)
        dist = _nearest(net.members.overlaps(block.indptr, block.concat), 1)
        j = int(np.argmax(dist))  # the first of the block's worst
        if dist[j] > worst_dist:
            worst, worst_dist = block[j], float(dist[j])
    return CoverReport(net.epsilon, max(worst_dist, 0.0), worst, checked)
