"""Cluster dissimilarity, the cluster table, greedy epsilon-nets, and
covering verification.

The dissimilarity is delta(K, L) = sqrt(2) * (1 - |K∩L| / sqrt(|K||L|))**0.5,
which lives in [0, sqrt(2)]: 0 exactly for equal sets, sqrt(2) for disjoint
ones.  A ScanTable is a cluster x node incidence: its sparse product with a
block of field rows sums every member in every row (by running sums, two
terms per run of consecutive ids, where cheaper), and with another table
counts every pairwise overlap.  A minimal covering is NP-hard, so nets are
built greedily: a cluster is admitted iff it is more than epsilon away from
every member admitted so far.  The result is an epsilon-packing, hence covers
everything it scanned; verify_cover certifies covering against any stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .clusters import Cluster

SQRT2 = math.sqrt(2.0)

NET_BLOCK = 256  # clusters of a stream build_net and verify_cover take at once

# a running sum costs PREFIX_COST gathered ids: cumsum 3.4 ns a value, the
# sparse product 0.45 ns an id and row (2-core x86, numpy 2.4, scipy 1.17)
PREFIX_COST = 8

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
    return math.sqrt(max(2.0 * (1.0 - inter / math.sqrt(k.size * l.size)), 0.0))


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


class ScanTable:
    """A cluster stream as an int32 CSR incidence: build once, score many fields.

    Member j's ids are concat[indptr[j]:indptr[j + 1]].  The one scoring
    kernel, `member_sums_temporal`, sums a member in a row by its indicator
    (value by value, in id order) or, iff 2 runs + PREFIX_COST * width < ids,
    by its `runs` (P[b] - P[a] per maximal run [a, b) of consecutive ids, P
    the row's running sums).  Either way a block sums as its rows do one at a
    time, and integer-valued rows sum exactly.
    """

    def __init__(self, members: Iterable[Cluster]):
        self.members = tuple(members)
        if not self.members:
            raise ValueError("empty cluster stream")
        self.sizes = np.array([c.size for c in self.members], dtype=np.int64)
        if not self.sizes.min():
            raise ValueError("clusters must be nonempty")
        self.indptr = np.zeros(len(self.sizes) + 1, dtype=np.int32)
        np.cumsum(self.sizes, out=self.indptr[1:])
        self.concat = np.concatenate([c.idarray for c in self.members])
        self.width = int(self.concat.max()) + 1

    def __len__(self) -> int:
        return len(self.members)

    def incidence(self, width: int) -> sp.csr_array:
        """The (members, width) 0/1 matrix; every id must lie below width."""
        data = _ones(self.concat.size)
        return sp.csr_array((data, self.concat, self.indptr), shape=(len(self), width))

    def encoded(self) -> "ScanTable":
        """The table with `runs` and `indicator` set, on first call: either
        `runs`, the (members, width + 1) matrix of -1 at a and +1 at b per run
        [a, b), or `indicator`, the (members, width) incidence; the other is
        None.  Scorer calls it before threads share the table."""
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
        if m < self.width:
            raise ValueError(f"cluster id {self.width - 1} outside 0..{m - 1}")
        if self.encoded().runs is None:
            return (self.indicator @ block.t[: self.width]).T
        return (self.runs @ block.prefix[: self.width + 1]).T

    def max_scores(self, rows: np.ndarray | Rows, model) -> tuple[np.ndarray, np.ndarray]:
        """Each row's maximum standardized sum and its first argmax member."""
        scores = model.standardize(self.member_sums_temporal(rows), self.sizes)
        return scores.max(axis=1), scores.argmax(axis=1)

    def max_score(self, row: np.ndarray, model) -> tuple[float, int]:
        stats, j = self.max_scores(row[None], model)
        return float(stats[0]), int(j[0])

    @cached_property
    def _by_node(self) -> sp.csr_array:
        return self.incidence(self.width).T.tocsr()  # node -> members

    def overlaps(self, block: "ScanTable") -> sp.csr_array:
        """|K∩L| / sqrt(|K||L|) from each cluster K of block (rows) to each member L
        where they overlap, by one sparse product with the members' node index."""
        nodes = block.incidence(max(block.width, self.width))[:, : self.width]
        overlap = nodes @ self._by_node
        rows = np.repeat(np.arange(len(block)), np.diff(overlap.indptr))
        overlap.data /= np.sqrt(block.sizes[rows] * self.sizes[overlap.indices].astype(float))
        return overlap


@dataclass(frozen=True)
class EpsNet:
    """Greedy packing at separation epsilon; members keep stream order."""

    epsilon: float
    members: tuple[Cluster, ...]
    family: str = ""

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def table(self) -> ScanTable:
        """The members' ScanTable, built on first use and kept with the net."""
        return ScanTable(self.members)


def _blocks(stream: Iterable[Cluster]) -> Iterator[ScanTable]:
    """The stream's nonempty clusters, NET_BLOCK at a time, as tables."""
    it = (c for c in stream if c)
    while block := list(islice(it, NET_BLOCK)):
        yield ScanTable(block)


def _delta(ratio):
    """delta from overlap ratios, as `delta` computes it; it falls as the ratio rises."""
    return np.sqrt(np.maximum(2.0 * (1.0 - ratio), 0.0))


def build_net(stream: Iterable[Cluster], epsilon: float, family: str = "") -> EpsNet:
    """Greedy epsilon-net in stream order: admit iff min delta > epsilon.

    A block of the stream is checked against the members admitted so far,
    one sparse product per table they are kept in, then admitted in order
    against its own pairwise distances, so the net is the one-by-one greedy
    net.  A table at least half the size of the one before it is merged
    into it, so there are at most log2(members) + 1 tables.
    """
    if not 0 < epsilon <= SQRT2:
        raise ValueError("epsilon must lie in (0, sqrt(2)]")
    admitted: list[ScanTable] = []  # the members so far, in stream order
    for block in _blocks(stream):
        ok = np.ones(len(block), dtype=bool)
        for part in admitted:
            ok &= _delta(part.overlaps(block).max(axis=1).toarray().ravel()) > epsilon
        close = _delta(block.overlaps(block).toarray()) <= epsilon
        kept = []
        for i in np.flatnonzero(ok):
            if ok[i]:
                kept.append(block.members[i])
                ok &= ~close[i]
        if kept:
            admitted.append(ScanTable(kept))
        while len(admitted) > 1 and 2 * len(admitted[-1]) >= len(admitted[-2]):
            last = admitted.pop()
            admitted[-1] = ScanTable(admitted[-1].members + last.members)
    members = tuple(c for part in admitted for c in part.members)
    return EpsNet(epsilon=epsilon, members=members, family=family)


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
    if not net.members:
        raise ValueError("cannot verify an empty net")
    worst, worst_dist, checked = None, -1.0, 0
    for block in _blocks(stream):
        checked += len(block)
        dist = _delta(net.table.overlaps(block).max(axis=1).toarray().ravel())
        j = int(np.argmax(dist))  # the first of the block's worst
        if dist[j] > worst_dist:
            worst, worst_dist = block.members[j], float(dist[j])
    return CoverReport(net.epsilon, max(worst_dist, 0.0), worst, checked)
