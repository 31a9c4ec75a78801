"""File helpers the tests share: savers that the library does not need, the
sequence reader, the text readers as they were before they handed their
bodies to C parsers, kept as references for load_field, load_nodeset and
load_clusters, and the writers as they were before they wrote by
network.int_lines, kept as references for write_clusters, write_sequence and
write_nodeset."""

from __future__ import annotations

import itertools
import json

import numpy as np

from scanlab.clusters import (
    EMPTY_CLUSTER,
    blocks,
    Cluster,
    ClusterStream,
    _frozen,
    _indptr,
    _problem,
    parse_cluster,
    read_headed,
    write_clusters,
)
from scanlab.growth import ClusterSequence, write_sequence
from scanlab.models import Field
from scanlab.network import EUCLIDEAN, LATTICE, NodeSet, _positive_int, write_nodeset


def save_field(field: Field, path) -> None:
    """CSV `node,t,value`; the t column is present even in static mode."""
    with open(path, "w") as fh:
        fh.write("node,t,value\n")
        for node in range(field.net.m):
            for t in range(field.t_m + 1):
                fh.write(f"{node},{t},{float(field.values[t, node])!r}\n")


def save_nodeset(net: NodeSet, path) -> None:
    with open(path, "w") as fh:
        write_nodeset(net, fh)


def save_clusters(clusters, path, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        write_clusters(clusters, fh, meta)


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


# ---------------------------------------------------------------------------
# the readers as they were: np.loadtxt over an open file, and Python tokens


def outcome(read, *args):
    """read(*args), or the type and message of the exception it raises."""
    try:
        return read(*args)
    except Exception as exc:  # any failure: the tests compare two readers' failures
        return type(exc), str(exc)


def reference_load_field(net: NodeSet, path) -> Field:
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


def reference_load_nodeset(path) -> NodeSet:
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
        fh.readline()  # column header
        rows = np.loadtxt(fh, delimiter=",", ndmin=1,
                          dtype=[("id", np.int64), ("x", coord, (d,))])
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


def reference_load_clusters(path) -> tuple[ClusterStream, dict[str, str]]:
    meta, body = read_headed(path)
    tokens = [line.split() for _, line in body]
    try:
        ids = np.fromiter(itertools.chain.from_iterable(tokens), np.int64)
    except (ValueError, OverflowError):
        for lineno, line in body:
            try:
                parse_cluster(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    indptr = _indptr([len(t) for t in tokens])
    if problem := _problem(indptr, ids):
        raise ValueError(f"{path}:{body[problem[0]][0]}: {problem[1]}")
    return ClusterStream([(indptr, _frozen(ids.astype(np.int32)))]), meta


# ---------------------------------------------------------------------------
# the writers as they were: one "%d", str or repr string per number


def reference_write_clusters(clusters, fh, meta=None) -> None:
    lines = [f"# {key}={value}\n" for key, value in (meta or {}).items()]
    for indptr, ids in blocks(clusters):
        words = ids.tolist()
        lines += [" ".join(["%d"] * (hi - lo)) % tuple(words[lo:hi]) + "\n"
                  for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist())]
    fh.write("".join(lines))


def reference_write_sequence(seq: ClusterSequence, fh, meta=None) -> None:
    for key, value in (meta or {}).items():
        fh.write(f"# {key}={value}\n")
    for t, k in enumerate(seq.slices):
        fh.write(f"{t}: " + " ".join(map(str, k.idarray.tolist())) + "\n")


def reference_write_nodeset(net: NodeSet, fh) -> None:
    meta = {"mode": net.mode, "d": net.dim, "m": net.m}
    if net.side is not None:
        meta["side"] = net.side
    coords = net.coords if net.mode == LATTICE else net.coords.astype(float)
    rows = zip(map(str, range(net.m)), *(map(repr, column) for column in coords.T.tolist()))
    fh.write(f"# {json.dumps(meta)}\nid,{','.join(f'x{i}' for i in range(net.dim))}\n"
             + "".join(f"{','.join(row)}\n" for row in rows))
