"""Spans around calls into scanlab's layers, recorded from outside the package.

A `Tracer` wraps the public functions of each layer wherever the name is
bound: scanlab's modules import some functions by name (`sim` and `detect`
hold their own `derive_seed`, `sim` its own `sample_null` and `plant`), so
every module global that is the original function is replaced, not just the
defining module's.  Enumerators are lazy generators consumed inside
`build_net`; each `next()` on them is its own span under the enumerator's
name, so `metric.build_net.self_s` holds no enumeration time.

Spans are kept in memory as flat arrays (name id, parent index, start, end)
and written out once, when the run ends.  Patches are installed only while a
traced round runs; untraced rounds call the original functions.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute, span name); a dotted attribute names a method.  The
# two decision functions are not reported on their own; their spans let a
# trace tell the tables a decision builds from those built in set-up.
FUNCTIONS = (
    ("scanlab.rng", "derive_seed", "rng.derive_seed"),
    ("scanlab.models", "sample_null", "models.sample_null"),
    ("scanlab.models", "plant", "models.plant"),
    ("scanlab.models", "standardized_sum", "models.standardized_sum"),
    ("scanlab.models", "load_field", "models.load_field"),
    ("scanlab.network", "load_nodeset", "network.load_nodeset"),
    ("scanlab.clusters", "load_clusters", "clusters.load_clusters"),
    ("scanlab.sim", "estimate_risk", "sim.estimate_risk"),
    ("scanlab.detect", "calibrate", "detect.calibrate"),
    ("scanlab.detect", "multiscale_test", "detect.multiscale_test"),
    ("scanlab.detect", "oracle_test", "detect.oracle_test"),
    ("scanlab.detect", "ScanTable.__init__", "detect.ScanTable.build"),
    ("scanlab.detect", "ScanTable.max_score", "detect.score"),
    ("scanlab.detect", "ScanTable.member_sums_temporal", "detect.score"),
    ("scanlab.growth", "scan_spacetime_cylinders", "growth.scan_spacetime_cylinders"),
    ("scanlab.growth", "richardson_grow", "growth.richardson_grow"),
)
ENUMERATORS = (
    ("scanlab.clusters", "enumerate_thick", "clusters.enumerate_thick"),
    ("scanlab.clusters", "enumerate_bands", "clusters.enumerate_bands"),
)
CLI_SUBCOMMANDS = ("net", "enumerate", "netbuild", "grow", "calibrate", "test", "sweep")

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "rng.derive_seed.calls": ("count", "lower"),
    "rng.derive_seed.busy_s": ("s", "lower"),
    "models.sample_null.calls": ("count", "lower"),
    "models.sample_null.busy_s": ("s", "lower"),
    "models.sample_null.values": ("count", "higher"),
    "models.plant.busy_s": ("s", "lower"),
    "models.standardized_sum.busy_s": ("s", "lower"),
    "sim.estimate_risk.self_s": ("s", "lower"),
    "sim.fields": ("count", "higher"),
    "detect.ScanTable.build_s": ("s", "lower"),
    "detect.ScanTable.ids": ("count", "lower"),
    "detect.score.calls": ("count", "lower"),
    "detect.score.busy_s": ("s", "lower"),
    "detect.score.us_p50": ("us", "lower"),
    "detect.score.us_p99": ("us", "lower"),
    "detect.calibrate.self_s": ("s", "lower"),
    "growth.scan_spacetime_cylinders.calls": ("count", "lower"),
    "growth.scan_spacetime_cylinders.busy_s": ("s", "lower"),
    "growth.richardson_grow.busy_s": ("s", "lower"),
    "clusters.enumerate_thick.busy_s": ("s", "lower"),
    "clusters.enumerate_thick.clusters": ("count", "higher"),
    "metric.build_net.self_s": ("s", "lower"),
    "metric.build_net.candidates": ("count", "lower"),
    "metric.build_net.members": ("count", "lower"),
    "metric.build_net.admit_ratio": ("ratio", "higher"),
    "clusters.enumerate_bands.busy_s": ("s", "lower"),
    "clusters.enumerate_bands.clusters": ("count", "higher"),
    "clusters.held_mb": ("MB", "lower"),
    "models.load_field.busy_s": ("s", "lower"),
    "network.load_nodeset.busy_s": ("s", "lower"),
    "clusters.load_clusters.busy_s": ("s", "lower"),
    "cli.bytes_read": ("B", "lower"),
    "cli.bytes_written": ("B", "lower"),
    **{f"cli.{sub}.busy_s": ("s", "lower") for sub in CLI_SUBCOMMANDS},
    "trace.overhead_s": ("s", "lower"),
}

# Flags of `scanlab` subcommands that name an input or an output file.
_CLI_INPUTS = ("--net", "--clusters", "--field", "--calibration", "--in", "--config")
_CLI_OUTPUTS = ("--out",)


def _resolve(path: str, attr: str):
    owner = sys.modules[path]
    *outer, leaf = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Span recorder; `install()`/`uninstall()` bracket each traced round."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.rounds = 0
        self.paused = False
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def pause(self):
        """Calls made by the benchmark itself, not by the workload, go unrecorded."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        idx = self._open(self._nid(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def cli(self, main, argv: list[str]) -> int:
        """One `scanlab` subcommand as a span, with the bytes it read and wrote."""
        flags = dict(zip(argv[1::2], argv[2::2])) if len(argv) > 1 else {}
        self.counters["cli.bytes_read"] += sum(
            Path(flags[f]).stat().st_size for f in _CLI_INPUTS if f in flags
        )
        code = self.call(f"cli.{argv[0]}", main, argv)
        self.counters["cli.bytes_written"] += sum(
            Path(flags[f]).stat().st_size
            for f in _CLI_OUTPUTS
            if f in flags and Path(flags[f]).exists()
        )
        return code

    def _wrap(self, name: str, fn, after=None):
        nid = self._nid(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def _counted(self, key: str, items):
        for item in items:
            self.counters[key] += 1
            yield item

    def _spanned(self, nid: int, key: str, it):
        while True:
            idx = self._open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counters[key] += 1
            yield item

    def _wrap_enumerator(self, name: str, fn):
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = self.call(name, fn, *args, **kwargs)
            return self._spanned(nid, f"{name}.clusters", iter(it))

        return traced

    def _wrap_build_net(self, fn):
        inner = self._wrap("metric.build_net", fn)

        @functools.wraps(fn)
        def traced(stream, *args, **kwargs):
            net = inner(self._counted("metric.build_net.candidates", stream), *args, **kwargs)
            self.counters["metric.build_net.members"] += len(net.members)
            return net

        return traced

    def _after_sample_null(self, field, args, kwargs) -> None:
        self.counters["models.sample_null.values"] += field.values.size

    def _after_scan_table(self, _out, args, kwargs) -> None:
        self.counters["detect.ScanTable.ids"] += int(args[0].concat.size)

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind every scanlab module global that is `original`."""
        for modname, module in list(sys.modules.items()):
            if modname != "scanlab" and not modname.startswith("scanlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for path, attr, name in FUNCTIONS:
            owner, leaf = _resolve(path, attr)
            original = getattr(owner, leaf)
            after = {
                "models.sample_null": self._after_sample_null,
                "detect.ScanTable.build": self._after_scan_table,
            }.get(name)
            wrapped = self._wrap(name, original, after)
            if isinstance(owner, type):
                self._undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapped)
            else:
                self._patch_everywhere(original, wrapped)
        for path, attr, name in ENUMERATORS:
            original = getattr(sys.modules[path], attr)
            self._patch_everywhere(original, self._wrap_enumerator(name, original))
        build_net = sys.modules["scanlab.metric"].build_net
        self._patch_everywhere(build_net, self._wrap_build_net(build_net))
        self.rounds += 1

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Spans as .npz: name ids index the JSON list stored beside them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps({"workload": self.workload, "names": self.names})),
            **self.arrays(),
        )

    def layer_metrics(self, held_mb: float, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics per traced round, in the order of PER_LAYER.

        `<span>.calls`, `<span>.busy_s` and `<span>.self_s` come from the
        spans of that name; any other metric not listed below is a counter.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        by_kind = {
            "calls": np.bincount(a["name"], minlength=n_names),
            "busy_s": np.bincount(a["name"], weights=dur, minlength=n_names),
            "self_s": np.bincount(a["name"], weights=dur - children, minlength=n_names),
        }
        rounds = max(self.rounds, 1)

        def per_round(kind: str, name: str) -> float:
            i = self._name_ids.get(name)
            return float(by_kind[kind][i]) / rounds if i is not None else 0.0

        score_us = dur[a["name"] == self._name_ids.get("detect.score")] * 1e6
        candidates = self.counters["metric.build_net.candidates"]
        special = {
            "detect.ScanTable.build_s": per_round("busy_s", "detect.ScanTable.build"),
            "detect.score.us_p50": float(np.percentile(score_us, 50)) if score_us.size else 0.0,
            "detect.score.us_p99": float(np.percentile(score_us, 99)) if score_us.size else 0.0,
            "sim.fields": self._count_under("models.sample_null", "sim.estimate_risk", a) / rounds,
            "metric.build_net.admit_ratio": (
                self.counters["metric.build_net.members"] / candidates if candidates else 0.0
            ),
            "clusters.held_mb": held_mb,
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for key in PER_LAYER:
            span, _, kind = key.rpartition(".")
            if key in special:
                out[key] = special[key]
            elif kind in by_kind:
                out[key] = per_round(kind, span)
            else:
                out[key] = self.counters[key] / rounds
        return out

    def _count_under(self, name: str, ancestor: str, a) -> int:
        """Spans called `name` with a span called `ancestor` above them."""
        target, anc = self._name_ids.get(name), self._name_ids.get(ancestor)
        if target is None or anc is None:
            return 0
        cur = a["parent"][a["name"] == target]
        found = np.zeros(cur.size, dtype=bool)
        while (cur >= 0).any():
            live = cur >= 0
            found[live] |= a["name"][cur[live]] == anc
            cur = np.where(live, a["parent"][np.maximum(cur, 0)], -1)
        return int(found.sum())
