"""The three scanbench workloads: inputs, one round of calls, and its checks.

A round is the whole workload once: set-up, the Monte Carlo phase and the
decisions, each timed around calls into scanlab's public functions.  Every
round of a run repeats the same calls on the same inputs, which come from
the workload seed alone; the program receives only those inputs.  `check`
returns the failed correctness checks of a round's outputs (empty when all
hold); it compares against sums and laws computed here, never against a
stored copy of earlier output.

Sizes: "full" is what the benchmark measures; "tiny" runs each workload in
a second or two for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.stats import norm

from checks import (
    check_packing,
    cylinder_statistic,
    dyadic_windows,
    multiscale_decision,
    parse_cluster_file,
    parse_field_file,
    risk_at_most,
    risk_at_least,
    type1_in_law,
)

import scanlab.cli
import scanlab.clusters
import scanlab.detect
import scanlab.metric
import scanlab.models
import scanlab.network
import scanlab.sim

ALPHA = 0.05

SIZES = {
    "full": {
        "oracle-risk": dict(trials=20_000, setup_reps=200, decisions=4_000, block=500),
        "multiscale-thick": dict(
            side=128, scales=(5, 4, 3, 2), trials=50, calib_b=199, n_null=200,
            decisions=4, net_samples=6,
        ),
        "cli-spacetime": dict(
            side=64, ell=16, h=3, budget=500, tm=32, radius=6, calib_b=199,
            null_fields=3, planted_fields=3, sweep_b=99, sweep_null=100,
            sweep_trials=50, sweep_truths=2, sweep_lambdas=(6.0, 18.0),
        ),
    },
    "tiny": {
        "oracle-risk": dict(trials=2_000, setup_reps=20, decisions=200, block=100),
        "multiscale-thick": dict(
            side=32, scales=(5, 4), trials=50, calib_b=99, n_null=100,
            decisions=2, net_samples=3,
        ),
        "cli-spacetime": dict(
            side=16, ell=6, h=2, budget=40, tm=8, radius=2, calib_b=99,
            null_fields=1, planted_fields=1, sweep_b=99, sweep_null=100,
            sweep_trials=50, sweep_truths=1, sweep_lambdas=(4.0, 16.0),
        ),
    },
}


@dataclass
class Round:
    """Timings of one round (seconds) and the outputs its checks read."""

    setup_s: float = 0.0
    mc_s: float = 0.0
    fields: int = 0
    decide_s: list[float] = field(default_factory=list)
    total_s: float = 0.0
    held_mb: float = 0.0
    failed: int = 0
    outputs: dict = field(default_factory=dict)


def _seeds(seed: int, stream: int, n: int) -> list[int]:
    """n independent 63-bit program seeds for one workload."""
    state = np.random.SeedSequence([seed % 2**64, stream]).generate_state(n, np.uint64)
    return [int(s) >> 1 for s in state]


def deep_size(obj) -> int:
    """Bytes held by `obj` and everything it references, each object once."""
    seen: set[int] = set()
    stack = [obj]
    total = 0
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, type):
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        if isinstance(item, np.ndarray):
            if item.base is not None:
                stack.append(item.base)
        elif isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        elif hasattr(item, "__dict__"):
            stack.append(vars(item))
    return total


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


# ---------------------------------------------------------------------------
# oracle-risk: criterion 1's 3x3 lattice, per-trial overhead only


class OracleRisk:
    """`estimate_risk` with `OracleTest`: nine values per field, no table."""

    name = "oracle-risk"
    lambdas = (1.0, 2.0, 4.0)
    truth_ids = (1, 3, 4, 5)

    def __init__(self, seed: int, size: str, workdir: Path):
        self.p = SIZES[size][self.name]
        (self.mc_seed, field_seed) = _seeds(seed, 1, 2)
        rng = np.random.default_rng(field_seed)
        n = self.p["decisions"]
        self.values = rng.standard_normal((n, 1, 9))
        self.decide_lams = rng.choice(self.lambdas, size=n)
        planted = np.flatnonzero(rng.random(n) < 0.5)
        # theta_K = sigma * lam / sqrt(|K|) on each truth node (gaussian, |K| = 4)
        self.values[planted[:, None], 0, list(self.truth_ids)] += (
            self.decide_lams[planted] / 2.0
        )[:, None]
        self.ops_per_round = len(self.lambdas) + n

    def setup(self):
        net = scanlab.network.make_lattice(2, 3)
        truth = scanlab.clusters.Cluster(self.truth_ids)
        model = scanlab.models.noise_model("gaussian")
        cfg = scanlab.sim.ExperimentConfig(
            net=net, model=model, test=scanlab.sim.OracleTest(),
            truth=scanlab.sim.FixedTruths((truth,)), lambdas=self.lambdas,
            trials=self.p["trials"], n_null=self.p["trials"], seed=self.mc_seed,
            threads=1,
        )
        return net, truth, model, cfg

    def round(self, tracer=None) -> Round:
        r = Round()
        reps = self.p["setup_reps"]
        start = time.perf_counter()
        for _ in range(reps):
            net, truth, model, cfg = self.setup()
        r.setup_s = (time.perf_counter() - start) / reps
        rows, r.mc_s = _timed(scanlab.sim.estimate_risk, cfg)
        r.fields = cfg.n_null + cfg.trials * len(cfg.lambdas)
        fields = [scanlab.models.Field(net, v) for v in self.values]
        lams = [float(v) for v in self.decide_lams]
        oracle_test = scanlab.detect.oracle_test
        results = []
        block = self.p["block"]
        decide_total = 0.0
        for lo in range(0, len(fields), block):
            start = time.perf_counter()
            for f, lam in zip(fields[lo : lo + block], lams[lo : lo + block]):
                results.append(oracle_test(f, truth, lam, model))
            elapsed = time.perf_counter() - start
            decide_total += elapsed
            r.decide_s.append(elapsed / len(fields[lo : lo + block]))
        r.total_s = r.setup_s + r.mc_s + decide_total
        r.outputs = {
            "rows": rows,
            "decisions": [(x.statistic, x.threshold, x.decision) for x in results],
        }
        return r

    def check(self, out: dict, first: bool) -> list[str]:
        bad = []
        rows = out["rows"]
        if [row.lam for row in rows] != list(self.lambdas):
            bad.append(f"risk rows at {[row.lam for row in rows]}, want {self.lambdas}")
        n = self.p["trials"]
        for row in rows:
            q = float(norm.sf(row.lam / 2.0))
            se = math.sqrt(2.0 * q * (1.0 - q) / n)
            if abs(row.risk - 2.0 * q) > 5.0 * se:
                bad.append(
                    f"risk {row.risk!r} at lam={row.lam} is {abs(row.risk - 2 * q) / se:.1f} "
                    f"se from 2*Phibar(lam/2) = {2 * q!r}"
                )
            if abs(row.risk - (row.type1 + row.type2_worst)) > 1e-12:
                bad.append(f"risk {row.risk!r} != type1 + type2 at lam={row.lam}")
        ids = list(self.truth_ids)
        for i, (stat, thr, decision) in enumerate(out["decisions"]):
            own = self.values[i, 0, ids].sum() / math.sqrt(len(ids))
            lam = float(self.decide_lams[i])
            if abs(stat - own) > 1e-9:
                bad.append(f"decision {i}: statistic {stat!r}, own sum {own!r}")
            if thr != lam / 2.0:
                bad.append(f"decision {i}: threshold {thr!r}, want lam/2 = {lam / 2.0!r}")
            if decision != (stat > thr):
                bad.append(f"decision {i}: {decision} but statistic {stat!r} vs {thr!r}")
        return bad


# ---------------------------------------------------------------------------
# multiscale-thick: criterion 5's shape, a large cluster table


class MultiscaleThick:
    """Multiscale ball scan on a rescaled lattice; set-up is nets, trials score."""

    name = "multiscale-thick"
    truth_cells = ((32, 32), (64, 80), (96, 48))  # on the 128 grid

    def __init__(self, seed: int, size: str, workdir: Path):
        self.p = p = SIZES[size][self.name]
        side = p["side"]
        self.m = side * side
        self.mc_seed, field_seed, self.net_sample_seed = _seeds(seed, 2, 3)
        rng = np.random.default_rng(field_seed)
        self.values = rng.standard_normal((p["decisions"], 1, self.m))
        self._digest = None
        self._fields_planted = False
        self.ops_per_round = 2 + p["decisions"]

    def setup(self):
        p = self.p
        side = p["side"]
        lat = scanlab.network.rescale_lattice(scanlab.network.make_lattice(2, side))
        r_top = 4.1 / side  # open ball of 49 nodes around an interior center
        centers = [((x + 0.5) / side, (y + 0.5) / side)
                   for x in range(0, side, 4) for y in range(0, side, 4)]
        top, *rest = p["scales"]
        balls = [b for b in (scanlab.network.ball_nodes(lat, c, r_top) for c in centers) if b]
        nets = {top: scanlab.metric.build_net(balls, 0.5, family="balls")}
        for scale in rest:
            r = r_top * 2 ** (top - scale)
            params = scanlab.clusters.ThickParams(
                lam_lo=r, lam_hi=r, kappa=1.0, shapes=("ball",), grid_eps=0.25
            )
            nets[scale] = scanlab.metric.build_net(
                scanlab.clusters.enumerate_thick(lat, params), 0.5, family="balls"
            )
        cells = [(round(cx * side / 128), round(cy * side / 128)) for cx, cy in self.truth_cells]
        truths = tuple(
            scanlab.network.ball_nodes(lat, ((cx + 0.5) / side, (cy + 0.5) / side), r_top)
            for cx, cy in cells
        )
        theory = scanlab.detect.rate("thick", m=lat.m, k=49)
        cfg = scanlab.sim.ExperimentConfig(
            net=lat, model=scanlab.models.noise_model("gaussian"),
            test=scanlab.sim.MultiscaleScanTest(nets=nets),
            truth=scanlab.sim.FixedTruths(truths),
            lambdas=(0.25 * theory, 1.5 * theory), trials=p["trials"], alpha=ALPHA,
            calib_b=p["calib_b"], n_null=p["n_null"], seed=self.mc_seed, threads=1,
            theory=theory,
        )
        return lat, nets, truths, cfg

    def _plant(self, truths, theory) -> None:
        """Odd-numbered decision fields carry a ball at 4x rate; done once per run."""
        if self._fields_planted:
            return
        for i in range(1, len(self.values), 2):
            truth = truths[(i // 2) % len(truths)]
            self.values[i, 0, list(truth.ids)] += 4.0 * theory / math.sqrt(truth.size)
        self._fields_planted = True

    def round(self, tracer=None) -> Round:
        r = Round()
        (lat, nets, truths, cfg), r.setup_s = _timed(self.setup)
        if tracer is not None:
            r.held_mb = deep_size(nets) / 2**20
        rows, r.mc_s = _timed(scanlab.sim.estimate_risk, cfg)
        r.fields = cfg.calib_b + cfg.n_null + cfg.trials * len(cfg.lambdas) * len(truths)
        self._plant(truths, cfg.theory)
        results = []
        for values in self.values:
            fld = scanlab.models.Field(lat, values)
            res, elapsed = _timed(scanlab.detect.multiscale_test, fld, nets, None, cfg.model)
            r.decide_s.append(elapsed)
            results.append(res)
        r.total_s = r.setup_s + r.mc_s + sum(r.decide_s)
        r.outputs = {
            "nets": nets,
            "rows": rows,
            "cfg": cfg,
            "decisions": [
                {
                    "statistic": x.statistic,
                    "threshold": x.threshold,
                    "decision": x.decision,
                    "argmax": x.argmax.ids,
                    "scale_thresholds": {d.scale: d.threshold for d in x.per_scale},
                }
                for x in results
            ],
        }
        return r

    def check(self, out: dict, first: bool) -> list[str]:
        bad = []
        nets, cfg = out["nets"], out["cfg"]
        idx = {s: [np.asarray(c.ids, dtype=np.int64) for c in net.members]
               for s, net in nets.items()}
        digest = hashlib.blake2b(repr(sorted((s, [c.ids for c in n.members])
                                             for s, n in nets.items())).encode()).hexdigest()
        if first:
            self._digest = digest
            bad += check_packing(idx, 0.5, self.m, self.p["net_samples"], self.net_sample_seed)
        elif digest != self._digest:
            bad.append("the nets differ from the first round's")
        for i, got in enumerate(out["decisions"]):
            want = multiscale_decision(self.values[i, 0], idx, self.m, 2)
            if abs(got["statistic"] - want["statistic"]) > 1e-9:
                bad.append(f"decision {i}: statistic {got['statistic']!r}, "
                           f"own {want['statistic']!r}")
            if tuple(got["argmax"]) != tuple(want["argmax"]):
                bad.append(f"decision {i}: argmax differs from the own argmax")
            for s, tau in want["scale_thresholds"].items():
                if abs(got["scale_thresholds"].get(s, math.nan) - tau) > 1e-12:
                    bad.append(f"decision {i}: scale {s} threshold "
                               f"{got['scale_thresholds'].get(s)!r}, want {tau!r}")
            if got["threshold"] != 0.0 or got["decision"] != (got["statistic"] > 0.0):
                bad.append(f"decision {i}: {got['decision']} at statistic "
                           f"{got['statistic']!r}, threshold {got['threshold']!r}")
            if i % 2 == 1 and not got["decision"]:
                bad.append(f"decision {i}: a ball planted at 4x rate was accepted")
        low, high = out["rows"]
        for row in (low, high):
            if abs(row.risk - (row.type1 + row.type2_worst)) > 1e-12:
                bad.append(f"risk {row.risk!r} != type1 + type2 at lam={row.lam}")
        bad += type1_in_law(low.type1, cfg.n_null, cfg.calib_b, ALPHA)
        bad += risk_at_least(low, 0.8, z=2.0)
        bad += risk_at_most(high, 0.2, z=4.0)
        return bad


# ---------------------------------------------------------------------------
# cli-spacetime: the file pipeline of a surveillance user


class CliSpacetime:
    """`scanlab` subcommands over files: bands, Richardson outbreaks, cylinders."""

    name = "cli-spacetime"

    def __init__(self, seed: int, size: str, workdir: Path):
        self.p = p = SIZES[size][self.name]
        self.dir = workdir
        side, radius = p["side"], p["radius"]
        (self.enum_seed, self.grow_seed, self.calib_seed, self.sweep_seed,
         field_seed) = _seeds(seed, 3, 5)
        rng = np.random.default_rng(field_seed)
        x, y = rng.integers(radius + 1, side - 1 - radius, size=2)
        self.x0 = int(x) * side + int(y)
        n_fields = p["null_fields"] + p["planted_fields"]
        self.values = rng.standard_normal((n_fields, p["tm"] + 1, side * side))
        self.field_files = [self.dir / f"field{i}.csv" for i in range(n_fields)]
        self._outbreak = None
        self.ops_per_round = 6 + n_fields

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def _config(self) -> str:
        p = self.p
        return "\n".join([
            "net.mode = lattice",
            f"net.side = {p['side']}",
            f"tm = {p['tm']}",
            "test = cylinders",
            "scan.family = bands",
            f"scan.ell = {p['ell']}",
            f"scan.h = {p['h']}",
            "scan.path_mode = self-avoiding",
            f"scan.budget = {p['budget']}",
            "scan.epsilon = 0.5",
            "truth.family = richardson",
            f"truth.limit_radius = {p['radius']}",
            "truth.p = 0.7",
            f"truth.warmup = {2 * p['radius']}",
            f"truth.count = {p['sweep_truths']}",
            "lambda.grid = " + ",".join(repr(v) for v in p["sweep_lambdas"]),
            f"trials = {p['sweep_trials']}",
            f"alpha = {ALPHA}",
            f"calibration.b = {p['sweep_b']}",
            f"n_null = {p['sweep_null']}",
            f"seed = {self.sweep_seed}",
            "threads = 1",
            "",
        ])

    def _write_fields(self) -> None:
        """Null fields, then fields carrying the grown outbreak at a strong lam."""
        slices = self._outbreak
        pairs = sum(len(ids) for ids in slices.values())
        theta = 30.0 / math.sqrt(pairs)  # lam = 30 over the whole outbreak
        for i in range(self.p["null_fields"], len(self.values)):
            for t, ids in slices.items():
                self.values[i, t, ids] += theta
        for path, values in zip(self.field_files, self.values):
            tm1, m = values.shape
            nodes = np.repeat(np.arange(m), tm1)
            times = np.tile(np.arange(tm1), m)
            flat = values.T.ravel()
            with open(path, "w") as fh:
                fh.write("node,t,value\n")
                fh.write("".join(f"{n},{t},{float(v)!r}\n" for n, t, v in zip(nodes, times, flat)))

    def round(self, tracer=None) -> Round:
        r = Round()
        p = self.p
        codes: dict[str, int] = {}
        times: dict[str, float] = {}
        main = scanlab.cli.main

        def cli(key: str, argv: list[str]) -> None:
            start = time.perf_counter()
            codes[key] = tracer.cli(main, argv) if tracer is not None else main(argv)
            times[key] = time.perf_counter() - start

        net, bands, band_net, outbreak, calib = (
            self._path(name)
            for name in ("net.csv", "bands.txt", "bandnet.txt", "outbreak.txt", "calib.csv")
        )
        cli("net", ["net", "--mode", "lattice", "--d", "2", "--side", str(p["side"]), "--out", net])
        cli("enumerate", ["enumerate", "--net", net, "--family", "bands", "--ell", str(p["ell"]),
                          "--h", str(p["h"]), "--path-mode", "self-avoiding",
                          "--budget", str(p["budget"]), "--seed", str(self.enum_seed),
                          "--out", bands])
        cli("netbuild", ["netbuild", "--in", bands, "--epsilon", "0.5", "--out", band_net])
        cli("grow", ["grow", "--net", net, "--kind", "richardson", "--x0", str(self.x0),
                     "--p", "0.7", "--tm", str(p["tm"]), "--within-radius", str(p["radius"]),
                     "--seed", str(self.grow_seed), "--out", outbreak])
        r.setup_s = sum(times.values())
        if tracer is not None:
            with tracer.pause():
                r.held_mb = deep_size(scanlab.clusters.load_clusters(band_net)) / 2**20
        cli("calibrate", ["calibrate", "--net", net, "--clusters", band_net,
                          "--statistic", "cylinder-scan", "--tm", str(p["tm"]),
                          "--alpha", str(ALPHA), "--b", str(p["calib_b"]),
                          "--seed", str(self.calib_seed), "--threads", "1", "--out", calib])
        r.mc_s, r.fields = times["calibrate"], p["calib_b"]
        grown = parse_cluster_file(outbreak, timed=True)
        if self._outbreak is None:
            self._outbreak = grown
            self._write_fields()
        tests = []
        for i, path in enumerate(self.field_files):
            out = self._path(f"result{i}.csv")
            cli(f"test{i}", ["test", "--net", net, "--clusters", band_net, "--field", str(path),
                             "--statistic", "cylinder-scan", "--calibration", calib, "--out", out])
            r.decide_s.append(times[f"test{i}"])
            tests.append(_read_csv(out)[0] if codes[f"test{i}"] == 0 else None)
        config = self.dir / "sweep.cfg"
        config.write_text(self._config())
        sweep_out = self._path("sweep.csv")
        cli("sweep", ["sweep", "--config", str(config), "--threads", "1", "--out", sweep_out])
        r.total_s = sum(times.values())
        r.failed = sum(1 for code in codes.values() if code)
        r.outputs = {
            "codes": codes,
            "tests": tests,
            "calibration": _read_csv(calib)[0] if codes["calibrate"] == 0 else None,
            "band_net": parse_cluster_file(band_net) if codes["netbuild"] == 0 else None,
            "outbreak": grown,
            "sweep": _read_csv(sweep_out) if codes["sweep"] == 0 else None,
        }
        return r

    def check(self, out: dict, first: bool) -> list[str]:
        bad = [f"scanlab {key} exited {code}" for key, code in out["codes"].items() if code]
        if bad:
            return bad
        grown = out["outbreak"]
        if grown.keys() != self._outbreak.keys() or any(
            not np.array_equal(grown[t], self._outbreak[t]) for t in grown
        ):
            bad.append("the grown outbreak differs from the first round's")
        threshold = float(out["calibration"]["threshold"])
        members = out["band_net"]
        windows = dyadic_windows(self.p["tm"] + 1)
        for i, (row, path) in enumerate(zip(out["tests"], self.field_files)):
            values = parse_field_file(path, self.p["side"] ** 2) if first else self.values[i]
            if first and not np.array_equal(values, self.values[i]):
                bad.append(f"field file {i} does not hold the values written to it")
            own, own_size = cylinder_statistic(values, members, windows)
            stat = float(row["statistic"])
            if abs(stat - own) > 1e-9:
                bad.append(f"test {i}: statistic {stat!r}, own sum {own!r}")
            if float(row["threshold"]) != threshold:
                bad.append(f"test {i}: threshold {row['threshold']}, "
                           f"calibration says {threshold!r}")
            if row["decision"] != ("reject" if stat > float(row["threshold"]) else "accept"):
                bad.append(f"test {i}: {row['decision']} at statistic {stat!r} "
                           f"vs {row['threshold']}")
            if int(row["argmax_size"]) != own_size:
                bad.append(f"test {i}: argmax size {row['argmax_size']}, own {own_size}")
            if i >= self.p["null_fields"] and row["decision"] != "reject":
                bad.append(f"test {i}: a strongly planted outbreak was accepted")
        rows = out["sweep"]
        lams = [float(row["lambda"]) for row in rows]
        if lams != list(self.p["sweep_lambdas"]):
            bad.append(f"sweep rows at {lams}, want {self.p['sweep_lambdas']}")
        sweep = [
            SimpleNamespace(lam=float(row["lambda"]), **{
                k: float(row[k]) for k in ("type1", "type2_worst", "risk", "se")
            })
            for row in rows
        ]
        for row in sweep:
            if abs(row.risk - (row.type1 + row.type2_worst)) > 1e-12:
                bad.append(f"sweep risk {row.risk!r} != type1 + type2 at lam={row.lam}")
        bad += type1_in_law(sweep[0].type1, self.p["sweep_null"], self.p["sweep_b"], ALPHA)
        bad += risk_at_most(sweep[-1], 0.2, z=2.0)
        return bad


def _read_csv(path) -> list[dict[str, str]]:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


WORKLOADS = {w.name: w for w in (OracleRisk, MultiscaleThick, CliSpacetime)}
