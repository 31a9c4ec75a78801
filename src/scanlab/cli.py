"""The `scanlab` command line tool.

Subcommands: net, enumerate, netbuild, calibrate, test, grow, sweep, rates.
Every subcommand is a pure function of its flags, input files and --seed;
exit codes: 0 success, 2 config error, 3 capacity error.  `--out -` streams
to stdout.  Sweep configs are flat `key = value` text; unknown keys are
rejected and the fully resolved config (defaults included) is echoed into
the output as # comment lines.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

from . import clusters as cl
from . import detect, growth, metric, models, network, sim
from .errors import CapacityError, ConfigError
from .rng import derive_seed, rng_from_seed


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


# ---------------------------------------------------------------------------
# values of flags and config keys

def _float(text: str) -> float:
    """A finite number: every float flag and config value parses through it."""
    try:
        number = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {text!r}")
    return number


def _int(text: str) -> int:
    """An integer, exact also above 2**53; '50.0' and '1e3' count as integers."""
    try:
        return int(text)
    except ValueError:
        number = _float(text)
    if not number.is_integer():
        raise ValueError(f"not an integer: {text!r}")
    return int(number)


def _threads(text: str) -> int:
    count = _int(text)
    if count < 1:
        raise ValueError(f"not at least 1: {text!r}")
    return count


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_float(v) for v in text.split(",") if v.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(_int(v) for v in text.split(",") if v.strip())


class Value(NamedTuple):
    """One value, declared once for each flag and config key that sets it.

    `kind` parses its text: a function, a tuple of the words it may be, or
    _bool, which makes its flag a switch.  `default` is text ("" for none);
    `required` is for the flag only, as a config key falls back to its
    default.  `flag` is given when it is not --name with "-" for "_".
    """

    kind: Callable | tuple[str, ...] = str
    default: str = ""
    required: bool = False
    flag: str | None = None
    help: str | None = None


def flag(name: str, value: Value) -> str:
    return value.flag or "--" + name.replace("_", "-")


REQUIRED = Value(required=True)  # a text that must be given, such as a file name
OUT = {"out": REQUIRED}
SEED = Value(_int, "0")


# ---------------------------------------------------------------------------
# net


NET_FLAGS = {  # also the net.* config keys
    "mode": Value(("lattice", "cloud"), "lattice", required=True),
    "d": Value(_int, "2", required=True), "side": Value(_int), "m": Value(_int), "seed": SEED,
    "rescale": Value(_bool, "false",
                     help="map the lattice to cell centers in [0,1]^d (euclidean mode)"),
}


def nodeset(values: dict, name) -> network.NodeSet:
    """The node set of `net` flags or net.* config keys.

    `values` maps NET_FLAGS keys to typed values (None when unset) and
    name(key) is how the user sets one.
    """
    if values["mode"] == "lattice":
        if values["side"] is None:
            raise ConfigError(f"lattice mode requires {name('side')}")
        net = network.make_lattice(values["d"], values["side"])
        return network.rescale_lattice(net) if values["rescale"] else net
    if values["m"] is None:  # "cloud", the one other word the mode's kind admits
        raise ConfigError(f"cloud mode requires {name('m')}")
    return network.make_uniform_cloud(values["d"], values["m"], values["seed"])


def _cmd_net(args) -> int:
    net = nodeset(vars(args), lambda key: f"--{key}")
    with _open_out(args.out) as fh:
        network.write_nodeset(net, fh)
    return 0


# ---------------------------------------------------------------------------
# cluster families: enumerate flags and scan.* config keys

# Each family parameter (a clusters.FAMILIES key) as its `enumerate` flag.
# Every one but value_pitch is also the `scan.*` config key of its name.
FAMILY_FLAGS = {
    "lambda": Value(_float, flag="--lam"),
    "lambda_lo": Value(_float, flag="--lam-lo"),
    "lambda_hi": Value(_float, flag="--lam-hi"),
    "kappa": Value(_float, "1.0"),
    "grid_eps": Value(_float, "0.5"),
    "r": Value(_float),
    "alpha": Value(_float, "1.0"),
    "n_control": Value(_int, "3", flag="--ncontrol"),
    "value_pitch": Value(_float),
    "ell": Value(_int),
    "h": Value(_int),
    "path_mode": Value(cl.PATH_MODES, "nondecreasing"),
    "budget": Value(_int, "2000"),
    "kmax": Value(_int),
    "size_cap": Value(_int),
}
ENUMERATE_FLAGS = {"net": REQUIRED, "family": Value(tuple(cl.FAMILIES), cl.BALLS, required=True),
                   **FAMILY_FLAGS, "seed": SEED, **OUT}


def family_args(family: str, values: dict, name) -> tuple[cl.Family, object, dict]:
    """`family`'s row, its parameter record, and the values used (the family,
    its parameters and size_cap), which head an enumerate file.

    `values` maps FAMILY_FLAGS keys to typed values (None when unset) and
    name(key) is how the user sets one."""
    row, used = cl.FAMILIES[family], {"family": family}
    for key in row.keys + ("size_cap",):
        if values.get(key) is not None:
            used[key] = values[key]
        elif key not in ("value_pitch", "size_cap"):
            raise ConfigError(f"{family} clusters need {name(key)}")
    return row, row.params(used), used


def _scan_args(cfg, family: str, truth: bool = False) -> tuple[cl.Family, object, dict]:
    """family_args over the scan.* config keys; for a truth, truth.k stands
    in for scan.kmax."""
    values = {key: _cfg(cfg, f"scan.{key}", None)
              for key in FAMILY_FLAGS if f"scan.{key}" in CONFIG_KEYS}
    if truth:
        values["kmax"] = _cfg(cfg, "truth.k", values["kmax"])
    return family_args(family, values, lambda key: f"config key 'scan.{key}'")


def _cmd_enumerate(args) -> int:
    net = network.load_nodeset(args.net)
    row, params, meta = family_args(args.family, vars(args),
                                    lambda key: flag(key, FAMILY_FLAGS[key]))
    clusters = cl.ClusterStream(list(cl.blocks(row.stream(net, params, meta, args.seed))))
    if "budget" in meta:  # bands: a budget and a seed head sampled paths only
        if cl.exhausts(params, net.dim):
            del meta["budget"]
        else:
            meta["seed"] = args.seed
    with _open_out(args.out) as fh:
        cl.write_clusters(clusters, fh, meta)
    return 0


NETBUILD_FLAGS = {"infile": Value(required=True, flag="--in"),
                  "epsilon": Value(_float, "0.5", required=True), **OUT}


def _cmd_netbuild(args) -> int:
    members, meta = cl.load_clusters(args.infile)
    net = metric.build_net(members, args.epsilon, family=meta.get("family", ""))
    with _open_out(args.out) as fh:
        cl.write_clusters(net.members, fh, {**meta, "epsilon": args.epsilon})
    return 0


# ---------------------------------------------------------------------------
# calibrate / test

# The test specification each --statistic name and each config `test`
# name stands for, and the columns of a calibration file: the first four
# describe the threshold, the last three what it was calibrated for.
STATISTICS = {"scan": sim.EpsScanTest, "average": sim.AverageTest,
              "cylinder-scan": sim.CylinderScanTest}
CONFIG_TESTS = {"eps-scan": sim.EpsScanTest, "multiscale": sim.MultiscaleScanTest,
                "average": sim.AverageTest, "oracle": sim.OracleTest,
                "cylinders": sim.CylinderScanTest}
CALIBRATION_COLUMNS = ("alpha", "b", "threshold", "seed", "statistic", "tm", "model")
# The library's one-row test that `scanlab test` decides a field by, for each
# --statistic name; each scores through the elements `calibrate` blocks through.
DECIDE = {"scan": lambda field, spec, model: detect.eps_scan(field, spec.net, model),
          "average": lambda field, spec, model: detect.average_test(field, model),
          "cylinder-scan": lambda field, spec, model:
              growth.scan_spacetime_cylinders(field, spec.base, model)}

SCORING_FLAGS = {"net": REQUIRED, "clusters": Value(),
                 "model": Value(tuple(models.MOMENTS), models.GAUSSIAN),
                 "statistic": Value(tuple(STATISTICS), "scan"), **OUT}
CALIBRATE_FLAGS = {**SCORING_FLAGS, "alpha": Value(_float, "0.05", required=True),
                   "b": Value(_int, "199", required=True), "tm": Value(_int, "0"),
                   "seed": SEED, "threads": Value(_threads, "1")}


def _test_spec(args, net) -> sim.TestSpec:
    """The test a --statistic name stands for, over the --clusters file."""
    spec = STATISTICS[args.statistic]
    if spec is sim.AverageTest:
        return spec()
    if args.clusters is None:
        raise ConfigError(f"--statistic {args.statistic} requires --clusters")
    clusters, meta = cl.load_clusters(args.clusters)
    table = metric.ScanTable.of(clusters)
    last = table.concat[table.indptr[1:] - 1]
    if (last >= net.m).any():
        raise ConfigError(f"cluster file {args.clusters}: node id {last[last >= net.m][0]} "
                          f"outside 0..{net.m - 1}")
    epsilon = float(meta.get("epsilon", 0.0))
    return spec(metric.EpsNet(epsilon, table, meta.get("family", "")))


def _cmd_calibrate(args) -> int:
    net = network.load_nodeset(args.net)
    model = models.noise_model(args.model)
    score = sim.scorer(_test_spec(args, net), net, model, args.tm)
    calib = detect.calibrate(
        score.block, net, model, args.alpha, args.b, args.seed,
        groups=score.groups, threads=args.threads,
    )
    with _open_out(args.out) as fh:
        fh.write(",".join(CALIBRATION_COLUMNS) + "\n")
        fh.write(
            f"{calib.alpha!r},{calib.b},{calib.threshold!r},{calib.seed},"
            f"{args.statistic},{args.tm},{args.model}\n"
        )
    return 0


def _read_calibration_threshold(path: str, **ours) -> float:
    """The threshold of a calibration file made for `ours` (statistic, tm, model)."""
    with open(path) as fh:
        calib = dict(zip(*(fh.readline().strip().split(",") for _ in range(2))))
    missing = [c for c in CALIBRATION_COLUMNS if c not in calib]
    if missing:
        raise ConfigError(f"calibration file {path} lacks the columns {missing}")
    for key, value in ours.items():
        if calib[key] != str(value):
            raise ConfigError(f"calibration file {path} is for {key} {calib[key]}, "
                              f"but this test has {key} {value}")
    try:
        return _float(calib["threshold"])
    except ValueError as exc:
        raise ConfigError(f"calibration file {path}: threshold: {exc}") from None


def _cmd_test(args) -> int:
    net = network.load_nodeset(args.net)
    model = models.noise_model(args.model)
    field = models.load_field(net, args.field)
    if args.threshold is not None:
        threshold = args.threshold
    elif args.calibration is not None:
        threshold = _read_calibration_threshold(
            args.calibration, statistic=args.statistic, tm=field.t_m, model=args.model
        )
    else:
        raise ConfigError("test requires --threshold or --calibration")
    spec = _test_spec(args, net)
    start = time.perf_counter()
    result = DECIDE[args.statistic](field, spec, model)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    statistic, argmax = result.statistic, result.argmax
    argmax_size = 0 if argmax is None else argmax.size
    decision = "reject" if statistic > threshold else "accept"
    with _open_out(args.out) as fh:
        fh.write("statistic,threshold,decision,argmax_size,wallclock_ms\n")
        fh.write(f"{statistic!r},{threshold!r},{decision},{argmax_size},{elapsed_ms:.3f}\n")
    return 0


# ---------------------------------------------------------------------------
# grow


# grow kind -> the flags it cannot do without
GROW_NEEDS = {"cylinder": ("center", "r0"), "cone": ("center", "speed"),
              "holder": ("controls", "r"), "richardson": ("x0",)}
GROW_FLAGS = {
    "net": REQUIRED, "kind": Value(tuple(GROW_NEEDS), required=True),
    "center": Value(help="comma-separated coordinates"), "r0": Value(_float),
    "speed": Value(_float), "controls": Value(help="semicolon-separated coordinate tuples"),
    "alpha": Value(_float, "1.0"), "kappa": Value(_float, "1.0"), "r": Value(_float),
    "xi": Value(_float, "1.0"), "start": Value(_int, "0"), "end": Value(_int),
    "x0": Value(_int), "p": Value(_float, "1.0"), "within_radius": Value(_float),
    "t0": Value(_int, "0"), "tm": Value(_int, required=True), "seed": SEED, **OUT,
}


def _grow_center(args, net) -> tuple[float, ...]:
    center = _floats(args.center)
    if len(center) != net.dim:
        raise ConfigError(f"--center has {len(center)} coordinates; "
                          f"the node set has d = {net.dim}")
    return center


def _cmd_grow(args) -> int:
    net = network.load_nodeset(args.net)
    for name in GROW_NEEDS[args.kind]:
        if getattr(args, name) is None:
            raise ConfigError(f"grow --kind {args.kind} requires --{name}")
    meta = {"kind": args.kind, "tm": args.tm}
    if args.kind == "cylinder":
        seq = growth.make_cylinder(net, _grow_center(args, net), args.r0, args.t0, args.tm)
        meta.update(center=args.center, r0=args.r0, t0=args.t0)
    elif args.kind == "cone":
        seq = growth.make_cone(net, _grow_center(args, net), args.speed, args.t0, args.tm)
        meta.update(center=args.center, speed=args.speed, t0=args.t0)
    elif args.kind == "holder":
        controls = [_floats(part) for part in args.controls.split(";") if part.strip()]
        end = args.tm if args.end is None else args.end
        seq = growth.make_holder_trajectory(net, controls, args.alpha, args.kappa, args.r,
                                            args.xi, args.start, end, args.tm)
        meta.update(alpha=args.alpha, kappa=args.kappa, r=args.r, xi=args.xi)
    else:
        seq = growth.richardson_grow(net, args.x0, args.p, args.t0, args.tm, args.seed,
                                     radius=args.within_radius)
        meta.update(x0=args.x0, p=args.p, t0=args.t0, seed=args.seed)
    with _open_out(args.out) as fh:
        growth.write_sequence(seq, fh, meta)
    return 0


# ---------------------------------------------------------------------------
# rates

# every parameter of a rates formula; its flag is its name without "_" and
# its theory.* config key is its name
RATE_PARAMS = tuple(dict.fromkeys(
    key for _, keys in detect.RATE_FORMULAS.values() for key in keys))
RATE_FLAGS = {"formula": Value(required=True), **{
    key: Value(_int if key in ("d", "p") else _float, flag="--" + key.replace("_", ""))
    for key in RATE_PARAMS}}


def _cmd_rates(args) -> int:
    params = {key: getattr(args, key) for key in RATE_PARAMS if getattr(args, key) is not None}
    value = detect.rate(args.formula, **params)
    print(f"{value:.4f}")
    return 0


# ---------------------------------------------------------------------------
# sweep config

# the truth.family words: the families with a truth sampler, the ball truth
# and the Richardson truth, both drawn below from truth.* keys
TRUTH_FAMILIES = (cl.BALLS, *(f for f, row in cl.FAMILIES.items() if row.truth), "richardson")

# every sweep config key; a key shares the declaration of its flag
CONFIG_KEYS = {
    **{f"net.{key}": value for key, value in NET_FLAGS.items()},
    "model": SCORING_FLAGS["model"],
    "tm": CALIBRATE_FLAGS["tm"],
    "test": Value(tuple(CONFIG_TESTS), "eps-scan"),
    "scan.family": ENUMERATE_FLAGS["family"],
    "scan.epsilon": NETBUILD_FLAGS["epsilon"],
    **{f"scan.{key}": value for key, value in FAMILY_FLAGS.items() if key != "value_pitch"},
    "multiscale.scales": Value(_ints),
    "truth.family": Value(TRUTH_FAMILIES),
    "truth.lambda": Value(_float), "truth.count": Value(_int, "5"),
    "truth.margin": Value(_float), "truth.k": Value(_int), "truth.p": Value(_float, "0.7"),
    "truth.limit_radius": Value(_int), "truth.warmup": Value(_int, "0"),
    "truth.onset": Value(_int, "0"),
    "lambda.grid": Value(_floats), "trials": Value(_int, "200"), "n_null": Value(_int, "400"),
    "alpha": CALIBRATE_FLAGS["alpha"], "calibration.b": CALIBRATE_FLAGS["b"],
    "seed": CALIBRATE_FLAGS["seed"], "threads": CALIBRATE_FLAGS["threads"],
    **{f"theory.{key}": value for key, value in RATE_FLAGS.items()},
}


def parse_config(text: str) -> dict[str, str]:
    """Flat `key = value` lines; # comments; unknown keys and values not of
    their key's kind are rejected by name, and so is a scan.family with no
    truth sampler when truth.family, which falls back to it, is unset.
    Values are kept as text."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"duplicate config key {key!r}")
        out[key] = value
        _cfg(out, key, None)
    if not out.get("truth.family") and _cfg_get(out, "scan.family") not in TRUTH_FAMILIES:
        raise ConfigError(
            f"config key 'scan.family': truths cannot be drawn from family "
            f"{_cfg_get(out, 'scan.family')!r}; set truth.family (one of {list(TRUTH_FAMILIES)})")
    return out


def _cfg_get(cfg: dict, key: str) -> str:
    return cfg.get(key, CONFIG_KEYS[key].default)


def _cfg(cfg, key: str, *default):
    """A config value as its key's kind; when unset, `default` if given,
    else a named error."""
    value = _cfg_get(cfg, key)
    if value == "":
        if default:
            return default[0]
        raise ConfigError(f"missing required config key {key!r}")
    kind = CONFIG_KEYS[key].kind
    try:
        if not isinstance(kind, tuple):
            return kind(value)
        if value in kind:
            return value
        raise ValueError(f"unknown {key.rsplit('.', 1)[-1]} {value!r}; known: {list(kind)}")
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


def _center_sampler(net: network.NodeSet, lo: float, hi: float, what: str):
    """draw(rng) -> a node with every coordinate in [lo, hi], by rejection.

    ConfigError (naming `what`) when no node qualifies; the draws stop at 64
    times their expected count, reached with chance below e**-64.
    """
    ok = ((net.coords >= lo) & (net.coords <= hi)).all(axis=1)
    n_ok = int(ok.sum())
    if n_ok == 0:
        raise ConfigError(f"{what}: no node has every coordinate in [{lo}, {hi}]")
    cap = 64 * (net.m // n_ok + 1)

    def draw(rng) -> int:
        for _ in range(cap):
            node = int(rng.integers(0, net.m))
            if ok[node]:
                return node
        raise ConfigError(f"{what}: no admissible node in {cap} draws")

    return draw


def _truth_sampler_from_config(cfg, net, t_m):
    family = _cfg_get(cfg, "truth.family") or _cfg_get(cfg, "scan.family")
    if family == cl.BALLS:
        lam = _cfg(cfg, "truth.lambda" if _cfg_get(cfg, "truth.lambda") else "scan.lambda")
        margin = _cfg(cfg, "truth.margin", lam)
        extent = 1.0 if net.mode == network.EUCLIDEAN else float(net.side - 1)
        draw = _center_sampler(net, margin, extent - margin, "truth.margin")

        def sample(seed: int):
            node = draw(rng_from_seed(seed))
            return network.ball_nodes(net, net.coords[node], lam)

        return sample
    if family == "richardson":
        if net.mode != network.LATTICE:
            raise ConfigError("truth.family = richardson needs a lattice (net.rescale = false)")
        radius = _cfg(cfg, "truth.limit_radius")
        p = _cfg(cfg, "truth.p")
        warmup = _cfg(cfg, "truth.warmup")
        onset = _cfg(cfg, "truth.onset")
        draw = _center_sampler(net, radius + 1, net.side - 2 - radius, "truth.limit_radius")

        def sample(seed: int):
            node = draw(rng_from_seed(seed))
            horizon = warmup + t_m
            seq = growth.richardson_grow(
                net, node, p, onset, horizon, derive_seed(seed, "grow"), radius=radius
            )
            return seq.window(warmup, horizon)

        return sample
    row, params, _ = _scan_args(cfg, family, truth=True)
    return lambda seed: row.truth(net, params, seed)


def _theory_from_config(cfg) -> float | None:
    formula = _cfg_get(cfg, "theory.formula")
    if not formula:
        return None
    params = {key: _cfg(cfg, f"theory.{key}") for key in RATE_PARAMS
              if _cfg_get(cfg, f"theory.{key}")}
    return detect.rate(formula, **params)


def build_experiment(cfg: dict, threads: int | None = None) -> tuple[sim.ExperimentConfig, dict]:
    """Resolve a parsed config into an ExperimentConfig plus the echo map."""
    net = nodeset({key: _cfg(cfg, f"net.{key}", None) for key in NET_FLAGS},
                  lambda key: f"config key 'net.{key}'")
    model = models.noise_model(_cfg(cfg, "model"))
    seed = _cfg(cfg, "seed")
    t_m = _cfg(cfg, "tm")
    epsilon = _cfg(cfg, "scan.epsilon")
    spec = CONFIG_TESTS[_cfg(cfg, "test")]
    if spec is sim.MultiscaleScanTest:
        if not _cfg_get(cfg, "multiscale.scales"):
            raise ConfigError("test=multiscale requires multiscale.scales")
        scales = _cfg(cfg, "multiscale.scales")
        extent = 1.0 if net.mode == network.EUCLIDEAN else float(net.side)
        nets = {
            s: metric.build_net(
                cl.enumerate_balls(net, extent * 2.0 ** (-s)), epsilon, family=cl.BALLS
            )
            for s in scales
        }
        test = spec(nets=nets)
    elif spec in (sim.EpsScanTest, sim.CylinderScanTest):
        row, params, values = _scan_args(cfg, _cfg(cfg, "scan.family"))
        stream = row.stream(net, params, values, derive_seed(seed, "scanpaths"))
        test = spec(metric.build_net(stream, epsilon))
    else:
        test = spec()

    sampler = _truth_sampler_from_config(cfg, net, t_m)
    truth = sim.SampledTruths(sampler=sampler, count=_cfg(cfg, "truth.count"))
    lambdas = _cfg(cfg, "lambda.grid")

    exp = sim.ExperimentConfig(
        net=net,
        model=model,
        test=test,
        truth=truth,
        lambdas=lambdas,
        trials=_cfg(cfg, "trials"),
        alpha=_cfg(cfg, "alpha"),
        calib_b=_cfg(cfg, "calibration.b"),
        seed=seed,
        t_m=t_m,
        n_null=_cfg(cfg, "n_null"),
        threads=threads if threads is not None else _cfg(cfg, "threads"),
        theory=_theory_from_config(cfg),
    )
    echo = {key: value.default for key, value in CONFIG_KEYS.items()}
    echo.update(cfg)
    # thread count never changes results, so it is not part of the echoed
    # experiment identity (outputs stay byte-identical across --threads)
    echo.pop("threads", None)
    return exp, echo


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    exp, echo = build_experiment(cfg, threads=args.threads)
    rows = sim.estimate_risk(exp)
    with _open_out(args.out) as fh:
        sim.write_sweep_csv(rows, fh, echo=echo)
    return 0


# ---------------------------------------------------------------------------
# parser


# subcommand -> (its function, its help, its flags in --help order)
COMMANDS = {
    "net": (_cmd_net, "construct and save a node set", {**NET_FLAGS, **OUT}),
    "enumerate": (_cmd_enumerate, "enumerate a cluster family", ENUMERATE_FLAGS),
    "netbuild": (_cmd_netbuild, "greedy epsilon-net from a cluster file", NETBUILD_FLAGS),
    "calibrate": (_cmd_calibrate, "empirical null quantile of a statistic", CALIBRATE_FLAGS),
    "test": (_cmd_test, "run a thresholded test on a saved field",
             {**SCORING_FLAGS, "field": REQUIRED, "threshold": Value(_float),
              "calibration": Value()}),
    "grow": (_cmd_grow, "generate a cluster sequence", GROW_FLAGS),
    "sweep": (_cmd_sweep, "Monte Carlo risk sweep from a config file",
              {"config": REQUIRED, "threads": Value(_threads), **OUT}),
    "rates": (_cmd_rates, "closed-form detection thresholds", RATE_FLAGS),
}


def _flag_kind(kind: Callable) -> Callable:
    """kind, refusing as argparse words it: "argument --side: not an integer: '8.5'"."""
    def parse(text: str):
        try:
            return kind(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The `scanlab` parser, listing every subcommand; when `only` names one, the
    others share one bare stand-in parser, as a call parses only its own."""
    parser = argparse.ArgumentParser(prog="scanlab", description=__doc__)
    stand_in = argparse.ArgumentParser(add_help=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=lambda **kw: (
        stand_in if kw["prog"] != f"scanlab {only}" and only in COMMANDS
        else argparse.ArgumentParser(**kw)))
    for command, (func, about, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=about)
        if p is stand_in:
            continue
        p.set_defaults(func=func)
        for name, value in flags.items():
            kind = ({"action": "store_true"} if value.kind is _bool else
                    {"default": value.default or None,
                     **({"choices": value.kind} if isinstance(value.kind, tuple) else
                        {"type": _flag_kind(value.kind)})})
            p.add_argument(flag(name, value), dest=name, required=value.required,
                           help=value.help, **kind)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"scanlab: config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"scanlab: capacity error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"scanlab: file error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"scanlab: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
