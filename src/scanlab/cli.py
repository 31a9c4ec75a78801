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


# ---------------------------------------------------------------------------
# net


NET_KEYS = ("mode", "d", "side", "m", "seed", "rescale")  # net flags and net.* keys


def nodeset(values: dict, name) -> network.NodeSet:
    """The node set of `net` flags or net.* config keys.

    `values` maps NET_KEYS to typed values (None when unset) and name(key)
    is how the user sets one.
    """
    mode = values["mode"]
    if mode == "lattice":
        if values["side"] is None:
            raise ConfigError(f"lattice mode requires {name('side')}")
        net = network.make_lattice(values["d"], values["side"])
        return network.rescale_lattice(net) if values["rescale"] else net
    if mode == "cloud":
        if values["m"] is None:
            raise ConfigError(f"cloud mode requires {name('m')}")
        return network.make_uniform_cloud(values["d"], values["m"], values["seed"])
    raise ConfigError(f"{name('mode')}: unknown mode {mode!r}")


def _cmd_net(args) -> int:
    net = nodeset(vars(args), lambda key: f"--{key}")
    with _open_out(args.out) as fh:
        network.write_nodeset(net, fh)
    return 0


# ---------------------------------------------------------------------------
# cluster families: enumerate flags and scan.* config keys

# Each family parameter (a clusters.FAMILIES key) with its kind, its
# `enumerate` flag and its default ("" for none).  Every one but value_pitch
# is also the `scan.*` config key of its name, of the same kind and default.
FAMILY_FLAGS = {
    "lambda": (_float, "--lam", ""),
    "lambda_lo": (_float, "--lam-lo", ""),
    "lambda_hi": (_float, "--lam-hi", ""),
    "kappa": (_float, "--kappa", "1.0"),
    "grid_eps": (_float, "--grid-eps", "0.5"),
    "r": (_float, "--r", ""),
    "alpha": (_float, "--alpha", "1.0"),
    "n_control": (_int, "--ncontrol", "3"),
    "value_pitch": (_float, "--value-pitch", ""),
    "ell": (_int, "--ell", ""),
    "h": (_int, "--h", ""),
    "path_mode": (str, "--path-mode", "nondecreasing"),
    "budget": (_int, "--budget", "2000"),
    "kmax": (_int, "--kmax", ""),
    "size_cap": (_int, "--size-cap", ""),
}


def cluster_class(family: str, values: dict, name) -> tuple[cl.ClusterClass, dict]:
    """The ClusterClass of `family` from enumerate flags or scan.* config keys.

    `values` maps FAMILY_FLAGS keys to typed values (None when unset) and
    name(key) is how the user sets one.  Also returns the values used, which
    head an enumerate output file.
    """
    if family not in cl.FAMILIES:
        raise ConfigError(f"unknown cluster family {family!r}; known: {list(cl.FAMILIES)}")
    used: dict = {"family": family}
    for key in cl.FAMILIES[family][0] + ("size_cap",):
        if values.get(key) is not None:
            used[key] = values[key]
        elif key not in ("value_pitch", "size_cap"):
            raise ConfigError(f"{family} clusters need {name(key)}")
    return cl.ClusterClass.of(family, used), used


def _scan_class(cfg, family: str) -> cl.ClusterClass:
    """cluster_class over the scan.* config keys."""
    values = {key: _cfg(cfg, f"scan.{key}", None)
              for key in FAMILY_FLAGS if f"scan.{key}" in _CONFIG_DEFAULTS}
    return cluster_class(family, values, lambda key: f"config key 'scan.{key}'")[0]


def _cmd_enumerate(args) -> int:
    net = network.load_nodeset(args.net)
    cclass, meta = cluster_class(args.family, vars(args), lambda key: FAMILY_FLAGS[key][1])
    if cclass.family == cl.BANDS:
        meta["seed"] = args.seed
    clusters = list(cclass.stream(net, seed=args.seed))
    with _open_out(args.out) as fh:
        cl.write_clusters(clusters, fh, meta)
    return 0


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


def _test_spec(args, net) -> sim.TestSpec:
    """The test a --statistic name stands for, over the --clusters file."""
    spec = STATISTICS[args.statistic]
    if spec is sim.AverageTest:
        return spec()
    if args.clusters is None:
        raise ConfigError(f"--statistic {args.statistic} requires --clusters")
    members, meta = cl.load_clusters(args.clusters)
    bad = [int(c.idarray[-1]) for c in members if c.idarray[-1] >= net.m]
    if bad:
        raise ConfigError(f"cluster file {args.clusters}: node id {bad[0]} outside 0..{net.m - 1}")
    epsilon = float(meta.get("epsilon", 0.0))
    return spec(metric.EpsNet(epsilon, tuple(members), meta.get("family", "")))


def _cmd_calibrate(args) -> int:
    net = network.load_nodeset(args.net)
    model = models.noise_model(args.model)
    score = sim.scorer(_test_spec(args, net), net, model, args.tm)
    calib = detect.calibrate(
        score.block, net, model, args.alpha, args.b, args.seed,
        t_m=args.tm, threads=args.threads,
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
    statistic, argmax = sim.scorer(spec, net, model, field.t_m)(field)
    elapsed_ms = (time.perf_counter() - start) * 1e3
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
        within = None
        # an --x0 that is no node id is left for richardson_grow to refuse
        if args.within_radius is not None and 0 <= args.x0 < net.m:
            within = cl.Cluster(network.closed_ball_ids(net, net.coords[args.x0], args.within_radius))
        seq = growth.richardson_grow(net, args.x0, args.p, args.t0, args.tm, args.seed,
                                     within=within)
        meta.update(x0=args.x0, p=args.p, t0=args.t0, seed=args.seed)
    with _open_out(args.out) as fh:
        growth.write_sequence(seq, fh, meta)
    return 0


# ---------------------------------------------------------------------------
# sweep config

# key -> (default, kind): the kind turns a set value into its type; "" is unset
_CONFIG_DEFAULTS = {
    "net.mode": ("lattice", str),
    "net.d": ("2", _int),
    "net.side": ("", _int),
    "net.m": ("", _int),
    "net.seed": ("0", _int),
    "net.rescale": ("false", _bool),
    "model": ("gaussian", str),
    "tm": ("0", _int),
    "test": ("eps-scan", str),
    "scan.family": ("balls", str),
    "scan.epsilon": ("0.5", _float),
    **{f"scan.{key}": (default, kind) for key, (kind, _, default) in FAMILY_FLAGS.items()
       if key != "value_pitch"},
    "multiscale.scales": ("", _ints),
    "truth.family": ("", str),
    "truth.lambda": ("", _float),
    "truth.count": ("5", _int),
    "truth.margin": ("", _float),
    "truth.k": ("", _int),
    "truth.p": ("0.7", _float),
    "truth.limit_radius": ("", _int),
    "truth.warmup": ("0", _int),
    "truth.onset": ("0", _int),
    "lambda.grid": ("", _floats),
    "trials": ("200", _int),
    "alpha": ("0.05", _float),
    "calibration.b": ("199", _int),
    "n_null": ("400", _int),
    "seed": ("0", _int),
    "threads": ("1", _threads),
    "theory.formula": ("", str),
    "theory.m": ("", _float),
    "theory.k": ("", _float),
    "theory.d": ("", _int),
    "theory.lam": ("", _float),
    "theory.ell": ("", _float),
    "theory.h": ("", _float),
}


def parse_config(text: str) -> dict[str, str]:
    """Flat `key = value` lines; # comments; unknown keys and values not of
    their key's kind are rejected by name.  Values are kept as text."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in out:
            raise ConfigError(f"duplicate config key {key!r}")
        out[key] = value
        _cfg(out, key, None)
    return out


def _cfg_get(cfg: dict, key: str) -> str:
    return cfg.get(key, _CONFIG_DEFAULTS[key][0])


def _cfg(cfg, key: str, *default):
    """A config value as its key's kind; when unset, `default` if given,
    else a named error."""
    value = _cfg_get(cfg, key)
    if value == "":
        if default:
            return default[0]
        raise ConfigError(f"missing required config key {key!r}")
    try:
        return _CONFIG_DEFAULTS[key][1](value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None


TRUTH_RETRIES = 1000  # draws of a thick truth that holds no node, at most


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
    if family in (cl.THICK, cl.BANDS):
        params = _scan_class(cfg, family).params
        if family == cl.BANDS:
            return lambda seed: cl.sample_band(net, params, seed)
        rotate = net.mode == network.EUCLIDEAN

        def sample(seed: int):
            for _ in range(TRUTH_RETRIES):
                ids = cl.sample_thick_shape(net, params, seed, rotate=rotate).member_ids(net)
                if ids.size:
                    return cl.Cluster(ids)
                seed = derive_seed(seed, "retry")
            raise ConfigError(f"no thick truth holding a node in {TRUTH_RETRIES} draws")

        return sample
    if family == cl.ANIMALS:
        k = _cfg(cfg, "truth.k" if _cfg_get(cfg, "truth.k") else "scan.kmax")
        return lambda seed: cl.sample_animal(net, k, seed)
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
            limit = cl.Cluster(network.closed_ball_ids(net, net.coords[node], radius))
            horizon = warmup + t_m
            seq = growth.richardson_grow(
                net, node, p, onset, horizon, derive_seed(seed, "grow"), within=limit
            )
            return seq.window(warmup, horizon)

        return sample
    raise ConfigError(f"config key 'truth.family': unknown family {family!r}")


def _theory_from_config(cfg) -> float | None:
    formula = _cfg_get(cfg, "theory.formula")
    if not formula:
        return None
    params = {key: _cfg(cfg, f"theory.{key}") for key in ("m", "k", "d", "lam", "ell", "h")
              if _cfg_get(cfg, f"theory.{key}")}
    return detect.rate(formula, **params)


def build_experiment(cfg: dict, threads: int | None = None) -> tuple[sim.ExperimentConfig, dict]:
    """Resolve a parsed config into an ExperimentConfig plus the echo map."""
    net = nodeset({key: _cfg(cfg, f"net.{key}", None) for key in NET_KEYS},
                  lambda key: f"config key 'net.{key}'")
    model = models.noise_model(_cfg_get(cfg, "model"))
    seed = _cfg(cfg, "seed")
    t_m = _cfg(cfg, "tm")
    epsilon = _cfg(cfg, "scan.epsilon")
    test_name = _cfg_get(cfg, "test")

    if test_name not in CONFIG_TESTS:
        raise ConfigError(f"config key 'test': unknown test {test_name!r}")
    spec = CONFIG_TESTS[test_name]
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
        cclass = _scan_class(cfg, _cfg_get(cfg, "scan.family"))
        test = spec(metric.build_net(cclass.stream(net, derive_seed(seed, "scanpaths")), epsilon))
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
    echo = {key: default for key, (default, _) in _CONFIG_DEFAULTS.items()}
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
# rates


# every parameter of a rates formula; its flag is its name without "_"
RATE_PARAMS = tuple(dict.fromkeys(
    key for _, keys in detect.RATE_FORMULAS.values() for key in keys))


def _cmd_rates(args) -> int:
    params = {key: getattr(args, key) for key in RATE_PARAMS if getattr(args, key) is not None}
    value = detect.rate(args.formula, **params)
    print(f"{value:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scanlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("net", help="construct and save a node set")
    p.add_argument("--mode", choices=["lattice", "cloud"], required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--side", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rescale", action="store_true",
                   help="map the lattice to cell centers in [0,1]^d (euclidean mode)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_net)

    p = sub.add_parser("enumerate", help="enumerate a cluster family")
    p.add_argument("--net", required=True)
    p.add_argument("--family", required=True, choices=list(cl.FAMILIES))
    for key, (kind, flag, default) in FAMILY_FLAGS.items():
        p.add_argument(flag, dest=key, type=kind, default=kind(default) if default else None,
                       choices=cl.PATH_MODES if key == "path_mode" else None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("netbuild", help="greedy epsilon-net from a cluster file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--epsilon", type=_float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_netbuild)

    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--net", required=True)
    scoring.add_argument("--clusters")
    scoring.add_argument("--model", default="gaussian",
                         choices=["gaussian", "bernoulli", "poisson"])
    scoring.add_argument("--statistic", default="scan", choices=list(STATISTICS))
    scoring.add_argument("--out", required=True)

    p = sub.add_parser("calibrate", parents=[scoring],
                       help="empirical null quantile of a statistic")
    p.add_argument("--alpha", type=_float, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--tm", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=_threads, default=1)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("test", parents=[scoring], help="run a thresholded test on a saved field")
    p.add_argument("--field", required=True)
    p.add_argument("--threshold", type=_float)
    p.add_argument("--calibration")
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("grow", help="generate a cluster sequence")
    p.add_argument("--net", required=True)
    p.add_argument("--kind", required=True,
                   choices=["cylinder", "cone", "holder", "richardson"])
    p.add_argument("--center", help="comma-separated coordinates")
    p.add_argument("--r0", type=_float)
    p.add_argument("--speed", type=_float)
    p.add_argument("--controls", help="semicolon-separated coordinate tuples")
    p.add_argument("--alpha", type=_float, default=1.0)
    p.add_argument("--kappa", type=_float, default=1.0)
    p.add_argument("--r", type=_float)
    p.add_argument("--xi", type=_float, default=1.0)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--end", type=int)
    p.add_argument("--x0", type=int)
    p.add_argument("--p", type=_float, default=1.0)
    p.add_argument("--within-radius", dest="within_radius", type=_float)
    p.add_argument("--t0", type=int, default=0)
    p.add_argument("--tm", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_grow)

    p = sub.add_parser("sweep", help="Monte Carlo risk sweep from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=_threads)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("rates", help="closed-form detection thresholds")
    p.add_argument("--formula", required=True)
    for key in RATE_PARAMS:
        p.add_argument("--" + key.replace("_", ""), dest=key,
                       type=int if key in ("d", "p") else _float)
    p.set_defaults(func=_cmd_rates)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
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
