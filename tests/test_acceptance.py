"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Monte Carlo experiments run on frozen master seeds, so every number below is
reproducible bit for bit; tolerances follow the stated criteria (binomial
standard errors at the stated trial counts).
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from scanlab.clusters import (
    BandParams,
    Cluster,
    ThickParams,
    connectivity_check,
    enumerate_animals,
    enumerate_balls,
    enumerate_thick,
    sample_band,
)
from scanlab.detect import rate
from scanlab.growth import richardson_grow
from scanlab.metric import SQRT2, build_net, delta, verify_cover
from scanlab.models import noise_model, sample_null, standardized_sum
from scanlab.network import (
    ball_ids,
    ball_nodes,
    make_lattice,
    rescale_lattice,
)
from scanlab.rng import derive_seed, rng_from_seed
from scanlab.sim import (
    EpsScanTest,
    ExperimentConfig,
    FixedTruths,
    MultiscaleScanTest,
    OracleTest,
    SampledTruths,
    estimate_risk,
)

GAUSS = noise_model("gaussian")
ALPHA = 0.05
N_NULL = 400
TYPE1_BAND = 3 * math.sqrt(ALPHA * (1 - ALPHA) / N_NULL)


def report(number, name, passed, details):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} ({name}): {status} - {details}")


# ---------------------------------------------------------------------------
# criterion 1: the simple-vs-simple risk identity


def test_criterion_01_oracle_risk_identity():
    net = make_lattice(2, 3)
    k = Cluster((1, 3, 4, 5))
    cfg = ExperimentConfig(
        net=net, model=GAUSS, test=OracleTest(), truth=FixedTruths((k,)),
        lambdas=(1.0, 2.0, 4.0), trials=100_000, n_null=100_000, seed=11,
    )
    start = time.perf_counter()
    rows = estimate_risk(cfg)
    elapsed = time.perf_counter() - start
    details = []
    ok = True
    for row in rows:
        target = 2 * norm.sf(row.lam / 2)
        diff = abs(row.risk - target)
        ok = ok and diff <= 0.01
        details.append(f"lam={row.lam:g}: {row.risk:.4f} vs {target:.4f}")
    ok = ok and elapsed < 10.0
    report(1, "oracle risk identity", ok, "; ".join(details) + f"; {elapsed:.1f}s")
    for row in rows:
        assert abs(row.risk - 2 * norm.sf(row.lam / 2)) <= 0.01
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: metric axioms on a 6-node universe


def test_criterion_02_delta_axioms():
    start = time.perf_counter()
    subsets = [
        Cluster(c) for k in range(1, 7) for c in itertools.combinations(range(6), k)
    ]
    n = len(subsets)
    dmat = np.array([[delta(a, b) for b in subsets] for a in subsets])
    symmetric = np.array_equal(dmat, dmat.T)
    identity = all(
        (dmat[i, j] == 0.0) == (subsets[i].ids == subsets[j].ids)
        for i in range(n)
        for j in range(n)
    )
    in_range = dmat.min() >= 0.0 and dmat.max() <= SQRT2 + 1e-12
    # triangle inequality: tabulated and reported, not part of the contract
    violation = float((dmat[:, None, :] - (dmat[:, :, None] + dmat.T[None, :, :])).max())
    elapsed = time.perf_counter() - start
    ok = symmetric and identity and in_range and elapsed < 5.0
    report(
        2, "delta metric axioms", ok,
        f"{n} subsets; symmetric={symmetric} identity={identity} "
        f"range={in_range}; worst triangle slack {violation:+.6f} (reported only); "
        f"{elapsed:.1f}s",
    )
    assert symmetric and identity and in_range
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 3: epsilon-net guarantee for ball classes


def test_criterion_03_eps_net_guarantee():
    start = time.perf_counter()
    lat = make_lattice(2, 32)
    stream = list(enumerate_balls(lat, 2.5))
    details = []
    ok = True
    for eps in (0.25, 0.5, 1.0):
        net = build_net(stream, eps, family="balls")
        cover = verify_cover(net, stream)
        min_pair = min(
            (delta(a, b) for i, a in enumerate(net.members) for b in net.members[i + 1 :]),
            default=math.inf,
        )
        ok = ok and cover.passed and min_pair > eps
        details.append(f"eps={eps}: |net|={len(net)} cover={cover.max_min_dist:.3f} "
                       f"minpair={min_pair:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(3, "eps-net guarantee", ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: polyomino counts against a subset-connectivity oracle


def test_criterion_04_polyomino_oracle():
    start = time.perf_counter()
    lat = make_lattice(2, 8)
    counts: dict[int, int] = {}
    for c in enumerate_animals(lat, 4):
        counts[c.size] = counts.get(c.size, 0) + 1
    oracle = {}
    for k in range(1, 5):
        oracle[k] = sum(
            1
            for combo in itertools.combinations(range(64), k)
            if connectivity_check(lat, Cluster(combo))
        )
    elapsed = time.perf_counter() - start
    ok = counts == oracle and counts[2] == 112 and elapsed < 60.0
    report(4, "polyomino oracle", ok, f"enumerated {counts} == brute force {oracle}; "
           f"{elapsed:.1f}s")
    assert counts == oracle
    assert counts[2] == 2 * 8 * 7
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 5: thick-cluster phase transition (multiscale ball scan)


@pytest.fixture(scope="module")
def crit5_rows():
    lat = rescale_lattice(make_lattice(2, 128))
    r5 = 4.1 / 128  # open ball of exactly 49 nodes around an interior center
    centers = [((x + 0.5) / 128, (y + 0.5) / 128)
               for x in range(0, 128, 4) for y in range(0, 128, 4)]
    members5 = [m for m in (ball_nodes(lat, c, r5) for c in centers) if m]
    nets = {5: build_net(members5, 0.5, family="balls")}
    for scale in (4, 3, 2):
        r = r5 * 2 ** (5 - scale)
        params = ThickParams(lam_lo=r, lam_hi=r, kappa=1.0, shapes=("ball",),
                             grid_eps=0.25)
        nets[scale] = build_net(enumerate_thick(lat, params), 0.5, family="balls")
    truths = tuple(
        ball_nodes(lat, ((cx + 0.5) / 128, (cy + 0.5) / 128), r5)
        for cx, cy in ((32, 32), (64, 80), (96, 48))
    )
    assert all(t.size == 49 for t in truths)
    theory = rate("thick", m=lat.m, k=49)
    cfg = ExperimentConfig(
        net=lat, model=GAUSS, test=MultiscaleScanTest(nets=nets),
        truth=FixedTruths(truths), lambdas=(0.25 * theory, 1.5 * theory),
        trials=66, alpha=ALPHA, calib_b=800, n_null=N_NULL, seed=20250809,
        threads=1, theory=theory,
    )
    return estimate_risk(cfg)


def test_criterion_05_thick_phase_transition(crit5_rows):
    start = time.perf_counter()
    low, high = crit5_rows
    lo_ok = low.risk >= 0.8 - 2 * low.se
    hi_ok = high.risk <= 0.2 + 2 * high.se
    ok = lo_ok and hi_ok
    report(
        5, "thick phase transition", ok,
        f"risk(lam={low.lam:.2f})={low.risk:.3f} (need >=0.8-2se={0.8-2*low.se:.3f}); "
        f"risk(lam={high.lam:.2f})={high.risk:.3f} (need <=0.2+2se={0.2+2*high.se:.3f})",
    )
    assert lo_ok, (low.risk, low.se)
    assert hi_ok, (high.risk, high.se)
    assert time.perf_counter() - start < 600.0


# ---------------------------------------------------------------------------
# criterion 6: band detection


@pytest.fixture(scope="module")
def crit6_rows():
    lat = make_lattice(2, 64)
    params = BandParams(length=32, width=4, path_mode="nondecreasing")
    stream = enumerate_bands_cached(lat, params)
    band_net = build_net(stream, 1.0, family="bands")
    truths = tuple(sample_band(lat, params, derive_seed(42, "truth", i)) for i in range(3))
    theory = rate("band_nondecreasing", ell=32, h=4)
    cfg = ExperimentConfig(
        net=lat, model=GAUSS, test=EpsScanTest(band_net), truth=FixedTruths(truths),
        lambdas=(0.5 * theory, 6.0 * theory), trials=66, alpha=ALPHA,
        calib_b=400, n_null=N_NULL, seed=777, threads=1, theory=theory,
    )
    return estimate_risk(cfg)


def enumerate_bands_cached(lat, params):
    from scanlab.clusters import enumerate_bands

    return list(enumerate_bands(lat, params, budget=2500, seed=derive_seed(42, "scan")))


def test_criterion_06_band_detection(crit6_rows):
    low, high = crit6_rows
    lo_ok = low.risk >= 0.8 - 2 * low.se
    hi_ok = high.risk <= 0.2 + 2 * high.se
    ok = lo_ok and hi_ok
    report(
        6, "band detection", ok,
        f"risk(lam={low.lam:.2f})={low.risk:.3f} (need >=0.8-2se={0.8-2*low.se:.3f}); "
        f"risk(lam={high.lam:.2f})={high.risk:.3f} (need <=0.2+2se={0.2+2*high.se:.3f})",
    )
    assert lo_ok, (low.risk, low.se)
    assert hi_ok, (high.risk, high.se)


# ---------------------------------------------------------------------------
# criterion 7: Richardson exactness and monotonicity


def test_criterion_07_richardson():
    start = time.perf_counter()
    lat = make_lattice(2, 64)
    exact = True
    for x0 in (32 * 64 + 32, 5 * 64 + 5):
        seq = richardson_grow(lat, x0, 1.0, 0, 20, seed=3)
        for t in range(21):
            want = tuple(int(i) for i in ball_ids(lat, lat.coords[x0], t, closed=True))
            exact = exact and seq.slices[t].ids == want
    monotone = True
    for s in range(100):
        p = 0.3 if s % 2 == 0 else 0.7
        seq = richardson_grow(lat, 32 * 64 + 32, p, 0, 12, seed=derive_seed(1, s))
        for t in range(12):
            monotone = monotone and set(seq.slices[t].ids) <= set(seq.slices[t + 1].ids)
    elapsed = time.perf_counter() - start
    ok = exact and monotone and elapsed < 30.0
    report(7, "richardson growth", ok,
           f"p=1 equals closed l1 balls for 20 steps: {exact}; "
           f"monotone over 100 runs at p in {{0.3,0.7}}: {monotone}; {elapsed:.1f}s")
    assert exact and monotone
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 8: space-time cylinder scan on Richardson-grown truth


@pytest.fixture(scope="module")
def crit8_rows():
    lat = make_lattice(2, 64)
    t_m = 32
    grid = (9, 20, 31, 42, 53)
    centers = [(x, y) for x in grid for y in grid]
    base = build_net([ball_nodes(lat, c, 7.0) for c in centers], 0.5, family="balls")

    def truth_sampler(seed):
        rng = rng_from_seed(seed)
        cx, cy = centers[int(rng.integers(len(centers)))]
        node = cx * 64 + cy
        # warmup: the outbreak starts 20 steps before the observation window,
        # so every observed slice has already reached the limit ball of radius 6
        seq = richardson_grow(lat, node, 0.7, 0, 20 + t_m, derive_seed(seed, "grow"),
                              radius=6)
        return seq.window(20, 20 + t_m)

    lam = 6 * math.sqrt(2) / 64
    theory = rate("cylinder", d=2, lam=lam)
    cfg = ExperimentConfig(
        net=lat, model=GAUSS, test=EpsScanTest(base),
        truth=SampledTruths(truth_sampler, count=3), lambdas=(1.5 * theory,),
        trials=66, alpha=ALPHA, calib_b=800, n_null=N_NULL, seed=303, t_m=t_m,
        threads=1, theory=theory,
    )
    return estimate_risk(cfg)


def test_criterion_08_spacetime_cylinder_scan(crit8_rows):
    row = crit8_rows[0]
    ok = row.risk <= 0.2 + 2 * row.se
    report(
        8, "space-time cylinder scan", ok,
        f"risk(lam={row.lam:.3f})={row.risk:.3f} "
        f"(need <=0.2+2se={0.2+2*row.se:.3f}); type1={row.type1:.3f}",
    )
    assert ok, (row.risk, row.se)


# ---------------------------------------------------------------------------
# criterion 9: exponential-family normalization and Bernoulli threshold


def test_criterion_09a_normalization():
    start = time.perf_counter()
    lat = make_lattice(2, 20)
    k = Cluster(tuple(range(400)))
    details = []
    ok = True
    for family in ("bernoulli", "poisson"):
        model = noise_model(family)
        stats = np.array(
            [
                standardized_sum(
                    sample_null(lat, model, 0, derive_seed(9, family, i)), k, model
                )
                for i in range(10_000)
            ]
        )
        mean, var = float(stats.mean()), float(stats.var())
        ok = ok and abs(mean) <= 0.03 and abs(var - 1.0) <= 0.05
        details.append(f"{family}: mean={mean:+.4f} var={var:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    report(9, "exponential-family normalization", ok,
           "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok


@pytest.fixture(scope="module")
def crit9b_rows():
    lat = make_lattice(2, 64)
    bern = noise_model("bernoulli")
    scan_net = build_net(enumerate_balls(lat, 4.5), 0.5, family="balls")
    k = 41  # open l1 ball of radius 4.5 (closed radius 4)
    p_star = rate("bernoulli_p", m=lat.m, k=k)
    theta_star = math.log(p_star / (1 - p_star))
    lam_star = theta_star * math.sqrt(k) / bern.sigma
    truths = tuple(
        ball_nodes(lat, (cx, cy), 4.5) for cx, cy in ((16, 16), (32, 44), (50, 20))
    )
    cfg = ExperimentConfig(
        net=lat, model=bern, test=EpsScanTest(scan_net), truth=FixedTruths(truths),
        lambdas=(0.5 * lam_star, lam_star, 2 * lam_star, 4 * lam_star, 6 * lam_star),
        trials=66, alpha=ALPHA, calib_b=400, n_null=N_NULL, seed=333, threads=1,
        theory=lam_star,
    )
    return lam_star, estimate_risk(cfg)


def test_criterion_09b_bernoulli_threshold_crossing(crit9b_rows):
    lam_star, rows = crit9b_rows
    curve = {row.lam / lam_star: row.risk for row in rows}
    below_ok = curve[0.5] >= 0.5
    above_ok = curve[2.0] <= 0.5
    ok = below_ok and above_ok
    report(
        9, "bernoulli threshold crossing", ok,
        f"implied lam*={lam_star:.3f}; risk at {{0.5,1,2,4,6}}x lam*: "
        + ", ".join(f"{x:g}x={r:.3f}" for x, r in sorted(curve.items())),
    )
    assert below_ok, (
        f"risk at 0.5x the tabulated lam* is {curve[0.5]:.3f}; need >= 0.5"
    )
    assert above_ok, (
        f"risk at 2x the tabulated lam* is {curve[2.0]:.3f}; need <= 0.5"
    )


# ---------------------------------------------------------------------------
# criterion 10: calibration soundness across the experiments above


def test_criterion_10_calibration_soundness(crit5_rows, crit6_rows, crit8_rows,
                                            crit9b_rows):
    rates = {
        "thick multiscale": crit5_rows[0].type1,
        "band eps-scan": crit6_rows[0].type1,
        "cylinder scan": crit8_rows[0].type1,
        "bernoulli scan": crit9b_rows[1][0].type1,
    }
    details = []
    ok = True
    for name, type1 in rates.items():
        inside = abs(type1 - ALPHA) <= TYPE1_BAND + 1e-12
        ok = ok and inside
        details.append(f"{name}: {type1:.3f}")
    report(10, "calibration soundness", ok,
           "; ".join(details) + f" (band {ALPHA}+-{TYPE1_BAND:.3f})")
    for name, type1 in rates.items():
        assert abs(type1 - ALPHA) <= TYPE1_BAND + 1e-12, (name, type1)


# ---------------------------------------------------------------------------
# criterion 11: byte-identical outputs across thread counts


def test_criterion_11_determinism(tmp_path):
    from scanlab.cli import main

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        """
net.mode = lattice
net.side = 16
net.rescale = true
scan.family = balls
scan.lambda = 0.13
scan.epsilon = 0.5
truth.family = balls
truth.lambda = 0.13
truth.count = 2
lambda.grid = 0,2,4
trials = 50
alpha = 0.05
calibration.b = 99
n_null = 100
seed = 5
"""
    )
    out1 = tmp_path / "sweep_t1.csv"
    out8 = tmp_path / "sweep_t8.csv"
    assert main(["sweep", "--config", str(cfg), "--threads", "1", "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--threads", "8", "--out", str(out8)]) == 0
    identical = out1.read_bytes() == out8.read_bytes()
    report(11, "determinism across threads", identical,
           f"--threads 1 vs --threads 8 CSVs byte-identical: {identical}")
    assert identical
