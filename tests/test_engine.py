"""The block trial engine against per-field references written out here.

Each reference draws one field at a time from a freshly keyed generator
(rng_from_seed), plants slice by slice and sums with plain numpy, as the
per-trial loop did; the engine must match it bit for bit.
"""

import hashlib
import math
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.stats import ks_2samp

import scanlab.detect
import scanlab.sim
from scanlab.clusters import Cluster
from scanlab.detect import block_size, calibrate, map_blocks, null_statistics
from scanlab.growth import ClusterSequence
from scanlab.metric import EpsNet
from scanlab.models import (
    BERNOULLI,
    GAUSSIAN,
    Field,
    SignalSpec,
    noise_model,
    plant_block,
    sample_null,
    sample_null_block,
)
from scanlab.network import make_lattice
from scanlab.rng import derive_seed, derive_seeds, rng_from_seed
from scanlab.sim import (
    AverageTest,
    EpsScanTest,
    ExperimentConfig,
    FixedTruths,
    MultiscaleScanTest,
    OracleTest,
    estimate_risk,
    h1_statistics,
    scorer,
)

NET = make_lattice(2, 5)
FAMILIES = ("gaussian", "bernoulli", "poisson")

parts = st.one_of(st.integers(-(2**100), 2**100), st.text(max_size=6))
paths = st.lists(parts, max_size=4).map(tuple)


@given(st.integers(-(2**70), 2**70), paths, st.lists(paths, max_size=6))
def test_block_seeds_equal_derive_seed(master, head, tails):
    want = [derive_seed(master, *head, *tail) for tail in tails]
    assert derive_seeds(master, head, tails) == want


def _packed(part):
    """A path part as the seed hash reads it: tag, little-endian int128 or UTF-8, NUL."""
    if isinstance(part, int):
        return b"i" + part.to_bytes(16, "little", signed=True) + b"\x00"
    return b"s" + part.encode("utf-8") + b"\x00"


@given(st.integers(-(2**70), 2**70), paths, st.lists(paths, max_size=6))
def test_block_seeds_hash_the_whole_path(master, head, tails):
    key = struct.pack("<Q", master % 2**64)
    want = [
        int.from_bytes(hashlib.blake2b(key + b"".join(map(_packed, head + tail)),
                                       digest_size=8).digest(), "little")
        for tail in tails
    ]
    assert derive_seeds(master, head, tails) == want


def _draw(model, rng, size, theta=None):
    """The per-field draw formulas: F0 when theta is None, else F_theta."""
    if model.family == GAUSSIAN:
        values = rng.standard_normal(size)
        return values if theta is None else values + theta
    if model.family == BERNOULLI:
        p = 0.5 if theta is None else model.tilted_mean(theta)
        return (rng.random(size) < p).astype(float)
    return rng.poisson(1.0 if theta is None else model.tilted_mean(theta), size).astype(float)


def _reference_field(model, m, t_m, truth, lam, seed0, seed1):
    rng = rng_from_seed(seed0)
    values = _draw(model, rng, (t_m + 1) * m).reshape(t_m + 1, m)
    slices = [(0, truth)] if isinstance(truth, Cluster) else truth.nonempty()
    theta = model.sigma * lam / math.sqrt(sum(k.size for _, k in slices))
    rng = rng_from_seed(seed1)
    for t, k in slices:
        values[t, k.idarray] = _draw(model, rng, k.size, theta)
    return values


def _reference_oracle(model, values, truth):
    slices = [(0, truth)] if isinstance(truth, Cluster) else truth.nonempty()
    total = float(sum(values[t, k.idarray].sum() for t, k in slices))
    n = sum(k.size for _, k in slices)
    return (total - n * model.null_mean) / (model.sigma * math.sqrt(n))


def _reference_average(model, values):
    n = values.size
    return (float(values.sum()) - n * model.null_mean) / (model.sigma * math.sqrt(n))


node_sets = st.lists(st.integers(0, NET.m - 1), min_size=1, max_size=12, unique=True)


@st.composite
def truths(draw):
    t_m = draw(st.sampled_from((0, 3)))
    if t_m == 0 and draw(st.booleans()):
        return t_m, Cluster(tuple(sorted(draw(node_sets))))
    slices = [Cluster(tuple(sorted(draw(node_sets)))) if draw(st.booleans()) else Cluster(())
              for _ in range(t_m + 1)]
    slices[draw(st.integers(0, t_m))] = Cluster(tuple(sorted(draw(node_sets))))
    return t_m, ClusterSequence(tuple(slices))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    truths(),
    st.floats(0.0, 3.0),
    st.integers(0, 2**64 - 1),
    st.integers(1, 23),
    st.integers(1, 7),
    st.integers(1, 3),
)
def test_block_engine_matches_per_field_reference(family, truth_tm, lam, master, n, size,
                                                  threads):
    t_m, truth = truth_tm
    model = noise_model(family)
    sig = SignalSpec(lam)
    oracle = scorer(OracleTest(), NET, model, t_m, truth)
    average = scorer(AverageTest(), NET, model, t_m)

    def block(lo, hi):
        seeds = derive_seeds(master, ("h1", 2, 1), ((i, j) for i in range(lo, hi) for j in (0, 1)))
        values = sample_null_block(NET, model, t_m, seeds[0::2])
        plant_block(values, truth, sig, model, seeds[1::2])
        return values, oracle.block(values), average.block(values)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        parts = [block(lo, min(lo + size, n)) for lo in range(0, n, size)]
        stats = map_blocks(lambda lo, hi: block(lo, hi)[1], n, size, threads)
        for i in range(n):
            ref = _reference_field(model, NET.m, t_m, truth, lam,
                                   derive_seed(master, "h1", 2, 1, i, 0),
                                   derive_seed(master, "h1", 2, 1, i, 1))
            values, oracle_stats, average_stats = parts[i // size]
            assert np.array_equal(values[i % size], ref)
            assert oracle_stats[i % size] == _reference_oracle(model, ref, truth)
            assert average_stats[i % size] == _reference_average(model, ref)
            assert stats[i] == oracle_stats[i % size]


@pytest.mark.parametrize("family", FAMILIES)
def test_one_step_groups_reproduce_the_per_field_stream(family):
    """One-step time groups draw and plant exactly the per-field reference
    values, whether given or left as the default."""
    model = noise_model(family)
    static = Cluster((1, 3, 4, 5, 9))
    temporal = ClusterSequence((Cluster((1, 3)), Cluster(()), Cluster((4, 5, 7)), Cluster((0,))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # few planted pairs for bernoulli and poisson
        for t_m, truth in ((0, static), (3, temporal)):
            seeds = derive_seeds(17, ("h1", 0, 0), ((i, j) for i in range(6) for j in (0, 1)))
            for groups in (None, (1,) * (t_m + 1)):
                values = sample_null_block(NET, model, t_m, seeds[0::2], groups)
                plant_block(values, truth, SignalSpec(2.5), model, seeds[1::2], groups)
                for row, seed0, seed1 in zip(values, seeds[0::2], seeds[1::2]):
                    ref = _reference_field(model, NET.m, t_m, truth, 2.5, seed0, seed1)
                    assert np.array_equal(row, ref)


SPACETIME = make_lattice(2, 4)
SPACETIME_NET = EpsNet(0.5, (Cluster((0, 1, 4, 5)), Cluster((5, 6, 9, 10)), Cluster((15,)),
                            Cluster(tuple(range(16)))))


@pytest.mark.parametrize("family", FAMILIES)
def test_group_sum_nulls_score_as_full_fields(family):
    """Null cylinder statistics at t_m = 32 from (B, 7, m) group-sum draws
    against ones scored from full-resolution fields: a two-sample KS test."""
    model = noise_model(family)
    score = scorer(EpsScanTest(SPACETIME_NET), SPACETIME, model, 32)
    assert score.groups == (1, 16, 8, 4, 2, 1, 1)
    grouped = null_statistics(score.block, SPACETIME, model, score.groups, 5, "null", 800, 1)
    full = [score(sample_null(SPACETIME, model, 32, derive_seed(6, i)))[0] for i in range(800)]
    assert ks_2samp(grouped, full).pvalue > 1e-3


def _check_moments(sample, mean, var):
    """Sample mean and variance within 4 standard errors of the law's."""
    n = sample.size
    central = sample - sample.mean()
    se_var = math.sqrt(max((central**4).mean() - var**2, 0.0) / n)
    assert abs(sample.mean() - mean) <= 4 * math.sqrt(var / n), (sample.mean(), mean)
    assert abs(sample.var() - var) <= 4 * se_var, (sample.var(), var)


@pytest.mark.parametrize("family", FAMILIES)
def test_group_cells_follow_their_exact_laws(family):
    """Null group sums and planted cells at t_m = 32, group sizes 1, 16, 8, 4,
    2, 1, 1: a cell of n steps, k of them planted, has the law of n - k F0
    values plus k F_theta values, to its first two moments."""
    model = noise_model(family)
    groups = (1, 16, 8, 4, 2, 1, 1)
    seeds = derive_seeds(23, ("law",), ((i,) for i in range(20_000)))
    null = sample_null_block(SPACETIME, model, 32, seeds, groups)
    mean0, var0 = model.null_mean, model.sigma2
    for g, n in enumerate(groups):
        _check_moments(null[:, g, 3], n * mean0, n * var0)
    # node 0 at times 1..5 (k = 5 of n = 16), node 1 at times 1..16 (16 of 16),
    # node 2 at time 0 (1 of 1), node 3 at times 25, 26 and 28 (3 of 4)
    slices = [set() for _ in range(33)]
    for node, times in ((0, range(1, 6)), (1, range(1, 17)), (2, (0,)), (3, (25, 26, 28))):
        for t in times:
            slices[t].add(node)
    truth = ClusterSequence(tuple(Cluster(tuple(sorted(k))) for k in slices))
    sig = SignalSpec(0.5 * math.sqrt(25) / model.sigma)  # theta = 0.5 over 25 pairs
    theta = sig.theta(model, 25)
    planted = np.zeros((len(seeds), len(groups), SPACETIME.m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 25 planted pairs for bernoulli and poisson
        plant_block(planted, truth, sig, model, seeds, groups)
    p = model.tilted_mean(theta)
    for g, node, n, k in ((1, 0, 16, 5), (1, 1, 16, 16), (0, 2, 1, 1), (3, 3, 4, 3)):
        if family == GAUSSIAN:
            mean, var = k * theta, n
        elif family == BERNOULLI:
            mean, var = (n - k) / 2 + k * p, (n - k) / 4 + k * p * (1 - p)
        else:
            mean = var = n - k + k * math.exp(theta)
        _check_moments(planted[:, g, node], mean, var)
    untouched = np.ones(planted.shape[1:], dtype=bool)
    untouched[[1, 1, 0, 3], [0, 1, 2, 3]] = False
    assert not planted[:, untouched].any()


def test_block_size_counts_values_not_fields():
    # about 2**16 values a block: 9-node fields and 33-row 64^2 fields
    assert block_size(1, 9) == 7281
    assert block_size(33, 4096) == 1
    # but at least 16 field rows, fields x time groups
    assert block_size(1, 128 * 128) == 16
    assert block_size(1, 512 * 512) == 16
    assert block_size(2, 16384) == 8


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(FAMILIES), st.integers(0, 2**32))
def test_estimate_risk_rows_do_not_depend_on_threads(family, seed):
    net = make_lattice(2, 16)  # 4 x 256 values: blocks of 64 fields
    truth = ClusterSequence((Cluster(()), Cluster(tuple(range(40, 80))), Cluster(()),
                             Cluster(tuple(range(60, 120)))))
    rows = {}
    for threads in (1, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for test in (OracleTest(), AverageTest()):
                cfg = ExperimentConfig(
                    net=net, model=noise_model(family), test=test, truth=FixedTruths((truth,)),
                    lambdas=(1.0, 3.0), trials=130, n_null=150, calib_b=99, seed=seed,
                    t_m=3, threads=threads,
                )
                assert block_size(cfg.t_m + 1, net.m) == 64
                rows[threads, type(test)] = estimate_risk(cfg)
    for test in (OracleTest, AverageTest):
        assert rows[1, test] == rows[3, test]


def _check_keys(family, t_m, truth):
    net, model = make_lattice(2, 3), noise_model(family)
    cfg = ExperimentConfig(
        net=net, model=model, test=OracleTest(), truth=FixedTruths((truth,)),
        lambdas=(1.0, 2.0), trials=60, n_null=70, seed=21, t_m=t_m,
    )
    null = [
        _reference_oracle(model, _draw(model, rng_from_seed(derive_seed(21, "null", i)),
                                       (t_m + 1) * 9).reshape(t_m + 1, 9), truth)
        for i in range(70)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # few planted pairs for bernoulli and poisson
        rows = estimate_risk(cfg)
    for pt, row in enumerate(rows):
        assert row.type1 == float(np.mean(np.array(null) > row.lam / 2))
        miss = [
            _reference_oracle(model, _reference_field(
                model, 9, t_m, truth, row.lam, derive_seed(21, "h1", pt, 0, i, 0),
                derive_seed(21, "h1", pt, 0, i, 1)), truth) <= row.lam / 2
            for i in range(60)
        ]
        assert row.type2_worst == float(np.mean(miss))


def test_estimate_risk_keys_every_trial_by_its_path():
    """Trial i of the null pass uses ("null", i); of (pt, k) the pair ("h1", pt, k, i, 0|1).

    The reference draws the (..., i, 0) null field of every H1 trial; the oracle's
    engine never does, and its rows must still match bit for bit.
    """
    temporal = ClusterSequence((Cluster((1, 3)), Cluster(()), Cluster((4, 5, 7))))
    for family in FAMILIES:
        _check_keys(family, 0, Cluster((1, 3, 4, 5)))
        _check_keys(family, 2, temporal)


@pytest.mark.parametrize("test", [OracleTest(), AverageTest()])
def test_estimate_risk_draws_null_fields_only_where_read(monkeypatch, test):
    """The oracle draws only its null pass; a test that reads every cell draws every null
    field, and one background per trial and truth, shared by the whole lambda grid."""
    drawn = []

    def counted(net, model, t_m, seeds, groups=None):
        drawn.append(len(seeds))
        return sample_null_block(net, model, t_m, seeds, groups)

    for module in (scanlab.sim, scanlab.detect):  # estimate_risk and calibrate
        monkeypatch.setattr(module, "sample_null_block", counted)
    truths = (Cluster((1, 3, 4, 5)), Cluster((0, 1)))[: 1 if isinstance(test, OracleTest) else 2]
    cfg = ExperimentConfig(
        net=make_lattice(2, 3), model=noise_model("gaussian"), test=test,
        truth=FixedTruths(truths), lambdas=(1.0, 2.0, 3.0), trials=60, n_null=70,
        calib_b=99, seed=5,
    )
    estimate_risk(cfg)
    if isinstance(test, OracleTest):
        assert sum(drawn) == cfg.n_null
    else:
        assert sum(drawn) == cfg.calib_b + cfg.n_null + cfg.trials * len(truths)


@pytest.mark.filterwarnings("ignore:planting")
@pytest.mark.parametrize("family", FAMILIES[1:])  # integer-valued: the sums are exact
@pytest.mark.parametrize("outside, drawn", [((), []), ((5,), [50])])
def test_elements_that_read_only_planted_cells_draw_no_background(monkeypatch, family,
                                                                  outside, drawn):
    """The no-background rule is read off the elements, not the test's type: an
    eps-scan whose members lie inside the truth plants into zeros, as the
    oracle does, and one member reaching a node outside it draws a background
    per trial.  Either way the statistics are the planted field's."""
    truth, model = Cluster((3, 4, 8, 9, 13)), noise_model(family)
    spec = EpsScanTest(EpsNet(0.5, (Cluster((3, 4) + outside), Cluster((8, 9, 13)))))
    cfg = ExperimentConfig(
        net=NET, model=model, test=spec, truth=FixedTruths((truth,)), lambdas=(1.0, 3.0),
        trials=50, calib_b=99, n_null=50, seed=8,
    )
    score = scorer(spec, NET, model)
    want = [[_planted_reference(cfg, score, 0, i, pt, truth) for pt in range(2)]
            for i in range(cfg.trials)]
    seen = []

    def counted(net, model, t_m, seeds, groups=None):
        seen.append(len(seeds))
        return sample_null_block(net, model, t_m, seeds, groups)

    monkeypatch.setattr(scanlab.sim, "sample_null_block", counted)
    assert np.array_equal(h1_statistics(cfg, score, 0, truth)(0, cfg.trials), want)
    assert seen == drawn


# The shared-background engine.  CORNER leaves nodes 18..24 of NET uncovered, so a
# truth there touches no member; the contiguous members of SCALES[1] are scored
# by their runs (the prefix encoding), CORNER's by their indicator.
CORNER = EpsNet(0.5, tuple(Cluster(c) for c in (
    (0, 1, 5, 6), (1, 2, 6, 7), (10, 11, 12, 15, 16, 17), tuple(range(15)))))
SCALES = {1: EpsNet(0.5, tuple(Cluster(tuple(range(i, i + w))) for w in (19, 20)
                               for i in range(6))),
          2: CORNER}
ENGINE_SPECS = {  # spec, t_m
    "eps-scan": (EpsScanTest(CORNER), 0),
    "multiscale": (MultiscaleScanTest(SCALES), 0),
    "cylinders": (EpsScanTest(CORNER), 4),
    "average": (AverageTest(), 3),
}


def truth_at(t_m):
    """A Cluster of NET for a static field, else a ClusterSequence over 0..t_m."""
    cluster = node_sets.map(lambda ids: Cluster(tuple(sorted(ids))))
    if t_m == 0:
        return cluster
    return st.lists(st.one_of(cluster, st.just(Cluster(()))), min_size=t_m + 1,
                    max_size=t_m + 1).filter(lambda cs: any(cs)).map(
                        lambda cs: ClusterSequence(tuple(cs)))


def _planted_reference(cfg, score, k, i, pt, truth, per_point=False):
    """The statistic of trial i of truth k at grid point pt, by the one-row
    call on the whole planted field: the ("h1", 0, k, i, 0) background (with
    per_point, ("h1", pt, k, i, 0), each point's own), planted from ("h1", pt,
    k, i, 1).  A cylinder field holds each time group's sum at the group's
    last step, so its group sums are the block's."""
    seed0 = derive_seed(cfg.seed, "h1", pt if per_point else 0, k, i, 0)
    values = sample_null_block(cfg.net, cfg.model, cfg.t_m, [seed0], score.groups)
    plant_block(values, truth, SignalSpec(cfg.lambdas[pt]), cfg.model,
                [derive_seed(cfg.seed, "h1", pt, k, i, 1)], score.groups)
    full = np.zeros((cfg.t_m + 1, cfg.net.m))
    full[np.cumsum(score.groups) - 1] = values[0]
    return score(Field(cfg.net, full))[0]


def _blocks_of(width):
    """Every Monte Carlo pass of estimate_risk in blocks of `width` fields."""
    rule = lambda rows, m: width  # noqa: E731
    return mock.patch.object(scanlab.sim, "block_size", rule)


@pytest.mark.filterwarnings("ignore:planting")
@settings(max_examples=48, deadline=None)
@given(st.sampled_from(sorted(ENGINE_SPECS)), st.sampled_from(FAMILIES), st.data(),
       st.integers(0, 2**64 - 1), st.sampled_from((1, 3)), st.sampled_from((3, 16)))
def test_shared_background_engine_matches_the_planted_field(name, family, data, master,
                                                            threads, width):
    """Every H1 statistic of estimate_risk's engine, background scored once and
    touched elements updated, against the one-row score of the planted field:
    within 1e-9 (exact for integer-valued families), with the same decision at
    the calibrated threshold, and the rows' type-II rates recomputed from them."""
    spec, t_m = ENGINE_SPECS[name]
    model = noise_model(family)
    truths = tuple(data.draw(truth_at(t_m)) for _ in range(2))
    cfg = ExperimentConfig(
        net=NET, model=model, test=spec, truth=FixedTruths(truths), lambdas=(0.0, 1.5, 4.0),
        trials=50, calib_b=99, n_null=50, seed=master, t_m=t_m, threads=threads,
    )
    score = scorer(spec, NET, model, t_m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # few planted pairs for bernoulli and poisson
        got = [map_blocks(h1_statistics(cfg, score, k, truth), cfg.trials, width, threads)
               for k, truth in enumerate(truths)]
        with _blocks_of(width):
            rows = estimate_risk(cfg)
        threshold = calibrate(score.block, NET, model, cfg.alpha, cfg.calib_b,
                              derive_seed(master, "calibration"), groups=score.groups).threshold
        want = np.array([[[_planted_reference(cfg, score, k, i, pt, truth) for pt in range(3)]
                          for i in range(cfg.trials)] for k, truth in enumerate(truths)])
    if family == GAUSSIAN:
        assert np.abs(np.array(got) - want).max() <= 1e-9
    else:
        assert np.array_equal(np.array(got), want)
    assert np.array_equal(np.array(got) <= threshold, want <= threshold)
    assert [row.type2_worst for row in rows] == (want <= threshold).mean(axis=1).max(axis=0).tolist()


def test_the_prefix_encoded_scale_is_exercised():
    scorer(MultiscaleScanTest(SCALES), NET, noise_model("gaussian"))
    assert SCALES[1].members.runs is not None and CORNER.members.runs is None


@pytest.mark.filterwarnings("ignore:planting")
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", sorted(ENGINE_SPECS))
def test_first_grid_point_keeps_the_per_point_keys(name, family):
    """The first row of a two-point grid equals one from fields keyed per grid
    point, ("h1", pt, k, i, 0) and ("h1", pt, k, i, 1), and scored whole."""
    spec, t_m = ENGINE_SPECS[name]
    model = noise_model(family)
    truths = (Cluster((3, 4, 8, 9, 13)), Cluster((20, 21, 22, 23, 24)))
    if t_m:
        truths = tuple(ClusterSequence((Cluster(()),) + (c,) * t_m) for c in truths)
    cfg = ExperimentConfig(
        net=NET, model=model, test=spec, truth=FixedTruths(truths), lambdas=(2.0, 5.0),
        trials=60, calib_b=99, n_null=70, seed=31, t_m=t_m,
    )
    score = scorer(spec, NET, model, t_m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # few planted pairs for bernoulli and poisson
        first = estimate_risk(cfg)[0]
        threshold = calibrate(score.block, NET, model, cfg.alpha, cfg.calib_b,
                              derive_seed(31, "calibration"), groups=score.groups).threshold
        null = null_statistics(score.block, NET, model, score.groups, 31, "null", 70, 1)
        miss = max(np.mean([_planted_reference(cfg, score, k, i, 0, truth, per_point=True)
                            <= threshold for i in range(cfg.trials)])
                   for k, truth in enumerate(truths))
    type1 = float(np.mean(null > threshold))
    assert (first.lam, first.type1, first.type2_worst, first.risk) == (
        2.0, type1, miss, type1 + miss)
