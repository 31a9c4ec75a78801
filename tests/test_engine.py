"""The block trial engine against per-field references written out here.

Each reference draws one field at a time from a freshly keyed generator
(rng_from_seed), plants slice by slice and sums with plain numpy, as the
per-trial loop did; the engine must match it bit for bit.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scanlab.clusters import Cluster
from scanlab.detect import block_size, map_blocks
from scanlab.growth import ClusterSequence
from scanlab.models import (
    BERNOULLI,
    GAUSSIAN,
    SignalSpec,
    noise_model,
    plant_block,
    sample_null_block,
)
from scanlab.network import make_lattice
from scanlab.rng import derive_seed, derive_seeds, rng_from_seed
from scanlab.sim import (
    AverageTest,
    ExperimentConfig,
    FixedTruths,
    OracleTest,
    estimate_risk,
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


def _draw(model, rng, size, theta=None):
    """The per-field draw formulas: F0 when theta is None, else F_theta."""
    if model.family == GAUSSIAN:
        values = rng.standard_normal(size)
        return values if theta is None else values + theta
    if model.family == BERNOULLI:
        p = 0.5 if theta is None else model.tilted_mean(theta)
        return (rng.random(size) < p).astype(float)
    return rng.poisson(1.0 if theta is None else model.tilted_mean(theta), size).astype(float)


def _reference_field(model, m, t_m, truth, lam, overrides, seed0, seed1):
    rng = rng_from_seed(seed0)
    values = _draw(model, rng, (t_m + 1) * m).reshape(t_m + 1, m)
    slices = [(0, truth)] if isinstance(truth, Cluster) else truth.nonempty()
    theta = model.sigma * lam / math.sqrt(sum(k.size for _, k in slices))
    rng = rng_from_seed(seed1)
    for t, k in slices:
        draws = _draw(model, rng, k.size, theta)
        for pos, node in enumerate(k.ids):
            if node in overrides:
                draws[pos] = _draw(model, rng, 1, overrides[node])[0]
        values[t, k.idarray] = draws
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
    st.booleans(),
)
def test_block_engine_matches_per_field_reference(family, truth_tm, lam, master, n, size,
                                                  threads, override):
    t_m, truth = truth_tm
    model = noise_model(family)
    first = (truth if isinstance(truth, Cluster) else truth.nonempty()[0][1]).ids[0]
    overrides = {first: 4.0} if override else {}
    sig = SignalSpec(lam, overrides or None)
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
            ref = _reference_field(model, NET.m, t_m, truth, lam, overrides,
                                   derive_seed(master, "h1", 2, 1, i, 0),
                                   derive_seed(master, "h1", 2, 1, i, 1))
            values, oracle_stats, average_stats = parts[i // size]
            assert np.array_equal(values[i % size], ref)
            assert oracle_stats[i % size] == _reference_oracle(model, ref, truth)
            assert average_stats[i % size] == _reference_average(model, ref)
            assert stats[i] == oracle_stats[i % size]


def test_block_size_counts_values_not_fields():
    # about 2**16 values a block: 9-node fields and 33-step 64^2 fields
    assert block_size(0, 9) == 7281
    assert block_size(32, 4096) == 1
    # but at least 16 field rows, fields x time steps
    assert block_size(0, 128 * 128) == 16
    assert block_size(0, 512 * 512) == 16
    assert block_size(1, 16384) == 8


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
                assert block_size(cfg.t_m, net.m) == 64
                rows[threads, type(test)] = estimate_risk(cfg)
    for test in (OracleTest, AverageTest):
        assert rows[1, test] == rows[3, test]


def test_estimate_risk_keys_every_trial_by_its_path():
    """Trial i of the null pass uses ("null", i); of (pt, k) the pair ("h1", pt, k, i, 0|1)."""
    net, model, truth = make_lattice(2, 3), noise_model("gaussian"), Cluster((1, 3, 4, 5))
    cfg = ExperimentConfig(
        net=net, model=model, test=OracleTest(), truth=FixedTruths((truth,)),
        lambdas=(1.0, 2.0), trials=60, n_null=70, seed=21,
    )
    null = [
        _reference_oracle(model, _draw(model, rng_from_seed(derive_seed(21, "null", i)), 9)
                          .reshape(1, 9), truth)
        for i in range(70)
    ]
    for pt, row in enumerate(estimate_risk(cfg)):
        assert row.type1 == float(np.mean(np.array(null) > row.lam / 2))
        miss = [
            _reference_oracle(model, _reference_field(
                model, 9, 0, truth, row.lam, {}, derive_seed(21, "h1", pt, 0, i, 0),
                derive_seed(21, "h1", pt, 0, i, 1)), truth) <= row.lam / 2
            for i in range(60)
        ]
        assert row.type2_worst == float(np.mean(miss))
