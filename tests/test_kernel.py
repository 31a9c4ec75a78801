"""The CSR scoring kernel behind scan, multiscale and cylinder statistics.

A block of fields must score as its fields do one at a time, bit for bit;
statistics must agree with plain numpy sums over member ids; exact ties
break to the first cluster, then the earliest scale, then member-major
before window order; and null statistics and risk rows must not depend on
the thread count or the block width.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanlab import detect, sim
from scanlab.clusters import Cluster, enumerate_balls
from scanlab.detect import calibrate, eps_scan, multiscale_test, scale_term, scan
from scanlab.growth import dyadic_windows, make_cylinder, scan_spacetime_cylinders
from scanlab.metric import EpsNet, ScanTable, build_net
from scanlab.models import Field, noise_model
from scanlab.network import ball_nodes, make_lattice, rescale_lattice
from scanlab.sim import (
    AverageTest,
    CylinderScanTest,
    EpsScanTest,
    ExperimentConfig,
    FixedTruths,
    MultiscaleScanTest,
    OracleTest,
    estimate_risk,
    scorer,
)

NET = rescale_lattice(make_lattice(2, 12))
NETS = {s: build_net(enumerate_balls(NET, 2.0 ** (-s)), 0.5) for s in (2, 3, 4)}
WEIGHTS = {2: 0.3, 3: 1.1, 4: -0.4}
DEFAULT_WEIGHTS = {s: scale_term(NET.m, NET.dim, s) for s in NETS}
MODELS = [noise_model(f) for f in ("gaussian", "bernoulli", "poisson")]

# (spec, field horizon t_m + 1, the one-row detect call it must match)
SPECS = {
    "scan": (EpsScanTest(NETS[3]), 1, lambda f, model: eps_scan(f, NETS[3], model)),
    "multiscale": (MultiscaleScanTest(NETS), 1,
                   lambda f, model: multiscale_test(f, NETS, DEFAULT_WEIGHTS, model)),
    "multiscale-weights": (MultiscaleScanTest(NETS, WEIGHTS), 1,
                           lambda f, model: multiscale_test(f, NETS, WEIGHTS, model)),
    "cylinders": (CylinderScanTest(NETS[3]), 5,
                  lambda f, model: scan_spacetime_cylinders(f, NETS[3], model)),
    "cylinder-windows": (CylinderScanTest(NETS[3], (4, 1, 2)), 5,
                         lambda f, model: scan_spacetime_cylinders(f, NETS[3], model, (4, 1, 2))),
}


def _draw(model, seed, shape):
    rng = np.random.default_rng(seed)
    if model.family == "gaussian":
        return rng.standard_normal(shape)
    if model.family == "bernoulli":
        return (rng.random(shape) < 0.5).astype(float)
    return rng.poisson(1.0, shape).astype(float)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SPECS)), st.sampled_from(MODELS), st.integers(1, 7),
       st.integers(0, 2**32 - 1))
def test_block_equals_one_row_calls(name, model, n_fields, seed):
    spec, horizon, one_row = SPECS[name]
    values = _draw(model, seed, (n_fields, horizon, NET.m))
    score = scorer(spec, NET, model, horizon - 1)
    block = score.block(values)
    for row, value in zip(values, block):
        fld = Field(NET, row)
        stat, argmax = score(fld)
        want = one_row(fld, model)
        assert stat == value == want.statistic
        assert argmax == want.argmax


def _z(sums, n, model):
    return (sums - n * model.null_mean) / (model.sigma * math.sqrt(n))


def _scan_reference(row, members, model):
    """(statistic, argmax) of plain numpy sums over each member's ids."""
    z = [_z(row[list(c.ids)].sum(), c.size, model) for c in members]
    return max(z), int(np.argmax(z))


def _cylinder_reference(values, members, model, windows):
    best = None
    for j, c in enumerate(members):
        for w in windows:
            z = _z(values[-w:, list(c.ids)].sum(), c.size * w, model)
            if best is None or z > best[0]:
                best = (z, j, w)
    return best


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.family)
def test_statistics_match_plain_sums(model):
    for seed in range(6):
        row = _draw(model, seed, NET.m)
        fld = Field(NET, row[None])
        got = eps_scan(fld, NETS[2], model)
        want, j = _scan_reference(row, NETS[2].members, model)
        assert abs(got.statistic - want) <= 1e-12 and got.argmax_index == j
        for offsets in (WEIGHTS, DEFAULT_WEIGHTS):
            got = multiscale_test(fld, NETS, offsets, model)
            best = None
            for s in sorted(NETS):
                stat, j = _scan_reference(row, NETS[s].members, model)
                if best is None or stat - offsets[s] > best[0]:
                    best = (stat - offsets[s], NETS[s].members[j])
            assert abs(got.statistic - best[0]) <= 1e-12 and got.argmax == best[1]
        values = _draw(model, seed, (6, NET.m))
        for windows in (None, (3, 1)):
            got = scan_spacetime_cylinders(Field(NET, values), NETS[3], model, windows)
            z, j, w = _cylinder_reference(
                values, NETS[3].members, model, windows or dyadic_windows(6)
            )
            assert abs(got.statistic - z) <= 1e-12
            assert (got.argmax_index, got.argmax_window) == (j, w)


GAUSS = MODELS[0]
LINE = make_lattice(1, 6)


def test_scan_ties_go_to_the_first_cluster():
    fld = Field(LINE, [[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
    result = scan(fld, [Cluster((4, 5)), Cluster((2, 3)), Cluster((0, 1))], GAUSS)
    assert result.argmax_index == 1 and result.argmax == Cluster((2, 3))


def test_multiscale_ties_go_to_the_earliest_scale():
    fld = Field(LINE, [[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
    nets = {3: EpsNet(0.5, (Cluster((2, 3)),)), 2: EpsNet(0.5, (Cluster((4, 5)), Cluster((0, 1))))}
    result = multiscale_test(fld, nets, {2: 0.5, 3: 0.5}, GAUSS)
    assert result.argmax == Cluster((0, 1)) and result.argmax_index == 1
    score = scorer(MultiscaleScanTest(nets, {2: 0.5, 3: 0.5}), LINE, GAUSS)
    assert score(fld) == (result.statistic, Cluster((0, 1)))


def test_cylinder_ties_are_member_major_then_window_order():
    # member (0,) peaks at window 2 and member (1, 2) at window 1, both at
    # 2/sqrt(2): the first member wins
    values = np.array([[1.0, -10.0, -10.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]])
    result = scan_spacetime_cylinders(Field(LINE, values), [Cluster((0,)), Cluster((1, 2))], GAUSS)
    assert (result.argmax_index, result.argmax_window) == (0, 2)
    assert result.statistic == 2.0 / math.sqrt(2.0)
    # one member, windows 1 and 4 both at 2: the first window in grid order
    values = np.zeros((4, 6))
    values[:, 0] = [1.0, 1.5, -0.5, 2.0]
    members = [Cluster((0,)), Cluster((3,))]
    assert scan_spacetime_cylinders(Field(LINE, values), members, GAUSS).argmax_window == 1
    given = scan_spacetime_cylinders(Field(LINE, values), members, GAUSS, (4, 1))
    assert (given.statistic, given.argmax_window) == (2.0, 4)


@contextmanager
def blocks_of(width):
    """Every Monte Carlo pass in blocks of `width` fields."""
    def rule(t_m, m):
        return width

    with mock.patch.object(detect, "block_size", rule), \
            mock.patch.object(sim, "block_size", rule):
        yield


def _truth(horizon):
    if horizon == 1:
        return ball_nodes(NET, (0.5, 0.5), 0.2)
    return make_cylinder(NET, (0.5, 0.5), 0.2, 1, horizon - 1)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_risk_rows_do_not_depend_on_threads(name):
    spec, horizon, _ = SPECS[name]
    truths = (_truth(horizon),)
    rows = []
    # blocks of 7 fields, so three threads share each pass
    with blocks_of(7):
        for threads in (1, 3):
            cfg = ExperimentConfig(
                net=NET, model=GAUSS, test=spec, truth=FixedTruths(truths),
                lambdas=(0.0, 5.0), trials=60, calib_b=99, n_null=100, seed=4,
                t_m=horizon - 1, threads=threads,
            )
            rows.append(estimate_risk(cfg))
    assert rows[0] == rows[1]


WIDTH_SPECS = {name: (spec, horizon) for name, (spec, horizon, _) in SPECS.items()} | {
    "average": (AverageTest(), 5),
    "oracle": (OracleTest(), 1),
}


@pytest.mark.filterwarnings("ignore:planting")
@settings(max_examples=3, deadline=None)
@given(st.sampled_from(MODELS), st.integers(0, 2**32 - 1))
def test_results_do_not_depend_on_block_width(model, seed):
    """Null statistics in trial order and risk rows, bit for bit, at any width."""
    want = {}
    for width in (1, 2, 3, 7, 16, 17, 64):
        with blocks_of(width):
            for name, (spec, horizon) in WIDTH_SPECS.items():
                truth = _truth(horizon)
                score = scorer(spec, NET, model, horizon - 1, truth)
                null = calibrate(score.block, NET, model, 0.05, 99, seed, t_m=horizon - 1)
                cfg = ExperimentConfig(
                    net=NET, model=model, test=spec, truth=FixedTruths((truth,)),
                    lambdas=(1.0, 4.0), trials=50, calib_b=99, n_null=60, seed=seed,
                    t_m=horizon - 1,
                )
                got = null.null_stats.tobytes(), estimate_risk(cfg)
                assert want.setdefault(name, got) == got, (width, name)


def test_a_nets_table_is_built_once():
    built = []
    original = ScanTable.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    nets = {s: build_net(enumerate_balls(NET, 2.0 ** (-s)), 0.5) for s in (2, 3)}
    fld = Field(NET, _draw(GAUSS, 1, (1, NET.m)))
    with mock.patch.object(ScanTable, "__init__", counting):
        first = multiscale_test(fld, nets, None, GAUSS)
        assert len(built) <= len(nets)
        ids = {s: net.table.concat for s, net in nets.items()}
        del built[:]
        assert multiscale_test(fld, nets, None, GAUSS) == first
        scorer(MultiscaleScanTest(nets), NET, GAUSS)(fld)
        scorer(EpsScanTest(nets[2]), NET, GAUSS)(fld)
        assert built == []
    assert all(net.table.concat is ids[s] for s, net in nets.items())
