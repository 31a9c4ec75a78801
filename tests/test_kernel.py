"""The CSR scoring kernel behind scan, multiscale and cylinder statistics.

A block of fields must score as its fields do one at a time, bit for bit;
statistics must agree with plain numpy sums over member ids, in either
encoding of a table (indicator or prefix); exact ties break to the first
cluster, then the earliest scale, then member-major before window order;
and null statistics and risk rows must not depend on the thread count or
the block width.
"""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanlab import detect, metric, sim
from scanlab.clusters import (
    BandParams,
    Cluster,
    ThickParams,
    enumerate_balls,
    enumerate_bands,
    enumerate_thick,
)
from scanlab.detect import (
    average_test,
    calibrate,
    dyadic_windows,
    eps_scan,
    multiscale_test,
    oracle_test,
    scale_term,
)
from scanlab.growth import make_cylinder, scan_spacetime_cylinders
from scanlab.metric import EpsNet, ScanTable, build_net
from scanlab.models import Field, group_sums, noise_model
from scanlab.network import (
    LATTICE,
    NodeSet,
    ball_nodes,
    load_nodeset,
    make_lattice,
    rescale_lattice,
)
from scanlab.sim import (
    AverageTest,
    EpsScanTest,
    ExperimentConfig,
    FixedTruths,
    MultiscaleScanTest,
    OracleTest,
    estimate_risk,
    scorer,
)

from file_helpers import save_nodeset

NET = rescale_lattice(make_lattice(2, 12))
NETS = {s: build_net(enumerate_balls(NET, 2.0 ** (-s)), 0.5) for s in (2, 3, 4)}
# every table of this multiscale test takes the prefix form, as the scorer test checks
PREFIX_NETS = {2: NETS[2], 3: build_net(enumerate_balls(NET, 0.2), 0.3)}
WEIGHTS = {2: 0.3, 3: 1.1, 4: -0.4}
DEFAULT_WEIGHTS = {s: scale_term(NET.m, NET.dim, s) for s in NETS}
MODELS = [noise_model(f) for f in ("gaussian", "bernoulli", "poisson")]

# (spec, field horizon t_m + 1, the one-row detect call it must match)
SPECS = {
    "scan": (EpsScanTest(NETS[3]), 1, lambda f, model: eps_scan(f, NETS[3], model)),
    "multiscale": (MultiscaleScanTest(NETS), 1,
                   lambda f, model: multiscale_test(f, NETS, DEFAULT_WEIGHTS, model)),
    "multiscale-prefix": (MultiscaleScanTest(PREFIX_NETS), 1,
                          lambda f, model: multiscale_test(f, PREFIX_NETS, DEFAULT_WEIGHTS, model)),
    "cylinders": (EpsScanTest(NETS[3]), 5,
                  lambda f, model: scan_spacetime_cylinders(f, NETS[3], model)),
    # the benchmark's horizon: seven time groups of 1, 16, 8, 4, 2, 1 and 1 steps
    "cylinders-33": (EpsScanTest(NETS[3]), 33,
                     lambda f, model: scan_spacetime_cylinders(f, NETS[3], model)),
    "average": (AverageTest(), 5, average_test),
    # the oracle's truth is _truth(1); oracle_test's cutoff plays no part here
    "oracle": (OracleTest(), 1, lambda f, model: oracle_test(f, _truth(1), 0.0, model)),
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
    score = scorer(spec, NET, model, horizon - 1, _truth(horizon))
    block = score.block(group_sums(values, score.groups))
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
            for detail, s in zip(got.per_scale, sorted(NETS)):
                stat, _ = _scan_reference(row, NETS[s].members, model)
                assert detail.scale == s and detail.threshold == offsets[s]
                assert abs(detail.statistic - stat) <= 1e-12 and detail.members == len(NETS[s])
        values = _draw(model, seed, (6, NET.m))
        got = scan_spacetime_cylinders(Field(NET, values), NETS[3], model)
        z, j, w = _cylinder_reference(values, NETS[3].members, model, dyadic_windows(6))
        assert abs(got.statistic - z) <= 1e-12
        assert (got.argmax_index, got.argmax_window) == (j, w)


@contextmanager
def encoding(prefix):
    """Tables encoded inside take the prefix form (True) or the indicator (False)."""
    with mock.patch.object(metric, "PREFIX_COST", -(1 << 40) if prefix else 1 << 40):
        yield


@st.composite
def member_lists(draw):
    """(width, members): drawn runs and scattered sets, single ids at both
    ends, a gapless and a gapped member, and a duplicate of the first."""
    width = draw(st.integers(1, 40))
    ids = st.integers(0, width - 1)
    runs = st.tuples(ids, ids).map(lambda ab: set(range(min(ab), max(ab) + 1)))
    drawn = draw(st.lists(st.one_of(runs, st.sets(ids, min_size=1)), min_size=1, max_size=12))
    members = [Cluster(np.array(sorted(m))) for m in drawn]
    ends = [Cluster(np.array([0])), Cluster(np.array([width - 1]))]
    whole = [Cluster(np.arange(width)), Cluster(np.arange(0, width, 2))]
    return width, members + ends + whole + members[:1]


@settings(max_examples=80, deadline=None)
@given(member_lists(), st.sampled_from(MODELS), st.integers(1, 5), st.integers(0, 3),
       st.integers(0, 2**32 - 1))
def test_both_encodings_match_plain_sums(drawn, model, n_rows, extra, seed):
    width, members = drawn
    rows = _draw(model, seed, (n_rows, width + extra))
    plain = np.array([rows[:, c.idarray].sum(axis=1) for c in members]).T
    want = model.standardize(plain, np.array([c.size for c in members]))
    for prefix in (False, True):
        with encoding(prefix):
            table = ScanTable.of(members).encoded()
        assert (table.runs is not None) == prefix
        got = table.member_sums_temporal(rows)
        if model.family == "gaussian":
            assert (np.abs(got - plain) <= 1e-12 * (1 + np.abs(rows).sum(axis=1))[:, None]).all()
        else:  # integer running sums are exact in float64
            assert np.array_equal(got, plain)
        j = [table.max_score(row, model)[1] for row in rows]
        assert np.array_equal(j, want.argmax(axis=1))  # identical members tie to the first


def _crit5_nets():
    """Criterion 5's multiscale ball nets on the 128^2 rescaled lattice."""
    lat = rescale_lattice(make_lattice(2, 128))
    r5 = 4.1 / 128
    centers = [((x + 0.5) / 128, (y + 0.5) / 128)
               for x in range(0, 128, 4) for y in range(0, 128, 4)]
    nets = {5: build_net([b for b in (ball_nodes(lat, c, r5) for c in centers) if b], 0.5)}
    for scale in (4, 3, 2):
        r = r5 * 2 ** (5 - scale)
        params = ThickParams(lam_lo=r, lam_hi=r, kappa=1.0, shapes=("ball",), grid_eps=0.25)
        nets[scale] = build_net(enumerate_thick(lat, params), 0.5)
    return nets


def test_prefix_rule():
    """Coarse ball scales take the prefix form; the finest ball scale and the
    band net do not.  The choice is made on first scoring, not on building."""
    nets = _crit5_nets()
    assert all("runs" not in vars(net.members) for net in nets.values())
    assert {s: net.members.encoded().runs is not None for s, net in nets.items()} == {
        5: False, 4: True, 3: True, 2: True}
    lat = make_lattice(2, 64)
    bands = enumerate_bands(lat, BandParams(16, 3, "self-avoiding"), budget=500, seed=5)
    assert build_net(bands, 0.5).members.encoded().runs is None


def test_permuted_ids_break_runs_not_statistics(tmp_path):
    """A lattice file with permuted ids: its ball net keeps the indicator, and
    scores as the same net on row-major ids, which takes the prefix form."""
    side = 16
    perm = np.random.default_rng(3).permutation(side * side)  # row-major id -> file id
    coords = np.empty((side * side, 2), dtype=np.int64)
    coords[perm] = make_lattice(2, side).coords
    save_nodeset(NodeSet(mode=LATTICE, dim=2, coords=coords, side=side), tmp_path / "net.csv")
    shuffled = load_nodeset(tmp_path / "net.csv")
    net = build_net(enumerate_balls(shuffled, 5.0), 0.3)
    to_row_major = np.argsort(perm)
    row_major = ScanTable.of(Cluster(np.sort(to_row_major[c.idarray])) for c in net.members)
    assert net.members.encoded().runs is None and row_major.encoded().runs is not None
    for model in MODELS:
        rows = _draw(model, 9, (4, side * side))
        got, j = zip(*(net.members.max_score(row, model) for row in rows[:, to_row_major]))
        want, i = zip(*(row_major.max_score(row, model) for row in rows))
        assert np.abs(np.subtract(got, want)).max() <= 1e-12 and j == i


GAUSS = MODELS[0]
LINE = make_lattice(1, 6)


def test_scan_ties_go_to_the_first_cluster():
    fld = Field(LINE, [[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
    result = eps_scan(fld, [Cluster((4, 5)), Cluster((2, 3)), Cluster((0, 1))], GAUSS)
    assert result.argmax_index == 1 and result.argmax == Cluster((2, 3))


def test_multiscale_ties_go_to_the_earliest_scale():
    fld = Field(LINE, [[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
    nets = {3: EpsNet(0.5, (Cluster((2, 3)),)), 2: EpsNet(0.5, (Cluster((4, 5)), Cluster((0, 1))))}
    result = multiscale_test(fld, nets, {2: 0.5, 3: 0.5}, GAUSS)
    assert result.argmax == Cluster((0, 1)) and result.argmax_index == 1
    # both scale terms of the 6-node line are sqrt(2), so the scorer's offsets tie too
    weighted = multiscale_test(fld, nets, dict.fromkeys(nets, math.sqrt(2.0)), GAUSS)
    assert weighted.argmax == Cluster((0, 1))
    score = scorer(MultiscaleScanTest(nets), LINE, GAUSS)
    assert score(fld) == (weighted.statistic, Cluster((0, 1)))


def test_multiscale_ties_after_the_offset_go_to_the_raw_maximum():
    """Within a scale the first raw maximum wins, before its offset is taken
    off: 1e-17 and 2e-17 less an offset of 1 (or sqrt(2)) round to one score,
    and member (1,), the larger sum, is the argmax, not the first member."""
    fld = Field(LINE, [[1e-17, 2e-17, 0.0, 0.0, 0.0, 0.0]])
    nets = {2: EpsNet(0.5, (Cluster((0,)), Cluster((1,))))}
    assert 1e-17 - 1.0 == 2e-17 - 1.0 and 1e-17 - math.sqrt(2.0) == 2e-17 - math.sqrt(2.0)
    result = multiscale_test(fld, nets, {2: 1.0}, GAUSS)
    assert result.argmax == Cluster((1,)) and result.argmax_index == 1
    assert result.statistic == 2e-17 - 1.0 and result.per_scale[0].statistic == 2e-17
    # the scorer's offset here is scale_term(6, 1, 2) = sqrt(2)
    assert scorer(MultiscaleScanTest(nets), LINE, GAUSS)(fld) == (2e-17 - math.sqrt(2.0),
                                                                  Cluster((1,)))


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


@contextmanager
def blocks_of(width):
    """Every Monte Carlo pass in blocks of `width` fields."""
    def rule(rows, m):
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


WIDTH_SPECS = {name: (spec, horizon) for name, (spec, horizon, _) in SPECS.items()}


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
                null = calibrate(score, NET, model, 0.05, 99, seed)
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
        ids = {s: net.members.concat for s, net in nets.items()}
        del built[:]
        assert multiscale_test(fld, nets, None, GAUSS) == first
        scorer(MultiscaleScanTest(nets), NET, GAUSS)(fld)
        scorer(EpsScanTest(nets[2]), NET, GAUSS)(fld)
        assert built == []
    assert all(net.members.concat is ids[s] for s, net in nets.items())


def test_the_scorer_encodes_its_tables_before_blocks_run():
    """A Scorer's tables are encoded when it is made, so the threads of
    map_blocks only read them."""
    for kind, t_m in ((MultiscaleScanTest, 0), (EpsScanTest, 0), (EpsScanTest, 4)):
        nets = {s: EpsNet(net.epsilon, tuple(net.members)) for s, net in PREFIX_NETS.items()}
        used = list(nets.values()) if kind is MultiscaleScanTest else [nets[2]]
        spec = kind(nets) if kind is MultiscaleScanTest else kind(nets[2])
        assert not any("runs" in vars(net.members) for net in used)
        scorer(spec, NET, GAUSS, t_m)
        assert all(vars(net.members).get("runs") is not None for net in used)
