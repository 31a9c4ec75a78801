import math
import re

import numpy as np
import pytest

from scanlab.clusters import Cluster, cluster_from_ids, enumerate_balls
from scanlab.detect import ScanTable, eps_scan
from scanlab.growth import (
    ClusterSequence,
    dyadic_windows,
    load_sequence,
    make_cone,
    make_cylinder,
    make_holder_trajectory,
    richardson_grow,
    save_sequence,
    scan_spacetime_cylinders,
    verify_bounded_variation,
    verify_limit_shape,
)
from scanlab.metric import SQRT2, build_net, delta
from scanlab.models import SignalSpec, noise_model, plant, sample_null
from scanlab.network import (
    ball_nodes,
    closed_ball_ids,
    make_lattice,
    rescale_lattice,
)
from scanlab.rng import derive_seed

GAUSS = noise_model("gaussian")


class TestCylinder:
    def test_onset_at_horizon(self):
        net = make_lattice(2, 8)
        seq = make_cylinder(net, (4, 4), 1.5, t0=5, t_m=5)
        assert seq.onset == 5 and seq.t_end == 5
        assert sum(1 for _, k in seq.nonempty()) == 1

    def test_constant_sequence_pairs(self):
        net = make_lattice(2, 8)
        seq = make_cylinder(net, (4, 4), 1.5, t0=0, t_m=6)
        base = ball_nodes(net, (4, 4), 1.5)
        assert all(k.ids == base.ids for k in seq.slices)
        assert seq.total_pairs == base.size * 7

    def test_interior_slice_size(self):
        net = make_lattice(2, 64)
        seq = make_cylinder(net, (32, 32), 3.5, t0=0, t_m=2)
        assert seq.slices[0].size == 25  # closed l1 ball of radius 3

    def test_empty_base_rejected(self):
        cloud = rescale_lattice(make_lattice(2, 16))
        with pytest.raises(ValueError):
            make_cylinder(cloud, (0.5, 0.5), 1e-6, t0=0, t_m=3)


class TestCone:
    def test_zero_speed_limit(self):
        net = make_lattice(2, 8)
        seq = make_cone(net, (4, 4), 1e-9, t0=0, t_m=4)
        origin = {int(i) for i in closed_ball_ids(net, (4, 4), 0.0)}
        for _, k in seq.nonempty():
            assert set(k.ids) <= origin

    def test_closed_ball_slices(self):
        net = make_lattice(2, 16)
        seq = make_cone(net, (8, 8), 1.0, t0=0, t_m=3)
        assert [k.size for k in seq.slices] == [1, 5, 13, 25]

    def test_nested(self):
        net = make_lattice(2, 16)
        seq = make_cone(net, (8, 8), 0.8, t0=1, t_m=6)
        prev: set = set()
        for _, k in seq.nonempty():
            assert prev <= set(k.ids)
            prev = set(k.ids)


class TestHolderTrajectory:
    def test_constant_reduces_to_cylinder(self):
        net = rescale_lattice(make_lattice(2, 32))
        controls = np.tile([0.5, 0.5], (5, 1))
        seq = make_holder_trajectory(net, controls, 1.0, 0.0, 0.1, 8.0, 0, 8, 8)
        cyl = make_cylinder(net, (0.5, 0.5), 0.1, 0, 8)
        assert [k.ids for k in seq.slices] == [k.ids for k in cyl.slices]

    def test_kappa_zero_rejects_motion(self):
        net = rescale_lattice(make_lattice(2, 16))
        controls = np.array([[0.4, 0.5], [0.6, 0.5]])
        with pytest.raises(ValueError, match="coordinate 0"):
            make_holder_trajectory(net, controls, 1.0, 0.0, 0.1, 4.0, 0, 4, 4)

    def test_step_delta_bound(self):
        # delta(K_t, K_{t+1}) <= 0.5 * r**-0.5 * (r_star v 1/xi)**0.5, with
        # the constant frozen from a pilot at twice the observed worst ratio
        net = rescale_lattice(make_lattice(2, 64))
        t_m, xi, r = 32, 32.0, 0.1
        xs = np.linspace(0, t_m / xi, 9)
        controls = np.column_stack(
            [0.3 + 0.01 * np.minimum(xs, 1.0), 0.5 + 0.005 * xs]
        )
        seq = make_holder_trajectory(net, controls, 1.0, 0.01, r, xi, 0, t_m, t_m)
        r_star = math.sqrt(2) / 64
        bound = 0.5 * r**-0.5 * max(r_star, 1 / xi) ** 0.5
        for t in range(t_m):
            assert delta(seq.slices[t], seq.slices[t + 1]) <= bound

    def test_violation_names_pair(self):
        net = rescale_lattice(make_lattice(2, 16))
        controls = np.array([[0.1, 0.5], [0.9, 0.5], [0.1, 0.5]])
        with pytest.raises(ValueError, match="grid points"):
            make_holder_trajectory(net, controls, 1.0, 0.2, 0.1, 4.0, 0, 4, 4)


class TestRichardson:
    def test_p_one_equals_l1_balls(self):
        net = make_lattice(2, 64)
        for x0 in (32 * 64 + 32, 5 * 64 + 5):
            seq = richardson_grow(net, x0, 1.0, 0, 20, seed=3)
            for t in range(21):
                want = tuple(int(i) for i in closed_ball_ids(net, net.coords[x0], t))
                assert seq.slices[t].ids == want

    def test_p_zero_rejected(self):
        net = make_lattice(2, 8)
        with pytest.raises(ValueError):
            richardson_grow(net, 0, 0.0, 0, 4, seed=1)

    def test_first_step_expected_size(self):
        # interior seed: E|K_{t0+1}| = 1 + 4p
        net = make_lattice(2, 9)
        p = 0.5
        sizes = [
            richardson_grow(net, 4 * 9 + 4, p, 0, 1, seed=derive_seed(5, i)).slices[1].size
            for i in range(10_000)
        ]
        se = math.sqrt(4 * p * (1 - p) / 10_000)
        assert abs(np.mean(sizes) - (1 + 4 * p)) <= 4 * se

    def test_monotone_occupied_sets(self):
        net = make_lattice(2, 16)
        for s in range(100):
            p = 0.3 if s % 2 == 0 else 0.7
            seq = richardson_grow(net, 8 * 16 + 8, p, 0, 10, seed=derive_seed(6, s))
            for t in range(10):
                assert set(seq.slices[t].ids) <= set(seq.slices[t + 1].ids)

    def test_within_restriction(self):
        net = make_lattice(2, 16)
        limit = cluster_from_ids(int(i) for i in closed_ball_ids(net, (8, 8), 3))
        seq = richardson_grow(net, 8 * 16 + 8, 1.0, 0, 10, seed=2, within=limit)
        assert seq.slices[-1].ids == limit.ids
        for _, k in seq.nonempty():
            assert set(k.ids) <= set(limit.ids)

    def test_deterministic(self):
        net = make_lattice(2, 12)
        a = richardson_grow(net, 70, 0.4, 1, 8, seed=9)
        b = richardson_grow(net, 70, 0.4, 1, 8, seed=9)
        assert [k.ids for k in a.slices] == [k.ids for k in b.slices]


class TestVerifiers:
    def test_constant_cylinder_limit(self):
        net = make_lattice(2, 8)
        seq = make_cylinder(net, (4, 4), 1.5, 0, 5)
        report = verify_limit_shape(seq, seq.slices[0], nu=lambda s: 0.0)
        assert report.passed
        assert all(row[1] == 0.0 for row in report.rows)

    def test_report_only_mode(self):
        net = make_lattice(2, 16)
        seq = make_cone(net, (8, 8), 1.0, 0, 5)
        report = verify_limit_shape(seq, seq.slices[-1])
        assert report.passed is None
        deltas = [row[1] for row in report.rows]
        assert deltas == sorted(deltas, reverse=True)  # cone approaches its limit

    def test_richardson_exact_delta_to_limit(self):
        # p=1: delta(K_t, limit) has the closed form from ball cardinalities
        net = make_lattice(2, 64)
        x0 = 32 * 64 + 32
        t_m = 10
        seq = richardson_grow(net, x0, 1.0, 0, t_m, seed=1)
        limit = cluster_from_ids(int(i) for i in closed_ball_ids(net, (32, 32), t_m))
        report = verify_limit_shape(seq, limit)
        for t, d, _, _ in report.rows:
            size_t = 2 * t * t + 2 * t + 1
            size_lim = 2 * t_m * t_m + 2 * t_m + 1
            want = math.sqrt(2 * (1 - size_t / math.sqrt(size_t * size_lim)))
            assert d == pytest.approx(want)

    def test_bounded_variation_constant(self):
        net = make_lattice(2, 8)
        seq = make_cylinder(net, (4, 4), 1.5, 0, 6)
        assert verify_bounded_variation(seq, 0.0, 3.0).passed

    def test_bounded_variation_disjoint_fails(self):
        seq = ClusterSequence((Cluster((0, 1)), Cluster((2, 3))))
        report = verify_bounded_variation(seq, 0.5, 1.0)
        assert not report.passed
        assert report.worst_pair == (0, 1)
        assert report.worst_delta == pytest.approx(SQRT2)

    def test_bounded_variation_sqrt2_always_passes(self):
        seq = ClusterSequence((Cluster((0,)), Cluster((5,)), Cluster((9,))))
        assert verify_bounded_variation(seq, SQRT2, 10.0).passed

    def test_holder_small_kappa_passes(self):
        net = rescale_lattice(make_lattice(2, 32))
        xs = np.linspace(0, 1, 5)
        controls = np.column_stack([0.4 + 0.02 * xs, 0.5 + 0.01 * xs])
        seq = make_holder_trajectory(net, controls, 1.0, 0.05, 0.15, 10.0, 0, 10, 10)
        assert verify_bounded_variation(seq, 0.5, 10.0).passed


class TestSpacetimeScan:
    def test_dyadic_windows(self):
        assert dyadic_windows(33) == (1, 2, 4, 8, 16, 32, 33)
        assert dyadic_windows(1) == (1,)
        assert dyadic_windows(8) == (1, 2, 4, 8)

    def test_static_reduces_to_eps_scan(self):
        net = make_lattice(2, 8)
        netE = build_net(enumerate_balls(net, 1.5), 0.5)
        f = sample_null(net, GAUSS, 0, seed=4)
        a = scan_spacetime_cylinders(f, netE, GAUSS)
        b = eps_scan(f, netE, GAUSS)
        assert a.statistic == pytest.approx(b.statistic)
        assert a.argmax_window == 1

    def test_full_window_recovers_lambda(self):
        # constant planted cylinder spanning all t: best-window statistic ~ lam
        net = make_lattice(2, 16)
        base = ball_nodes(net, (8, 8), 2.5)
        t_m = 7
        truth = make_cylinder(net, (8, 8), 2.5, 0, t_m)
        lam = 5.0
        stats = []
        for i in range(500):
            f = sample_null(net, GAUSS, t_m, derive_seed(41, i))
            pf = plant(f, truth, SignalSpec(lam), GAUSS, derive_seed(42, i))
            r = scan_spacetime_cylinders(pf, [base], GAUSS)
            stats.append(r.statistic)
        assert abs(np.mean(stats) - lam) <= 0.15

    def test_dominates_single_pair(self):
        net = make_lattice(2, 8)
        members = list(enumerate_balls(net, 1.5))
        f = sample_null(net, GAUSS, 5, seed=6)
        full = scan_spacetime_cylinders(f, members, GAUSS)
        table = ScanTable(members)
        per_t = table.member_sums_temporal(f.values)
        # single (member, window) pair: member 3, last 2 steps
        pair = (per_t[-2:, 3].sum()) / math.sqrt(members[3].size * 2)
        assert full.statistic >= pair

    def test_window_validation(self):
        net = make_lattice(2, 4)
        f = sample_null(net, GAUSS, 3, seed=7)
        with pytest.raises(ValueError):
            scan_spacetime_cylinders(f, [Cluster((0,))], GAUSS, windows=[9])


class TestSequenceFiles:
    def test_roundtrip(self, tmp_path):
        net = make_lattice(2, 8)
        seq = richardson_grow(net, 36, 0.6, 2, 6, seed=8)
        path = tmp_path / "seq.txt"
        save_sequence(seq, path, meta={"kind": "richardson", "p": 0.6})
        back, meta = load_sequence(path)
        assert [k.ids for k in back.slices] == [k.ids for k in seq.slices]
        assert meta["kind"] == "richardson"

    @pytest.mark.parametrize("lines, problem", [
        ("0: 1 2\n0: 3\n", "time 0 appears twice"),
        ("0: 1 2\n-1: 5\n", "time -1 is negative"),
        ("0: 1 2\n2: x\n", "invalid literal for int()"),
        ("0: 1 2\nx: 3\n", "invalid literal for int()"),
        ("0: 1 2\n1: 4 3\n", "cluster ids must be strictly increasing"),
        ("0: 1 2\n1: 3000000000\n", "node id 3000000000 is above"),
    ])
    def test_bad_line_names_path_and_line(self, tmp_path, lines, problem):
        path = tmp_path / "seq.txt"
        path.write_text("# kind=cone\n" + lines)
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {problem}")):
            load_sequence(path)

    def test_window(self):
        seq = ClusterSequence((Cluster(()), Cluster((1,)), Cluster((1, 2))))
        w = seq.window(1, 2)
        assert w.t_m == 1
        assert w.onset == 0
        with pytest.raises(ValueError):
            seq.window(2, 5)
