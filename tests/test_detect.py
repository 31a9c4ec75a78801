import math
from types import SimpleNamespace

import numpy as np
import pytest

from scanlab.clusters import Cluster, enumerate_balls
from scanlab.detect import (
    RATE_FORMULAS,
    ScanTable,
    average_test,
    calibrate,
    default_scale_thresholds,
    eps_scan,
    log_dagger,
    map_blocks,
    multiscale_test,
    oracle_test,
    rate,
    scan_elements,
)
from scanlab.metric import EpsNet, build_net
from scanlab.models import Field, noise_model, plant, sample_null, sample_null_block, SignalSpec
from scanlab.network import make_lattice, rescale_lattice
from scanlab.rng import derive_seed, derive_seeds

GAUSS = noise_model("gaussian")


def static_field(net, values_row):
    return Field(net=net, values=np.asarray([values_row], dtype=float))


def static_statistic(block):
    """A statistic of static fields, read as one one-step time group."""
    return SimpleNamespace(block=block, groups=(1,))


ZERO = static_statistic(lambda v: np.zeros(len(v)))


class TestScan:
    def test_single_cluster(self):
        net = make_lattice(1, 3)
        f = static_field(net, [1.0, 2.0, 3.0])
        r = eps_scan(f, [Cluster((0, 2))], GAUSS)
        assert r.statistic == pytest.approx(4.0 / math.sqrt(2))
        assert r.argmax.ids == (0, 2)

    def test_prefix_example(self):
        net = make_lattice(1, 3)
        f = static_field(net, [1.0, 2.0, 3.0])
        r = eps_scan(f, [Cluster((0,)), Cluster((0, 1)), Cluster((0, 1, 2))], GAUSS)
        assert r.statistic == pytest.approx(6.0 / math.sqrt(3))
        assert r.argmax.ids == (0, 1, 2)

    def test_empty_stream_rejected(self):
        net = make_lattice(1, 3)
        f = static_field(net, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            eps_scan(f, [], GAUSS)

    def test_tie_breaks_to_first(self):
        net = make_lattice(1, 4)
        f = static_field(net, [1.0, 1.0, 0.0, 0.0])
        r = eps_scan(f, [Cluster((0,)), Cluster((1,))], GAUSS)
        assert r.argmax_index == 0

    def test_table_takes_no_model(self):
        # the model is an argument of scoring, not of the table
        members = [Cluster((0,)), Cluster((0, 1))]
        with pytest.raises(TypeError):
            ScanTable.of(members, GAUSS)
        table = ScanTable.of(members)
        assert table.max_score(np.array([1.0, 2.0, 0.0]), GAUSS) == (3.0 / math.sqrt(2), 1)

    def test_null_concentration(self):
        # max over 1e4 disjoint singletons concentrates near sqrt(2 log N)
        net = make_lattice(2, 100)
        table = ScanTable.of([Cluster((i,)) for i in range(10_000)])
        maxima = [
            table.max_score(sample_null(net, GAUSS, 0, derive_seed(21, i)).values[0], GAUSS)[0]
            for i in range(100)
        ]
        target = math.sqrt(2 * math.log(10_000))
        assert abs(float(np.median(maxima)) - target) <= 0.5

    def test_scan_dominates_eps_scan_dominates_member(self):
        net = make_lattice(2, 8)
        stream = list(enumerate_balls(net, 1.5))
        subnet = build_net(stream, 0.9)
        f = sample_null(net, GAUSS, 0, seed=3)
        full = eps_scan(f, stream, GAUSS).statistic
        sub = eps_scan(f, subnet, GAUSS).statistic
        single = eps_scan(f, [subnet.members[0]], GAUSS).statistic
        assert full >= sub >= single

    def test_equal_size_argmax_shift_invariant(self):
        net = make_lattice(1, 6)
        row = [0.3, -1.0, 2.0, 0.1, -0.4, 0.9]
        clusters = [Cluster((i, i + 1)) for i in range(5)]
        a = eps_scan(static_field(net, row), clusters, GAUSS)
        shifted = [v + 5.0 for v in row]
        b = eps_scan(static_field(net, shifted), clusters, GAUSS)
        assert a.argmax_index == b.argmax_index


class TestEpsScan:
    def test_full_net_equals_scan(self):
        net = make_lattice(2, 6)
        stream = list(enumerate_balls(net, 1.5))
        whole = EpsNet(epsilon=0.01, members=tuple(stream))
        f = sample_null(net, GAUSS, 0, seed=5)
        assert eps_scan(f, whole, GAUSS).statistic == eps_scan(f, stream, GAUSS).statistic

    def test_singleton_net(self):
        net = make_lattice(2, 4)
        k = Cluster((0, 1, 2))
        f = sample_null(net, GAUSS, 0, seed=6)
        from scanlab.models import standardized_sum

        single = EpsNet(epsilon=0.5, members=(k,))
        assert eps_scan(f, single, GAUSS).statistic == pytest.approx(
            standardized_sum(f, k, GAUSS)
        )

    def test_covered_truth_lower_bound(self):
        # eps_scan >= planted cluster's own statistic - lam*eps - 3
        net = rescale_lattice(make_lattice(2, 32))
        r = 3.1 / 32
        netE = build_net(enumerate_balls(net, r), 0.5)
        table = ScanTable.of(netE.members)
        lam = 4.0
        from scanlab.network import ball_nodes
        from scanlab.models import standardized_sum

        k = ball_nodes(net, (16.5 / 32, 16.5 / 32), r)
        for i in range(100):
            f = sample_null(net, GAUSS, 0, derive_seed(51, i))
            pf = plant(f, k, SignalSpec(lam), GAUSS, derive_seed(52, i))
            assert table.max_score(pf.values[0], GAUSS)[0] >= (
                standardized_sum(pf, k, GAUSS) - lam * 0.5 - 3.0
            )


class TestAverageTest:
    def test_zero_field(self):
        net = make_lattice(2, 4)
        assert average_test(static_field(net, [0.0] * 16), GAUSS).statistic == 0.0

    def test_planted_expectation(self):
        # E[statistic] = lam * sqrt(k/m)
        net = make_lattice(2, 8)
        k = Cluster(tuple(range(16)))
        lam = 8.0
        stats = [
            average_test(
                plant(sample_null(net, GAUSS, 0, derive_seed(61, i)), k,
                      SignalSpec(lam), GAUSS, derive_seed(62, i)),
                GAUSS,
            ).statistic
            for i in range(2000)
        ]
        assert abs(np.mean(stats) - lam * math.sqrt(16 / 64)) <= 4 / math.sqrt(2000)

    def test_quarter_network_cluster_detected_at_fixed_threshold(self):
        # k = m/4, lam = 20 on m=1024: expected statistic 10, so threshold 3
        # detects essentially always
        net = make_lattice(2, 32)
        k = Cluster(tuple(range(256)))
        hits = 0
        for i in range(200):
            f = plant(sample_null(net, GAUSS, 0, derive_seed(63, i)), k,
                      SignalSpec(20.0), GAUSS, derive_seed(64, i))
            hits += average_test(f, GAUSS).with_threshold(3.0).decision
        assert hits / 200 >= 0.99


class TestOracle:
    def test_lambda_zero_cutoff(self):
        net = make_lattice(2, 4)
        f = static_field(net, list(range(16)))
        r = oracle_test(f, Cluster((0, 1)), 0.0, GAUSS)
        assert r.threshold == 0.0

    def test_decision_rule(self):
        net = make_lattice(1, 4)
        f = static_field(net, [2.0, 0.0, 0.0, 0.0])
        r = oracle_test(f, Cluster((0,)), 2.0, GAUSS)
        assert r.statistic == pytest.approx(2.0)
        assert r.threshold == 1.0
        assert r.decision is True


class TestCalibrate:
    def test_order_statistic_rank(self):
        net = make_lattice(2, 4)
        calib = calibrate(
            static_statistic(lambda v: v[:, 0, 0]), net, GAUSS, alpha=0.01, b=99, seed=3
        )
        assert calib.threshold == float(np.max(calib.null_stats))

    def test_degenerate_statistic(self):
        net = make_lattice(2, 4)
        calib = calibrate(ZERO, net, GAUSS, alpha=0.05, b=99, seed=4)
        assert calib.threshold == 0.0
        # any positive observed value rejects
        assert 0.5 > calib.threshold

    def test_b_floor(self):
        net = make_lattice(2, 4)
        with pytest.raises(ValueError):
            calibrate(ZERO, net, GAUSS, alpha=0.05, b=50, seed=0)

    def test_alpha_needs_enough_samples(self):
        net = make_lattice(2, 4)
        with pytest.raises(ValueError):
            calibrate(ZERO, net, GAUSS, alpha=0.005, b=99, seed=0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_1_refused(self, threads):
        net = make_lattice(2, 4)
        with pytest.raises(ValueError, match="threads >= 1"):
            calibrate(ZERO, net, GAUSS, alpha=0.05, b=99, seed=0, threads=threads)
        with pytest.raises(ValueError, match="threads >= 1"):
            map_blocks(lambda lo, hi: np.zeros(hi - lo), 10, 4, threads)

    def test_threads_match_single(self):
        net = make_lattice(2, 6)
        table = ScanTable.of(list(enumerate_balls(net, 1.5)))
        stat = scan_elements([table], np.zeros(1), GAUSS)
        a = calibrate(stat, net, GAUSS, alpha=0.05, b=120, seed=5, threads=1)
        b = calibrate(stat, net, GAUSS, alpha=0.05, b=120, seed=5, threads=4)
        assert a.threshold == b.threshold
        assert np.array_equal(a.null_stats, b.null_stats)

    @pytest.mark.parametrize("family", ["gaussian", "poisson"])
    def test_draws_at_the_statistics_time_groups(self, family):
        # the cylinder scan at t_m = 32 reads 7 time groups; calibrate draws
        # each null field at them, from its "calib" seed, and takes the rank
        net = make_lattice(2, 8)
        model = noise_model(family)
        table = ScanTable.of(list(enumerate_balls(net, 1.5)))
        score = scan_elements([table], np.zeros(1), model, 32)
        assert score.groups == (1, 16, 8, 4, 2, 1, 1)
        calib = calibrate(score, net, model, alpha=0.05, b=99, seed=11)
        fields = sample_null_block(net, model, derive_seeds(11, ("calib",), 0, 99), score.groups)
        want = score.block(fields)
        assert calib.null_stats.tobytes() == want.tobytes()
        assert calib.threshold == np.sort(want)[94]

    def test_fresh_null_level(self):
        # ball scan on the 64x64 lattice, alpha=0.05, B=400:
        # fresh-null rejection rate within the binomial CI
        net = make_lattice(2, 64)
        table = ScanTable.of(list(enumerate_balls(net, 2.5)))
        stat = lambda f: table.max_score(f.values[0], GAUSS)[0]
        calib = calibrate(scan_elements([table], np.zeros(1), GAUSS), net, GAUSS, alpha=0.05,
                          b=400, seed=6)
        hits = sum(
            stat(sample_null(net, GAUSS, 0, derive_seed(71, i))) > calib.threshold
            for i in range(400)
        )
        assert abs(hits / 400 - 0.05) <= 0.03


class TestMultiscale:
    def _nets(self, net, radii, eps=0.5):
        return {
            s: build_net(enumerate_balls(net, r), eps, family="balls")
            for s, r in radii.items()
        }

    def test_single_nonempty_scale_reduces_to_eps_scan(self):
        net = make_lattice(2, 8)
        nets = self._nets(net, {3: 1.5})
        nets[2] = EpsNet(epsilon=0.5, members=())
        f = sample_null(net, GAUSS, 0, seed=7)
        taus = {3: 2.0, 2: 2.0}
        combined = multiscale_test(f, nets, taus, GAUSS)
        inner = eps_scan(f, nets[3], GAUSS)
        assert combined.statistic == pytest.approx(inner.statistic - 2.0)
        assert combined.decision == (inner.statistic > 2.0)

    def test_all_empty_rejected(self):
        net = make_lattice(2, 4)
        f = sample_null(net, GAUSS, 0, seed=8)
        with pytest.raises(ValueError):
            multiscale_test(f, {1: EpsNet(0.5, ())}, None, GAUSS)

    def test_result_invariant(self):
        net = make_lattice(2, 8)
        nets = self._nets(net, {2: 2.5, 3: 1.5})
        f = sample_null(net, GAUSS, 0, seed=9)
        r = multiscale_test(f, nets, None, GAUSS)
        assert r.threshold == 0.0
        assert r.decision == (r.statistic > 0.0)
        assert r.per_scale is not None and len(r.per_scale) == 2

    def test_thresholds_missing_a_scale_are_named(self):
        net = make_lattice(2, 8)
        nets = self._nets(net, {2: 2.5, 3: 1.5})
        nets[4] = EpsNet(epsilon=0.5, members=())
        f = sample_null(net, GAUSS, 0, seed=9)
        with pytest.raises(ValueError, match="scale 3"):
            multiscale_test(f, nets, {2: 1.0}, GAUSS)
        # an empty scale needs no threshold
        assert multiscale_test(f, nets, {2: 1.0, 3: 1.0}, GAUSS).per_scale[-1].scale == 3

    def test_temporal_field_refused_in_the_tests_words(self):
        net = rescale_lattice(make_lattice(2, 16))
        nets = self._nets(net, {3: 0.125})
        f = sample_null(net, GAUSS, 3, seed=10)
        with pytest.raises(ValueError) as err:
            multiscale_test(f, nets, None, GAUSS)
        assert str(err.value) == "multiscale_test needs a static field (t_m = 0), got t_m = 3"

    def test_default_thresholds_false_alarm_rate(self):
        # H0 on the rescaled 64^2 lattice, ball nets at 4 dyadic scales
        net = rescale_lattice(make_lattice(2, 64))
        nets = self._nets(net, {s: 2.0 ** (-s) for s in (2, 3, 4, 5)})
        taus = default_scale_thresholds(net.m, net.dim, nets)
        alarms = sum(
            multiscale_test(
                sample_null(net, GAUSS, 0, derive_seed(31, i)), nets, taus, GAUSS
            ).decision
            for i in range(200)
        )
        assert alarms / 200 <= 0.1


class TestRates:
    def test_thick_degenerate(self):
        assert rate("thick", m=5, k=5) == 0.0

    def test_thick_e(self):
        assert rate("thick", m=math.e, k=1.0) == pytest.approx(math.sqrt(2))

    def test_bernoulli_example(self):
        # m/k = e and k = 50: sqrt(2 log e / 50) = 1/5, so p* = 1/2 + (1/2)(1/5)
        m, k = 50 * math.e, 50
        p_star = rate("bernoulli_p", m=m, k=k)
        assert p_star == pytest.approx(0.6)
        # in units of sigma every family's offset is sqrt(2 log(m/k)/k)
        assert (p_star - 0.5) / 0.5 == pytest.approx(0.2)
        assert rate("poisson_mu", m=m, k=k) - 1.0 == pytest.approx(0.2)
        assert rate("thick", m=m, k=k) / math.sqrt(k) == pytest.approx(0.2)

    def test_bernoulli_saturation_guard(self):
        # 2 log(m/k) >= k puts p* at or above 1: k = 2, m/k = 50
        with pytest.raises(ValueError, match="too small"):
            rate("bernoulli_p", m=100, k=2)
        # just inside: 2 log(m/k) = 4 log 2 < 4 = k, so p* = 1/2 + sqrt(log 2)/2
        assert rate("bernoulli_p", m=16, k=4) == pytest.approx(
            0.5 + math.sqrt(math.log(2)) / 2
        )

    def test_poisson_formula(self):
        k, m = 25.0, 4096.0
        want = 1.0 + math.sqrt(2 * math.log(m / k)) / math.sqrt(k)
        assert rate("poisson_mu", m=m, k=k) == pytest.approx(want)

    def test_ball_formula(self):
        assert rate("ball", d=2, lam=0.25) == pytest.approx(
            math.sqrt(4 * math.log(4.0))
        )

    def test_thin_formula(self):
        want = (1 + 0.04) * math.sqrt(2 * 3.0 + 4 * math.log(10))
        assert rate("thin", eps=0.2, log_n=3.0, d=2, lam=0.1) == pytest.approx(want)

    def test_band_formulas(self):
        assert rate("band_nondecreasing", ell=32, h=4) == pytest.approx(math.sqrt(8))
        v = rate("band_all", ell=32, h=4, m=4096, d=2)
        assert v == pytest.approx(
            math.sqrt(8 + math.log(4096 / 16) + log_dagger(math.log(32)))
        )

    def test_animal_formula(self):
        assert rate("animal", m=4096) == pytest.approx(math.sqrt(2 * math.log(4096)))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rate("thick", m=10, k=20)
        with pytest.raises(ValueError):
            rate("ball", d=2, lam=1.5)
        with pytest.raises(ValueError):
            rate("nope", m=1)
        with pytest.raises(ValueError):
            rate("thick", m=10)
        with pytest.raises(ValueError):
            rate("thick", m=10, k=2, extra=1)

    def test_catalog_param_lists(self):
        for name, (_, params) in RATE_FORMULAS.items():
            assert params, name


class TestLogDagger:
    def test_exact_definition(self):
        assert log_dagger(math.e) == 1.0
        assert log_dagger(math.e + 1e-9) == pytest.approx(1.0)
        assert log_dagger(1.0) == 1.0
        assert log_dagger(0.1) == 1.0
        assert log_dagger(math.e**2) == pytest.approx(2.0)
