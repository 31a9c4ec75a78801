import io
import math
from dataclasses import replace

import numpy as np
import pytest

from scanlab.clusters import Cluster, enumerate_balls
from scanlab.detect import calibrate, eps_scan, multiscale_test, scale_term
from scanlab.growth import make_cylinder
from scanlab.metric import build_net
from scanlab.models import noise_model, sample_null, standardized_sum
from scanlab.network import ball_nodes, make_lattice, rescale_lattice
from scanlab.sim import (
    AverageTest,
    CylinderScanTest,
    EpsScanTest,
    ExperimentConfig,
    FixedTruths,
    MultiscaleScanTest,
    OracleTest,
    SampledTruths,
    estimate_risk,
    scorer,
    write_sweep_csv,
)

GAUSS = noise_model("gaussian")


def small_oracle_cfg(lambdas, trials=10_000, seed=13, **kw):
    net = make_lattice(2, 4)
    k = Cluster((5, 6, 9, 10))
    return ExperimentConfig(
        net=net, model=GAUSS, test=OracleTest(), truth=FixedTruths((k,)),
        lambdas=lambdas, trials=trials, n_null=trials, seed=seed, **kw,
    )


class TestEstimateRisk:
    def test_lambda_zero_risk_is_one(self):
        rows = estimate_risk(small_oracle_cfg((0.0,), trials=2000))
        assert abs(rows[0].risk - 1.0) <= 0.05

    def test_oracle_matches_normal_tail(self):
        # Monte Carlo reproduction of the simple-vs-simple risk identity
        rows = estimate_risk(small_oracle_cfg((2.0,), trials=10_000))
        assert abs(rows[0].risk - 0.3173) <= 0.01

    def test_oracle_deep_tail(self):
        # lam=6: risk ~ 2*P(N > 3) ~ 0.0027
        rows = estimate_risk(small_oracle_cfg((6.0,), trials=10_000))
        assert abs(rows[0].risk - 0.0027) <= 0.004

    def test_reproducible(self):
        a = estimate_risk(small_oracle_cfg((1.0, 2.0), trials=200))
        b = estimate_risk(small_oracle_cfg((1.0, 2.0), trials=200))
        assert a == b

    def test_threads_do_not_change_results(self):
        net = make_lattice(2, 8)
        netE = build_net(enumerate_balls(net, 1.5), 0.5)
        truth = FixedTruths((ball_nodes(net, (4, 4), 1.5),))
        kw = dict(net=net, model=GAUSS, test=EpsScanTest(netE), truth=truth,
                  lambdas=(1.0, 3.0), trials=60, calib_b=99, n_null=100, seed=4)
        a = estimate_risk(ExperimentConfig(threads=1, **kw))
        b = estimate_risk(ExperimentConfig(threads=8, **kw))
        assert a == b

    def test_gaussian_crossing_within_factor_two_of_theory(self):
        # thick-cluster sweep: the 0.5-risk crossing brackets the closed-form
        # threshold within a factor 2 (pilot: risks 0.975 / 0.785 / 0.045)
        net = rescale_lattice(make_lattice(2, 64))
        r = 4.1 / 64
        scan_net = build_net(enumerate_balls(net, r), 0.5)
        truth = ball_nodes(net, ((32 + 0.5) / 64, (32 + 0.5) / 64), r)
        theory = math.sqrt(2 * math.log(net.m / truth.size))
        cfg = ExperimentConfig(
            net=net, model=GAUSS, test=EpsScanTest(scan_net),
            truth=FixedTruths((truth,)), lambdas=(0.5 * theory, theory, 2 * theory),
            trials=100, calib_b=199, n_null=200, seed=15, theory=theory,
        )
        rows = estimate_risk(cfg)
        risks = [r_.risk for r_ in rows]
        assert risks[0] >= 0.5 >= risks[2]
        assert risks == sorted(risks, reverse=True)

    def test_monotone_in_lambda(self):
        # 5-point grid; nondecreasing detection within 2 SE, one inversion allowed
        net = make_lattice(2, 16)
        netE = build_net(enumerate_balls(net, 2.5), 0.5)
        truth = FixedTruths((ball_nodes(net, (8, 8), 2.5),))
        cfg = ExperimentConfig(
            net=net, model=GAUSS, test=EpsScanTest(netE), truth=truth,
            lambdas=(0.0, 1.5, 3.0, 4.5, 6.0), trials=200, calib_b=199,
            n_null=200, seed=6,
        )
        rows = estimate_risk(cfg)
        risks = [r.risk for r in rows]
        inversions = 0
        for a, b, ra, rb in zip(risks, risks[1:], rows, rows[1:]):
            if b > a + 2 * math.hypot(ra.se, rb.se):
                inversions += 1
        assert inversions <= 1

    def test_type1_within_band(self):
        net = make_lattice(2, 16)
        netE = build_net(enumerate_balls(net, 2.5), 0.5)
        truth = FixedTruths((ball_nodes(net, (8, 8), 2.5),))
        cfg = ExperimentConfig(
            net=net, model=GAUSS, test=EpsScanTest(netE), truth=truth,
            lambdas=(2.0,), trials=60, calib_b=400, n_null=400, seed=7,
        )
        row = estimate_risk(cfg)[0]
        se = math.sqrt(0.05 * 0.95 / 400)
        assert abs(row.type1 - 0.05) <= 3 * se + 1e-12

    def test_average_loses_to_scan_on_small_clusters(self):
        # |K| ~ sqrt(m): the scan detects where the average test stays blind
        net = make_lattice(2, 32)  # m=1024, truth is a 25-node ball
        k = ball_nodes(net, (16, 16), 3.5)
        netE = build_net(enumerate_balls(net, 3.5), 0.5)
        lam = 5.0
        common = dict(net=net, model=GAUSS, truth=FixedTruths((k,)),
                      lambdas=(lam,), trials=200, calib_b=199, n_null=200, seed=8)
        scan_row = estimate_risk(ExperimentConfig(test=EpsScanTest(netE), **common))[0]
        avg_row = estimate_risk(ExperimentConfig(test=AverageTest(), **common))[0]
        assert scan_row.risk <= 0.2
        assert avg_row.risk >= 0.8

    def test_oracle_requires_single_truth(self):
        net = make_lattice(2, 4)
        cfg = ExperimentConfig(
            net=net, model=GAUSS, test=OracleTest(),
            truth=FixedTruths((Cluster((0,)), Cluster((1,)))),
            lambdas=(1.0,), trials=50, seed=1,
        )
        with pytest.raises(ValueError):
            estimate_risk(cfg)

    def test_empty_truth_rejected(self):
        net = make_lattice(2, 4)
        cfg = ExperimentConfig(
            net=net, model=GAUSS, test=AverageTest(), truth=FixedTruths(()),
            lambdas=(1.0,), trials=50, seed=1,
        )
        with pytest.raises(ValueError):
            estimate_risk(cfg)

    def test_large_fixed_truth_class_is_subsampled(self):
        net = make_lattice(2, 16)
        truths = tuple(Cluster((i,)) for i in range(250))
        cfg = ExperimentConfig(
            net=net, model=GAUSS, test=AverageTest(), truth=FixedTruths(truths),
            lambdas=(1.0,), trials=50, calib_b=99, n_null=100, seed=12,
        )
        row = estimate_risk(cfg)[0]
        assert row.n_truth == 20

    def test_sampled_truths(self):
        net = make_lattice(2, 16)
        netE = build_net(enumerate_balls(net, 2.5), 0.5)

        def sampler(seed):
            from scanlab.rng import rng_from_seed

            rng = rng_from_seed(seed)
            x, y = rng.integers(3, 13, size=2)
            return ball_nodes(net, (int(x), int(y)), 2.5)

        cfg = ExperimentConfig(
            net=net, model=GAUSS, test=EpsScanTest(netE),
            truth=SampledTruths(sampler, count=4),
            lambdas=(5.0,), trials=50, calib_b=99, n_null=100, seed=9,
        )
        row = estimate_risk(cfg)[0]
        assert row.n_truth == 4


class TestConfigValidation:
    def test_trial_floor(self):
        with pytest.raises(ValueError):
            small_oracle_cfg((1.0,), trials=10)

    @pytest.mark.parametrize("n_null", [0, -5])
    def test_null_pass_needs_a_field(self, n_null):
        with pytest.raises(ValueError, match="n_null"):
            replace(small_oracle_cfg((1.0,), trials=50), n_null=n_null)

    def test_grid_strictly_increasing(self):
        with pytest.raises(ValueError):
            small_oracle_cfg((2.0, 1.0), trials=50)
        with pytest.raises(ValueError):
            small_oracle_cfg((1.0, 1.0), trials=50)

    @pytest.mark.parametrize(
        "lambdas", [(1.0, math.nan), (-1.0, 2.0), (1.0, math.inf), (math.nan,), (2.0, -math.inf)]
    )
    def test_every_grid_point_is_a_signal_strength(self, lambdas):
        # refused at construction, before any calibration or null pass runs
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            small_oracle_cfg(lambdas, trials=50)

    @pytest.mark.parametrize("alpha, calib_b, problem", [
        (7.0, 199, "alpha must lie in"), (0.05, 5, "need b >= 99"),
        (0.001, 99, "needs more than b=99"),
    ])
    def test_calibration_settings_are_checked_for_every_test(self, alpha, calib_b, problem):
        # the oracle never calibrates; its config is refused all the same, with
        # the message detect.calibrate gives
        with pytest.raises(ValueError, match=problem):
            small_oracle_cfg((1.0,), trials=50, alpha=alpha, calib_b=calib_b)
        with pytest.raises(ValueError, match=problem):
            calibrate(lambda v: np.zeros(len(v)), make_lattice(2, 3), GAUSS, alpha, calib_b, 0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_at_least_one(self, threads):
        with pytest.raises(ValueError, match="threads >= 1"):
            small_oracle_cfg((1.0,), trials=50, threads=threads)

    def test_static_truth_refused_on_temporal_fields(self):
        cfg = ExperimentConfig(
            net=make_lattice(2, 4), model=GAUSS, test=AverageTest(),
            truth=FixedTruths((Cluster((0, 1)),)), lambdas=(1.0,), trials=50, t_m=2,
        )
        with pytest.raises(ValueError, match="pass a ClusterSequence for temporal fields"):
            estimate_risk(cfg)

    def test_static_test_rejects_temporal(self):
        net = make_lattice(2, 8)
        netE = build_net(enumerate_balls(net, 1.5), 0.5)
        cfg = ExperimentConfig(
            net=net, model=GAUSS, test=EpsScanTest(netE),
            truth=FixedTruths((Cluster((0,)),)), lambdas=(1.0,), trials=50,
            seed=1, t_m=4,
        )
        with pytest.raises(ValueError):
            estimate_risk(cfg)


class TestSweepCsv:
    def test_format_and_echo(self):
        rows = estimate_risk(small_oracle_cfg((1.0, 2.0), trials=100))
        buf = io.StringIO()
        write_sweep_csv(rows, buf, echo={"seed": 13, "alpha": "0.05"})
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# alpha=0.05"
        assert lines[1] == "# seed=13"
        assert lines[2] == "lambda,theory_threshold,type1,type2_worst,risk,se,trials,seed"
        assert len(lines) == 5
        first = lines[3].split(",")
        assert first[0] == "1.0"
        assert first[1] == "nan"  # no theory value configured


class TestScorer:
    """scorer is the one map from a test specification to a statistic."""

    def setup_method(self):
        self.net = rescale_lattice(make_lattice(2, 16))
        self.nets = {s: build_net(enumerate_balls(self.net, 2.0 ** (-s)), 0.5) for s in (2, 3, 4)}

    def test_multiscale_is_the_max_excess_over_scales(self):
        score = scorer(MultiscaleScanTest(nets=self.nets), self.net, GAUSS)
        for seed in range(5):
            fld = sample_null(self.net, GAUSS, 0, seed)
            want = max(
                eps_scan(fld, n, GAUSS).statistic - scale_term(self.net.m, self.net.dim, s)
                for s, n in self.nets.items()
            )
            value, argmax = score(fld)
            assert value == want
            assert argmax is not None

    def test_scan_and_oracle_statistics(self):
        truth = ball_nodes(self.net, (0.5, 0.5), 0.2)
        fld = sample_null(self.net, GAUSS, 0, 3)
        scan = eps_scan(fld, self.nets[3], GAUSS)
        assert scorer(EpsScanTest(self.nets[3]), self.net, GAUSS)(fld) == (
            scan.statistic, scan.argmax
        )
        assert scorer(OracleTest(), self.net, GAUSS, truth=truth)(fld) == (
            standardized_sum(fld, truth, GAUSS), truth
        )
        assert scorer(AverageTest(), self.net, GAUSS)(fld)[1] is None

    def test_static_tests_refuse_temporal_fields(self):
        for spec in (EpsScanTest(self.nets[3]), MultiscaleScanTest(nets=self.nets)):
            with pytest.raises(ValueError, match="static field"):
                scorer(spec, self.net, GAUSS, t_m=2)

    def test_weights_missing_a_scale_are_named(self):
        fld = sample_null(self.net, GAUSS, 0, 1)
        with pytest.raises(ValueError, match="scale 4"):
            multiscale_test(fld, self.nets, {2: 1.0, 3: 1.0}, GAUSS)

    def test_oracle_needs_its_truth(self):
        with pytest.raises(ValueError, match="truth"):
            scorer(OracleTest(), self.net, GAUSS)

    def test_cylinder_truths_in_estimate_risk(self):
        seqs = (make_cylinder(self.net, (0.5, 0.5), 0.2, 1, 3),)
        cfg = ExperimentConfig(
            net=self.net, model=GAUSS, test=CylinderScanTest(self.nets[3]),
            truth=FixedTruths(seqs), lambdas=(0.0, 12.0), trials=50, calib_b=99,
            n_null=100, seed=2, t_m=3,
        )
        low, high = estimate_risk(cfg)
        assert high.risk < low.risk
