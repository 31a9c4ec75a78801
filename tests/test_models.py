import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scanlab
from scanlab.clusters import Cluster
from scanlab.models import (
    _MAD_CONSISTENCY,
    Field,
    NoiseModel,
    SignalSpec,
    load_field,
    mad_variance,
    noise_model,
    plant,
    plant_block,
    sample_null,
    sample_null_block,
    save_field,
    standardized_sum,
    standardized_sums,
)
from scanlab.network import make_lattice
from scanlab.rng import derive_seed

GAUSS = noise_model("gaussian")
BERN = noise_model("bernoulli")
POIS = noise_model("poisson")


class TestSampleNull:
    def test_gaussian_moments(self):
        net = make_lattice(2, 317)  # ~1e5 nodes
        f = sample_null(net, GAUSS, 0, seed=1)
        m = net.m
        assert abs(f.values.mean()) <= 4 / math.sqrt(m)
        assert abs(f.values.var() - 1.0) <= 0.05

    def test_bernoulli_support_and_mean(self):
        net = make_lattice(2, 100)
        f = sample_null(net, BERN, 0, seed=2)
        assert set(np.unique(f.values)) <= {0.0, 1.0}
        assert abs(f.values.mean() - 0.5) <= 0.02

    def test_poisson_support_and_moments(self):
        net = make_lattice(2, 100)
        f = sample_null(net, POIS, 0, seed=3)
        assert (f.values >= 0).all()
        assert np.array_equal(f.values, np.round(f.values))
        assert abs(f.values.mean() - 1.0) <= 0.04
        assert abs(f.values.var() - 1.0) <= 0.06

    def test_deterministic(self):
        net = make_lattice(2, 10)
        a = sample_null(net, GAUSS, 3, seed=9)
        b = sample_null(net, GAUSS, 3, seed=9)
        assert np.array_equal(a.values, b.values)
        assert a.t_m == 3

    def test_values_immutable(self):
        net = make_lattice(2, 4)
        f = sample_null(net, GAUSS, 0, seed=0)
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


class TestPlant:
    def test_local(self):
        net = make_lattice(2, 8)
        f = sample_null(net, GAUSS, 0, seed=4)
        k = Cluster((0, 1, 2, 3))
        planted = plant(f, k, SignalSpec(3.0), GAUSS, seed=5)
        assert np.array_equal(planted.values[0, 4:], f.values[0, 4:])
        assert not np.array_equal(planted.values[0, :4], f.values[0, :4])

    def test_single_node_mean(self):
        net = make_lattice(2, 2)
        k = Cluster((0,))
        vals = [
            plant(sample_null(net, GAUSS, 0, derive_seed(1, i)), k, SignalSpec(3.0),
                  GAUSS, derive_seed(2, i)).values[0, 0]
            for i in range(4000)
        ]
        assert abs(np.mean(vals) - 3.0) <= 4 / math.sqrt(4000)

    def test_per_node_shift(self):
        # |K|=100, lam=5 -> per-node mean shift 0.5
        net = make_lattice(2, 10)
        k = Cluster(tuple(range(100)))
        mean = np.mean(
            [
                plant(sample_null(net, GAUSS, 0, derive_seed(3, i)), k, SignalSpec(5.0),
                      GAUSS, derive_seed(4, i)).values[0].mean()
                for i in range(2000)
            ]
        )
        assert abs(mean - 0.5) <= 4 * (1 / math.sqrt(100)) / math.sqrt(2000)

    def test_bernoulli_theta_map(self):
        # |K|=64, lam=4: theta = 0.25, p = e^.25/(1+e^.25)
        assert SignalSpec(4.0).theta(BERN, 64) == pytest.approx(0.25)
        assert BERN.tilted_mean(0.25) == pytest.approx(0.5621765008857981)

    def test_bernoulli_saturation_rejected(self):
        net = make_lattice(2, 8)
        f = sample_null(net, BERN, 0, seed=6)
        with pytest.warns(UserWarning), pytest.raises(ValueError):
            plant(f, Cluster((0,)), SignalSpec(200.0), BERN, seed=7)

    def test_time_groups_must_partition_the_block(self):
        net = make_lattice(2, 4)
        for groups in ((2, 1), (1, 1, 1), (4, 0), (2, -1, 3)):
            with pytest.raises(ValueError, match="do not partition 4 steps"):
                sample_null_block(net, GAUSS, 3, (1, 2), groups)
        block = sample_null_block(net, GAUSS, 3, (1, 2), (1, 2, 1))
        target = Cluster((0, 1))
        with pytest.raises(ValueError, match="2 time groups for a block of 3 rows"):
            plant_block(block, target, SignalSpec(1.0), GAUSS, (3, 4), (2, 2))

    def test_empty_cluster_rejected(self):
        net = make_lattice(2, 4)
        f = sample_null(net, GAUSS, 0, seed=8)
        with pytest.raises(ValueError):
            plant(f, Cluster(()), SignalSpec(1.0), GAUSS, seed=9)

    def test_small_cluster_warning_nongaussian(self):
        net = make_lattice(2, 8)
        f = sample_null(net, BERN, 0, seed=10)
        with pytest.warns(UserWarning):
            plant(f, Cluster((0, 1)), SignalSpec(1.0), BERN, seed=11)


    def test_static_cluster_refused_on_temporal_field(self):
        # a Cluster addresses a static field; it used to plant at t = 0 only
        net = make_lattice(2, 6)
        f = sample_null(net, GAUSS, 3, 1)
        k = Cluster((0, 1, 2))
        with pytest.raises(ValueError, match="pass a ClusterSequence for temporal fields"):
            plant(f, k, SignalSpec(50.0), GAUSS, 2)
        block = f.values[None].copy()
        for call in (lambda: plant_block(block, k, SignalSpec(50.0), GAUSS, (2,)),
                     lambda: standardized_sums(block, k, GAUSS)):
            with pytest.raises(ValueError, match="pass a ClusterSequence for temporal fields"):
                call()
        assert np.array_equal(block[0], f.values)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_signal_strength_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            SignalSpec(lam)


class TestMadVariance:
    def test_constant_field_is_zero(self):
        net = make_lattice(2, 4)
        f = Field(net=net, values=np.ones((1, 16)) * 3.0)
        assert mad_variance(f) == 0.0

    def test_null_consistency(self):
        net = make_lattice(2, 317)
        f = sample_null(net, GAUSS, 0, seed=4)
        assert abs(mad_variance(f) - 1.0) <= 0.05

    def test_contamination_robustness(self):
        net = make_lattice(2, 317)
        f = sample_null(net, GAUSS, 0, seed=4)
        k = Cluster(tuple(range(net.m // 100)))
        lam = 10.0 * math.sqrt(k.size)  # per-node shift 10
        planted = plant(f, k, SignalSpec(lam), GAUSS, seed=5)
        assert abs(mad_variance(planted) - 1.0) <= 0.10

    def test_consistency_constant_needs_no_scipy_stats(self):
        """The constant is Phi^-1(3/4) written out, so importing scanlab loads no scipy.stats."""
        from scipy.stats import norm

        assert _MAD_CONSISTENCY == float(norm.ppf(0.75))
        path = [str(Path(scanlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        done = subprocess.run(
            [sys.executable, "-c", "import sys, scanlab; print('scipy.stats' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
            capture_output=True, text=True, check=True,
        )
        assert done.stdout.strip() == "False"


class TestStandardizedSum:
    def test_zeros(self):
        net = make_lattice(2, 4)
        f = Field(net=net, values=np.zeros((1, 16)))
        assert standardized_sum(f, Cluster((0, 1, 2)), GAUSS) == 0.0

    def test_four_ones(self):
        net = make_lattice(2, 4)
        vals = np.zeros((1, 16))
        vals[0, :4] = 1.0
        f = Field(net=net, values=vals)
        assert standardized_sum(f, Cluster((0, 1, 2, 3)), GAUSS) == pytest.approx(2.0)

    @pytest.mark.parametrize("model", [GAUSS, BERN, POIS])
    def test_null_mean_zero_var_one(self, model):
        net = make_lattice(2, 20)
        k = Cluster(tuple(range(400)))
        stats = np.array(
            [
                standardized_sum(
                    sample_null(net, model, 0, derive_seed(7, model.family, i)), k, model
                )
                for i in range(10_000)
            ]
        )
        assert abs(stats.mean()) <= 4 / math.sqrt(10_000)
        assert abs(stats.var() - 1.0) <= 0.05

    def test_gaussian_shift_identity(self):
        # E[standardized sum at the true K] equals lam exactly
        net = make_lattice(2, 8)
        k = Cluster(tuple(range(25)))
        lam = 3.0
        stats = [
            standardized_sum(
                plant(sample_null(net, GAUSS, 0, derive_seed(8, i)), k, SignalSpec(lam),
                      GAUSS, derive_seed(9, i)),
                k,
                GAUSS,
            )
            for i in range(4000)
        ]
        assert abs(np.mean(stats) - lam) <= 4 / math.sqrt(4000)

    @pytest.mark.parametrize("model", [GAUSS, BERN, POIS])
    def test_planted_mean_exceeds_null_mean(self, model):
        theta = SignalSpec(2.0).theta(model, 30)
        assert model.tilted_mean(theta) > model.null_mean

    def test_temporal_requires_sequence(self):
        net = make_lattice(2, 4)
        f = sample_null(net, GAUSS, 2, seed=1)
        with pytest.raises(ValueError):
            standardized_sum(f, Cluster((0, 1)), GAUSS)


class TestNoiseModel:
    def test_base_variances(self):
        assert GAUSS.sigma2 == 1.0
        assert BERN.sigma2 == 0.25
        assert POIS.sigma2 == 1.0

    @pytest.mark.parametrize("model, mean, var, sigma", [
        (GAUSS, 0.0, 1.0, 1.0), (BERN, 0.5, 0.25, 0.5), (POIS, 1.0, 1.0, 1.0),
    ])
    def test_moments(self, model, mean, var, sigma):
        assert (model.null_mean, model.sigma2, model.sigma) == (mean, var, sigma)
        assert model.standardize(4 * mean + 2 * sigma, 4) == 1.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            NoiseModel("cauchy")


class TestFieldFiles:
    def test_roundtrip_static(self, tmp_path):
        net = make_lattice(2, 4)
        f = sample_null(net, GAUSS, 0, seed=3)
        path = tmp_path / "field.csv"
        save_field(f, path)
        with open(path) as fh:
            assert fh.readline().strip() == "node,t,value"
        back = load_field(net, path)
        assert np.array_equal(back.values, f.values)

    def test_roundtrip_temporal(self, tmp_path):
        net = make_lattice(2, 3)
        f = sample_null(net, POIS, 4, seed=3)
        path = tmp_path / "field.csv"
        save_field(f, path)
        back = load_field(net, path)
        assert back.t_m == 4
        assert np.array_equal(back.values, f.values)
