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
    standardized_sum,
    target_sums,
)
from scanlab.network import EUCLIDEAN, NodeSet, make_lattice
from scanlab.rng import derive_seed

from file_helpers import outcome, reference_load_field, save_field, silent_outcome

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

    def test_poisson_saturation_rejected(self):
        # theta = 20 on one pair: mean e^20, past the inversion table's 1e6
        f = sample_null(make_lattice(2, 8), POIS, 0, seed=6)
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="poisson tilt saturates"):
            plant(f, Cluster((0,)), SignalSpec(20.0), POIS, seed=7)

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
                     lambda: target_sums(block, k)):
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


# ---------------------------------------------------------------------------
# load_field hands its rows to np.loadtxt by path; the reader it replaced,
# which handed over an open file, is the reference for every outcome


def _field_rows(t_m: int = 1, m: int = 4) -> list[str]:
    values = np.random.default_rng(5).standard_normal((t_m + 1, m))
    return [f"{n},{t},{float(values[t, n])!r}" for n in range(m) for t in range(t_m + 1)]


def _field_text(rows, newline="\n", final=True, header="node,t,value"):
    return newline.join([header, *rows]) + (newline if final else "")


ROWS = _field_rows()
FIELD_CASES = {
    "plain": _field_text(ROWS),
    "crlf": _field_text(ROWS, "\r\n"),
    "cr": _field_text(ROWS, "\r"),
    "tabs-and-runs-of-spaces": _field_text([r.replace(",", " ,\t  ", 1) for r in ROWS]),
    "blank-and-comment-lines": _field_text(["", "# a note", *ROWS[:3], "",
                                            ROWS[3] + " # trailing", *ROWS[4:], "#"]),
    "whitespace-only-line": _field_text([*ROWS[:3], "   ", *ROWS[3:]]),
    "no-final-newline": _field_text(ROWS, final=False),
    "crlf-no-final-newline": _field_text(ROWS, "\r\n", final=False),
    "rows-out-of-order": _field_text(ROWS[::-1]),
    "one-row-of-four-nodes": _field_text(ROWS[:1]),
    "empty-body": _field_text([]),
    "header-alone-no-newline": "node,t,value",
    "empty-file": "",
    "bad-header": _field_text(ROWS, header="node,time,value"),
    "header-with-spaces": _field_text(ROWS, header="  node,t,value \t"),
    "extra-column": _field_text(ROWS[:2] + [ROWS[2] + ",7"] + ROWS[3:]),
    "missing-column": _field_text(ROWS[:2] + ["1,0"] + ROWS[3:]),
    "non-numeric-node": _field_text(["x,0,1.0"] + ROWS[1:]),
    "non-numeric-value": _field_text(ROWS[:5] + ["2,1,abc"] + ROWS[6:]),
    "float-node": _field_text(["0.0,0,1.0"] + ROWS[1:]),
    "plus-signs": _field_text([r.replace("3,", "+3,+", 1) if r.startswith("3,") else r
                               for r in ROWS]),
    "node-above-int32": _field_text(ROWS + ["2147483648,0,1.0"]),
    "node-above-int64": _field_text(ROWS + ["99999999999999999999,0,1.0"]),
    "negative-node": _field_text(ROWS + ["-1,0,1.0"]),
    "negative-time": _field_text(ROWS + ["0,-1,1.0"]),
    "node-out-of-range": _field_text(ROWS + ["4,0,1.0"]),
    "repeated-row": _field_text(ROWS + [ROWS[5]]),
    "repeated-pair-missing-pair": _field_text(ROWS[:-1] + [ROWS[0]]),
    "missing-pair": _field_text(ROWS[:-1]),
    "nan-value": _field_text(ROWS[:4] + ["2,0,nan"] + ROWS[5:]),
    "inf-value": _field_text(ROWS[:4] + ["2,0,-inf"] + ROWS[5:]),
    "out-of-range-after-non-finite": _field_text(["0,0,nan"] + ROWS[1:] + ["9,0,1.0"]),
    "crlf-non-numeric-node": _field_text(ROWS[:3] + ["x,0,1.0"] + ROWS[3:], "\r\n"),
    "missing-column-no-final-newline": _field_text(ROWS + ["1,0"], final=False),
}


# The rows np.loadtxt refuses, by the file line (header counted) and its text.
# The reference passes np.loadtxt's message through ("... at row 3; use `usecols`
# ..."); load_field names path:line and the columns it expects.
FIELD_COLUMNS = "the 3 columns node,t,value (two integers, then a number)"
FIELD_REFUSED = {
    "whitespace-only-line": (5, "   "),
    "extra-column": (4, ROWS[2] + ",7"),
    "missing-column": (4, "1,0"),
    "non-numeric-node": (2, "x,0,1.0"),
    "non-numeric-value": (7, "2,1,abc"),
    "float-node": (2, "0.0,0,1.0"),
    "node-above-int64": (10, "99999999999999999999,0,1.0"),
    "crlf-non-numeric-node": (5, "x,0,1.0"),
    "missing-column-no-final-newline": (10, "1,0"),
}


def _assert_same_field(net, path, refused=None):
    got, want = silent_outcome(load_field, net, path), outcome(reference_load_field, net, path)
    if refused is not None:
        line, text = refused
        assert want[0] is ValueError
        assert got == (ValueError, f"{path}:{line}: expected {FIELD_COLUMNS}, got {text!r}")
    elif isinstance(want, tuple):
        assert got == want
    else:
        assert got.net is net and np.array_equal(got.values, want.values)
    return got


class TestFieldReader:
    @pytest.mark.parametrize("name", FIELD_CASES)
    def test_matches_the_open_file_reader(self, tmp_path, name):
        path = tmp_path / "field.csv"
        path.write_bytes(FIELD_CASES[name].encode())
        _assert_same_field(make_lattice(1, 4), path, FIELD_REFUSED.get(name))

    def test_one_row_file(self, tmp_path):
        path = tmp_path / "field.csv"
        path.write_text("node,t,value\n0,0,2.5\n")
        net = NodeSet(mode=EUCLIDEAN, dim=1, coords=np.array([[0.5]]))
        assert _assert_same_field(net, path).values.tolist() == [[2.5]]

    def test_shuffled_and_spaced_rows_with_one_fault(self, tmp_path):
        # rows in any order and spacing, and now and then one row broken
        rng = np.random.default_rng(11)
        net, path = make_lattice(2, 3), tmp_path / "field.csv"
        rows = _field_rows(t_m=2, m=net.m)
        faults = ["", "", "x,0,1.0", "0,0", "0,0,1.0,2", "9,0,1.0", "0,0,nan", "0,-1,1.0"]
        for _ in range(40):
            these = [rows[i] for i in rng.permutation(len(rows))]
            these = [r.replace(",", rng.choice([",", " , ", ",\t"])) for r in these]
            fault = faults[rng.integers(len(faults))]
            if fault:
                these.insert(int(rng.integers(len(these) + 1)), fault)
            if rng.random() < 0.3:
                these.pop(int(rng.integers(len(these))))
            newline = str(rng.choice(["\n", "\r\n", "\r"]))
            path.write_bytes(_field_text(these, newline, final=rng.random() < 0.5).encode())
            refused = fault in faults[2:5] and fault in these
            _assert_same_field(net, path, (these.index(fault) + 2, fault) if refused else None)

    def test_the_workload_field_shape(self, tmp_path):
        # a 16^2, t_m = 32 field as the benchmark's pipeline writes it, node-major
        net = make_lattice(2, 16)
        f = sample_null(net, GAUSS, 32, seed=8)
        path = tmp_path / "field.csv"
        save_field(f, path)
        assert np.array_equal(_assert_same_field(net, path).values, f.values)
