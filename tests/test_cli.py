import itertools
import json
import math
import time

import numpy as np
import pytest

from scanlab.cli import build_experiment, build_parser, main, parse_config
from scanlab.clusters import (
    FAMILIES,
    THICK,
    TUBES,
    AnimalParams,
    BandParams,
    ClusterClass,
    ThickParams,
    ThinParams,
    enumerate_bands,
)
from scanlab.errors import ConfigError
from scanlab.metric import build_net
from scanlab.network import load_nodeset, make_lattice
from scanlab.rng import derive_seed


def run(args):
    return main(args)


class TestNetAndEnumerate:
    def test_lattice_then_animals_count(self, tmp_path, capsys):
        net = tmp_path / "net.csv"
        out = tmp_path / "animals.txt"
        assert run(["net", "--mode", "lattice", "--d", "2", "--side", "8",
                    "--out", str(net)]) == 0
        assert run(["enumerate", "--family", "animals", "--kmax", "2",
                    "--net", str(net), "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 64 + 2 * 8 * 7  # singletons + dominoes = 176

    def test_cloud_roundtrip(self, tmp_path):
        net = tmp_path / "cloud.csv"
        assert run(["net", "--mode", "cloud", "--d", "2", "--m", "50",
                    "--seed", "3", "--out", str(net)]) == 0
        from scanlab.network import load_nodeset

        loaded = load_nodeset(net)
        assert loaded.m == 50

    def test_out_dash_streams_to_stdout(self, capsys):
        assert run(["net", "--mode", "lattice", "--d", "2", "--side", "3",
                    "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# {")
        assert "id,x0,x1" in out

    def test_missing_required_key(self, tmp_path, capsys):
        code = run(["net", "--mode", "lattice", "--d", "2",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "side" in capsys.readouterr().err

    def test_capacity_error_exit_code(self, tmp_path, capsys):
        net = tmp_path / "net.csv"
        run(["net", "--mode", "lattice", "--d", "2", "--side", "8", "--out", str(net)])
        code = run(["enumerate", "--family", "animals", "--kmax", "13",
                    "--net", str(net), "--out", str(tmp_path / "a.txt")])
        assert code == 3


class TestRates:
    def test_thick_value(self, capsys):
        assert run(["rates", "--formula", "thick", "--m", "16384", "--k", "49"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"{math.sqrt(2 * math.log(16384 / 49)):.4f}" == "3.4095"

    def test_bernoulli_saturated_exit2(self, capsys):
        # m = 5.4366 > 2e, k = 2: 2 log(m/k) >= k, so p* would reach 1
        assert run(["rates", "--formula", "bernoulli_p", "--m", "5.4366",
                    "--k", "2"]) == 2
        assert "too small" in capsys.readouterr().err

    def test_missing_param_exit2(self, capsys):
        assert run(["rates", "--formula", "thick", "--m", "16384"]) == 2
        assert "k" in capsys.readouterr().err

    def test_flags_are_the_formula_parameters(self):
        from scanlab.detect import RATE_FORMULAS

        params = {key for _, keys in RATE_FORMULAS.values() for key in keys}
        argv = ["rates", "--formula", "thin"]
        for key in params:
            argv += ["--" + key.replace("_", ""), "2"]
        args = build_parser().parse_args(argv)
        assert {key: getattr(args, key) for key in params} == dict.fromkeys(params, 2)
        assert {key for key in params if isinstance(getattr(args, key), int)} == {"d", "p"}
        assert run(["rates", "--formula", "thin", "--eps", "0.1", "--logn", "3", "--d", "2",
                    "--lam", "0.2"]) == 0


class TestNetbuildCalibrateTest:
    def test_pipeline(self, tmp_path):
        net = tmp_path / "net.csv"
        balls = tmp_path / "balls.txt"
        eps = tmp_path / "net_eps.txt"
        calib = tmp_path / "calib.csv"
        field = tmp_path / "field.csv"
        result = tmp_path / "result.csv"
        assert run(["net", "--mode", "lattice", "--d", "2", "--side", "8",
                    "--out", str(net)]) == 0
        assert run(["enumerate", "--family", "balls", "--lam", "1.5",
                    "--net", str(net), "--out", str(balls)]) == 0
        assert run(["netbuild", "--in", str(balls), "--epsilon", "0.5",
                    "--out", str(eps)]) == 0
        assert "# epsilon=0.5" in eps.read_text()
        assert run(["calibrate", "--net", str(net), "--clusters", str(eps),
                    "--alpha", "0.05", "--b", "99", "--seed", "3",
                    "--out", str(calib)]) == 0

        from scanlab.models import noise_model, sample_null, save_field
        from scanlab.network import load_nodeset

        save_field(sample_null(load_nodeset(net), noise_model("gaussian"), 0, 42), field)
        assert run(["test", "--net", str(net), "--clusters", str(eps),
                    "--field", str(field), "--calibration", str(calib),
                    "--out", str(result)]) == 0
        lines = result.read_text().splitlines()
        assert lines[0] == "statistic,threshold,decision,argmax_size,wallclock_ms"
        fields = lines[1].split(",")
        assert fields[2] in ("reject", "accept")
        assert int(fields[3]) > 0

    def test_test_requires_threshold_source(self, tmp_path, capsys):
        net = tmp_path / "net.csv"
        run(["net", "--mode", "lattice", "--d", "2", "--side", "4", "--out", str(net)])
        from scanlab.models import noise_model, sample_null, save_field
        from scanlab.network import load_nodeset

        field = tmp_path / "field.csv"
        save_field(sample_null(load_nodeset(net), noise_model("gaussian"), 0, 1), field)
        code = run(["test", "--net", str(net), "--field", str(field),
                    "--statistic", "average", "--out", str(tmp_path / "r.csv")])
        assert code == 2


class TestGrow:
    def test_richardson_roundtrip(self, tmp_path):
        net = tmp_path / "net.csv"
        seq = tmp_path / "seq.txt"
        run(["net", "--mode", "lattice", "--d", "2", "--side", "8", "--out", str(net)])
        assert run(["grow", "--net", str(net), "--kind", "richardson", "--x0", "36",
                    "--p", "1.0", "--tm", "3", "--seed", "1", "--out", str(seq)]) == 0
        from scanlab.growth import load_sequence

        loaded, meta = load_sequence(seq)
        assert meta["kind"] == "richardson"
        assert [k.size for k in loaded.slices] == [1, 5, 13, 25]

    def test_every_kind(self, tmp_path):
        net = tmp_path / "net.csv"
        run(["net", "--mode", "lattice", "--d", "2", "--side", "8", "--out", str(net)])
        from scanlab.growth import load_sequence

        for kind, extra, sizes in (
            ("cylinder", ["--center", "4,4", "--r0", "1.5", "--t0", "1"], [0, 5, 5, 5, 5]),
            ("cone", ["--center", "4,4", "--speed", "1.0"], [1, 5, 13, 25, 39]),
            ("holder", ["--controls", "2,2;3,3", "--r", "1.5", "--kappa", "1", "--start", "2"],
             [0, 0, 4, 3, 5]),
            ("richardson", ["--x0", "36", "--within-radius", "1"], [1, 5, 5, 5, 5]),
        ):
            out = tmp_path / f"{kind}.txt"
            assert run(["grow", "--net", str(net), "--kind", kind, "--tm", "4",
                        "--out", str(out)] + extra) == 0
            seq, meta = load_sequence(out)
            assert meta["kind"] == kind
            assert [k.size for k in seq.slices] == sizes, kind

    @pytest.mark.parametrize("kind, extra, problem", [
        ("cylinder", ["--r0", "2"], "requires --center"),
        ("cylinder", ["--center", "4,4"], "requires --r0"),
        ("cone", ["--center", "4,4"], "requires --speed"),
        ("holder", ["--r", "1.5"], "requires --controls"),
        ("holder", ["--controls", "2,2;3,3"], "requires --r"),
        ("richardson", [], "requires --x0"),
        ("cylinder", ["--center", "4,4,4", "--r0", "2"], "--center has 3 coordinates"),
        ("cone", ["--center", "4", "--speed", "1"], "--center has 1 coordinates"),
        ("richardson", ["--x0", "64", "--within-radius", "2"], "x0 must be a node id"),
    ])
    def test_missing_or_bad_flag_exits_2(self, tmp_path, capsys, kind, extra, problem):
        net = tmp_path / "net.csv"
        run(["net", "--mode", "lattice", "--d", "2", "--side", "8", "--out", str(net)])
        out = tmp_path / "seq.txt"
        assert run(["grow", "--net", str(net), "--kind", kind, "--tm", "3",
                    "--out", str(out)] + extra) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()


class TestLatticeFiles:
    """Lattice node files whose ids are not row-major, or that have holes."""

    def _write(self, path, points, side, seed):
        """`points` under a seeded random id order; returns the coordinates by id."""
        coords = np.asarray(points)[np.random.default_rng(seed).permutation(len(points))]
        meta = {"mode": "lattice-l1", "d": coords.shape[1], "m": len(coords), "side": side}
        header = "id," + ",".join(f"x{j}" for j in range(coords.shape[1]))
        lines = ["# " + json.dumps(meta), header]
        lines += [f"{i}," + ",".join(map(str, c)) for i, c in enumerate(coords)]
        path.write_text("\n".join(lines) + "\n")
        return coords

    def _files(self, tmp_path):
        full = list(itertools.product(range(6), repeat=2))
        holed = [c for c in full if c not in ((1, 1), (2, 3), (4, 4))]
        for name, points in (("permuted", full), ("holes", holed)):
            path = tmp_path / f"{name}.csv"
            yield path, self._write(path, points, 6, seed=0)

    def test_richardson_at_p1_grows_graph_balls(self, tmp_path):
        from scanlab.growth import load_sequence

        for path, coords in self._files(tmp_path):
            out = tmp_path / "seq.txt"
            assert run(["grow", "--net", str(path), "--kind", "richardson", "--x0", "14",
                        "--p", "1", "--tm", "3", "--out", str(out)]) == 0
            ball = {14}
            for k in load_sequence(out)[0].slices:
                assert k.ids == tuple(sorted(ball))
                near = np.abs(coords[:, None] - coords[sorted(ball)]).sum(axis=2).min(axis=1)
                ball = set(np.flatnonzero(near <= 1).tolist())

    def test_every_2_animal_is_an_adjacent_pair(self, tmp_path):
        for path, coords in self._files(tmp_path):
            out = tmp_path / "animals.txt"
            assert run(["enumerate", "--net", str(path), "--family", "animals", "--kmax", "2",
                        "--size-cap", "4", "--out", str(out)]) == 0
            pairs = [tuple(map(int, l.split())) for l in out.read_text().splitlines()
                     if not l.startswith("#") and len(l.split()) == 2]
            adjacent = np.abs(coords[:, None] - coords[None]).sum(axis=2) == 1
            assert len(pairs) == adjacent.sum() // 2
            assert all(adjacent[a, b] for a, b in pairs)

    def test_no_lattice_family_fails(self, tmp_path):
        for path, _ in self._files(tmp_path):
            for flags in (["--family", "animals", "--kmax", "3"],
                          ["--family", "bands", "--ell", "4", "--h", "2"],
                          ["--family", "bands", "--ell", "4", "--h", "2", "--path-mode",
                           "self-avoiding", "--budget", "20"]):
                assert run(["enumerate", "--net", str(path), "--out", str(tmp_path / "c.txt")]
                           + flags) == 0


class TestSweepConfig:
    CFG = """
net.mode = lattice
net.side = 16
net.rescale = true
scan.family = balls
scan.lambda = 0.13
scan.epsilon = 0.5
truth.family = balls
truth.lambda = 0.13
truth.count = 2
lambda.grid = 0,4
trials = 50
alpha = 0.05
calibration.b = 99
n_null = 100
seed = 5
theory.formula = ball
theory.d = 2
theory.lam = 0.13
"""

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config("frobnicate = 1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2")

    def test_sweep_deterministic_across_threads(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG)
        out1 = tmp_path / "s1.csv"
        out8 = tmp_path / "s8.csv"
        assert run(["sweep", "--config", str(cfg), "--threads", "1",
                    "--out", str(out1)]) == 0
        assert run(["sweep", "--config", str(cfg), "--threads", "8",
                    "--out", str(out8)]) == 0
        assert out1.read_bytes() == out8.read_bytes()

    def test_sweep_output_shape(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.CFG)
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        echo = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# net.side=16") for l in echo)
        assert any(l.startswith("# trials=50") for l in echo)  # defaults echoed
        header = [l for l in lines if l.startswith("lambda,")]
        assert header == ["lambda,theory_threshold,type1,type2_worst,risk,se,trials,seed"]
        rows = [l for l in lines if not l.startswith(("#", "lambda,"))]
        assert len(rows) == 2
        lam0 = rows[0].split(",")
        assert float(lam0[0]) == 0.0
        assert float(lam0[4]) > 0.8  # risk ~ 1 at lambda = 0
        theory = float(lam0[1])
        assert theory == pytest.approx(math.sqrt(4 * math.log(1 / 0.13)))

    def test_missing_required_grid(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("net.mode = lattice\nnet.side = 8\nscan.lambda = 1.5\n")
        code = run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "lambda.grid" in capsys.readouterr().err

    def _run_cfg(self, tmp_path, text):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith(("#", "lambda,"))]
        return rows

    def test_multiscale_config(self, tmp_path):
        rows = self._run_cfg(tmp_path, """
net.mode = lattice
net.side = 16
net.rescale = true
test = multiscale
multiscale.scales = 2,3
scan.epsilon = 0.5
truth.family = balls
truth.lambda = 0.25
truth.count = 2
lambda.grid = 0,6
trials = 50
calibration.b = 99
n_null = 100
seed = 6
""")
        assert len(rows) == 2
        assert float(rows[1].split(",")[4]) < float(rows[0].split(",")[4])

    def test_average_config(self, tmp_path):
        rows = self._run_cfg(tmp_path, """
net.mode = lattice
net.side = 8
test = average
truth.family = animals
truth.k = 16
lambda.grid = 0,20
trials = 50
calibration.b = 99
n_null = 100
seed = 2
""")
        assert float(rows[1].split(",")[4]) < 0.3  # lam=20 on m=64: avg detects

    def test_oracle_config(self, tmp_path):
        rows = self._run_cfg(tmp_path, """
net.mode = lattice
net.side = 8
test = oracle
truth.family = balls
truth.lambda = 2.5
truth.count = 1
lambda.grid = 2
trials = 2000
n_null = 2000
seed = 3
""")
        assert abs(float(rows[0].split(",")[4]) - 0.3173) < 0.05

    def test_cylinders_richardson_config(self, tmp_path):
        rows = self._run_cfg(tmp_path, """
net.mode = lattice
net.side = 16
tm = 8
test = cylinders
scan.family = balls
scan.lambda = 4.0
scan.epsilon = 0.5
truth.family = richardson
truth.limit_radius = 3
truth.p = 0.8
truth.warmup = 8
truth.count = 2
lambda.grid = 0,8
trials = 50
calibration.b = 99
n_null = 100
seed = 9
""")
        assert len(rows) == 2
        assert float(rows[1].split(",")[4]) < float(rows[0].split(",")[4])

    def test_tubes_and_thick_enumerate(self, tmp_path):
        cloud = tmp_path / "cloud.csv"
        run(["net", "--mode", "cloud", "--d", "2", "--m", "300", "--seed", "2",
             "--out", str(cloud)])
        tubes = tmp_path / "tubes.txt"
        assert run(["enumerate", "--family", "tubes", "--r", "0.2", "--kappa", "0.5",
                    "--net", str(cloud), "--out", str(tubes)]) == 0
        assert sum(1 for l in tubes.read_text().splitlines()
                   if l and not l.startswith("#")) > 0
        thick = tmp_path / "thick.txt"
        assert run(["enumerate", "--family", "thick", "--lam-lo", "0.15",
                    "--lam-hi", "0.15", "--kappa", "2.0", "--net", str(cloud),
                    "--out", str(thick)]) == 0
        assert "# kappa=2.0" in thick.read_text()


def _lattice(tmp_path, side=8):
    net = tmp_path / "net.csv"
    assert run(["net", "--mode", "lattice", "--d", "2", "--side", str(side),
                "--out", str(net)]) == 0
    return net


def _null_field(tmp_path, net, t_m=0):
    from scanlab.models import noise_model, sample_null, save_field
    from scanlab.network import load_nodeset

    path = tmp_path / "field.csv"
    save_field(sample_null(load_nodeset(net), noise_model("gaussian"), t_m, 11), path)
    return path


def _body(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


class TestOneFamilyTable:
    """enumerate, the sweep config and the library build the same classes."""

    CASES = {
        "balls": (False, ["--lam", "1.5"], 1.5),
        "thick": (True, ["--lam-lo", "0.15", "--lam-hi", "0.3", "--kappa", "2.0"],
                  ThickParams(0.15, 0.3, kappa=2.0)),
        "tubes": (True, ["--r", "0.2", "--kappa", "0.5"], ThinParams(0.2, kappa=0.5, n_control=3)),
        "bands": (False, ["--ell", "8", "--h", "2", "--path-mode", "self-avoiding",
                          "--budget", "40", "--seed", "4"],
                  BandParams(8, 2, "self-avoiding")),
        "animals": (False, ["--kmax", "3"], AnimalParams(3)),
    }

    @pytest.mark.parametrize("family", list(CASES))
    def test_enumerate_body_equals_stream(self, tmp_path, family):
        cloud, flags, params = self.CASES[family]
        if cloud:
            net = tmp_path / "cloud.csv"
            run(["net", "--mode", "cloud", "--d", "2", "--m", "200", "--seed", "2",
                 "--out", str(net)])
        else:
            net = _lattice(tmp_path, side=10)
        out = tmp_path / "clusters.txt"
        assert run(["enumerate", "--net", str(net), "--family", family, *flags,
                    "--out", str(out)]) == 0
        budget = 40 if family == "bands" else 2000
        want = ClusterClass(family, params, budget=budget).stream(load_nodeset(net), seed=4)
        assert _body(out) == [" ".join(map(str, c.ids)) for c in want]
        assert f"# family={family}" in out.read_text()

    def test_family_choices_are_the_cluster_classes(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        family = next(a for a in sub.choices["enumerate"]._actions if a.dest == "family")
        assert set(family.choices) == set(FAMILIES)
        assert {THICK, TUBES} == {"thick", "tubes"}

    def test_sweep_scan_net_equals_library_net(self):
        exp, _ = build_experiment(parse_config(
            "net.mode = lattice\nnet.side = 12\nscan.family = bands\nscan.ell = 6\n"
            "scan.h = 2\nscan.path_mode = self-avoiding\nscan.budget = 60\n"
            "scan.epsilon = 0.5\ntest = cylinders\ntm = 2\nlambda.grid = 1\nseed = 12\n"
        ))
        lattice = make_lattice(2, 12)
        stream = enumerate_bands(lattice, BandParams(6, 2, "self-avoiding"), budget=60,
                                 seed=derive_seed(12, "scanpaths"))
        assert exp.test.base.members == build_net(stream, 0.5).members

    def test_size_cap_caps_the_sweep_net(self):
        text = ("net.mode = lattice\nnet.side = 8\nscan.family = balls\nscan.lambda = 2.5\n"
                "lambda.grid = 1\n")
        uncapped, _ = build_experiment(parse_config(text))
        capped, echo = build_experiment(parse_config(text + "scan.size_cap = 8\n"))
        assert max(c.size for c in uncapped.test.net.members) == 13
        assert max(c.size for c in capped.test.net.members) <= 8
        assert echo["scan.size_cap"] == "8"

    def test_calibrate_scan_refuses_temporal_fields(self, tmp_path, capsys):
        net = _lattice(tmp_path)
        balls = tmp_path / "balls.txt"
        run(["enumerate", "--net", str(net), "--family", "balls", "--lam", "1.5",
             "--out", str(balls)])
        code = run(["calibrate", "--net", str(net), "--clusters", str(balls),
                    "--statistic", "scan", "--tm", "4", "--alpha", "0.05", "--b", "99",
                    "--out", str(tmp_path / "calib.csv")])
        assert code == 2
        assert "static field" in capsys.readouterr().err


class TestCalibrationIdentity:
    def _calibrate(self, tmp_path, net, clusters, statistic, tm, model="gaussian"):
        out = tmp_path / f"calib_{statistic}_{tm}_{model}.csv"
        assert run(["calibrate", "--net", str(net), "--clusters", str(clusters),
                    "--statistic", statistic, "--tm", str(tm), "--model", model,
                    "--alpha", "0.05", "--b", "99", "--seed", "7", "--out", str(out)]) == 0
        return out

    def _test(self, tmp_path, net, clusters, field, statistic, calib, model="gaussian"):
        return run(["test", "--net", str(net), "--clusters", str(clusters),
                    "--field", str(field), "--statistic", statistic, "--model", model,
                    "--calibration", str(calib), "--out", str(tmp_path / "r.csv")])

    @pytest.fixture
    def setup(self, tmp_path):
        net = _lattice(tmp_path)
        balls = tmp_path / "balls.txt"
        run(["enumerate", "--net", str(net), "--family", "balls", "--lam", "1.5",
             "--out", str(balls)])
        return net, balls

    def test_columns_record_what_was_calibrated(self, tmp_path, setup):
        net, balls = setup
        calib = self._calibrate(tmp_path, net, balls, "cylinder-scan", 3)
        header, row = calib.read_text().splitlines()
        assert header == "alpha,b,threshold,seed,statistic,tm,model"
        assert row.split(",")[4:] == ["cylinder-scan", "3", "gaussian"]

    def test_scan_calibration_refused_by_cylinder_test(self, tmp_path, setup, capsys):
        net, balls = setup
        calib = self._calibrate(tmp_path, net, balls, "scan", 0)
        field = _null_field(tmp_path, net, t_m=0)
        assert self._test(tmp_path, net, balls, field, "cylinder-scan", calib) == 2
        err = capsys.readouterr().err
        assert "statistic scan" in err and "statistic cylinder-scan" in err
        assert self._test(tmp_path, net, balls, field, "scan", calib) == 0

    def test_tm_and_model_mismatch_refused(self, tmp_path, setup, capsys):
        net, balls = setup
        calib = self._calibrate(tmp_path, net, balls, "cylinder-scan", 2)
        field = _null_field(tmp_path, net, t_m=3)
        assert self._test(tmp_path, net, balls, field, "cylinder-scan", calib) == 2
        assert "tm 2" in capsys.readouterr().err
        calib = self._calibrate(tmp_path, net, balls, "cylinder-scan", 3, model="poisson")
        assert self._test(tmp_path, net, balls, field, "cylinder-scan", calib) == 2
        assert "model poisson" in capsys.readouterr().err

    def test_calibration_without_identity_columns_refused(self, tmp_path, setup, capsys):
        net, balls = setup
        calib = tmp_path / "old.csv"
        calib.write_text("alpha,b,threshold,seed\n0.05,99,3.1,7\n")
        field = _null_field(tmp_path, net)
        assert self._test(tmp_path, net, balls, field, "scan", calib) == 2
        assert "lacks the columns" in capsys.readouterr().err


class TestFileInputs:
    """Bad field and cluster files end in exit 2 with a named problem."""

    def _test(self, tmp_path, net, field, clusters=None, statistic="average"):
        argv = ["test", "--net", str(net), "--field", str(field), "--statistic", statistic,
                "--threshold", "3.0", "--out", str(tmp_path / "r.csv")]
        if clusters is not None:
            argv += ["--clusters", str(clusters)]
        return run(argv)

    def _edited_field(self, tmp_path, net, edit):
        path = _null_field(tmp_path, net)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        return path

    def test_duplicate_row(self, tmp_path, capsys):
        net = _lattice(tmp_path)
        field = self._edited_field(tmp_path, net, lambda ls: ls + ["5,0,57.0"])
        assert self._test(tmp_path, net, field) == 2
        assert "duplicate rows for node 5, t 0" in capsys.readouterr().err

    def test_node_out_of_range(self, tmp_path, capsys):
        net = _lattice(tmp_path)
        field = self._edited_field(tmp_path, net, lambda ls: ls[:-1] + ["999,0,0.5"])
        assert self._test(tmp_path, net, field) == 2
        assert "row 999,0,0.5 is out of range" in capsys.readouterr().err

    def test_negative_time(self, tmp_path, capsys):
        net = _lattice(tmp_path)
        field = self._edited_field(tmp_path, net, lambda ls: ls[:-1] + ["63,-1,0.5"])
        assert self._test(tmp_path, net, field) == 2
        assert "row 63,-1,0.5 is out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_value(self, tmp_path, capsys, value):
        net = _lattice(tmp_path)
        field = self._edited_field(tmp_path, net, lambda ls: ls[:-1] + [f"63,0,{value}"])
        assert self._test(tmp_path, net, field) == 2
        assert f"row 63,0,{value} has a non-finite value" in capsys.readouterr().err

    def test_missing_net_file_is_a_file_error(self, tmp_path, capsys):
        field = tmp_path / "field.csv"
        assert self._test(tmp_path, tmp_path / "absent.csv", field) == 2
        err = capsys.readouterr().err
        assert err.startswith("scanlab: file error:") and "absent.csv" in err

    def test_repeated_node_id_exits_2(self, tmp_path, capsys):
        net = _lattice(tmp_path)
        lines = net.read_text().splitlines()
        net.write_text("\n".join(lines[:-1] + ["5" + lines[-1][2:]]) + "\n")
        assert self._test(tmp_path, net, tmp_path / "field.csv") == 2
        assert "id 5 appears more than once" in capsys.readouterr().err

    def test_cluster_ids_out_of_range(self, tmp_path, capsys):
        net = _lattice(tmp_path)
        clusters = tmp_path / "clusters.txt"
        clusters.write_text("1 2 3\n4 5 999\n")
        assert self._test(tmp_path, net, _null_field(tmp_path, net), clusters, "scan") == 2
        assert "node id 999 outside 0..63" in capsys.readouterr().err
        code = run(["calibrate", "--net", str(net), "--clusters", str(clusters),
                    "--alpha", "0.05", "--b", "99", "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "node id 999" in capsys.readouterr().err

    @pytest.mark.parametrize("line, problem", [
        ("-1 0 1", "node id -1 is negative"),
        ("3 1 2", "cluster ids must be strictly increasing"),
        ("1 x 2", "invalid literal for int()"),
        ("1 3000000000", "node id 3000000000 is above 2147483647"),
        ("1 99999999999999999999", "a node id is above 2147483647"),
        ("1.5 2", "invalid literal for int()"),
    ])
    def test_bad_cluster_line_names_path_and_line(self, tmp_path, capsys, line, problem):
        net = _lattice(tmp_path)
        clusters = tmp_path / "clusters.txt"
        clusters.write_text(f"# family=balls\n1 2 3\n\n{line}\n4 5\n")
        where = f"{clusters}:4: {problem}"
        out = tmp_path / "eps.txt"
        assert run(["netbuild", "--in", str(clusters), "--epsilon", "0.5",
                    "--out", str(out)]) == 2
        assert where in capsys.readouterr().err
        assert not out.exists()
        assert self._test(tmp_path, net, _null_field(tmp_path, net), clusters, "scan") == 2
        assert where in capsys.readouterr().err
        code = run(["calibrate", "--net", str(net), "--clusters", str(clusters),
                    "--alpha", "0.05", "--b", "99", "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert where in capsys.readouterr().err


class TestConfigBounds:
    def test_integer_keys_are_exact_above_2_53(self, tmp_path):
        text = """
net.mode = lattice
net.side = 8
test = average
truth.family = animals
truth.k = 16
lambda.grid = 0,20
trials = 50
calibration.b = 99
n_null = 100
"""
        rows = {}
        for seed in (2**53, 2**53 + 1):
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(text + f"seed = {seed}\n")
            out = tmp_path / f"{seed}.csv"
            assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
            rows[seed] = [line for line in out.read_text().splitlines()
                          if line and not line.startswith(("#", "lambda,"))]
            assert all(row.endswith(f",{seed}") for row in rows[seed])
        strip = [[row.rsplit(",", 1)[0] for row in r] for r in rows.values()]
        assert strip[0] != strip[1]

    def test_fractional_integer_key_rejected(self):
        exp_text = "net.mode = lattice\nnet.side = 8\nscan.lambda = 1.5\nlambda.grid = 1\n"
        with pytest.raises(ConfigError, match="'trials'"):
            build_experiment(parse_config(exp_text + "trials = 50.7\n"))
        exp, _ = build_experiment(parse_config(exp_text + "trials = 50.0\n"))
        assert exp.trials == 50

    def _sweep(self, tmp_path, text):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        start = time.perf_counter()
        code = run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        return code, time.perf_counter() - start

    def test_ball_margin_without_center_exits_2(self, tmp_path, capsys):
        code, elapsed = self._sweep(tmp_path, """
net.mode = lattice
net.side = 16
net.rescale = true
scan.family = balls
scan.lambda = 0.13
truth.margin = 0.6
lambda.grid = 0,4
trials = 50
calibration.b = 99
n_null = 100
""")
        assert code == 2 and elapsed < 1.0
        assert "truth.margin" in capsys.readouterr().err

    def test_richardson_radius_without_center_exits_2(self, tmp_path, capsys):
        code, elapsed = self._sweep(tmp_path, """
net.mode = lattice
net.side = 8
tm = 2
test = average
truth.family = richardson
truth.limit_radius = 3
lambda.grid = 4
trials = 50
calibration.b = 99
n_null = 100
""")
        assert code == 2 and elapsed < 1.0
        assert "truth.limit_radius" in capsys.readouterr().err

    AVERAGE = """
net.mode = lattice
net.side = 8
test = average
truth.family = balls
truth.lambda = 1.5
lambda.grid = 4
trials = 50
calibration.b = 99
n_null = 100
"""

    @pytest.mark.parametrize("line", [
        "scan.lambda = abc", "truth.p = abc", "truth.k = 1.5", "multiscale.scales = 2,x",
        "truth.limit_radius = 2.5", "threads = -3", "threads = 0", "theory.d = 2.5",
        "theory.k = 2.5x", "truth.margin = abc", "net.rescale = maybe", "lambda.grid = 1,y",
    ])
    def test_every_key_typed_when_parsed(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            parse_config(self.AVERAGE + line + "\n")
        code, _ = self._sweep(tmp_path, self.AVERAGE + line + "\n")
        assert code == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["calibrate", "sweep"])
    @pytest.mark.parametrize("value", ["-3", "0"])
    def test_threads_flag_below_1_exits_2(self, tmp_path, capsys, command, value):
        net = tmp_path / "net.csv"
        run(["net", "--mode", "lattice", "--d", "2", "--side", "4", "--out", str(net)])
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.AVERAGE)
        flags = {"calibrate": ["--net", str(net), "--statistic", "average", "--alpha", "0.05",
                               "--b", "99"],
                 "sweep": ["--config", str(cfg)]}[command]
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            run([command, *flags, "--threads", value, "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_null", ["0", "-5"])
    def test_n_null_below_1_exits_2(self, tmp_path, capsys, n_null):
        text = TestSweepConfig.CFG.replace("n_null = 100", f"n_null = {n_null}")
        code, _ = self._sweep(tmp_path, text)
        assert code == 2
        assert "n_null" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_fractional_node_set_metadata_exits_2(self, tmp_path, capsys):
        net = tmp_path / "net.csv"
        net.write_text('# {"mode": "lattice-l1", "d": 1.5, "m": 3, "side": 3.9}\n'
                       "id,x0\n0,0\n1,1\n2,2\n")
        code = run(["enumerate", "--net", str(net), "--family", "animals", "--kmax", "2",
                    "--out", str(tmp_path / "c.txt")])
        assert code == 2
        assert "'d' must be an integer >= 1, got 1.5" in capsys.readouterr().err

    def test_echo_stays_raw(self, tmp_path):
        text = self.AVERAGE + "truth.p = 0.70\ntheory.k = 1e1\nseed = 3.0\n"
        exp, echo = build_experiment(parse_config(text))
        assert exp.seed == 3
        assert (echo["truth.p"], echo["theory.k"], echo["seed"]) == ("0.70", "1e1", "3.0")

    def test_thick_truth_retries_are_bounded(self, tmp_path, capsys):
        code, _ = self._sweep(tmp_path, """
net.mode = lattice
net.side = 8
test = average
truth.family = thick
scan.lambda_lo = 1e-6
scan.lambda_hi = 1e-6
lambda.grid = 4
trials = 50
calibration.b = 99
n_null = 100
""")
        assert code == 2
        assert "no thick truth" in capsys.readouterr().err


def _exit_code(argv):
    """main's exit code, also when argparse refuses a flag (SystemExit)."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


class TestNonFiniteInputs:
    """nan and ±inf are refused where they enter, with exit 2 and the name."""

    @pytest.mark.parametrize("line", ["lambda.grid = nan", "lambda.grid = 1,inf",
                                      "truth.p = nan", "scan.lambda = -inf", "alpha = inf"])
    def test_config_value(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        base = [l for l in TestConfigBounds.AVERAGE.splitlines() if not l.startswith(key)]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("\n".join(base + [line]) + "\n")
        out = tmp_path / "o.csv"
        assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config key '{key}': not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["enumerate", "--family", "balls", "--lam", "nan"], "--lam"),
        (["enumerate", "--family", "thick", "--lam-lo", "1", "--lam-hi", "inf"], "--lam-hi"),
        (["grow", "--kind", "cone", "--center", "3,3", "--speed", "nan", "--tm", "2"],
         "--speed"),
        (["grow", "--kind", "cylinder", "--center", "3,nan", "--r0", "2", "--tm", "2"], None),
        (["netbuild", "--epsilon", "nan"], "--epsilon"),
        (["test", "--statistic", "average", "--threshold", "nan"], "--threshold"),
        (["calibrate", "--statistic", "average", "--alpha", "nan", "--b", "99"], "--alpha"),
        (["rates", "--formula", "thick", "--m", "inf", "--k", "4"], "--m"),
    ])
    def test_flag(self, tmp_path, capsys, argv, flag):
        net = _lattice(tmp_path)
        files = {"enumerate": ["--net", str(net)], "grow": ["--net", str(net)],
                 "netbuild": ["--in", str(tmp_path / "in.txt")], "rates": [],
                 "test": ["--net", str(net), "--field", str(_null_field(tmp_path, net))],
                 "calibrate": ["--net", str(net)]}[argv[0]]
        out = [] if argv[0] == "rates" else ["--out", str(tmp_path / "o.txt")]
        assert _exit_code(argv + files + out) == 2
        err = capsys.readouterr().err
        assert (f"argument {flag}" if flag else "not a finite number") in err
        assert not (tmp_path / "o.txt").exists()

    def test_calibration_threshold(self, tmp_path, capsys):
        net = _lattice(tmp_path)
        calib = tmp_path / "calib.csv"
        calib.write_text("alpha,b,threshold,seed,statistic,tm,model\n"
                         "0.05,99,nan,7,average,0,gaussian\n")
        out = tmp_path / "r.csv"
        assert run(["test", "--net", str(net), "--field", str(_null_field(tmp_path, net)),
                    "--statistic", "average", "--calibration", str(calib),
                    "--out", str(out)]) == 2
        assert f"calibration file {calib}: threshold: not a finite number" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_node_set_coordinate(self, tmp_path, capsys):
        net = tmp_path / "net.csv"
        net.write_text('# {"mode": "euclidean-l2", "d": 2, "m": 2}\n'
                       "id,x0,x1\n0,0.25,0.5\n1,0.75,nan\n")
        assert run(["enumerate", "--net", str(net), "--family", "balls", "--lam", "0.5",
                    "--out", str(tmp_path / "c.txt")]) == 2
        assert "node coordinates must be finite" in capsys.readouterr().err


class TestOneTargetRule:
    def test_static_truth_on_temporal_fields_exits_2(self, tmp_path, capsys):
        # ball truths (the default family) are static clusters; with tm = 7
        # they used to be planted in the first of 8 steps only
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("net.side = 16\ntm = 7\ntest = cylinders\nscan.family = balls\n"
                       "scan.lambda = 3\ntruth.count = 2\nlambda.grid = 4,8\n")
        out = tmp_path / "o.csv"
        assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "pass a ClusterSequence for temporal fields" in capsys.readouterr().err
        assert not out.exists()


class TestNetBuilder:
    @pytest.mark.parametrize("mode, key", [("lattice", "side"), ("cloud", "m")])
    def test_errors_name_the_flag_or_key(self, tmp_path, capsys, mode, key):
        assert run(["net", "--mode", mode, "--d", "2", "--out", str(tmp_path / "n.csv")]) == 2
        assert f"{mode} mode requires --{key}" in capsys.readouterr().err
        with pytest.raises(ConfigError, match=f"{mode} mode requires config key 'net.{key}'"):
            build_experiment(parse_config(f"net.mode = {mode}\nlambda.grid = 1\n"))

    def test_unknown_config_mode(self):
        with pytest.raises(ConfigError, match="config key 'net.mode': unknown mode 'grid'"):
            build_experiment(parse_config("net.mode = grid\nlambda.grid = 1\n"))

    @pytest.mark.parametrize("flags, text", [
        (["--mode", "lattice", "--d", "2", "--side", "5"], "net.side = 5"),
        (["--mode", "lattice", "--d", "1", "--side", "6", "--rescale"],
         "net.d = 1\nnet.side = 6\nnet.rescale = true"),
        (["--mode", "cloud", "--d", "3", "--m", "20", "--seed", "4"],
         "net.mode = cloud\nnet.d = 3\nnet.m = 20\nnet.seed = 4"),
    ])
    def test_flags_and_keys_build_the_same_net(self, tmp_path, flags, text):
        path = tmp_path / "n.csv"
        assert run(["net", *flags, "--out", str(path)]) == 0
        exp, _ = build_experiment(parse_config(
            text + "\ntest = average\ntruth.family = animals\ntruth.k = 2\nlambda.grid = 1\n"))
        got = load_nodeset(path)
        assert (got.mode, got.side) == (exp.net.mode, exp.net.side)
        assert np.array_equal(got.coords, exp.net.coords)
