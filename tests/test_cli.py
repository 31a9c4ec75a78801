import itertools
import json
import math
import time

import numpy as np
import pytest

from scanlab.cli import (
    COMMANDS,
    CONFIG_KEYS,
    RATE_PARAMS,
    _bool,
    _cfg,
    _float,
    _int,
    build_experiment,
    build_parser,
    flag,
    main,
    parse_config,
)
from scanlab.clusters import (
    FAMILIES,
    THICK,
    TUBES,
    BandParams,
    ThickParams,
    ThinParams,
    enumerate_bands,
)
from scanlab.detect import RATE_FORMULAS
from scanlab.errors import ConfigError
from scanlab.growth import richardson_grow
from scanlab.metric import build_net
from scanlab.network import ball_nodes, load_nodeset, make_lattice
from scanlab.rng import derive_seed, rng_from_seed


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

    def test_a_node_count_above_the_rows_is_named(self, tmp_path, capsys):
        # m sized an id count array: 745 GiB here, a MemoryError traceback
        net = tmp_path / "net.csv"
        net.write_text('# {"mode": "lattice-l1", "d": 2, "side": 2, "m": 100000000000}\n'
                       "id,x0,x1\n0,0,0\n1,1,0\n2,0,1\n3,1,1\n")
        start = time.perf_counter()
        code = run(["enumerate", "--family", "balls", "--lam", "1", "--net", str(net),
                    "--out", str(tmp_path / "b.txt")])
        assert code == 2 and time.perf_counter() - start < 1
        assert capsys.readouterr().err == "scanlab: config error: node set file: id 4 is missing\n"

    def test_thick_blob_budget_exit_code(self, tmp_path, capsys):
        # centers 1e-9 apart: the grid was enumerated line by line, without end
        net = tmp_path / "net.csv"
        run(["net", "--mode", "lattice", "--d", "2", "--side", "16", "--out", str(net)])
        start = time.perf_counter()
        code = run(["enumerate", "--family", "thick", "--lam-lo", "1e-9", "--lam-hi", "1",
                    "--net", str(net), "--out", str(tmp_path / "t.txt")])
        assert code == 3 and time.perf_counter() - start < 1
        assert capsys.readouterr().err == ("scanlab: capacity error: over 10000000 thick blobs "
                                           "(centers x templates); coarsen the grids\n")
        assert not (tmp_path / "t.txt").exists()

    def test_curve_budget_exit_code_on_a_fine_level_grid(self, tmp_path, capsys):
        # 10,001 levels: the second point's 100 M extensions were built before the check;
        # a bounded step refuses after about 210 k checks, as the recursive search did
        net = tmp_path / "cloud.csv"
        run(["net", "--mode", "cloud", "--d", "2", "--m", "50", "--seed", "1", "--out", str(net)])
        start = time.perf_counter()
        code = run(["enumerate", "--family", "tubes", "--r", "0.25", "--value-pitch", "1e-4",
                    "--ncontrol", "2", "--net", str(net), "--out", str(tmp_path / "t.txt")])
        assert code == 3 and time.perf_counter() - start < 2
        assert capsys.readouterr().err == ("scanlab: capacity error: over 200000 control-point "
                                           "curves; coarsen the grids\n")
        assert not (tmp_path / "t.txt").exists()


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

        from file_helpers import save_field
        from scanlab.models import noise_model, sample_null
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
        from file_helpers import save_field
        from scanlab.models import noise_model, sample_null
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
        from file_helpers import load_sequence

        loaded, meta = load_sequence(seq)
        assert meta["kind"] == "richardson"
        assert [k.size for k in loaded.slices] == [1, 5, 13, 25]

    def test_every_kind(self, tmp_path):
        net = tmp_path / "net.csv"
        run(["net", "--mode", "lattice", "--d", "2", "--side", "8", "--out", str(net)])
        from file_helpers import load_sequence

        # and each kind's whole header: kind, tm, then the flags it records, in order
        for kind, extra, sizes, header in (
            ("cylinder", ["--center", "4,4", "--r0", "1.5", "--t0", "1"], [0, 5, 5, 5, 5],
             ["center=4,4", "r0=1.5", "t0=1"]),
            ("cone", ["--center", "4,4", "--speed", "1.0"], [1, 5, 13, 25, 39],
             ["center=4,4", "speed=1.0", "t0=0"]),
            ("holder", ["--controls", "2,2;3,3", "--r", "1.5", "--kappa", "1", "--start", "2"],
             [0, 0, 4, 3, 5], ["alpha=1.0", "kappa=1.0", "r=1.5", "xi=1.0"]),
            ("richardson", ["--x0", "36", "--within-radius", "1"], [1, 5, 5, 5, 5],
             ["x0=36", "p=1.0", "t0=0", "seed=0"]),
        ):
            out = tmp_path / f"{kind}.txt"
            assert run(["grow", "--net", str(net), "--kind", kind, "--tm", "4",
                        "--out", str(out)] + extra) == 0
            seq, meta = load_sequence(out)
            assert meta["kind"] == kind
            assert [k.size for k in seq.slices] == sizes, kind
            assert [line for line in out.read_text().splitlines() if line.startswith("#")] == [
                f"# {item}" for item in [f"kind={kind}", "tm=4", *header]], kind

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
        ("holder", ["--controls", "1,2;3", "--r", "1.5"], "--controls point '3' has 1 coordinates"),
        ("cone", ["--center", "nan,4", "--speed", "1"], "--center: not a finite number: 'nan'"),
        ("holder", ["--controls", "1,x;2,2", "--r", "1"],
         "--controls point '1,x': not a number: 'x'"),
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
        from file_helpers import load_sequence

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

    def test_oracle_config_refuses_a_short_calibration(self, tmp_path, capsys):
        # the oracle never calibrates, but its config is checked like any other
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("net.mode = lattice\nnet.side = 8\ntest = oracle\ntruth.family = balls\n"
                       "truth.lambda = 2.5\ntruth.count = 1\nlambda.grid = 2\n"
                       "calibration.b = 50\n")
        out = tmp_path / "out.csv"
        assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert "need b >= 99 null samples" in capsys.readouterr().err
        assert not out.exists()

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

    RICHARDSON = ("net.mode = lattice\nnet.side = 16\ntm = 4\nscan.family = balls\n"
                  "scan.lambda = 3\ntruth.family = richardson\ntruth.limit_radius = 2\n"
                  "truth.count = 2\nlambda.grid = 0,6\ntrials = 50\ncalibration.b = 99\n"
                  "n_null = 100\nseed = 4\n")

    def test_eps_scan_at_a_horizon_is_the_cylinder_scan(self, tmp_path):
        lines = {}
        for test in ("eps-scan", "cylinders"):
            cfg, out = tmp_path / f"{test}.cfg", tmp_path / f"{test}.csv"
            cfg.write_text(self.RICHARDSON + f"test = {test}\n")
            assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
            lines[test] = out.read_text().splitlines()
            assert f"# test={test}" in lines[test]
        assert ([l for l in lines["eps-scan"] if l != "# test=eps-scan"]
                == [l for l in lines["cylinders"] if l != "# test=cylinders"])

    def test_multiscale_refuses_a_horizon_before_building_nets(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.setattr("scanlab.metric.build_net", lambda *a, **k: pytest.fail("built"))
        cfg, out = tmp_path / "exp.cfg", tmp_path / "out.csv"
        cfg.write_text(self.RICHARDSON.replace("tm = 4", "tm = 3")
                       + "test = multiscale\nmultiscale.scales = 2,3\n")
        assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("config key 'tm': test = multiscale scans static fields (tm = 0), got 3"
                in capsys.readouterr().err)
        assert not out.exists()

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
    from file_helpers import save_field
    from scanlab.models import noise_model, sample_null
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
        "animals": (False, ["--kmax", "3"], 3),
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
        want = FAMILIES[family].stream(load_nodeset(net), params, {"budget": budget}, 4)
        assert _body(out) == [" ".join(map(str, c.ids)) for c in want]
        assert f"# family={family}" in out.read_text()

    @pytest.mark.parametrize("flags, head", [
        # 2**8 nondecreasing step sequences, every one listed: no budget or seed is read
        (["--path-mode", "nondecreasing", "--budget", "40", "--seed", "4"],
         ["family=bands", "ell=8", "h=2", "path_mode=nondecreasing"]),
        (["--path-mode", "self-avoiding", "--budget", "40", "--seed", "4"],
         ["family=bands", "ell=8", "h=2", "path_mode=self-avoiding", "budget=40", "seed=4"]),
    ])
    def test_band_headers_name_a_budget_and_seed_only_where_paths_are_sampled(
            self, tmp_path, flags, head):
        out = tmp_path / "bands.txt"
        assert run(["enumerate", "--net", str(_lattice(tmp_path, side=10)), "--family", "bands",
                    "--ell", "8", "--h", "2", *flags, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert [line[2:] for line in lines if line.startswith("#")] == head
        assert len(lines) > len(head)

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
        assert exp.test.net.members == build_net(stream, 0.5).members

    def test_size_cap_caps_the_sweep_net(self):
        text = ("net.mode = lattice\nnet.side = 8\nscan.family = balls\nscan.lambda = 2.5\n"
                "lambda.grid = 1\n")
        uncapped, _ = build_experiment(parse_config(text))
        capped, echo = build_experiment(parse_config(text + "scan.size_cap = 8\n"))
        assert max(c.size for c in uncapped.test.net.members) == 13
        assert max(c.size for c in capped.test.net.members) <= 8
        assert echo["scan.size_cap"] == "8"

    @staticmethod
    def _balls(tmp_path):
        net, balls = _lattice(tmp_path), tmp_path / "balls.txt"
        run(["enumerate", "--net", str(net), "--family", "balls", "--lam", "1.5",
             "--out", str(balls)])
        return net, balls

    def test_calibrate_scan_at_a_horizon_is_the_cylinder_scan(self, tmp_path):
        net, balls = self._balls(tmp_path)
        rows = {}
        for statistic in ("scan", "cylinder-scan"):
            out = tmp_path / f"{statistic}.csv"
            assert run(["calibrate", "--net", str(net), "--clusters", str(balls),
                        "--statistic", statistic, "--tm", "4", "--alpha", "0.05", "--b", "99",
                        "--out", str(out)]) == 0
            rows[statistic] = out.read_text().splitlines()[1].split(",")
        assert rows["scan"][:4] == rows["cylinder-scan"][:4]
        assert rows["scan"][4:] == ["scan", "4", "gaussian"]

    def test_test_scan_decides_a_temporal_field_as_the_cylinder_scan(self, tmp_path):
        net, balls = self._balls(tmp_path)
        field = _null_field(tmp_path, net, t_m=4)
        rows = {}
        for statistic in ("scan", "cylinder-scan"):
            out = tmp_path / f"{statistic}.csv"
            assert run(["test", "--net", str(net), "--clusters", str(balls),
                        "--field", str(field), "--statistic", statistic, "--threshold", "3",
                        "--out", str(out)]) == 0
            rows[statistic] = out.read_text().splitlines()[1].split(",")[:4]
        assert rows["scan"] == rows["cylinder-scan"]
        assert int(rows["scan"][3]) > 0


class TestTruthWords:
    """Each truth.family word draws its row's truths, or those of the ball or
    Richardson reference kept here, and the words come from the family table."""

    BASE = "net.mode = lattice\nnet.side = 12\ntest = average\ntm = 3\nlambda.grid = 1\n"
    CASES = {
        "balls": "truth.lambda = 2\ntruth.margin = 3\n",
        "thick": "scan.lambda_lo = 2\nscan.lambda_hi = 4\nscan.kappa = 2\n",
        "bands": "scan.ell = 6\nscan.h = 2\nscan.path_mode = self-avoiding\n",
        "animals": "scan.kmax = 3\ntruth.k = 5\n",
        "richardson": "truth.limit_radius = 2\ntruth.p = 0.6\ntruth.warmup = 2\n"
                      "truth.onset = 1\n",
    }

    @staticmethod
    def _center(net, seed):
        """A node with both coordinates in [3, 8] (truth.margin 3, or limit
        radius 2 on side 12), drawn by rejection."""
        rng = rng_from_seed(seed)
        while True:
            node = int(rng.integers(0, net.m))
            if ((net.coords[node] >= 3) & (net.coords[node] <= 8)).all():
                return node

    def _want(self, family, net, seed):
        if family == "balls":
            return ball_nodes(net, net.coords[self._center(net, seed)], 2.0)
        if family == "richardson":
            grown = richardson_grow(net, self._center(net, seed), 0.6, 1, 5,
                                    derive_seed(seed, "grow"), radius=2)
            return grown.window(2, 5)
        params = {"thick": ThickParams(2, 4, kappa=2.0),
                  "bands": BandParams(6, 2, "self-avoiding"), "animals": 5}[family]
        return FAMILIES[family].truth(net, params, seed)

    @pytest.mark.parametrize("family", list(CASES))
    def test_sampler_is_the_rows_or_the_reference(self, family):
        words = CONFIG_KEYS["truth.family"].kind
        assert words == ("balls", *(f for f, row in FAMILIES.items() if row.truth), "richardson")
        assert words == tuple(self.CASES)
        cfg = parse_config(self.BASE + f"truth.family = {family}\n" + self.CASES[family])
        exp, _ = build_experiment(cfg)
        net = make_lattice(2, 12)
        for seed in range(4):
            assert exp.truth.sampler(seed) == self._want(family, net, seed)


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

    def test_scan_calibration_serves_cylinder_test(self, tmp_path, setup):
        # both words name one test, so a calibration under either serves both
        net, balls = setup
        for tm in (0, 3):
            field = _null_field(tmp_path, net, t_m=tm)
            calibs = {word: self._calibrate(tmp_path, net, balls, word, tm)
                      for word in ("scan", "cylinder-scan")}
            for word, other in (("scan", "cylinder-scan"), ("cylinder-scan", "scan")):
                cut = []
                for calib in (calibs[word], calibs[other]):
                    assert self._test(tmp_path, net, balls, field, word, calib) == 0
                    cut.append((tmp_path / "r.csv").read_text().splitlines()[1].split(",")[:4])
                assert cut[0] == cut[1]

    def test_calibration_of_another_test_refused(self, tmp_path, setup, capsys):
        net, balls = setup
        field = _null_field(tmp_path, net)
        for made, used in (("average", "scan"), ("scan", "average")):
            calib = self._calibrate(tmp_path, net, balls, made, 0)
            assert self._test(tmp_path, net, balls, field, used, calib) == 2
            err = capsys.readouterr().err
            assert f"is for statistic {made}," in err and f"has statistic {used}" in err

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
        "scan.path_mode = zigzag", "scan.family = blobs", "model = bogus", "tm = -1",
        "scan.size_cap = 0", "scan.size_cap = -2",
    ])
    def test_every_key_typed_when_parsed(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            parse_config(self.AVERAGE + line + "\n")
        code, _ = self._sweep(tmp_path, self.AVERAGE + line + "\n")
        assert code == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    def test_truth_family_is_a_word(self):
        # a family with no truth sampler is refused where the config is read
        with pytest.raises(ConfigError, match="config key 'truth.family': unknown family 'tubes';"):
            parse_config(self.AVERAGE.replace("truth.family = balls", "truth.family = tubes"))

    def test_scan_family_without_truths_needs_truth_family(self, tmp_path, capsys):
        # unset, truth.family falls back to scan.family; tubes has no truth sampler
        text = self.AVERAGE.replace("truth.family = balls", "scan.family = tubes")
        want = "config key 'scan.family': truths cannot be drawn from family 'tubes'; set truth.family"
        with pytest.raises(ConfigError, match=want):
            parse_config(text)
        code, _ = self._sweep(tmp_path, text)
        assert code == 2
        assert want in capsys.readouterr().err
        parse_config(text + "truth.family = balls\n")

    def test_animals_truth_names_truth_k(self, tmp_path, capsys):
        # the truth's own key is truth.k; scan.kmax only stands in for it
        text = self.AVERAGE.replace("truth.family = balls", "truth.family = animals")
        code, _ = self._sweep(tmp_path, text)
        assert code == 2
        assert "animals clusters need config key 'truth.k'" in capsys.readouterr().err
        assert self._sweep(tmp_path, text + "scan.kmax = 3\n")[0] == 0

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

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_band_budget_below_1_exits_2(self, tmp_path, capsys, budget):
        out = tmp_path / "bands.txt"
        code = run(["enumerate", "--net", str(_lattice(tmp_path)), "--family", "bands",
                    "--ell", "6", "--h", "2", "--path-mode", "self-avoiding",
                    "--budget", budget, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"need a budget of at least 1 path to sample, got {budget}" in err
        assert not out.exists()

    def test_scan_budget_below_1_exits_2(self, tmp_path, capsys):
        text = self.AVERAGE.replace("test = average", "test = eps-scan")
        code, _ = self._sweep(tmp_path, text + "scan.family = bands\nscan.ell = 6\nscan.h = 2\n"
                              "scan.path_mode = self-avoiding\nscan.budget = 0\n")
        assert code == 2
        assert "need a budget of at least 1 path to sample, got 0" in capsys.readouterr().err
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


@pytest.mark.parametrize("argv, message", [
    (["net", "--mode", "lattice", "--d", "2", "--side", "8.5"],
     "argument --side: not an integer: '8.5'"),
    (["calibrate", "--net", "n.csv", "--statistic", "average", "--alpha", "nan", "--b", "99"],
     "argument --alpha: not a finite number: 'nan'"),
    (["sweep", "--config", "exp.cfg", "--threads", "0"], "argument --threads: not at least 1: '0'"),
    *((["calibrate", "--net", "n.csv", "--clusters", "c.txt", "--statistic", statistic,
        "--tm", "-1"], "argument --tm: not at least 0: '-1'")
      for statistic in ("average", "scan", "cylinder-scan")),
    (["grow", "--net", "n.csv", "--kind", "richardson", "--x0", "0", "--tm", "-1"],
     "argument --tm: not at least 0: '-1'"),
    (["test", "--net", "n.csv", "--field", "f.csv", "--threshold", "1", "--calibration", "c.csv"],
     "test takes --threshold or --calibration, not both"),
    *((["enumerate", "--net", "n.csv", "--family", "balls", "--lam", "1.5", "--size-cap", cap],
       f"argument --size-cap: not at least 1: '{cap}'") for cap in ("0", "-3")),
])
def test_flag_refusals_name_the_problem_not_the_parser(tmp_path, capsys, argv, message):
    out = tmp_path / "o.txt"
    assert _exit_code(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "invalid" not in err and " _" not in err and "'_" not in err
    assert not out.exists()


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

    @pytest.mark.parametrize("value, problem", [("abc", "not a number: 'abc'"),
                                                ("nan", "not a finite number: 'nan'")])
    def test_cluster_file_epsilon(self, tmp_path, capsys, value, problem):
        net = _lattice(tmp_path)
        clusters = tmp_path / "net.txt"
        clusters.write_text(f"# family=balls\n# epsilon={value}\n0 1\n2 3\n")
        out = tmp_path / "calib.csv"
        assert run(["calibrate", "--net", str(net), "--clusters", str(clusters),
                    "--alpha", "0.05", "--b", "99", "--out", str(out)]) == 2
        assert f"cluster file {clusters}: epsilon: {problem}" in capsys.readouterr().err
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
        (["--mode", "lattice", "--d", "2.0", "--side", "8.0"], "net.d = 2.0\nnet.side = 8.0"),
    ])
    def test_flags_and_keys_build_the_same_net(self, tmp_path, flags, text):
        path = tmp_path / "n.csv"
        assert run(["net", *flags, "--out", str(path)]) == 0
        exp, _ = build_experiment(parse_config(
            text + "\ntest = average\ntruth.family = animals\ntruth.k = 2\nlambda.grid = 1\n"))
        got = load_nodeset(path)
        assert (got.mode, got.side) == (exp.net.mode, exp.net.side)
        assert np.array_equal(got.coords, exp.net.coords)


def _shared_declarations():
    """(subcommand, flag dest, config key) for every flag that takes a value
    and shares its declaration with a config key."""
    return [(command, name, key)
            for command, (_, _, flags) in COMMANDS.items() for name, value in flags.items()
            for key, declared in CONFIG_KEYS.items()
            if declared is value and value.kind is not _bool]


class TestOneDeclaration:
    SPELLINGS = ["8", "8.0", "1e3", "8.5", "0", "-3", "nan", "inf", "-inf", "abc"]

    def _flag_value(self, command, name, text):
        """The parsed value of `--<name> text`, or None when argparse refuses it."""
        flags = COMMANDS[command][2]
        argv = [command]
        for other, value in flags.items():
            if value.required and other != name:
                argv += [flag(other, value),
                         value.kind[0] if isinstance(value.kind, tuple) else "1"]
        try:
            args = build_parser().parse_args(argv + [f"{flag(name, flags[name])}={text}"])
            return getattr(args, name)
        except SystemExit:
            return None

    def _key_value(self, key, text):
        """The parsed value of `key = text`, or None when parse_config refuses it.
        A truth family is named beside it: scan.family alone is refused when it
        has no truth sampler to fall back to."""
        truth = "" if key == "truth.family" else "truth.family = balls\n"
        try:
            return _cfg(parse_config(f"{truth}{key} = {text}"), key)
        except ConfigError:
            return None

    def test_flags_and_keys_share_their_kinds(self):
        pairs = {(command, key) for command, _, key in _shared_declarations()}
        assert {("net", "net.side"), ("net", "net.mode"), ("calibrate", "alpha"),
                ("calibrate", "calibration.b"), ("calibrate", "tm"), ("calibrate", "seed"),
                ("calibrate", "threads"), ("calibrate", "model"), ("enumerate", "scan.family"),
                ("enumerate", "scan.path_mode"), ("netbuild", "scan.epsilon"),
                ("rates", "theory.formula")} <= pairs
        theory = {key for command, key in pairs if command == "rates"}
        assert theory == {"theory.formula"} | {f"theory.{p}" for p in RATE_PARAMS}

    @pytest.mark.parametrize("command, name, key", _shared_declarations())
    def test_flag_and_key_accept_the_same_spellings(self, capsys, command, name, key):
        kind = CONFIG_KEYS[key].kind
        words = list(kind) if isinstance(kind, tuple) else []
        for text in self.SPELLINGS + words:
            got = self._flag_value(command, name, text)
            assert got == self._key_value(key, text), (text, got)
            if kind is _int:
                assert got == {"8": 8, "8.0": 8, "1e3": 1000}.get(text, got)
                assert text != "8.5" or got is None
            if kind is _float and text in ("nan", "inf", "-inf"):
                assert got is None

    @pytest.mark.parametrize("formula", list(RATE_FORMULAS))
    def test_theory_threshold_equals_rates(self, tmp_path, capsys, formula):
        values = {"m": 4096, "k": 49, "d": 3, "lam": 0.2, "eps": 0.1, "log_n": 3, "p": 1,
                  "r": 0.1, "ell": 16, "h": 2, "x": 20}
        params = {key: values[key] for key in RATE_FORMULAS[formula][1]}
        argv = ["rates", "--formula", formula]
        for key, value in params.items():
            argv += ["--" + key.replace("_", ""), str(value)]
        assert run(argv) == 0
        want = capsys.readouterr().out.strip()
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TestConfigBounds.AVERAGE + f"theory.formula = {formula}\n"
                       + "".join(f"theory.{key} = {value}\n" for key, value in params.items()))
        out = tmp_path / "o.csv"
        assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith(("#", "lambda,"))]
        assert f"{float(rows[0].split(',')[1]):.4f}" == want


# ---------------------------------------------------------------------------
# the file layer: bytes written, lines accepted and refused, nothing kept


def per_row_nodeset(net):
    """A node set file formatted one row at a time."""
    from scanlab.network import LATTICE

    meta = {"mode": net.mode, "d": net.dim, "m": net.m}
    if net.side is not None:
        meta["side"] = net.side
    text = "# " + json.dumps(meta) + "\n" + "id," + ",".join(f"x{i}" for i in range(net.dim)) + "\n"
    for i, row in enumerate(net.coords):
        if net.mode == LATTICE:
            text += f"{i}," + ",".join(str(int(v)) for v in row) + "\n"
        else:
            text += f"{i}," + ",".join(repr(float(v)) for v in row) + "\n"
    return text


def per_row_clusters(clusters, meta):
    """A cluster file formatted one line at a time."""
    text = "".join(f"# {key}={value}\n" for key, value in meta.items())
    for cluster in clusters:
        text += " ".join(str(i) for i in cluster.ids) + "\n"
    return text


class TestFileLayer:
    def _nodesets(self):
        from scanlab.network import EUCLIDEAN, LATTICE, NodeSet, make_uniform_cloud, rescale_lattice

        rng = np.random.default_rng(2)
        full = np.indices((9, 9)).reshape(2, -1).T
        holed = full[rng.random(len(full)) < 0.7]
        yield NodeSet(mode=LATTICE, dim=2, coords=holed[rng.permutation(len(holed))], side=9)
        yield NodeSet(mode=LATTICE, dim=3, coords=np.indices((3, 3, 3)).reshape(3, -1).T[::2],
                      side=3)
        yield make_uniform_cloud(2, 300, seed=4)
        yield make_uniform_cloud(3, 50, seed=5)
        yield rescale_lattice(make_lattice(2, 7))
        yield NodeSet(mode=EUCLIDEAN, dim=2, coords=np.array([[0, 1], [1, 0]]))  # integer dtype

    def test_write_nodeset_matches_per_row_formatting(self):
        import io

        from scanlab.network import write_nodeset

        for net in self._nodesets():
            buf = io.StringIO()
            write_nodeset(net, buf)
            assert buf.getvalue() == per_row_nodeset(net)

    def test_write_clusters_matches_per_line_formatting(self):
        import io

        from scanlab.clusters import EMPTY_CLUSTER, ID_MAX, Cluster, write_clusters

        clusters = [Cluster((0,)), Cluster((3, 17, 250)), EMPTY_CLUSTER,
                    Cluster(np.arange(0, 4000, 7)), Cluster((5, ID_MAX))]
        for meta in ({}, {"family": "bands", "ell": 16, "epsilon": 0.5, "seed": 7}):
            buf = io.StringIO()
            write_clusters(iter(clusters), buf, meta)
            assert buf.getvalue() == per_row_clusters(clusters, meta)

    def test_load_clusters_accepts_any_whitespace_and_headers_anywhere(self, tmp_path):
        from scanlab.clusters import load_clusters

        path = tmp_path / "clusters.txt"
        path.write_bytes(b"# family=balls\r\n1\t2  3\r\n\r\n   \t\n# epsilon = 0.5\n"
                         b"4 5\t\t6 \n# a comment\n  7\r\n# lambda=2.5")
        clusters, meta = load_clusters(path)
        assert [c.ids for c in clusters] == [(1, 2, 3), (4, 5, 6), (7,)]
        assert meta == {"family": "balls", "epsilon": "0.5", "lambda": "2.5"}
        path.write_text("# family=balls\n")
        clusters, meta = load_clusters(path)
        assert list(clusters) == [] and meta == {"family": "balls"}

    @pytest.mark.parametrize("line, problem", [
        ("1 x 2", "invalid literal for int() with base 10: 'x'"),
        ("1 2.0", "invalid literal for int() with base 10: '2.0'"),
        ("0 -4 9", "cluster ids must be strictly increasing"),
        ("-4 0 9", "node id -4 is negative"),
        ("1 2147483648", "node id 2147483648 is above 2147483647"),
        ("1 99999999999999999999", "a node id is above 2147483647"),
        ("5 4", "cluster ids must be strictly increasing"),
        ("2 5 5", "cluster ids must be strictly increasing"),
    ])
    def test_load_clusters_refuses_the_first_bad_line(self, tmp_path, line, problem):
        from scanlab.clusters import load_clusters

        path = tmp_path / "clusters.txt"
        # a later line that is no integer must not hide the first bad line
        path.write_text(f"# family=balls\n0 1 2\n\n# epsilon=0.5\n{line}\n3 4\n1 y\n")
        with pytest.raises(ValueError) as exc:
            load_clusters(path)
        assert str(exc.value) == f"{path}:5: {problem}"

    def test_commands_read_their_files_anew(self, tmp_path):
        clusters, out = tmp_path / "clusters.txt", tmp_path / "net.txt"
        clusters.write_text("# family=balls\n1 2\n3 4\n")
        assert run(["netbuild", "--in", str(clusters), "--epsilon", "0.5", "--out", str(out)]) == 0
        assert _body(out) == ["1 2", "3 4"]
        clusters.write_text("# family=balls\n5 6 7\n")
        assert run(["netbuild", "--in", str(clusters), "--epsilon", "0.5", "--out", str(out)]) == 0
        assert _body(out) == ["5 6 7"]
        net, balls = tmp_path / "net.csv", tmp_path / "balls.txt"
        for side in (4, 5):
            assert run(["net", "--mode", "lattice", "--d", "2", "--side", str(side),
                        "--out", str(net)]) == 0
            assert run(["enumerate", "--net", str(net), "--family", "balls", "--lam", "1",
                        "--size-cap", "1", "--out", str(balls)]) == 0
            assert len(_body(balls)) == side * side

    def test_one_subcommand_parser_parses_as_the_full_one(self, capsys):
        argv = ["enumerate", "--net", "n.csv", "--family", "bands", "--ell", "8", "--h", "2",
                "--path-mode", "self-avoiding", "--out", "-"]
        assert vars(build_parser("enumerate").parse_args(argv)) == vars(
            build_parser().parse_args(argv))
        assert build_parser("net").format_help() == build_parser().format_help()
        for argv in (["bogus"], ["--help"], []):
            with pytest.raises(SystemExit):
                main(argv)
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
