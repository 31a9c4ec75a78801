import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from scanlab.errors import CapacityError
from scanlab.network import (
    EUCLIDEAN,
    LATTICE,
    NodeSet,
    ball_ids,
    ball_nodes,
    check_spread,
    load_nodeset,
    make_lattice,
    make_uniform_cloud,
    rescale_lattice,
    save_nodeset,
)
from scanlab.rng import derive_seed


class TestMakeLattice:
    def test_one_dimensional(self):
        net = make_lattice(1, 5)
        assert net.m == 5
        assert [int(c[0]) for c in net.coords] == [0, 1, 2, 3, 4]

    def test_row_major_ids(self):
        net = make_lattice(2, 3)
        assert net.m == 9
        assert tuple(net.coords[4]) == (1, 1)
        # id = sum(coord_i * side**(d-1-i)) for every node
        for i in range(9):
            x0, x1 = net.coords[i]
            assert i == x0 * 3 + x1

    def test_cube(self):
        assert make_lattice(3, 4).m == 64

    def test_preconditions(self):
        with pytest.raises(ValueError):
            make_lattice(0, 5)
        with pytest.raises(ValueError):
            make_lattice(2, 1)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            make_lattice(2, 10_000)


class TestUniformCloud:
    def test_deterministic(self):
        a = make_uniform_cloud(2, 50, seed=9)
        b = make_uniform_cloud(2, 50, seed=9)
        assert np.array_equal(a.coords, b.coords)

    def test_zero_m_rejected(self):
        with pytest.raises(ValueError):
            make_uniform_cloud(2, 0, seed=1)

    def test_ball_count_matches_binomial(self):
        # |B((.5,.5), .25)| ~ Binomial(m, pi/16)
        cloud = make_uniform_cloud(2, 10_000, seed=1)
        count = len(ball_ids(cloud, (0.5, 0.5), 0.25))
        p = math.pi / 16
        sd = math.sqrt(10_000 * p * (1 - p))
        assert abs(count - 10_000 * p) <= 4 * sd


class TestBallNodes:
    def test_lattice_radius_one_is_singleton(self):
        net = make_lattice(2, 3)
        assert ball_nodes(net, (1, 1), 1.0).ids == (4,)

    def test_lattice_l1_cross(self):
        net = make_lattice(2, 3)
        cross = ball_nodes(net, (1, 1), 1.5)
        coords = {tuple(net.coords[i]) for i in cross.ids}
        assert coords == {(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)}

    def test_euclidean_domain_diameter(self):
        cloud = make_uniform_cloud(3, 40, seed=2)
        assert ball_nodes(cloud, (0.5, 0.5, 0.5), 2.0).size == 40

    def test_monotone_in_radius(self):
        net = make_lattice(2, 7)
        prev: set = set()
        for r in (0.5, 1.0, 1.7, 2.5, 4.0):
            cur = set(ball_nodes(net, (3, 3), r).ids)
            assert prev <= cur
            prev = cur

    def test_interior_translation_invariance(self):
        net = make_lattice(2, 9)
        sizes = {
            ball_nodes(net, (x, y), 2.5).size
            for x in range(3, 6)
            for y in range(3, 6)
        }
        assert len(sizes) == 1

    def test_open_ball_excludes_boundary_tie(self):
        net = make_lattice(2, 5)
        # node at l1 distance exactly 2 is excluded
        ids = ball_nodes(net, (2, 2), 2.0).ids
        dists = [abs(net.coords[i][0] - 2) + abs(net.coords[i][1] - 2) for i in ids]
        assert max(dists) == 1


class TestCheckSpread:
    def test_rescaled_lattice_passes(self):
        net = rescale_lattice(make_lattice(2, 16))
        cert = check_spread(net, 8.0, 2 * math.sqrt(2) / 16, probes=200, seed=5)
        assert cert.pass_
        assert cert.first_violation is None

    def test_rescaled_lattice_exhaustive_oracle(self):
        # independent check of the spread condition via a full distance matrix
        net = rescale_lattice(make_lattice(2, 16))
        m = net.m
        dmat = cdist(net.coords, net.coords)
        for r in np.linspace(2 * math.sqrt(2) / 16, 1.0, 25):
            counts = (dmat < r).sum(axis=1)
            assert (counts >= m * r**2 / 8.0).all()
            assert (counts <= 8.0 * m * r**2).all()

    def test_lattice32_generous_constant(self):
        net = rescale_lattice(make_lattice(2, 32))
        cert = check_spread(net, 16.0, 2 * math.sqrt(2) / 32, probes=300, seed=1)
        assert cert.pass_

    def test_single_node_fails(self):
        single = NodeSet(mode=EUCLIDEAN, dim=2, coords=np.array([[0.5, 0.5]]))
        cert = check_spread(single, 1.0, 0.5, probes=50, seed=2)
        assert not cert.pass_
        assert cert.first_violation is not None

    def test_uniform_clouds_pass_with_high_probability(self):
        m = 10_000
        r_star = 4 * math.sqrt(math.log(m) / m)
        passes = sum(
            check_spread(
                make_uniform_cloud(2, m, seed=s), 16.0, r_star, probes=64,
                seed=derive_seed(3, s),
            ).pass_
            for s in range(100)
        )
        assert passes >= 99

    def test_parameter_validation(self):
        net = make_lattice(2, 4)
        with pytest.raises(ValueError):
            check_spread(net, 0.5, 0.1, probes=10, seed=0)
        with pytest.raises(ValueError):
            check_spread(net, 2.0, 0.0, probes=10, seed=0)


class TestNodeSetValidation:
    def test_duplicate_coordinates_rejected(self):
        coords = np.array([[0.1, 0.1], [0.1, 0.1]])
        with pytest.raises(ValueError):
            NodeSet(mode=EUCLIDEAN, dim=2, coords=coords)

    def test_euclidean_range_enforced(self):
        with pytest.raises(ValueError):
            NodeSet(mode=EUCLIDEAN, dim=2, coords=np.array([[0.5, 1.5]]))

    @pytest.mark.parametrize("mode, side, bad", [
        (EUCLIDEAN, None, math.nan), (EUCLIDEAN, None, math.inf), (LATTICE, 3, math.nan),
    ])
    def test_coordinates_must_be_finite(self, mode, side, bad):
        coords = np.array([[0.0, 1.0], [1.0, bad]])
        with pytest.raises(ValueError, match="must be finite"):
            NodeSet(mode=mode, dim=2, coords=coords, side=side)

    def test_coords_immutable(self):
        net = make_lattice(2, 3)
        with pytest.raises(ValueError):
            net.coords[0, 0] = 7

    def test_rescale_lattice(self):
        net = rescale_lattice(make_lattice(2, 4))
        assert net.mode == EUCLIDEAN
        assert tuple(net.coords[0]) == (0.125, 0.125)
        with pytest.raises(ValueError):
            rescale_lattice(net)


class TestNodeSetFiles:
    def test_lattice_roundtrip(self, tmp_path):
        net = make_lattice(2, 5)
        path = tmp_path / "net.csv"
        save_nodeset(net, path)
        back = load_nodeset(path)
        assert back.mode == LATTICE and back.side == 5
        assert np.array_equal(back.coords, net.coords)

    def test_cloud_roundtrip_exact(self, tmp_path):
        net = make_uniform_cloud(3, 20, seed=4)
        path = tmp_path / "cloud.csv"
        save_nodeset(net, path)
        back = load_nodeset(path)
        assert np.array_equal(back.coords, net.coords)

    def _write(self, path, ids, m=3):
        lines = [f'# {{"mode": "lattice-l1", "d": 1, "m": {m}, "side": 3}}', "id,x0"]
        lines += [f"{i},{x}" for i, x in zip(ids, range(len(ids)))]
        path.write_text("\n".join(lines) + "\n")

    def test_rows_are_placed_by_id(self, tmp_path):
        path = tmp_path / "net.csv"
        self._write(path, [2, 0, 1])  # node 2 at x0 = 0, node 0 at 1, node 1 at 2
        assert load_nodeset(path).coords[:, 0].tolist() == [1, 2, 0]

    @pytest.mark.parametrize("ids, m, problem", [
        ([0, 1, 3], 3, "id 3 is out of range 0..2"),
        ([0, -1, 2], 3, "id -1 is out of range 0..2"),
        ([0, 1, 1], 3, "id 1 appears more than once"),
        ([0, 2], 3, "id 1 is missing"),
    ])
    def test_bad_ids_are_named(self, tmp_path, ids, m, problem):
        path = tmp_path / "net.csv"
        self._write(path, ids, m)
        with pytest.raises(ValueError, match=problem):
            load_nodeset(path)

    @pytest.mark.parametrize("meta, problem", [
        ('{"d": 1, "m": 3, "side": 3}', "lacks 'mode'"),
        ('{"mode": "lattice-l1", "m": 3, "side": 3}', "lacks 'd'"),
        ('{"mode": "lattice-l1", "d": 1, "m": 3}', "lacks 'side'"),
        ('{"mode": "euclidean-l2", "m": 3}', "lacks 'd'"),
        ('{"mode": "grid", "d": 1, "m": 3, "side": 3}', "unknown 'mode' 'grid'"),
    ])
    def test_bad_metadata_is_named(self, tmp_path, meta, problem):
        path = tmp_path / "net.csv"
        path.write_text(f"# {meta}\nid,x0\n0,0\n1,1\n2,2\n")
        with pytest.raises(ValueError, match=problem):
            load_nodeset(path)

    @pytest.mark.parametrize("key, value", [
        ("d", "1.5"), ("d", "0"), ("d", "true"), ('d', '"1"'), ("side", "3.9"),
        ("side", "0"), ("m", "3.7"), ("m", "-3"), ("m", "null"), ("side", "NaN"),
    ])
    def test_counts_must_be_integers_at_least_1(self, tmp_path, key, value):
        meta = {"mode": '"lattice-l1"', "d": "1", "m": "3", "side": "3"} | {key: value}
        path = tmp_path / "net.csv"
        path.write_text("# {" + ", ".join(f'"{k}": {v}' for k, v in meta.items())
                        + "}\nid,x0\n0,0\n1,1\n2,2\n")
        with pytest.raises(ValueError, match=f"'{key}' must be an integer >= 1"):
            load_nodeset(path)

    def test_integral_float_counts_load(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text('# {"mode": "lattice-l1", "d": 1.0, "m": 3.0, "side": 3.0}\n'
                        "id,x0\n0,0\n1,1\n2,2\n")
        net = load_nodeset(path)
        assert (net.dim, net.m, net.side) == (1, 3, 3) and type(net.side) is int

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_euclidean_coordinates_must_be_finite(self, tmp_path, value):
        # a nan coordinate used to load, and its node then belonged to no ball
        path = tmp_path / "net.csv"
        path.write_text('# {"mode": "euclidean-l2", "d": 2, "m": 2}\n'
                        f"id,x0,x1\n0,0.25,0.5\n1,0.75,{value}\n")
        with pytest.raises(ValueError, match="node coordinates must be finite"):
            load_nodeset(path)


class TestLatticeIndex:
    def test_neighbors_come_from_coordinates(self):
        # ids not row-major, and no node at (1, 1)
        coords = np.array([[2, 2], [0, 0], [1, 0], [0, 1], [2, 1], [1, 2]])
        net = NodeSet(mode=LATTICE, dim=2, coords=coords, side=3)
        assert net.grid.tolist() == [[1, 3, -1], [2, -1, 5], [-1, 4, 0]]
        assert net.neighbors == [[4, 5], [2, 3], [1], [1], [0], [0]]
        assert net.node_at([[1, 1], [-1, 0], [0, 3], [2, 2]]).tolist() == [-1, -1, -1, 0]

    def test_index_is_built_once(self):
        net = make_lattice(2, 4)
        assert net.neighbors is net.neighbors and net.grid is net.grid
        assert not net.grid.flags.writeable

    def test_non_integer_coordinates_refused(self):
        with pytest.raises(ValueError, match="must be integers"):
            NodeSet(mode=LATTICE, dim=1, coords=np.array([[0.0], [1.5]]), side=3)
        net = NodeSet(mode=LATTICE, dim=1, coords=np.array([[0.0], [2.0]]), side=3)
        assert net.coords.dtype == np.int64 and net.neighbors == [[], []]

    def test_capacity_refused_where_the_lattice_enters(self, tmp_path):
        with pytest.raises(CapacityError):
            NodeSet(mode=LATTICE, dim=2, coords=np.array([[0, 0]]), side=10_000)
        path = tmp_path / "net.csv"
        path.write_text('# {"mode": "lattice-l1", "d": 3, "m": 1, "side": 1000}\n'
                        "id,x0,x1,x2\n0,0,0,0\n")
        with pytest.raises(CapacityError):
            load_nodeset(path)

    def test_euclidean_mode_has_no_grid(self):
        with pytest.raises(ValueError, match="lattice mode"):
            make_uniform_cloud(2, 5, seed=0).neighbors
