import io
import itertools
import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from scanlab import clusters, network
from scanlab.clusters import (
    Cluster,
    ShapeSpec,
    ThickParams,
    _domain_extent,
    _scale_grid,
    enumerate_thick,
    enumerate_thick_shapes,
    make_shape,
    sample_thick_shape,
    thick_templates,
)
from scanlab.errors import CapacityError
from scanlab.network import (
    EUCLIDEAN,
    LATTICE,
    NodeSet,
    ball_ids,
    ball_nodes,
    check_spread,
    int_lines,
    load_nodeset,
    make_lattice,
    make_uniform_cloud,
    rescale_lattice,
)
from scanlab.growth import ClusterSequence, write_sequence
from scanlab.rng import derive_seed

from file_helpers import (
    outcome,
    reference_load_nodeset,
    reference_write_clusters,
    reference_write_nodeset,
    reference_write_sequence,
    save_nodeset,
    silent_outcome,
)


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

    @pytest.mark.parametrize("mode, side", [(EUCLIDEAN, None), (LATTICE, 3)])
    def test_no_nodes_refused(self, mode, side):
        with pytest.raises(ValueError, match="^a node set needs at least one node$"):
            NodeSet(mode=mode, dim=2, coords=np.empty((0, 2)), side=side)

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
        # m and a large id below it size no array (a count array of m was 745 GiB)
        ([0, 1, 2], 10**11, "^node set file: id 3 is missing$"),
        ([0, 2, 10**11 - 1], 10**11, "^node set file: id 1 is missing$"),
        ([3, 10**10, 0, 10**10, 3], 10**11, "^node set file: id 3 appears more than once$"),
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
        ('[1, 2]', "^node set file: the metadata line is not a JSON object"),
        ('"str"', "^node set file: the metadata line is not a JSON object"),
        ('{bad', "^node set file: the metadata line is not JSON: Expecting property name"),
    ])
    def test_bad_metadata_is_named(self, tmp_path, meta, problem):
        path = tmp_path / "net.csv"
        path.write_text(f"# {meta}\nid,x0\n0,0\n1,1\n2,2\n")
        with pytest.raises(ValueError, match=problem):
            load_nodeset(path)

    @pytest.mark.parametrize("meta", ['{"mode": "lattice-l1", "d": 2, "side": 8}',
                                      '{"mode": "euclidean-l2", "d": 2}'])
    def test_a_file_without_rows_is_refused(self, tmp_path, meta):
        # a lattice file failed in numpy, and a euclidean one loaded as 0 nodes
        path = tmp_path / "net.csv"
        path.write_text(f"# {meta}\nid,x0,x1\n")
        with pytest.raises(ValueError, match="^a node set needs at least one node$"):
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


# ---------------------------------------------------------------------------
# ball and blob queries read the first-coordinate slab; the references below
# are the full scans over all m nodes that the slab replaced, kept as written


def full_ball(net, center, r, closed):
    diff = net.coords - np.asarray(center, dtype=float)
    dist = np.abs(diff).sum(axis=1) if net.mode == LATTICE else np.sqrt((diff * diff).sum(axis=1))
    return np.flatnonzero(dist <= r if closed else dist < r)


def full_members(spec, net):
    z = net.coords - np.asarray(spec.center)
    if spec.rotation is not None:
        z = z @ np.asarray(spec.rotation)
    scaled = z / np.asarray(spec.half_axes)
    if spec.kind == "rect":
        inside = np.abs(scaled).max(axis=1) < 1.0
    elif net.mode == LATTICE:
        inside = np.abs(scaled).sum(axis=1) < 1.0
    else:
        inside = (scaled * scaled).sum(axis=1) < 1.0
    return np.flatnonzero(inside)


def full_enumeration(net, params):
    """The thick enumeration with make_shape run for every center."""
    d, extent = net.dim, _domain_extent(net)
    for lam in _scale_grid(params.lam_lo, params.lam_hi):
        pitch = lam * params.grid_eps
        axis = np.arange(pitch / 2, extent + 1e-9, pitch)
        if len(axis) == 0:
            axis = np.array([extent / 2])
        templates = thick_templates(d, lam, params.kappa, params.shapes, net.mode)
        for center in itertools.product(axis, repeat=d):
            for kind, half_axes in templates:
                spec = make_shape(kind, center, half_axes, params.kappa, net.mode)
                yield spec, full_members(spec, net)


@st.composite
def node_sets(draw):
    """Row-major lattices, lattices with permuted ids and holes, rescaled
    lattices and uniform clouds, in d = 1, 2, 3."""
    d = draw(st.integers(1, 3))
    side = draw(st.integers(2, (40, 12, 6)[d - 1]))
    kind = draw(st.sampled_from(["lattice", "holed", "rescaled", "cloud"]))
    if kind == "cloud":
        return make_uniform_cloud(d, draw(st.integers(1, 400)), seed=draw(st.integers(0, 999)))
    net = make_lattice(d, side)
    if kind == "rescaled":
        return rescale_lattice(net)
    if kind == "holed":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        keep = rng.random(net.m) < draw(st.floats(0.2, 1.0))
        keep[rng.integers(net.m)] = True
        order = rng.permutation(np.flatnonzero(keep))
        return NodeSet(mode=LATTICE, dim=d, coords=net.coords[order], side=side)
    return net


def centers(net, data):
    """A node, a half-integer or arbitrary point, or a point outside the domain."""
    extent = 1.0 if net.mode == EUCLIDEAN else float(net.side - 1)
    where = data.draw(st.sampled_from(["node", "half", "any", "outside"]))
    if where == "node":
        return net.coords[data.draw(st.integers(0, net.m - 1))]
    coord = {
        "half": st.integers(0, 2 * max(1, int(extent))).map(lambda k: k / 2),
        "any": st.floats(0.0, extent),
        "outside": st.floats(-extent - 1.0, 2.0 * extent + 1.0),
    }[where]
    return tuple(data.draw(coord) for _ in range(net.dim))


@settings(max_examples=300, deadline=None)
@given(node_sets(), st.data())
def test_balls_match_the_full_scan(net, data):
    center = centers(net, data)
    if net.mode == LATTICE and data.draw(st.booleans()):
        r = float(data.draw(st.integers(1, 2 * net.side)))  # nodes sit exactly at r
    else:
        r = data.draw(st.floats(1e-3, 1.5 * (net.side or 1)))
    for closed in (False, True):
        got = ball_ids(net, center, r, closed=closed)
        assert np.array_equal(got, full_ball(net, center, r, closed))
    assert np.array_equal(ball_ids(net, center, 0.0, closed=True),
                          full_ball(net, center, 0.0, True))
    assert np.array_equal(ball_nodes(net, center, r).idarray, full_ball(net, center, r, False))


def test_integer_radii_split_open_and_closed_balls():
    net = make_lattice(2, 9)
    for r in (1, 2, 3, 4):
        shell = np.setdiff1d(ball_ids(net, (4, 4), r, closed=True), ball_ids(net, (4, 4), r))
        assert shell.size == 4 * r  # the l1 sphere, all of it inside the grid
        assert (np.abs(net.coords[shell] - 4).sum(axis=1) == r).all()


@settings(max_examples=200, deadline=None)
@given(node_sets(), st.data())
def test_shapes_match_the_full_scan(net, data):
    extent = 1.0 if net.mode == EUCLIDEAN else float(net.side - 1)
    kappa = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    lam = data.draw(st.floats(0.05, 0.8)) * max(extent, 1.0)
    params = ThickParams(lam_lo=lam, lam_hi=lam, kappa=kappa)
    center = centers(net, data)
    for kind, half_axes in thick_templates(net.dim, lam, kappa, params.shapes, net.mode):
        spec = make_shape(kind, center, half_axes, kappa, net.mode)
        assert np.array_equal(spec.member_ids(net), full_members(spec, net))
    if net.mode == EUCLIDEAN:
        spec = sample_thick_shape(net, params, data.draw(st.integers(0, 999)))
        assert spec.rotation is not None
        assert np.array_equal(spec.member_ids(net), full_members(spec, net))


@pytest.mark.parametrize("net, params", [
    (make_lattice(2, 24), ThickParams(lam_lo=2.0, lam_hi=8.0, kappa=2.0)),
    (make_lattice(1, 40), ThickParams(lam_lo=3.0, lam_hi=6.0, kappa=1.5)),
    (make_uniform_cloud(2, 500, seed=3), ThickParams(lam_lo=0.1, lam_hi=0.4, kappa=3.0)),
    (rescale_lattice(make_lattice(3, 8)), ThickParams(lam_lo=0.3, lam_hi=0.6, kappa=2.0)),
])
def test_thick_enumeration_equals_per_center_shapes(net, params):
    got = list(enumerate_thick_shapes(net, params))
    want = list(full_enumeration(net, params))
    assert [spec for spec, _ in got] == [spec for spec, _ in want]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))


@settings(max_examples=150, deadline=None)
@given(node_sets(), st.data())
def test_thick_enumeration_matches_full_scans(net, data):
    """Every template kind, kappa, one to three scales, and center grids from
    one center per line (pitch above twice the extent) to blobs that hold no
    node, with the lines cut into passes of any size."""
    extent = _domain_extent(net)
    kappa = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    kinds = data.draw(st.permutations(["ball", "ellipsoid", "rect"]))
    shapes = tuple(kinds[: data.draw(st.integers(1, 3))])
    cap = (40, 10, 5)[net.dim - 1]  # centers per axis at the finest scale, at most
    lam_lo = extent * data.draw(st.one_of(st.floats(1 / cap, 3.0), st.sampled_from([1 / cap, 3.0])))
    lam_hi = lam_lo * data.draw(st.sampled_from([1, 2, 4]))
    grid_eps = data.draw(st.floats(extent / (lam_lo * cap), 1.0))
    params = ThickParams(lam_lo, lam_hi, kappa=kappa, shapes=shapes, grid_eps=grid_eps)
    with mock.patch.object(clusters, "LINE_CELLS", data.draw(st.sampled_from([1, 7, 1 << 15]))):
        got = list(enumerate_thick_shapes(net, params))
    want = list(full_enumeration(net, params))
    assert [spec for spec, _ in got] == [spec for spec, _ in want]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))


def test_thick_enumeration_computes_one_line_at_a_time():
    """The first cluster costs one slab of `near`; each further line of centers
    one more.  build_net streams the enumeration on this."""
    net = rescale_lattice(make_lattice(2, 128))
    lam = 8.2 / 128
    params = ThickParams(lam_lo=lam, lam_hi=lam, shapes=("ball",), grid_eps=0.25)
    lines = len(np.arange(lam * 0.125, 1.0 + 1e-9, lam * 0.25))
    with mock.patch.object(NodeSet, "near", autospec=True, side_effect=NodeSet.near) as near:
        stream = enumerate_thick(net, params)
        next(stream)
        assert near.call_count == 1
        assert sum(1 for _ in stream) > 0
    assert near.call_count == lines


def emit_reference(rows, m, size_cap):
    """Cluster streams' postprocessing one cluster at a time: drop empty and
    oversized rows, and each row equal as an id set to an earlier one."""
    cap = -(-m // 4) if size_cap is None else size_cap
    seen, out = set(), []
    for ids in rows:
        if 0 < len(ids) <= cap and ids not in seen:
            seen.add(ids)
            out.append(ids)
    return out


def flat_rows(blocks):
    """Each row of CSR blocks as a tuple of ids."""
    return [tuple(ids[lo:hi].tolist()) for indptr, ids in blocks
            for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist())]


def family_values(net, data):
    """A cluster family that the node set admits and parameter values for it."""
    names = ["balls", "thick"] + (["bands", "animals"] if net.mode == LATTICE else [])
    names += ["tubes"] if net.mode == EUCLIDEAN and net.dim == 2 else []
    name, extent = data.draw(st.sampled_from(names)), _domain_extent(net) or 1.0
    lam = extent * data.draw(st.floats(0.05, 0.6))
    ell = data.draw(st.integers(1, min(5, net.side or 1)))
    return name, {
        "balls": {"lambda": lam},
        "thick": {"lambda_lo": lam, "lambda_hi": lam * data.draw(st.sampled_from([1, 2])),
                  "kappa": data.draw(st.sampled_from([1.0, 1.5, 2.0])),
                  "grid_eps": data.draw(st.sampled_from([0.25, 0.5, 1.0]))},
        "tubes": {"r": data.draw(st.sampled_from([0.2, 0.25])), "alpha": 1.0, "kappa": 1.0,
                  "n_control": data.draw(st.integers(2, 3))},
        "bands": {"ell": ell, "h": data.draw(st.integers(1, ell)), "budget": 30,
                  "path_mode": data.draw(st.sampled_from(clusters.PATH_MODES))},
        "animals": {"kmax": data.draw(st.integers(1, 3))},
    }[name]


@settings(max_examples=150, deadline=None)
@given(node_sets(), st.data())
def test_block_streams_match_the_per_cluster_reference(net, data):
    """Every family's CSR block stream, flattened row by row, is its raw rows
    through emit_reference, with blocks cut small enough that duplicates fall in
    other blocks than their first occurrence; every block is checked CSR."""
    name, values = family_values(net, data)
    values["size_cap"] = data.draw(st.sampled_from([None, 1, 5, net.m]))
    row = clusters.FAMILIES[name]
    raw, emit = [], clusters._emit

    def spy(blocks, m, size_cap):
        raw.extend(blocks)
        return emit(iter(raw), m, size_cap)

    small = {"BLOCK": data.draw(st.sampled_from([1, 3, 256])),
             "LINE_CELLS": data.draw(st.sampled_from([1, 7, 1 << 15])),
             "BAND_CHUNK": data.draw(st.sampled_from([1, 4, 256]))}
    with mock.patch.multiple(clusters, _emit=spy, **small):
        blocks = list(row.stream(net, row.params(values), values, 3).blocks())
    assert flat_rows(blocks) == emit_reference(flat_rows(raw), net.m, values["size_cap"])
    for indptr, ids in blocks:
        assert ids.dtype == np.int32 and not ids.flags.writeable and indptr[0] == 0
        assert len(indptr) > 1 and (np.diff(indptr) > 0).all() and indptr[-1] == ids.size


class TestBadQueries:
    NET = rescale_lattice(make_lattice(2, 8))

    @pytest.mark.parametrize("center, r", [
        ((0.5,), 0.2), ((0.5, 0.5, 0.5), 0.2), ([[0.5, 0.5]], 0.2), (0.5, 0.2),
        ((0.5, math.nan), 0.2), ((math.inf, 0.5), 0.2), ((0.5, 0.5), math.nan),
        ((0.5, 0.5), math.inf),
    ])
    def test_refused_where_they_enter(self, center, r):
        net = self.NET
        for query in (ball_ids, partial(ball_ids, closed=True), ball_nodes, NodeSet.near):
            with pytest.raises(ValueError, match="finite center of shape"):
                query(net, center, r)
        spec = ShapeSpec("ball", center, (0.3, 0.3), 0.3 if math.isfinite(r) else r)
        with pytest.raises(ValueError, match="finite center of shape"):
            spec.member_ids(net)

    def test_radius_bounds_are_unchanged(self):
        with pytest.raises(ValueError, match="r must be > 0"):
            ball_ids(self.NET, (0.5, 0.5), 0.0)
        with pytest.raises(ValueError, match="r must be >= 0"):
            ball_ids(self.NET, (0.5, 0.5), -0.1, closed=True)


# ---------------------------------------------------------------------------
# load_nodeset hands its rows to np.loadtxt by path; the reader it replaced,
# which handed over an open file, is the reference for every outcome

LATTICE_META = '# {"mode": "lattice-l1", "d": 2, "m": 4, "side": 2}'
CLOUD_META = '# {"mode": "euclidean-l2", "d": 2, "m": 3}'
LATTICE_ROWS = ["0,0,0", "1,0,1", "2,1,0", "3,1,1"]
CLOUD_ROWS = ["0,0.25,0.5", "1,0.75,1e-3", "2,.5,1"]


def _nodeset_text(rows, meta=LATTICE_META, newline="\n", final=True, columns="id,x0,x1"):
    return newline.join([meta, columns, *rows]) + (newline if final else "")


NODESET_CASES = {
    "plain": _nodeset_text(LATTICE_ROWS),
    "cloud": _nodeset_text(CLOUD_ROWS, CLOUD_META),
    "crlf": _nodeset_text(LATTICE_ROWS, newline="\r\n"),
    "cr": _nodeset_text(CLOUD_ROWS, CLOUD_META, newline="\r"),
    "tabs-and-runs-of-spaces": _nodeset_text([r.replace(",", " ,\t  ") for r in LATTICE_ROWS]),
    "blank-and-comment-lines": _nodeset_text(["", *LATTICE_ROWS[:2], "# a note", "",
                                              LATTICE_ROWS[2] + " # trailing", LATTICE_ROWS[3]]),
    "whitespace-only-line": _nodeset_text([*LATTICE_ROWS[:2], " \t", *LATTICE_ROWS[2:]]),
    "no-final-newline": _nodeset_text(LATTICE_ROWS, final=False),
    "rows-out-of-order": _nodeset_text(LATTICE_ROWS[::-1]),
    "one-row": _nodeset_text(["0,0.5"], '# {"mode": "euclidean-l2", "d": 1, "m": 1}', columns="id,x0"),
    "empty-body": _nodeset_text([]),
    "empty-body-no-m": _nodeset_text([], '# {"mode": "euclidean-l2", "d": 2}'),
    "meta-line-alone": LATTICE_META,
    "empty-file": "",
    "comment-as-column-header": _nodeset_text(LATTICE_ROWS, columns="# ids and coordinates"),
    "extra-column": _nodeset_text(LATTICE_ROWS[:3] + ["3,1,1,0"]),
    "missing-column": _nodeset_text(LATTICE_ROWS[:3] + ["3,1"]),
    "non-numeric-id": _nodeset_text(LATTICE_ROWS[:3] + ["x,1,1"]),
    "non-numeric-coordinate": _nodeset_text(CLOUD_ROWS[:2] + ["2,0.5,abc"], CLOUD_META),
    "float-lattice-coordinate": _nodeset_text(LATTICE_ROWS[:3] + ["3,1,1.0"]),
    "plus-signs": _nodeset_text(LATTICE_ROWS[:3] + ["+3,+1,1"]),
    "id-above-int32": _nodeset_text(LATTICE_ROWS[:3] + ["2147483648,1,1"]),
    "id-above-int64": _nodeset_text(LATTICE_ROWS[:3] + ["99999999999999999999,1,1"]),
    "negative-id": _nodeset_text(LATTICE_ROWS[:3] + ["-3,1,1"]),
    "repeated-id": _nodeset_text(LATTICE_ROWS + ["1,0,1"], LATTICE_META.replace('"m": 4', '"m": 5')),
    "id-out-of-range": _nodeset_text(LATTICE_ROWS[:3] + ["4,1,1"]),
    "missing-id": _nodeset_text(LATTICE_ROWS[:3]),
    "lattice-point-off-the-grid": _nodeset_text(LATTICE_ROWS[:3] + ["3,2,1"]),
    "non-finite-coordinate": _nodeset_text(CLOUD_ROWS[:2] + ["2,nan,1"], CLOUD_META),
}


# The rows np.loadtxt refuses, by the file line (header counted), its text and the
# columns expected.  The reference passes np.loadtxt's message through ("... at
# row 3; use `usecols` ..."); load_nodeset names path:line and the columns.
INTEGER_COLUMNS = "the 3 columns id,x0,x1 (integers)"
NODESET_REFUSED = {
    "whitespace-only-line": (5, " \t", INTEGER_COLUMNS),
    "extra-column": (6, "3,1,1,0", INTEGER_COLUMNS),
    "missing-column": (6, "3,1", INTEGER_COLUMNS),
    "non-numeric-id": (6, "x,1,1", INTEGER_COLUMNS),
    "non-numeric-coordinate": (5, "2,0.5,abc", "the 3 columns id,x0,x1 (an integer, then numbers)"),
    "float-lattice-coordinate": (6, "3,1,1.0", INTEGER_COLUMNS),
    "id-above-int64": (6, "99999999999999999999,1,1", INTEGER_COLUMNS),
}


class TestNodeSetReader:
    @pytest.mark.parametrize("name", NODESET_CASES)
    def test_matches_the_open_file_reader(self, tmp_path, name):
        path = tmp_path / "net.csv"
        path.write_bytes(NODESET_CASES[name].encode())
        got, want = silent_outcome(load_nodeset, path), outcome(reference_load_nodeset, path)
        if name in NODESET_REFUSED:
            line, text, columns = NODESET_REFUSED[name]
            assert want[0] is ValueError
            assert got == (ValueError, f"{path}:{line}: expected {columns}, got {text!r}")
        elif isinstance(want, tuple):
            assert got == want
        else:
            assert (got.mode, got.dim, got.side) == (want.mode, want.dim, want.side)
            assert got.coords.dtype == want.coords.dtype
            assert np.array_equal(got.coords, want.coords)


# ---------------------------------------------------------------------------
# integer files are written by int_lines; the writers it replaced, one string
# per number, are the reference for every byte


def written(write, what, *meta) -> str:
    fh = io.StringIO()
    write(what, fh, *meta)
    return fh.getvalue()


id_rows = st.lists(st.lists(st.integers(0, clusters.ID_MAX), max_size=6, unique=True)
                   .map(sorted), max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(id_rows, max_size=3), st.dictionaries(st.sampled_from(["family", "ell"]),
                                                      st.integers(0, 99)))
def test_cluster_files_match_the_string_writer(chunks, meta):
    # CSR blocks (empty rows among them) and the same rows as Clusters
    stream = clusters.ClusterStream([
        (clusters._indptr([len(r) for r in rows]),
         np.array([i for r in rows for i in r], dtype=np.int32)) for rows in chunks])
    want = written(reference_write_clusters, stream, meta)
    assert written(clusters.write_clusters, stream, meta) == want
    listed = [Cluster(np.array(r, dtype=np.int64)) for rows in chunks for r in rows]
    assert written(clusters.write_clusters, listed, meta) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(id_rows, min_size=1, max_size=3).map(lambda chunks: sum(chunks, [])
                                                     or [[]]))
def test_sequence_files_match_the_string_writer(rows):
    # empty slices are written as "t: " lines
    seq = ClusterSequence(tuple(Cluster(np.array(r, dtype=np.int64)) for r in rows))
    meta = {"kind": "richardson", "tm": seq.t_m}
    assert written(write_sequence, seq, meta) == written(reference_write_sequence, seq, meta)


@pytest.mark.parametrize("d, side", [(1, 2), (1, 11), (2, 16), (2, 64), (3, 5)])
def test_lattice_node_set_files_match_the_string_writer(d, side):
    net = make_lattice(d, side)
    assert written(network.write_nodeset, net) == written(reference_write_nodeset, net)
    order = np.random.default_rng(side).permutation(net.m)[: max(1, net.m - 3)]
    holed = NodeSet(mode=LATTICE, dim=d, coords=net.coords[order], side=side)
    assert written(network.write_nodeset, holed) == written(reference_write_nodeset, holed)
    cloud = rescale_lattice(holed)
    assert written(network.write_nodeset, cloud) == written(reference_write_nodeset, cloud)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2**63 - 1) | st.integers(0, 12), max_size=5),
                max_size=10), st.sampled_from([" ", ","]))
def test_int_lines_writes_as_percent_d(rows, sep):
    indptr = clusters._indptr([len(r) for r in rows])
    values = np.array([v for r in rows for v in r], dtype=np.int64)
    want = "".join(sep.join("%d" % v for v in row) + "\n" for row in rows)
    assert int_lines(indptr, values, sep) == want
