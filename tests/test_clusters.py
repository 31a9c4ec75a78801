import copy
import io
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanlab.clusters import (
    AnimalParams,
    _emit,
    _l1_offsets,
    _path_band_ids,
    BandParams,
    Cluster,
    ThickParams,
    ThinParams,
    connectivity_check,
    default_size_cap,
    enumerate_animals,
    enumerate_balls,
    enumerate_bands,
    enumerate_thick,
    enumerate_thick_shapes,
    enumerate_tube_curves,
    enumerate_tubes,
    load_clusters,
    make_shape,
    sample_animal,
    sample_band,
    sample_thick_shape,
    save_clusters,
    write_clusters,
)
from scanlab.errors import CapacityError
from scanlab.metric import ScanTable, delta
from scanlab.growth import richardson_grow
from scanlab.network import (
    LATTICE,
    NodeSet,
    ball_ids,
    ball_nodes,
    load_nodeset,
    make_lattice,
    make_uniform_cloud,
    save_nodeset,
)


def assert_stream_invariants(clusters, m):
    seen = set()
    for c in clusters:
        assert c.ids, "empty cluster emitted"
        assert list(c.ids) == sorted(set(c.ids)), "ids not sorted/unique"
        assert 0 <= c.ids[0] and c.ids[-1] < m, "id out of range"
        assert c.ids not in seen, "duplicate cluster emitted"
        seen.add(c.ids)


class TestCluster:
    def test_sorted_enforced(self):
        with pytest.raises(ValueError):
            Cluster((3, 1, 2))
        with pytest.raises(ValueError):
            Cluster((1, 1))

    def test_empty_cluster_is_falsy(self):
        assert not Cluster(())
        assert Cluster((0,))

    @pytest.mark.parametrize("ids, problem", [
        ((1.5, 2), "must be integers"),
        ((1.0, 2.0), "must be integers"),
        ((1, 2**70), "must be integers"),
        ((1, 3_000_000_000), "node id 3000000000 is above 2147483647"),
        (np.array([2, 2**31], dtype=np.int64), "is above 2147483647"),
        (((1, 2),), "must be integers"),
        ((-1, 0), "node id -1 is negative"),
    ])
    def test_bad_ids_refused(self, ids, problem):
        with pytest.raises(ValueError, match=problem):
            Cluster(ids)

    def test_ids_are_one_read_only_int32_array(self):
        source = np.array([1, 4, 9], dtype=np.int64)
        c = Cluster(source)
        source[0] = 0
        assert c.idarray.dtype == np.int32 and not c.idarray.flags.writeable
        assert c.ids == (1, 4, 9) and all(type(i) is int for i in c.ids)
        with pytest.raises(AttributeError):
            c.idarray = np.arange(3)


class TestEnumerateBalls:
    def test_lattice_singletons(self):
        net = make_lattice(2, 3)
        balls = list(enumerate_balls(net, 1.0))
        assert len(balls) == 9
        assert all(c.size == 1 for c in balls)

    def test_lattice_crosses(self):
        net = make_lattice(2, 5)
        balls = list(enumerate_balls(net, 1.5, size_cap=25))
        assert len(balls) == 25
        interior = [c for c in balls if c.size == 5]
        assert len(interior) == 9  # 3x3 interior centers

    def test_euclidean_matches_ball_nodes(self):
        cloud = make_uniform_cloud(2, 100, seed=3)
        for i, c in zip(range(cloud.m), enumerate_balls(cloud, 0.2, size_cap=100)):
            pass  # stream may dedup; recompute per emitted cluster below
        emitted = list(enumerate_balls(cloud, 0.2, size_cap=100))
        recomputed = {ball_nodes(cloud, cloud.coords[i], 0.2).ids for i in range(100)}
        recomputed.discard(())
        assert {c.ids for c in emitted} == recomputed

    def test_invariants(self):
        net = make_lattice(2, 6)
        assert_stream_invariants(enumerate_balls(net, 2.5), net.m)

    def test_size_cap_default(self):
        net = make_lattice(2, 8)
        cap = default_size_cap(net.m)
        assert all(c.size <= cap for c in enumerate_balls(net, 6.0))


class TestThick:
    def test_kappa_one_reduces_to_balls(self):
        net = make_lattice(2, 16)
        params = ThickParams(lam_lo=3.0, lam_hi=3.0, kappa=1.0, grid_eps=0.5)
        thick = {c.ids for c in enumerate_thick(net, params, size_cap=net.m)}
        centers = {
            spec.center for spec, _ in enumerate_thick_shapes(net, params)
        }
        balls = {ball_nodes(net, c, 3.0).ids for c in centers}
        balls.discard(())
        assert thick == balls

    def test_rectangle_inner_ball_subset(self):
        # half-axes (lam, lam/2): the inner ball B(c, lam/2) node subset holds
        # (kappa=3 admits this box: its l1 circumradius is 1.5*lam)
        net = make_lattice(2, 21)
        lam = 5.0
        spec = make_shape("rect", (10, 10), (lam, lam / 2), kappa=3.0, mode=net.mode)
        inner = set(int(i) for i in ball_ids(net, (10, 10), lam / 2))
        members = set(spec.member_ids(net))
        assert inner <= members

    def test_aspect_rejected_at_construction(self):
        with pytest.raises(ValueError):
            make_shape("ellipsoid", (0.5, 0.5), (0.4, 0.1), kappa=2.0, mode="euclidean-l2")

    @pytest.mark.parametrize("lo, hi", [(1.0, math.inf), (math.nan, 2.0), (1.0, math.nan)])
    def test_scale_range_finite(self, lo, hi):
        # an infinite lam_hi halved forever in the scale grid, without end
        with pytest.raises(ValueError, match="lam_hi < inf"):
            ThickParams(lam_lo=lo, lam_hi=hi)

    def test_lattice_sandwich_counts(self):
        # every emitted cluster sits between its inner and outer ball node sets
        net = make_lattice(2, 64)
        params = ThickParams(lam_lo=8.0, lam_hi=8.0, kappa=2.0, grid_eps=0.5)
        n = 0
        for spec, ids in enumerate_thick_shapes(net, params):
            inner = set(int(i) for i in ball_ids(net, spec.center, spec.inner_radius))
            outer = set(int(i) for i in ball_ids(net, spec.center, spec.lam))
            assert inner <= set(ids) <= outer
            n += 1
        assert n > 100

    def test_stream_invariants(self):
        net = make_uniform_cloud(2, 400, seed=8)
        params = ThickParams(lam_lo=0.1, lam_hi=0.2, kappa=2.0)
        assert_stream_invariants(enumerate_thick(net, params), net.m)

    def test_sample_thick_shape_rotated(self):
        net = make_uniform_cloud(2, 500, seed=2)
        params = ThickParams(lam_lo=0.1, lam_hi=0.2, kappa=2.0)
        spec = sample_thick_shape(net, params, seed=7, rotate=True)
        assert spec.rotation is not None
        ids = spec.member_ids(net)
        assert len(ids) > 0


class TestTubes:
    def test_flat_curve_is_slab(self):
        cloud = make_uniform_cloud(2, 800, seed=6)
        params = ThinParams(r=0.2, alpha=1.0, kappa=0.0, n_control=3, value_pitch=0.1)
        for verts, ids in enumerate_tube_curves(cloud, params):
            level = verts[0][1]
            assert (verts[:, 1] == level).all()  # kappa=0 forces constant g
            want = tuple(
                int(i) for i in np.flatnonzero(np.abs(cloud.coords[:, 1] - level) < 0.2)
            )
            assert tuple(ids.tolist()) == want

    def test_sizes_within_density_bounds(self):
        cloud = make_uniform_cloud(2, 2000, seed=6)
        params = ThinParams(r=0.1, alpha=1.0, kappa=0.5, n_control=3, value_pitch=0.05)
        for verts, ids in enumerate_tube_curves(cloud, params):
            length = np.sqrt(((verts[1:] - verts[:-1]) ** 2).sum(1)).sum()
            assert 1.0 <= length <= math.sqrt(1 + 0.5**2) + 1e-9
            lo = 0.25 * 2000 * 2 * 0.1 * 1.0
            hi = 4.0 * 2000 * 2 * 0.1 * (length + 0.2)
            assert lo <= len(ids) <= hi

    def test_value_pitch_guard(self):
        with pytest.raises(ValueError):
            ThinParams(r=0.1, value_pitch=0.2)

    def test_tube_radius_guard(self):
        with pytest.raises(ValueError):
            ThinParams(r=0.3, lambda_over_r_min=4.0)

    def test_curve_budget_guard(self):
        cloud = make_uniform_cloud(2, 50, seed=1)
        params = ThinParams(r=0.04, alpha=1.0, kappa=5.0, n_control=6, max_curves=1000)
        with pytest.raises(CapacityError):
            list(enumerate_tubes(cloud, params))

    def test_lattice_mode_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_tubes(make_lattice(2, 8), ThinParams(r=0.2)))


class TestBands:
    def test_loaded_lattice_gives_the_same_bands(self, tmp_path):
        # make_lattice keeps its coordinates column-major, load_nodeset row-major
        net = make_lattice(2, 64)
        save_nodeset(net, tmp_path / "net.csv")
        loaded = load_nodeset(tmp_path / "net.csv")
        params = BandParams(length=16, width=3, path_mode="self-avoiding")
        bodies = []
        for nodes in (net, loaded):
            buf = io.StringIO()
            write_clusters(enumerate_bands(nodes, params, budget=40, seed=7), buf)
            bodies.append(buf.getvalue())
        assert bodies[0] == bodies[1]
        assert bodies[0].count("\n") == 40

    def test_length_two_exhaustive(self):
        net = make_lattice(2, 4)
        params = BandParams(length=2, width=1)
        bands = list(enumerate_bands(net, params, budget=0, seed=0))
        assert len(bands) == 4  # RR, RU, UR, UU
        assert all(c.size == 3 for c in bands)

    def test_length_one(self):
        net = make_lattice(2, 4)
        bands = list(enumerate_bands(net, BandParams(1, 1), budget=0, seed=0))
        ids = {c.ids for c in bands}
        assert ids == {(0, 4), (0, 1)}  # {(0,0),(1,0)} and {(0,0),(0,1)}

    def test_band_equals_brute_force_neighborhood(self):
        net = make_lattice(2, 8)
        params = BandParams(length=6, width=2)
        for band in enumerate_bands(net, params, budget=0, seed=0, size_cap=net.m):
            # independent recomputation: nodes within open l1 distance 2 of
            # some path node; reconstruct the path as width-0 band members
            ids = set(band.ids)
            # every band member is within distance <2 of the band's "core"
            # (these are width-2 dilations of nondecreasing paths from origin)
            assert 0 in ids
            coords = net.coords[sorted(ids)]
            dmat = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
            assert (dmat.min(axis=1) <= 1).all()

    def test_band_dilation_oracle(self):
        # explicit check of B(path, h) against per-node distance computation
        net = make_lattice(2, 8)
        params = BandParams(length=6, width=2)
        stream = enumerate_bands(net, params, budget=0, seed=0, size_cap=net.m)
        path_stream = enumerate_bands(
            net, BandParams(length=6, width=1), budget=0, seed=0, size_cap=net.m
        )
        # width-1 bands are the paths themselves; dilate each and compare
        paths = [net.coords[list(c.ids)] for c in path_stream]
        expected = set()
        for p in paths:
            dist = np.abs(net.coords[:, None, :] - p[None, :, :]).sum(axis=2).min(axis=1)
            expected.add(tuple(int(v) for v in np.flatnonzero(dist < 2)))
        got = {c.ids for c in stream}
        assert got == expected

    def test_sampled_mode_distinct_and_deterministic(self):
        net = make_lattice(2, 40)
        params = BandParams(length=30, width=2)
        a = [c.ids for c in enumerate_bands(net, params, budget=25, seed=5)]
        b = [c.ids for c in enumerate_bands(net, params, budget=25, seed=5)]
        assert a == b
        assert len(set(a)) == len(a)

    def test_self_avoiding_mode(self):
        net = make_lattice(2, 12)
        params = BandParams(length=8, width=1, path_mode="self-avoiding")
        bands = list(enumerate_bands(net, params, budget=20, seed=3))
        assert bands
        for band in bands:
            assert band.size == 9  # self-avoiding path of 9 nodes, width 1
            assert connectivity_check(net, band)

    def test_preconditions(self):
        net = make_lattice(2, 8)
        with pytest.raises(ValueError):
            list(enumerate_bands(net, BandParams(10, 2), budget=5, seed=0))
        with pytest.raises(ValueError):
            BandParams(2, 3)

    def test_sample_band(self):
        net = make_lattice(2, 64)
        band = sample_band(net, BandParams(32, 4), seed=11)
        assert band.size > 32


class TestAnimals:
    def test_singletons(self):
        net = make_lattice(2, 4)
        ones = [c for c in enumerate_animals(net, 1)]
        assert len(ones) == 16

    def test_domino_count(self):
        for side in (3, 5, 8):
            net = make_lattice(2, side)
            twos = [c for c in enumerate_animals(net, 2, size_cap=4) if c.size == 2]
            assert len(twos) == 2 * side * (side - 1)

    def test_exhaustive_against_subset_filter(self):
        net = make_lattice(2, 3)
        got = sorted(c.ids for c in enumerate_animals(net, 3, size_cap=9))
        want = []
        for k in (1, 2, 3):
            for combo in itertools.combinations(range(9), k):
                if connectivity_check(net, Cluster(combo)):
                    want.append(combo)
        assert got == sorted(want)

    def test_exhaustive_sizes_five_and_six(self):
        # deeper uniqueness check for the ordered-extension enumerator
        net = make_lattice(2, 4)
        got = sorted(c.ids for c in enumerate_animals(net, 6, size_cap=16)
                     if c.size in (5, 6))
        want = sorted(
            combo
            for k in (5, 6)
            for combo in itertools.combinations(range(16), k)
            if connectivity_check(net, Cluster(combo))
        )
        assert got == want

    def test_tromino_closed_form(self):
        # size-3 count on n x n: 2n(n-2) straight + 4(n-1)^2 bent placements
        for side in (4, 6, 9):
            net = make_lattice(2, side)
            threes = sum(
                1 for c in enumerate_animals(net, 3, size_cap=9) if c.size == 3
            )
            assert threes == 2 * side * (side - 2) + 4 * (side - 1) ** 2

    def test_connectivity_of_everything(self):
        net = make_lattice(2, 5)
        for c in enumerate_animals(net, 4, size_cap=25):
            assert connectivity_check(net, c)

    def test_guard(self):
        net = make_lattice(2, 4)
        with pytest.raises(CapacityError):
            list(enumerate_animals(net, 13))

    def test_sample_animal(self):
        net = make_lattice(2, 10)
        a = sample_animal(net, 7, seed=2)
        assert a.size == 7
        assert connectivity_check(net, a)

    def test_lattice_with_a_hole(self):
        # 4 x 4 without (1, 1); ids row-major over the 15 remaining points
        coords = np.array([c for c in np.ndindex(4, 4) if c != (1, 1)])
        net = NodeSet(mode=LATTICE, dim=2, coords=coords, side=4)
        grown = richardson_grow(net, 0, 1.0, 0, 3, seed=0)
        assert [k.size for k in grown.slices] == [1, 3, 5, 9]
        animals = list(enumerate_animals(net, 2, size_cap=2))
        assert len(animals) == 15 + 20
        assert all(connectivity_check(net, a) for a in animals)


class TestClusterClass:
    def test_dispatch_matches_generators(self):
        net = make_lattice(2, 6)
        by_class = [c.ids for c in cl_class("balls", 1.5).stream(net)]
        direct = [c.ids for c in enumerate_balls(net, 1.5)]
        assert by_class == direct
        animals = [c.ids for c in cl_class("animals", AnimalParams(2)).stream(net)]
        assert animals == [c.ids for c in enumerate_animals(net, 2)]

    def test_band_dispatch_uses_budget_and_seed(self):
        net = make_lattice(2, 40)
        params = BandParams(length=30, width=2)
        got = [c.ids for c in cl_class("bands", params, budget=10).stream(net, seed=3)]
        want = [c.ids for c in enumerate_bands(net, params, budget=10, seed=3)]
        assert got == want

    def test_unknown_family(self):
        net = make_lattice(2, 4)
        with pytest.raises(ValueError):
            list(cl_class("blobs", 1.0).stream(net))


def cl_class(family, params, **kw):
    from scanlab.clusters import ClusterClass

    return ClusterClass(family=family, params=params, **kw)


class TestClusterFiles:
    def test_roundtrip_with_meta(self, tmp_path):
        net = make_lattice(2, 4)
        clusters = list(enumerate_animals(net, 2, size_cap=4))
        path = tmp_path / "clusters.txt"
        save_clusters(clusters, path, meta={"family": "animals", "kmax": 2})
        back, meta = load_clusters(path)
        assert [c.ids for c in back] == [c.ids for c in clusters]
        assert meta == {"family": "animals", "kmax": "2"}


id_subsets = st.lists(
    st.integers(0, 64)
    .flatmap(lambda m: st.frozensets(st.integers(0, 200), min_size=m, max_size=m))
    .map(lambda s: tuple(sorted(s))),
    min_size=1, max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(id_subsets, st.data())
def test_array_representation_matches_tuple_reference(subsets, data):
    """One int32 array per cluster gives what sorted tuples and frozensets gave."""
    clusters = [Cluster(ids) for ids in subsets]
    for ids, c in zip(subsets, clusters):
        assert c.ids == ids and len(c) == c.size == len(ids) and bool(c) == bool(ids)
        assert copy.deepcopy(c) == c and pickle.loads(pickle.dumps(c)) == c
        assert not copy.deepcopy(c).idarray.flags.writeable
    for (a, ka), (b, kb) in itertools.product(zip(subsets, clusters), repeat=2):
        assert (ka == kb) == (a == b)
        if a == b:
            assert hash(ka) == hash(kb)
        if a and b:
            inter = len(frozenset(a) & frozenset(b))
            want = math.sqrt(max(2.0 * (1.0 - inter / math.sqrt(len(a) * len(b))), 0.0))
            assert delta(ka, kb) == want
    nonempty = [c for c in clusters if c]
    if nonempty:
        table = ScanTable(nonempty)
        assert table.concat.tolist() == [i for c in nonempty for i in c.ids]
    stream = data.draw(st.lists(st.sampled_from(subsets), max_size=30))
    cap = data.draw(st.integers(1, 64))
    seen, want = set(), []
    for ids in stream:
        if ids and len(ids) <= cap and ids not in seen:
            seen.add(ids)
            want.append(ids)
    raw = (np.array(ids, dtype=np.int64) for ids in stream)
    assert [c.ids for c in _emit(raw, 256, cap)] == want


# ---------------------------------------------------------------------------
# the lattice index against coordinates, on permuted ids and with holes


def brute_neighbors(coords):
    dist = np.abs(coords[:, None] - coords[None]).sum(axis=2)
    return [np.flatnonzero(row == 1).tolist() for row in dist]


def brute_band_ids(coords, path_coords, width):
    """Nodes within open l1 distance `width` of the path, from the distance
    of every path point to every node."""
    best = np.abs(coords[:, None] - path_coords[None]).sum(axis=2).min(axis=1)
    return np.flatnonzero(best < width)


def graph_balls(adj, x0, t_m):
    balls, ball = [], {x0}
    for _ in range(t_m + 1):
        balls.append(tuple(sorted(ball)))
        ball = ball | {u for v in ball for u in adj[v]}
    return balls


lattice_shapes = st.sampled_from([(1, 2), (1, 7), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])


@st.composite
def holed_lattices(draw, holes=True):
    """A lattice NodeSet with its points under a random id order, some of
    them missing; also returns the row-major index of each id's point."""
    d, side = draw(lattice_shapes)
    full = np.indices((side,) * d).reshape(d, -1).T
    keep = np.ones(len(full), dtype=bool)
    if holes:
        keep = np.array(draw(st.lists(st.booleans(), min_size=len(full), max_size=len(full))))
        keep[draw(st.integers(0, len(full) - 1))] = True
    order = np.flatnonzero(keep)[draw(st.permutations(range(int(keep.sum()))))]
    return NodeSet(mode=LATTICE, dim=d, coords=full[order], side=side), order


@settings(max_examples=150, deadline=None)
@given(holed_lattices(), st.data())
def test_lattice_index_matches_coordinates(lattice, data):
    net, _ = lattice
    adj = brute_neighbors(net.coords)
    assert net.neighbors == adj
    width = data.draw(st.integers(1, 3))
    points = st.lists(st.integers(0, net.side - 1), min_size=net.dim, max_size=net.dim)
    path = np.array(data.draw(st.lists(points, min_size=1, max_size=6)))
    got = _path_band_ids(net, path, _l1_offsets(net.dim, width))
    assert got.tolist() == brute_band_ids(net.coords, path, width).tolist()
    x0 = data.draw(st.integers(0, net.m - 1))
    grown = richardson_grow(net, x0, 1.0, 0, 3, seed=0)
    assert [k.ids for k in grown.slices] == graph_balls(adj, x0, 3)
    pairs = [c.ids for c in enumerate_animals(net, 2, size_cap=2) if c.size == 2]
    assert sorted(pairs) == [(a, b) for a in range(net.m) for b in adj[a] if a < b]
    k = data.draw(st.integers(1, min(4, net.m)))
    try:
        animal = sample_animal(net, k, seed=data.draw(st.integers(0, 99)))
    except ValueError as exc:  # its start node's component is too small
        assert f"holds fewer than {k} nodes" in str(exc)
    else:
        inside = {v: [u for u in adj[v] if u in animal.ids] for v in animal.ids}
        assert animal.size == k and graph_balls(inside, animal.ids[0], k)[-1] == animal.ids


@settings(max_examples=60, deadline=None)
@given(holed_lattices(holes=False), st.data())
def test_permuted_lattice_maps_row_major_results(lattice, data):
    net, order = lattice
    row_major = make_lattice(net.dim, net.side)
    to_id = np.argsort(order)  # row-major index -> id in `net`

    def mapped(cluster):
        return tuple(sorted(to_id[cluster.idarray].tolist()))

    want = {mapped(c) for c in enumerate_animals(row_major, 3, size_cap=3)}
    assert {c.ids for c in enumerate_animals(net, 3, size_cap=3)} == want
    x0 = data.draw(st.integers(0, net.m - 1))
    grown = richardson_grow(row_major, x0, 1.0, 0, 3, seed=0)
    permuted = richardson_grow(net, int(to_id[x0]), 1.0, 0, 3, seed=0)
    assert [k.ids for k in permuted.slices] == [mapped(k) for k in grown.slices]
