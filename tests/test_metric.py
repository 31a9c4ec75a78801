import itertools
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanlab.clusters import (
    Cluster, ThickParams, cluster_from_ids, enumerate_balls, enumerate_thick,
)
from scanlab import metric
from scanlab.metric import SQRT2, ScanTable, build_net, delta, verify_cover
from scanlab.network import (
    LATTICE, NodeSet, ball_nodes, make_lattice, make_uniform_cloud, rescale_lattice,
)

# overlaps are counted by a sparse product or, where denser, a dense one, and
# build_net counts them by a prefix join where that pays; each path forced in
# turn must give the same bits
OVERLAP_PATHS = {
    "sparse": dict(DENSE_COST=0),
    "dense": dict(DENSE_COST=10**12),
    "dense, one node at a time": dict(DENSE_COST=10**12, DENSE_CELLS=1),
    "prefix join": dict(PAIR_COST=0, BIT_COST=0),
    "prefix join, one pair at a time": dict(PAIR_COST=0, BIT_COST=0, BIT_CHUNK=1),
    "no prefix join": dict(PAIR_COST=math.inf),
}


@contextmanager
def overlap_path(name):
    with mock.patch.multiple(metric, **OVERLAP_PATHS[name]):
        yield


def holed_lattice(side, keep, shuffle):
    """The points of a side x side lattice kept with chance `keep`, ids row-major or shuffled."""
    rng = np.random.default_rng(side)
    coords = np.indices((side, side)).reshape(2, -1).T
    coords = coords[rng.random(len(coords)) < keep]
    return NodeSet(mode=LATTICE, dim=2, coords=coords[rng.permutation(len(coords))] if shuffle else coords,
                   side=side)


class TestDelta:
    def test_identity_is_zero(self):
        k = Cluster((1, 4, 9))
        assert delta(k, k) == 0.0

    def test_disjoint_is_sqrt2(self):
        assert delta(Cluster((0, 1)), Cluster((2, 3))) == SQRT2

    def test_half_overlap(self):
        # |K|=|L|=2, |K∩L|=1 -> sqrt(2)*(1-1/2)**0.5 = 1
        assert delta(Cluster((0, 1)), Cluster((1, 2))) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            delta(Cluster(()), Cluster((1,)))

    def test_exhaustive_axioms_six_nodes(self):
        subsets = [
            Cluster(c)
            for k in range(1, 7)
            for c in itertools.combinations(range(6), k)
        ]
        n = len(subsets)
        assert n == 63
        dmat = np.array([[delta(a, b) for b in subsets] for a in subsets])
        assert np.array_equal(dmat, dmat.T)
        assert dmat.min() >= 0.0 and dmat.max() <= SQRT2 + 1e-12
        for i in range(n):
            for j in range(n):
                assert (dmat[i, j] == 0.0) == (subsets[i].ids == subsets[j].ids)

    def test_triangle_inequality_reported_not_asserted(self, capsys):
        # tabulated for the record; the package never relies on it
        subsets = [
            Cluster(c)
            for k in range(1, 5)
            for c in itertools.combinations(range(5), k)
        ]
        dmat = np.array([[delta(a, b) for b in subsets] for a in subsets])
        slack = dmat[:, None, :] - (dmat[:, :, None] + dmat.T[None, :, :])
        print(f"triangle worst violation: {slack.max():.6f}")


class TestBuildNet:
    def test_epsilon_sqrt2_keeps_first_only(self):
        # disjoint clusters are exactly sqrt(2) apart, which is not > sqrt(2),
        # also when a block shares no node with any member (block of one)
        stream = [Cluster((i,)) for i in range(5)] + [Cluster((0, 9)), Cluster((7, 8, 9))]
        for block, path in itertools.product((1, metric.BLOCK), OVERLAP_PATHS):
            with mock.patch.object(metric, "BLOCK", block), overlap_path(path):
                assert tuple(build_net(stream, SQRT2).members) == (Cluster((0,)),)

    @pytest.mark.parametrize("path", sorted(OVERLAP_PATHS))
    def test_pair_at_exactly_the_threshold_is_within(self, path):
        # K ⊂ L with |K| = 3, |L| = 4: rho = 3 / sqrt(12) = c at c**2 = 3/4, so the
        # larger L's prefix is 2 ids and K's is 1; K holds L's last three ids, so
        # the two prefixes share an id only if L's is not cut by rounding
        k, l = Cluster((1, 2, 3)), Cluster((0, 1, 2, 3))
        eps = delta(k, l)
        with overlap_path(path):
            assert tuple(build_net([l, k], eps).members) == (l,)
            assert tuple(build_net([k, l], eps).members) == (k,)
            assert len(build_net([l, k], np.nextafter(eps, 0))) == 2

    def test_prefix_length_is_conservative_under_rounding(self):
        # every pair of sizes a <= b sharing s ids, at epsilon equal to its own
        # delta (as _delta rounds it) and one ulp above: the shared ids reach into
        # the smaller's short prefix and the larger's long one (and so into both
        # long ones), so the pair is a candidate
        for b in range(1, 41):
            for a in range(1, b + 1):
                sizes = np.array([a, b])
                for s in range(1, a + 1):
                    eps = float(metric._delta(s / np.sqrt(a * float(b))))
                    for e in (eps, np.nextafter(eps, 2.0)):
                        if 0 < e < SQRT2:
                            short, long = (metric._prefix(sizes, e, p) for p in (1, 2))
                            assert s >= a - short[0] + 1 and s >= b - long[1] + 1, (a, b, s, e)
                            assert (s >= sizes - long + 1).all(), (a, b, s, e)

    def test_bit_counts_across_word_boundaries(self):
        rng = np.random.default_rng(5)
        clusters = [Cluster(np.sort(rng.choice(np.arange(lo, lo + span), size, replace=False)))
                    for lo, span, size in zip(rng.integers(0, 200, 60), rng.integers(1, 150, 60),
                                              rng.integers(1, 40, 60)) if size <= span]
        table = ScanTable.of(clusters)
        bits = metric._bits(table.indptr, table.concat)
        i, j = np.triu_indices(len(clusters))
        meet = (table.concat[table.indptr[:-1]][i] <= table.concat[table.indptr[1:] - 1][j]) & (
            table.concat[table.indptr[:-1]][j] <= table.concat[table.indptr[1:] - 1][i])
        i, j = i[meet], j[meet]
        for eps in (0.3, 0.7, 1.2):
            got = metric._within(bits, bits, i, j, eps)
            assert got.tolist() == [delta(clusters[a], clusters[b]) <= eps for a, b in zip(i, j)]

    def test_tiny_epsilon_admits_all_distinct(self):
        stream = [Cluster((0, 1)), Cluster((1, 2)), Cluster((0, 1)), Cluster((2, 3))]
        net = build_net(stream, 1e-9)
        assert [c.ids for c in net.members] == [(0, 1), (1, 2), (2, 3)]

    def test_nine_singletons_all_admitted_at_one(self):
        lat = make_lattice(2, 3)
        net = build_net(enumerate_balls(lat, 1.0), 1.0)
        assert len(net) == 9

    def test_members_pairwise_separated(self):
        lat = make_lattice(2, 16)
        net = build_net(enumerate_balls(lat, 2.5), 0.8)
        for i, a in enumerate(net.members):
            for b in net.members[i + 1 :]:
                assert delta(a, b) > 0.8

    def test_deterministic(self):
        lat = make_lattice(2, 12)
        a = build_net(enumerate_balls(lat, 2.5), 0.7)
        b = build_net(enumerate_balls(lat, 2.5), 0.7)
        assert [c.ids for c in a.members] == [c.ids for c in b.members]

    @pytest.mark.parametrize("stream", [
        list(enumerate_balls(make_lattice(3, 7), 1.6)),
        list(enumerate_balls(rescale_lattice(make_lattice(2, 20)), 2.5 / 20)),
        list(enumerate_balls(holed_lattice(20, 0.7, shuffle=False), 2.5)),
        list(enumerate_balls(holed_lattice(20, 0.7, shuffle=True), 2.5)),
    ], ids=["3-d lattice", "rescaled lattice", "holed lattice", "holed lattice, ids shuffled"])
    @pytest.mark.parametrize("epsilon", [0.3, 0.5, 1.0])
    def test_paths_agree_with_the_greedy_reference(self, stream, epsilon):
        want = _greedy_reference(stream, epsilon)
        for path in OVERLAP_PATHS:
            with overlap_path(path):
                assert list(build_net(stream, epsilon).members) == want, path

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            build_net([Cluster((0,))], 0.0)
        with pytest.raises(ValueError):
            build_net([Cluster((0,))], 2.0)


class TestVerifyCover:
    def test_build_stream_is_covered(self):
        lat = make_lattice(2, 16)
        stream = list(enumerate_balls(lat, 2.5))
        for eps, path in itertools.product((0.4, 0.9), ("sparse", "dense")):
            with overlap_path(path):
                net = build_net(stream, eps)
                report = verify_cover(net, stream)
            assert report.passed, report.max_min_dist

    def test_disjoint_witness(self):
        for path in ("sparse", "dense"):
            with overlap_path(path):
                net = build_net([Cluster((0, 1))], 1.0)
                report = verify_cover(net, [Cluster((5, 6))])
            assert not report.passed
            assert report.max_min_dist == pytest.approx(SQRT2)
            assert report.worst.ids == (5, 6)

    def test_half_pitch_refinement_covered(self):
        # net built from node-centered balls covers the off-grid refinement
        # (pilot: worst min distance 0.478 at this radius)
        net32 = rescale_lattice(make_lattice(2, 32))
        r = 4.1 / 32
        net = build_net(enumerate_balls(net32, r), 0.5)
        refined = []
        for x in range(63):
            for y in range(63):
                c = ((x / 2 + 0.5) / 32, (y / 2 + 0.5) / 32)
                k = ball_nodes(net32, c, r)
                if k:
                    refined.append(k)
        report = verify_cover(net, refined)
        assert report.passed
        with overlap_path("dense"):
            assert build_net(enumerate_balls(net32, r), 0.5) == net
            assert verify_cover(net, refined) == report

    @pytest.mark.parametrize("stream", [
        list(enumerate_balls(make_lattice(2, 16), 2.5)),
        list(enumerate_thick(rescale_lattice(make_lattice(2, 16)), ThickParams(0.15, 0.3, 2.0))),
        [ball_nodes(cloud, c, 0.2) for cloud in [make_uniform_cloud(2, 300, 4)]
         for c in cloud.coords],
    ], ids=["lattice balls", "thick blobs", "cloud balls"])
    def test_overlap_paths_agree_bit_for_bit(self, stream):
        block, members = ScanTable.of(stream[:metric.BLOCK]), ScanTable.of(stream[::3])
        runs = {}
        for path in OVERLAP_PATHS:
            with overlap_path(path):
                net = build_net(stream, 0.5)
                runs[path] = (block.overlaps(members.indptr, members.concat),
                              block.overlaps(block.indptr, block.concat),
                              net, verify_cover(net, stream[::-1]))
        want = runs.pop("sparse")
        for ratios, self_ratios, net, report in runs.values():
            assert np.array_equal(ratios.toarray(), want[0].toarray())
            assert np.array_equal(self_ratios.toarray(), want[1].toarray())
            assert net == want[2] and report == want[3]

    def test_empty_net_rejected(self):
        from scanlab.metric import EpsNet

        with pytest.raises(ValueError):
            verify_cover(EpsNet(0.5, ()), [Cluster((0,))])


# Streams of random subsets of at most 40 nodes, empties included (both
# build_net and verify_cover skip them), and epsilon anywhere in (0, sqrt 2].
subsets = st.integers(1, 40).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(0, m - 1), max_size=m).map(cluster_from_ids), max_size=80
    )
)
epsilons = st.one_of(
    st.floats(0.0, SQRT2, exclude_min=True), st.just(SQRT2), st.sampled_from((0.5, 1.0))
)


def _greedy_reference(stream, epsilon):
    """Admit a cluster iff every member admitted so far is more than epsilon away."""
    members = []
    for cluster in stream:
        if cluster and all(delta(cluster, k) > epsilon for k in members):
            members.append(cluster)
    return members


def _cover_reference(members, stream):
    """(max over the stream of the min distance to the members, first witness, count)."""
    worst, worst_dist, checked = None, -1.0, 0
    for cluster in stream:
        if not cluster:
            continue
        checked += 1
        dmin = min(delta(cluster, k) for k in members)
        if dmin > worst_dist:
            worst, worst_dist = cluster, dmin
    return max(worst_dist, 0.0), worst, checked


@settings(max_examples=300, deadline=None)
@given(subsets, subsets, epsilons, st.sampled_from((1, 3, 16, metric.BLOCK)),
       st.sampled_from(sorted(OVERLAP_PATHS)))
def test_block_greedy_matches_pairwise_reference(stream, probes, epsilon, block, path):
    with mock.patch.object(metric, "BLOCK", block), overlap_path(path):
        net = build_net(stream, epsilon)
        report = verify_cover(net, stream + probes) if net.members else None
    want = _greedy_reference(stream, epsilon)
    assert [c.ids for c in net.members] == [c.ids for c in want]
    for i, a in enumerate(net.members):
        for b in net.members[i + 1 :]:
            assert delta(a, b) > epsilon
    if net.members:
        dist, worst, checked = _cover_reference(net.members, stream + probes)
        assert report.max_min_dist == dist
        assert report.worst == worst
        assert report.checked == checked
