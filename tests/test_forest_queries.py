"""Tests for the RC-tree query library: path aggregates (sum / length /
max), component aggregates (size / edge count / weight) and dynamic tree
diameter -- the "multitude of queries" of Section 2.2 [3], all O(lg n)."""

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trees import DynamicForest
from repro.trees.cpt import PathAggregate


class TestPathAggregates:
    @pytest.fixture()
    def forest(self):
        f = DynamicForest(6)
        f.batch_link([(0, 1, 2.0, 0), (1, 2, 5.0, 1), (2, 3, 1.0, 2), (4, 5, 7.0, 3)])
        return f

    def test_path_sum_and_length(self, forest):
        assert forest.path_sum(0, 3) == pytest.approx(8.0)
        assert forest.path_length(0, 3) == 3
        assert forest.path_sum(4, 5) == pytest.approx(7.0)
        assert forest.path_length(4, 5) == 1

    def test_same_vertex(self, forest):
        assert forest.path_sum(2, 2) == 0.0
        assert forest.path_length(2, 2) == 0
        assert forest.path_aggregate(2, 2) is None

    def test_disconnected(self, forest):
        assert forest.path_sum(0, 4) is None
        assert forest.path_length(0, 4) is None

    def test_aggregate_object(self, forest):
        agg = forest.path_aggregate(0, 3)
        assert isinstance(agg, PathAggregate)
        assert (agg.max_w, agg.max_eid) == (5.0, 1)
        assert agg.total == pytest.approx(8.0)
        assert agg.count == 3

    def test_aggregate_combine(self):
        a = PathAggregate(3.0, 1, 5.0, 2)
        b = PathAggregate(4.0, 0, 1.0, 1)
        c = a.combine(b)
        assert (c.max_w, c.max_eid) == (4.0, 0)
        assert c.total == 6.0 and c.count == 3

    def test_cpt_aggregates_aligned(self, forest):
        cpt = forest.compressed_path_tree([0, 3, 4])
        assert len(cpt.aggregates) == len(cpt.edges)
        for (a, b, w, eid), agg in zip(cpt.edges, cpt.aggregates):
            assert (agg.max_w, agg.max_eid) == (w, eid)
            assert agg.count >= 1

    def test_high_degree_path_sums(self):
        # Ternarization virtual edges must not pollute sums or counts.
        f = DynamicForest(10)
        f.batch_link([(0, i, float(i), i) for i in range(1, 10)])
        for i in range(2, 10):
            assert f.path_length(1, i) == 2
            assert f.path_sum(1, i) == pytest.approx(1.0 + i)


class TestComponentAggregates:
    def test_isolated_vertex(self):
        f = DynamicForest(3)
        assert f.component_size(0) == 1
        assert f.component_edge_count(0) == 0
        assert f.component_weight(0) == 0.0
        assert f.component_diameter(0) == 0.0

    def test_small_tree(self):
        f = DynamicForest(5)
        f.batch_link([(0, 1, 3.0, 0), (1, 2, 4.0, 1), (1, 3, 10.0, 2)])
        for v in (0, 1, 2, 3):
            assert f.component_size(v) == 4
            assert f.component_edge_count(v) == 3
            assert f.component_weight(v) == pytest.approx(17.0)
            assert f.component_diameter(v) == pytest.approx(14.0)  # 2..1..3
        assert f.component_size(4) == 1

    def test_diameter_updates_on_cut(self):
        f = DynamicForest(4)
        f.batch_link([(0, 1, 5.0, 0), (1, 2, 5.0, 1), (2, 3, 5.0, 2)])
        assert f.component_diameter(0) == pytest.approx(15.0)
        f.batch_cut([1])
        assert f.component_diameter(0) == pytest.approx(5.0)
        assert f.component_diameter(3) == pytest.approx(5.0)

    def test_diameter_through_high_degree_vertex(self):
        f = DynamicForest(8)
        f.batch_link([(0, i, float(i), i) for i in range(1, 8)])
        # Diameter is the two heaviest spokes: 7 + 6.
        assert f.component_diameter(0) == pytest.approx(13.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_oracle(self, seed):
        rng = random.Random(seed)
        n = 32
        f = DynamicForest(n, seed=seed)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        live = {}
        eid = 0
        for _ in range(40):
            cut = [e for e in list(live) if rng.random() < 0.2]
            for e in cut:
                a, b = live.pop(e)
                g.remove_edge(a, b)
            links = []
            for _ in range(rng.randrange(0, 5)):
                a, b = rng.randrange(n), rng.randrange(n)
                if a == b or nx.has_path(g, a, b):
                    continue
                w = round(rng.uniform(0.5, 9.0), 3)
                links.append((a, b, w, eid))
                live[eid] = (a, b)
                g.add_edge(a, b, w=w)
                eid += 1
            f.batch_update(links=links, cut_eids=cut)
        for comp in nx.connected_components(g):
            v = next(iter(comp))
            sub = g.subgraph(comp)
            assert f.component_size(v) == len(comp)
            assert f.component_edge_count(v) == sub.number_of_edges()
            assert f.component_weight(v) == pytest.approx(
                sum(d["w"] for _, _, d in sub.edges(data=True))
            )
            expect = 0.0
            dist = dict(nx.all_pairs_dijkstra_path_length(sub, weight="w"))
            for x in comp:
                for y in comp:
                    expect = max(expect, dist[x][y])
            assert f.component_diameter(v) == pytest.approx(expect)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_property_path_aggregates_match_oracle(data):
    n = data.draw(st.integers(2, 16))
    f = DynamicForest(n, seed=data.draw(st.integers(0, 500)))
    g = nx.Graph()
    g.add_nodes_from(range(n))
    links = []
    for v in range(1, n):
        if data.draw(st.booleans()):
            p = data.draw(st.integers(0, v - 1))
            w = float(data.draw(st.integers(1, 20)))
            links.append((p, v, w, v))
            g.add_edge(p, v, w=w)
    if links:
        f.batch_link(links)
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    if u != v and nx.has_path(g, u, v):
        p = nx.shortest_path(g, u, v)
        assert f.path_length(u, v) == len(p) - 1
        assert f.path_sum(u, v) == pytest.approx(
            sum(g[x][y]["w"] for x, y in zip(p, p[1:]))
        )
    elif u != v:
        assert f.path_length(u, v) is None


class TestEccentricityToolkit:
    """Diameter endpoints, eccentricity and farthest-vertex queries."""

    def test_isolated(self):
        f = DynamicForest(2)
        assert f.component_diameter_endpoints(0) == (0, 0)
        assert f.eccentricity(0) == 0.0
        assert f.farthest_vertex(0) == (0, 0.0)

    def test_path(self):
        f = DynamicForest(4)
        f.batch_link([(0, 1, 1.0, 0), (1, 2, 2.0, 1), (2, 3, 4.0, 2)])
        assert set(f.component_diameter_endpoints(1)) == {0, 3}
        assert f.eccentricity(1) == pytest.approx(6.0)
        assert f.farthest_vertex(1) == (3, 6.0)
        assert f.eccentricity(3) == pytest.approx(7.0)

    def test_endpoints_update_after_cut(self):
        f = DynamicForest(5)
        f.batch_link([(0, 1, 5.0, 0), (1, 2, 5.0, 1), (2, 3, 5.0, 2), (3, 4, 5.0, 3)])
        assert set(f.component_diameter_endpoints(2)) == {0, 4}
        f.batch_cut([3])
        assert set(f.component_diameter_endpoints(2)) == {0, 3}
        assert f.farthest_vertex(4) == (4, 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_oracle(self, seed):
        rng = random.Random(200 + seed)
        n = 24
        f = DynamicForest(n, seed=seed)
        links = []
        for v in range(1, n):
            if rng.random() < 0.85:
                links.append((rng.randrange(v), v, round(rng.uniform(0.5, 9), 2), v))
        f.batch_link(links)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for u, v, w, _ in links:
            g.add_edge(u, v, w=w)
        for comp in nx.connected_components(g):
            sub = g.subgraph(comp)
            dist = dict(nx.all_pairs_dijkstra_path_length(sub, weight="w"))
            for u in list(comp)[:3]:
                expect = max(dist[u][x] for x in comp)
                assert f.eccentricity(u) == pytest.approx(expect)
                fv, fd = f.farthest_vertex(u)
                assert fd == pytest.approx(expect)
                assert dist[u][fv] == pytest.approx(expect)


class TestSplitAggregates:
    """What-if edge removal queries (cut -> query -> relink round trip)."""

    def test_split_small(self):
        f = DynamicForest(5)
        f.batch_link([(0, 1, 2.0, 0), (1, 2, 3.0, 1), (2, 3, 4.0, 2), (3, 4, 5.0, 3)])
        left, right = f.split_aggregates(1)  # cut between 1 and 2
        assert left["vertices"] == 2 and right["vertices"] == 3
        assert left["weight"] == pytest.approx(2.0)
        assert right["weight"] == pytest.approx(9.0)
        assert right["diameter"] == pytest.approx(9.0)

    def test_state_restored_exactly(self):
        f = DynamicForest(6, seed=9)
        f.batch_link([(0, 1, 1.0, 0), (1, 2, 2.0, 1), (2, 3, 3.0, 2)])
        before = f.rc.snapshot()
        f.split_aggregates(1)
        assert f.rc.snapshot() == before
        assert f.has_edge(1) and f.edge_info(1) == (1, 2, 2.0)

    def test_unknown_edge_raises(self):
        f = DynamicForest(3)
        with pytest.raises(KeyError):
            f.split_aggregates(42)

    @pytest.mark.parametrize("seed", range(2))
    def test_sides_match_oracle(self, seed):
        rng = random.Random(seed)
        n = 20
        f = DynamicForest(n, seed=seed)
        links = [(rng.randrange(v), v, round(rng.uniform(1, 5), 2), v) for v in range(1, n)]
        f.batch_link(links)
        g = nx.Graph()
        for u, v, w, eid in links:
            g.add_edge(u, v, w=w)
        for u, v, w, eid in rng.sample(links, 6):
            a, b = f.split_aggregates(eid)
            g.remove_edge(u, v)
            cu = nx.node_connected_component(g, u)
            cv = nx.node_connected_component(g, v)
            assert a["vertices"] == len(cu) and b["vertices"] == len(cv)
            assert a["edges"] == g.subgraph(cu).number_of_edges()
            assert b["weight"] == pytest.approx(
                sum(d["w"] for _, _, d in g.subgraph(cv).edges(data=True))
            )
            g.add_edge(u, v, w=w)


class TestLevelStatistics:
    def test_geometric_decay(self):
        import math

        from repro.trees.rcforest import RCForest
        from repro.trees.ternary import InternalLink

        for n in (128, 512, 2048):
            f = RCForest(vertices=range(n), seed=5)
            f.batch_update(
                links=[InternalLink(i, i + 1, 0.0, i) for i in range(n - 1)]
            )
            stats = f.level_statistics()
            assert stats[0] == n
            assert len(stats) <= 6 * math.log2(n)  # O(lg n) rounds w.h.p.
            assert sum(stats) <= 10 * n  # total leveled storage O(n)
            # Strictly decreasing from some point; a constant-fraction drop
            # every few rounds.
            for i in range(0, len(stats) - 4, 4):
                assert stats[i + 4] < stats[i]


class TestMsfProfile:
    """An ``augment="msf"`` forest keeps kind, boundary and path max only:
    every query that needs more raises instead of reading stale columns."""

    @pytest.fixture()
    def forest(self):
        f = DynamicForest(6, seed=3, augment="msf")
        f.batch_link([(0, 1, 2.0, 0), (1, 2, 5.0, 1), (2, 3, 1.0, 2), (4, 5, 7.0, 3)])
        return f

    @pytest.mark.parametrize(
        "query",
        [
            lambda f: f.path_aggregate(0, 3),
            lambda f: f.path_sum(0, 3),
            lambda f: f.path_length(0, 3),
            lambda f: f.component_size(0),
            lambda f: f.component_edge_count(0),
            lambda f: f.component_weight(0),
            lambda f: f.component_diameter(0),
            lambda f: f.component_diameter_endpoints(0),
            lambda f: f.split_aggregates(1),
            lambda f: f.eccentricity(0),
            lambda f: f.farthest_vertex(0),
            lambda f: f.rc.component_summary(0),
        ],
        ids=[
            "path_aggregate",
            "path_sum",
            "path_length",
            "component_size",
            "component_edge_count",
            "component_weight",
            "component_diameter",
            "component_diameter_endpoints",
            "split_aggregates",
            "eccentricity",
            "farthest_vertex",
            "rc_component_summary",
        ],
    )
    def test_full_only_query_raises(self, forest, query):
        before = forest.rc.snapshot()
        with pytest.raises(ValueError, match="augment='full'"):
            query(forest)
        assert forest.rc.snapshot() == before  # nothing cut or relinked

    def test_reference_component_summary_raises(self):
        from repro.trees.rcforest import RCForest

        with pytest.raises(ValueError, match="augment='full'"):
            RCForest(range(3), augment="msf").component_summary(0)

    def test_path_max_and_cpt_edges_still_answer(self, forest):
        full = DynamicForest(6, seed=3)
        full.batch_link([(0, 1, 2.0, 0), (1, 2, 5.0, 1), (2, 3, 1.0, 2), (4, 5, 7.0, 3)])
        for u in range(6):
            for v in range(6):
                assert forest.path_max(u, v) == full.path_max(u, v)
        cpt = forest.compressed_path_tree([0, 3, 4])
        ref = full.compressed_path_tree([0, 3, 4])
        assert (cpt.vertices, cpt.edges) == (ref.vertices, ref.edges)
        assert cpt.aggregates == []
        assert cpt.path_max(0, 3) == ref.path_max(0, 3) == (5.0, 1)
        assert cpt.connected(0, 3) and not cpt.connected(0, 4)
        with pytest.raises(ValueError, match="augment='full'"):
            cpt.path_aggregate(0, 3)

    def test_unused_columns_not_allocated(self, forest):
        assert not hasattr(forest.rc, "_nps")
        assert not hasattr(forest.rc, "_ndw")
        forest.rc.check_invariants()

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="augment must be one of"):
            DynamicForest(3, augment="sums")

    def test_msf_layers_build_msf(self):
        from repro.core import BatchIncrementalMSF, SequentialIncrementalMSF

        assert BatchIncrementalMSF(4).forest.rc.augment == "msf"
        assert SequentialIncrementalMSF(4).forest.augment == "msf"
        assert DynamicForest(4).augment == "full"

    def test_checkpoint_from_before_profiles_loads_as_full(self):
        import pickle

        from repro.trees.rcarray import RCArrayForest

        f = DynamicForest(4, seed=2)
        f.batch_link([(0, 1, 1.0, 0), (1, 2, 2.0, 1)])
        state = dict(f.rc.__dict__)
        del state["augment"], state["_full"]
        old = RCArrayForest.__new__(RCArrayForest)
        old.__setstate__(state)
        f.rc = pickle.loads(pickle.dumps(old))
        assert f.augment == "full"
        f.batch_link([(2, 3, 4.0, 2)])
        assert f.path_sum(0, 3) == pytest.approx(7.0)
