"""Sharded serving tier: routing, contraction, and the differential contract.

The acceptance test of :mod:`repro.sharding` is byte-identity: a batch
answered by :class:`~repro.sharding.sharded.ShardedService` -- composed
from K shard-local structures through the contracted boundary graph --
must serialize to exactly the bytes the unsharded
:class:`~repro.service.query.QueryService` produces for the same stream
under the same token, on both partitioning schemes, both window
structures, and across a mid-stream shard failover.  The unit
tests around it pin the pieces that make the composition sound: stable
edge ownership, exact ``partition_skew`` conditioning in the loadgen
sampler, global-tau replay in the member adapter, and version-cached
contraction in the coordinator.
"""

from __future__ import annotations

import json
import pathlib
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import Gateway, GatewayConfig
from repro.gateway.protocol import (
    BadRequest,
    dumps,
    jsonable,
    parse_consistency,
)
from repro.loadgen import PartitionSampler, _Zipfish
from repro.replication import ReplicatedService
from repro.service import ServiceConfig
from repro.service.query import QueryService, UnsupportedQuery
from repro.sharding import (
    SCHEMES,
    BoundaryCoordinator,
    ShardMember,
    ShardRouter,
    ShardedService,
    make_member_factory,
)
from repro.sliding_window.connectivity import (
    SWConnectivity,
    SWConnectivityEager,
)

N = 32
SEED = 13


def svc_config(**kw) -> ServiceConfig:
    return ServiceConfig(fsync=False, snapshot_every=0, **kw)


def canon(value) -> bytes:
    """The canonical wire bytes of a value -- the byte-identity yardstick."""
    return dumps(jsonable(value))


# -- router units -------------------------------------------------------


class TestShardRouter:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_placement_is_deterministic_and_total(self, scheme, k):
        a = ShardRouter(N, k, scheme=scheme)
        b = ShardRouter(N, k, scheme=scheme)
        for v in range(N):
            assert 0 <= a.shard_of(v) < k
            assert a.shard_of(v) == b.shard_of(v)
        if k == 1:
            assert all(a.shard_of(v) == 0 for v in range(N))
        # Every shard group must own at least one vertex at these sizes,
        # or the partition degenerates.
        assert {a.shard_of(v) for v in range(N)} == set(range(k))

    def test_range_blocks_are_contiguous(self):
        r = ShardRouter(N, 4, scheme="range")
        homes = [r.shard_of(v) for v in range(N)]
        assert homes == sorted(homes)

    def test_hash_seed_decorrelates_placements(self):
        a = ShardRouter(256, 4, scheme="hash", seed=1)
        b = ShardRouter(256, 4, scheme="hash", seed=2)
        assert any(a.shard_of(v) != b.shard_of(v) for v in range(256))

    def test_owner_is_symmetric_and_cut_detection_matches(self):
        r = ShardRouter(N, 3, scheme="hash")
        for u in range(N):
            for v in range(N):
                assert r.owner(u, v) == r.owner(v, u)
                assert r.owner(u, v) == r.shard_of(min(u, v))
                assert r.is_cut(u, v) == (r.shard_of(u) != r.shard_of(v))

    def test_split_partitions_and_preserves_order(self):
        r = ShardRouter(N, 4, scheme="range")
        rng = random.Random(SEED)
        rows = [
            (rng.randrange(N), rng.randrange(N), tau) for tau in range(50)
        ]
        split = r.split(rows)
        merged = sorted(
            (row for part in split.values() for row in part),
            key=lambda row: row[2],
        )
        assert merged == rows
        for shard, part in split.items():
            assert all(r.owner(u, v) == shard for u, v, _ in part)
            taus = [row[2] for row in part]
            assert taus == sorted(taus)  # per-shard tau subsequence

    def test_members_covers_the_vertex_space(self):
        r = ShardRouter(N, 3, scheme="hash")
        seen = [v for k in range(3) for v in r.members(k)]
        assert sorted(seen) == list(range(N))

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardRouter(N, 0)
        with pytest.raises(ValueError, match="nonempty vertex space"):
            ShardRouter(0, 2)
        with pytest.raises(ValueError, match="unknown scheme"):
            ShardRouter(N, 2, scheme="round-robin")
        with pytest.raises(ValueError, match="outside"):
            ShardRouter(N, 2).shard_of(N)


# -- loadgen partition sampler ------------------------------------------


class TestPartitionSampler:
    def test_local_fraction_tracks_partition_skew(self):
        # The knob's contract: P(local) == partition_skew exactly, for
        # both conditioning directions.
        router = ShardRouter(64, 4, scheme="hash")
        for p in (0.25, 0.8):
            sampler = PartitionSampler(
                64, 1.1, router=router, partition_skew=p
            )
            rng = random.Random(SEED)
            draws = 3000
            local = sum(
                1
                for _ in range(draws)
                if not router.is_cut(*sampler.draw_pair(rng))
            )
            assert abs(local / draws - p) < 0.04

    def test_extremes_are_exact(self):
        router = ShardRouter(64, 4, scheme="range")
        rng = random.Random(SEED)
        allin = PartitionSampler(64, 1.1, router=router, partition_skew=1.0)
        assert all(
            not router.is_cut(*allin.draw_pair(rng)) for _ in range(300)
        )
        allout = PartitionSampler(64, 1.1, router=router, partition_skew=0.0)
        assert all(
            router.is_cut(*allout.draw_pair(rng)) for _ in range(300)
        )

    def test_single_shard_is_the_plain_popularity_law(self):
        # K=1 drops the router entirely: identical draws to two
        # unconditioned _Zipfish samples under the same rng stream.
        sampler = PartitionSampler(
            64, 1.1, router=ShardRouter(64, 1), partition_skew=0.5
        )
        base = _Zipfish(64, 1.1)
        a, b = random.Random(SEED), random.Random(SEED)
        for _ in range(100):
            assert sampler.draw_pair(a) == (base.draw(b), base.draw(b))

    def test_partition_skew_is_validated(self):
        with pytest.raises(ValueError, match="partition_skew"):
            PartitionSampler(8, 1.0, partition_skew=1.5)


# -- member adapter ------------------------------------------------------


class TestShardMember:
    def test_global_taus_drive_weights_and_expiry(self):
        m = ShardMember(SWConnectivityEager(8, seed=1))
        # Rows carry non-contiguous global taus -- the shard sees only
        # its subsequence of the global stream.
        m.batch_insert([(0, 1, 0), (1, 2, 3)])
        assert m.is_connected(0, 2)
        m.batch_expire(1)  # global window start -> 1: tau 0 expires
        assert m.window_start == 1
        assert not m.is_connected(0, 1)
        assert m.is_connected(1, 2)

    def test_reapplies_window_start_after_catching_up(self):
        # An expire past the local arrival tip caps there; the next
        # insert advances the tip and must re-cap to the global target.
        m = ShardMember(SWConnectivityEager(8, seed=1))
        m.batch_insert([(0, 1, 0)])
        m.batch_expire(5)  # target 5, local tip is only 1
        m.batch_insert([(2, 3, 6), (3, 4, 7)])
        assert m.window_start == 5
        assert not m.is_connected(0, 1)  # tau 0 expired on the re-cap
        assert m.is_connected(2, 4)

    def test_shard_forest_is_eid_sorted_quadruples(self):
        m = ShardMember(SWConnectivityEager(8, seed=1))
        m.batch_insert([(4, 5, 0), (0, 1, 1), (1, 2, 2)])
        forest = m.shard_forest()
        assert [e[3] for e in forest] == sorted(e[3] for e in forest)
        assert all(len(e) == 4 for e in forest)
        assert {e[3] for e in forest} == {0, 1, 2}


# -- boundary coordinator -----------------------------------------------


def _rows(*edges):
    """``(u, v, tau)`` edges -> forest rows ``(u, v, -tau, tau)``."""
    return [(u, v, float(-tau), tau) for u, v, tau in edges]


class TestBoundaryCoordinator:
    def test_versions_deltas_and_invalidate(self):
        c = BoundaryCoordinator(8, 2)
        assert c.version(0) == -1
        assert c.update(0, _rows((0, 1, 0), (1, 2, 1)), version=3) == 2
        assert c.version(0) == 3
        # Same forest again: zero delta, version still advances.
        assert c.update(0, _rows((0, 1, 0), (1, 2, 1)), version=5) == 0
        assert c.version(0) == 5
        c.invalidate(0)
        assert c.version(0) == -1
        # The cached forest survives invalidation (only trust is lost).
        assert c.connected(0, 2)

    def test_star_union_glues_shards_through_shared_vertices(self):
        c = BoundaryCoordinator(8, 2)
        c.update(0, _rows((0, 1, 0), (2, 3, 1)), version=1)
        c.update(1, _rows((1, 2, 2)), version=1)  # bridges both locals
        assert c.connected(0, 3)
        assert c.connected(0, 0)
        assert not c.connected(0, 5)  # 5 untouched: isolated
        # Components: one glued class {0,1,2,3} + 4 isolated vertices.
        assert c.components() == 5

    def test_path_max_is_the_global_msf_answer(self):
        c = BoundaryCoordinator(8, 2)
        c.update(0, _rows((0, 1, 5), (1, 2, 1)), version=1)
        c.update(1, _rows((2, 3, 4)), version=1)
        # Weights are -tau: the heaviest edge on 0--3 is the oldest tau.
        assert c.path_max(0, 3) == (-1.0, 1)
        assert c.path_max(0, 0) is None
        assert c.path_max(0, 7) is None

    def test_connected_lazy_applies_the_recent_edge_lemma(self):
        c = BoundaryCoordinator(8, 1)
        c.update(0, _rows((0, 1, 2), (1, 2, 7)), version=1)
        assert c.connected_lazy(0, 2, window_start=2)
        # Window start moves past tau 2: the path's oldest edge is
        # logically expired even though the lazy forest still holds it.
        assert not c.connected_lazy(0, 2, window_start=3)
        assert c.connected_lazy(1, 2, window_start=3)
        assert c.connected_lazy(5, 5, window_start=99)


# -- the differential contract ------------------------------------------


def _mixed_batch(sampler, rng, eager):
    batch = [("window_size",)]
    if eager:
        batch.append(("components",))
    for i in range(6):
        kind = "connected" if i % 2 == 0 else "path_max"
        batch.append((kind, *sampler.draw_pair(rng)))
    u = rng.randrange(N)
    batch.append(("connected", u, u))
    batch.append(("path_max", u, u))
    return batch


def _drive_differential(
    tmp_path, *, eager, scheme, k, rounds=30, promote_at=None
):
    """One seeded stream through both tiers, comparing canonical bytes.

    Returns the sharded service (inside the caller's ``with``) so tests
    can poke at topology afterwards.
    """
    cls = SWConnectivityEager if eager else SWConnectivity
    router = ShardRouter(N, k, scheme=scheme)
    oracle = ReplicatedService(
        lambda: cls(N, seed=SEED),
        tmp_path / "oracle",
        svc_config(),
    )
    oq = QueryService(oracle)
    svc = ShardedService(
        make_member_factory(N, seed=SEED, eager=eager),
        tmp_path / "sharded",
        router,
        svc_config(),
        followers=2 if promote_at is not None else 0,
    )
    sampler = PartitionSampler(N, 1.1, router=router, partition_skew=0.7)
    rng = random.Random(SEED)
    try:
        for step in range(rounds):
            edges = [sampler.draw_pair(rng) for _ in range(4)]
            expire = rng.choice((0, 0, 1, 3))
            token = oracle.write(edges, expire)
            vector = svc.write(edges, expire=expire)
            if promote_at is not None and step == promote_at[0]:
                svc.poll()
                zombie = svc.promote(promote_at[1])
                zombie.close()
                assert svc.epochs[promote_at[1]] == 1
            if step % 3 == 2 or step == rounds - 1:
                batch = _mixed_batch(sampler, rng, eager)
                want = oq.run(batch, at_least=token)
                got = svc.query(batch, at_least=vector)
                assert canon(got.answers) == canon(want.answers), (
                    f"step {step}: {got.answers} != {want.answers}"
                )
    finally:
        oracle.close()
        svc.close()


@pytest.mark.parametrize(
    ("eager", "scheme", "k"),
    [
        (True, "hash", 2),
        (True, "range", 4),
        (False, "range", 3),
        (False, "hash", 2),
        (True, "hash", 1),  # K=1 facade == the unsharded tier
    ],
    ids=["eager-hash-k2", "eager-range-k4", "lazy-range-k3",
         "lazy-hash-k2", "eager-k1"],
)
def test_sharded_answers_match_the_unsharded_oracle(tmp_path, eager, scheme, k):
    _drive_differential(tmp_path, eager=eager, scheme=scheme, k=k)


def test_failover_mid_stream_keeps_the_differential(tmp_path):
    # Kill/promote shard 1's primary mid-stream; answers must stay
    # byte-identical and the shard's epoch must fence forward.
    _drive_differential(
        tmp_path,
        eager=True,
        scheme="hash",
        k=3,
        promote_at=(12, 1),
    )


@settings(deadline=None, max_examples=12)
@given(
    step=st.integers(3, 18),
    shard=st.integers(0, 1),
    catch_up=st.booleans(),
)
def test_failover_schedule_differential(step, shard, catch_up):
    # Hypothesis moves the failover point, the victim shard, and the
    # promotion mode; the post-promotion tier must still answer exactly
    # like a fresh oracle replaying the *surviving* log.  With
    # catch_up=True nothing is lost and the original oracle stays valid.
    rounds = 22
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        router = ShardRouter(N, 2, scheme="hash")
        svc = ShardedService(
            make_member_factory(N, seed=SEED),
            tmp_path / "sharded",
            router,
            svc_config(),
            followers=1,
        )
        oracle = ReplicatedService(
            lambda: SWConnectivityEager(N, seed=SEED),
            tmp_path / "oracle",
            svc_config(),
        )
        oq = QueryService(oracle)
        sampler = PartitionSampler(N, 1.1, router=router, partition_skew=0.7)
        rng = random.Random(SEED)
        try:
            vector = token = None
            for i in range(rounds):
                edges = [sampler.draw_pair(rng) for _ in range(3)]
                expire = 1 if i % 4 == 3 else 0
                token = oracle.write(edges, expire)
                vector = svc.write(edges, expire=expire)
                if i == step:
                    svc.poll()  # catch the follower up: nothing to lose
                    zombie = svc.promote(shard, catch_up=catch_up)
                    zombie.close()
                    assert svc.epochs[shard] == 1
            batch = _mixed_batch(sampler, rng, eager=True)
            want = oq.run(batch, at_least=token)
            got = svc.query(batch, at_least=vector)
            assert canon(got.answers) == canon(want.answers)
        finally:
            oracle.close()
            svc.close()


# -- facade semantics ----------------------------------------------------


class TestShardedServiceFacade:
    def make(self, tmp_path, k=2, **kw):
        router = ShardRouter(N, k, scheme="hash")
        return ShardedService(
            make_member_factory(N, seed=SEED, **{
                key: kw.pop(key) for key in ("eager",) if key in kw
            }),
            tmp_path,
            router,
            svc_config(),
            **kw,
        )

    def test_write_returns_a_full_vector_token(self, tmp_path):
        with self.make(tmp_path, k=3) as svc:
            vec = svc.write([(0, 1)])
            assert len(vec) == 3
            # Untouched shards report their committed tip (-1 + 0 rounds)
            owner = svc.router.owner(0, 1)
            assert vec[owner] == 0
            assert all(v == -1 for k, v in enumerate(vec) if k != owner)

    def test_vector_length_is_validated(self, tmp_path):
        with self.make(tmp_path, k=2) as svc:
            svc.write([(0, 1)])
            with pytest.raises(ValueError, match="2 shards"):
                svc.query([("window_size",)], at_least=[0])

    def test_unsupported_kinds_raise(self, tmp_path):
        with self.make(tmp_path, k=2) as svc:
            svc.write([(0, 1)])
            with pytest.raises(UnsupportedQuery, match="sharded reads"):
                svc.query([("msf_weight",)])

    def test_lazy_tier_refuses_components(self, tmp_path):
        with self.make(tmp_path, k=2, eager=False) as svc:
            svc.write([(0, 1)])
            with pytest.raises(UnsupportedQuery, match="components"):
                svc.query([("components",)])

    def test_parallel_fanout_commits_the_same_vector(self, tmp_path):
        router = ShardRouter(N, 2, scheme="range")
        edges = [(0, 1), (N - 2, N - 1), (1, N - 1)]
        with ShardedService(
            make_member_factory(N, seed=SEED),
            tmp_path / "par",
            router,
            svc_config(),
            parallel=True,
        ) as par, ShardedService(
            make_member_factory(N, seed=SEED),
            tmp_path / "seq",
            router,
            svc_config(),
        ) as seq:
            assert par.write(edges) == seq.write(edges)
            batch = [("connected", 0, N - 1), ("path_max", 1, N - 2)]
            assert canon(par.query(batch).answers) == canon(
                seq.query(batch).answers
            )

    def test_describe_reports_the_fleet(self, tmp_path):
        with self.make(tmp_path, k=2, followers=1) as svc:
            svc.write([(0, 1), (2, 3)], expire=1)
            d = svc.describe()
            assert d["router"]["shards"] == 2
            assert d["clock"] == {"t": 2, "tw": 1}
            assert len(d["groups"]) == 2
            assert all(len(g["followers"]) == 1 for g in d["groups"])
            json.dumps(d)  # health endpoint payload must be JSON-ready

    def test_promote_requires_a_live_follower(self, tmp_path):
        with self.make(tmp_path, k=2, followers=0) as svc:
            with pytest.raises(ValueError, match="no live follower"):
                svc.promote(0)


# -- gateway integration -------------------------------------------------


class _Client:
    def __init__(self, gw: Gateway) -> None:
        import http.client

        host, port = gw.address
        self.conn = http.client.HTTPConnection(host, port, timeout=10)

    def request(self, method, path, body=None):
        headers = {"Content-Type": "application/json"} if body else {}
        self.conn.request(method, path, body=body, headers=headers)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def post(self, path, payload):
        status, raw = self.request("POST", path, json.dumps(payload).encode())
        return status, raw

    def close(self):
        self.conn.close()


@pytest.fixture
def sharded_gateway(tmp_path):
    router = ShardRouter(N, 2, scheme="hash")
    with ShardedService(
        make_member_factory(N, seed=SEED),
        tmp_path / "sharded",
        router,
        svc_config(),
    ) as svc:
        gw = Gateway(svc, GatewayConfig(port=0)).start()
        try:
            yield gw, svc
        finally:
            gw.close()


class TestShardedGateway:
    def test_write_read_differential_through_http(
        self, sharded_gateway, tmp_path
    ):
        gw, svc = sharded_gateway
        oracle = ReplicatedService(
            lambda: SWConnectivityEager(N, seed=SEED),
            tmp_path / "oracle",
            svc_config(),
        )
        oq = QueryService(oracle)
        client = _Client(gw)
        rng = random.Random(SEED)
        try:
            vector = token = None
            for i in range(10):
                edges = [
                    [rng.randrange(N), rng.randrange(N)] for _ in range(3)
                ]
                expire = 1 if i % 3 == 2 else 0
                status, raw = client.post(
                    "/v1/write", {"edges": edges, "expire": expire}
                )
                assert status == 200
                body = json.loads(raw)
                vector = body["lsn"]
                assert body["epoch"] == [0, 0]
                token = oracle.write(
                    [tuple(e) for e in edges], expire
                )
            assert len(vector) == 2
            queries = [
                ["connected", 0, 5],
                ["path_max", 1, 9],
                ["components"],
                ["window_size"],
            ]
            status, raw = client.post(
                "/v1/read", {"queries": queries, "at_least": vector}
            )
            assert status == 200
            prefix = b'{"answers":'
            assert raw.startswith(prefix)
            got = raw[len(prefix): raw.index(b',"lsn":')]
            want = oq.run(
                [tuple(q) for q in queries], at_least=token
            ).answers
            assert got == canon(want)
            body = json.loads(raw)
            assert body["replica"] == "sharded"
            assert len(body["lsn"]) == 2
        finally:
            client.close()
            oracle.close()

    def test_health_reports_the_sharded_fleet(self, sharded_gateway):
        gw, _ = sharded_gateway
        client = _Client(gw)
        try:
            status, raw = client.request("GET", "/v1/health")
            assert status == 200
            body = json.loads(raw)
            assert body["sharded"] is True
            assert body["status"] == "ok"
            assert body["router"]["shards"] == 2
            assert len(body["shards"]) == 2
        finally:
            client.close()

    def test_scalar_token_is_rejected_against_sharded_backend(
        self, sharded_gateway
    ):
        gw, _ = sharded_gateway
        client = _Client(gw)
        try:
            status, raw = client.post(
                "/v1/read",
                {"queries": [["window_size"]], "at_least": 3},
            )
            assert status == 400
            assert "per-shard" in json.loads(raw)["error"]["message"]
        finally:
            client.close()


class TestVectorConsistencyParsing:
    def test_vector_tokens_parse_against_sharded_backends(self):
        assert parse_consistency(
            {"at_least": [0, -1, 7]}, shards=3
        ) == ([0, -1, 7], None)
        assert parse_consistency({}, shards=3) == (None, None)

    @pytest.mark.parametrize(
        "bad", [3, [0], [0, 1, 2, 3], [0, "x", 1], [0, -2, 1]]
    )
    def test_malformed_vectors_are_bad_requests(self, bad):
        with pytest.raises(BadRequest):
            parse_consistency({"at_least": bad}, shards=3)

    def test_unsharded_path_is_unchanged(self):
        assert parse_consistency({"at_least": 4}) == (4, None)
        with pytest.raises(BadRequest):
            parse_consistency({"at_least": [1, 2]})


# -- multi-directory WAL report (satellite) ------------------------------


class TestMultiDirWalReport:
    def _sharded_dirs(self, tmp_path):
        router = ShardRouter(N, 2, scheme="range")
        with ShardedService(
            make_member_factory(N, seed=SEED),
            tmp_path,
            router,
            svc_config(),
        ) as svc:
            for i in range(4):
                svc.write([(i, i + 1), (N - 2 - i, N - 1 - i)])
        return [tmp_path / "shard0", tmp_path / "shard1"]

    def test_per_shard_lines_plus_combined_summary(self, tmp_path, capsys):
        from repro.report import main

        dirs = self._sharded_dirs(tmp_path)
        assert main(["--wal", str(dirs[0]), str(dirs[1])]) == 0
        out = capsys.readouterr().out
        assert out.count("segment(s)") == 3  # two shards + combined
        assert "combined: 2/2 dirs" in out
        assert "8 rounds" in out  # 4 rounds x 2 shards

    def test_single_dir_keeps_the_original_format(self, tmp_path, capsys):
        from repro.report import main

        dirs = self._sharded_dirs(tmp_path)
        assert main(["--wal", str(dirs[0])]) == 0
        out = capsys.readouterr().out
        assert "combined" not in out

    def test_one_bad_dir_fails_but_reports_the_rest(self, tmp_path, capsys):
        from repro.report import main

        dirs = self._sharded_dirs(tmp_path)
        assert main(["--wal", str(dirs[0]), str(tmp_path / "nope")]) == 1
        captured = capsys.readouterr()
        assert "lsn [0, 4)" in captured.out
        assert "combined: 1/2 dirs" in captured.out
        assert "no WAL" in captured.err
