"""Replication subsystem: segmented WAL, followers, failover, batch reads.

The split-brain section is the acceptance test of the epoch fencing
design: a promoted follower takes over the log under epoch ``e+1`` while
the deposed primary (a *zombie* that never learned it lost) keeps
appending under ``e`` -- every reader must side with the new epoch, and
the zombie's post-promotion rounds (and checkpoints) must be rejected on
replay, tailing, and recovery alike.
"""

from __future__ import annotations

import random

import pytest

from repro.graphgen.streams import bursty_stream
from repro.replication import Follower, FollowerDead, ReplicatedService
from repro.service import (
    SegmentedWal,
    ServiceConfig,
    SnapshotStore,
    StreamService,
    WalCorruption,
    WalCursor,
    WalTruncated,
    WriteAheadLog,
    read_wal_dir,
    wal_summary,
)
from repro.service.query import (
    QueryService,
    StalenessExceeded,
    UnsupportedQuery,
)
from repro.sliding_window import SWConnectivityEager

N = 24
SEED = 13
OPS = [("i", ((0, 1),))]  # one minimal insert round for WAL-level tests


def make_sw():
    return SWConnectivityEager(N, seed=SEED)


def fingerprint(sw):
    return (
        sw.num_components,
        sorted(sw.forest_edges()),
        sw._msf.forest.rc.snapshot(),
    )


def stream_rounds(rounds=8, seed=SEED):
    rng = random.Random(seed)
    return bursty_stream(
        N, rounds=rounds, base_batch=4, burst_batch=10, window=20, rng=rng
    )


def svc_config(**kw):
    kw.setdefault("flush_edges", 10**9)
    kw.setdefault("snapshot_every", 3)
    kw.setdefault("retain_snapshots", 2)
    return ServiceConfig(**kw)


# ----------------------------------------------------------------------
# Segmented WAL
# ----------------------------------------------------------------------


class TestSegmentedWal:
    def test_append_rotate_reopen(self, tmp_path):
        wal = SegmentedWal(tmp_path)
        for _ in range(3):
            wal.append(OPS)
        wal.rotate()
        for _ in range(2):
            wal.append(OPS)
        assert wal.next_lsn == 5
        assert len(wal.segments()) == 2
        wal.close()
        # Reopening resumes in the tail segment.
        wal2 = SegmentedWal(tmp_path)
        assert wal2.next_lsn == 5
        assert wal2.append(OPS) == 5
        records, base = read_wal_dir(tmp_path)
        assert base == 0
        assert [r.lsn for r in records] == list(range(6))
        wal2.close()

    def test_truncate_drops_only_dead_segments(self, tmp_path):
        wal = SegmentedWal(tmp_path)
        for _ in range(3):
            wal.append(OPS)
        wal.rotate()  # segment [0,3) sealed
        for _ in range(2):
            wal.append(OPS)
        assert wal.truncate_before(2) == 0  # segment still contributes lsn 2
        assert wal.truncate_before(3) == 1
        assert wal.base_lsn == 3
        records, base = read_wal_dir(tmp_path)
        assert base == 3 and [r.lsn for r in records] == [3, 4]
        # The active tail is never deleted, however far truncation asks.
        assert wal.truncate_before(10**9) == 0
        wal.close()

    def test_reset_to_fences_old_chain(self, tmp_path):
        wal = SegmentedWal(tmp_path)
        for _ in range(5):
            wal.append(OPS)
        wal.reset_to(3, epoch=1)
        assert wal.next_lsn == 3 and wal.epoch == 1
        wal.append(OPS)
        records, _ = read_wal_dir(tmp_path)
        # Rounds 3 and 4 of epoch 0 lost to the epoch-1 chain.
        assert [(r.lsn, r.epoch) for r in records] == [
            (0, 0), (1, 0), (2, 0), (3, 1),
        ]
        with pytest.raises(ValueError, match="strictly newer epoch"):
            wal.reset_to(2, epoch=1)
        wal.close()

    def test_equal_epoch_overlap_is_corruption(self, tmp_path):
        wal = SegmentedWal(tmp_path)
        for _ in range(3):
            wal.append(OPS)
        wal.close()
        # A second writer claiming lsn 1 under the same epoch: fencing
        # failed, and no automatic repair is safe.
        rogue = WriteAheadLog(
            tmp_path / "wal-000000000001-000000.jsonl", start=1
        )
        rogue.append(OPS)
        rogue.close()
        with pytest.raises(WalCorruption, match="two writers"):
            read_wal_dir(tmp_path)

    def test_wal_summary(self, tmp_path):
        wal = SegmentedWal(tmp_path)
        for _ in range(4):
            wal.append(OPS)
        wal.rotate()
        wal.append(OPS)
        s = wal_summary(tmp_path)
        assert s["segments"] == 2
        assert (s["base_lsn"], s["next_lsn"], s["rounds"]) == (0, 5, 5)
        assert s["bytes"] > 0 and s["epoch"] == 0
        wal.close()

    def test_report_wal_cli(self, tmp_path, capsys):
        from repro.report import main

        svc = StreamService(
            make_sw(), data_dir=tmp_path / "svc", config=svc_config()
        )
        svc.submit_insert([(0, 1), (1, 2)])
        svc.flush()
        svc.close()
        assert main(["--wal", str(tmp_path / "svc")]) == 0
        out = capsys.readouterr().out
        assert "segment" in out and "lsn [0, 1)" in out
        assert main(["--wal", str(tmp_path / "empty")]) == 1

    def test_report_wal_cli_corrupt_segment(self, tmp_path, capsys):
        # Inspection must diagnose a damaged log with a clean exit code,
        # never a traceback.
        from repro.report import main
        from repro.service.service import WAL_DIRNAME

        svc = StreamService(
            make_sw(), data_dir=tmp_path, config=svc_config(snapshot_every=0)
        )
        for _ in range(3):
            svc.submit_insert([(0, 1)])
            svc.flush()
        svc.close()
        seg = next((tmp_path / WAL_DIRNAME).glob("wal-*.jsonl"))
        lines = seg.read_bytes().splitlines(keepends=True)
        # Damage a record *before* the tail: unambiguous corruption, not
        # a torn tail the reader would repair silently.
        lines[1] = b'{"garbage": true}\n'
        seg.write_bytes(b"".join(lines))
        assert main(["--wal", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "corrupt WAL" in err

    def test_report_wal_cli_empty_wal_dir(self, tmp_path, capsys):
        # A data dir whose wal/ exists but holds no segments yet (crashed
        # before the first append) renders as zero rounds, exit 0.
        from repro.report import main
        from repro.service.service import WAL_DIRNAME

        (tmp_path / WAL_DIRNAME).mkdir(parents=True)
        assert main(["--wal", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 segment(s)" in out and "lsn [0, 0)" in out

    def test_report_wal_cli_mixed_epoch_leftovers(self, tmp_path, capsys):
        # After a failover the directory holds the zombie's segments next
        # to the new epoch's chain; the summary must side with the
        # winning (highest-epoch) chain, exactly like recovery.
        from repro.report import main

        svc = ReplicatedService(
            make_sw, tmp_path, svc_config(snapshot_every=0), followers=1
        )
        for rnd in stream_rounds(4):
            svc.write(rnd.edges, rnd.expire)
        svc.poll()
        zombie = svc.promote(svc.followers[0])
        zombie.submit_insert([(2, 3)])
        zombie.flush()  # stale-epoch append, rejected by every reader
        svc.write([(4, 5)])
        new_epoch = svc.epoch
        svc.close()
        assert main(["--wal", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"epoch {new_epoch}" in out


class TestWalCursor:
    def test_tails_across_rotation(self, tmp_path):
        wal = SegmentedWal(tmp_path)
        cur = WalCursor(tmp_path)
        wal.append(OPS)
        assert [r.lsn for r in cur.poll()] == [0]
        assert cur.poll() == []
        wal.append(OPS)
        wal.rotate()
        wal.append(OPS)
        assert [r.lsn for r in cur.poll()] == [1, 2]
        wal.close()

    def test_max_records_is_incremental(self, tmp_path):
        wal = SegmentedWal(tmp_path)
        for _ in range(5):
            wal.append(OPS)
        cur = WalCursor(tmp_path)
        assert [r.lsn for r in cur.poll(max_records=2)] == [0, 1]
        assert [r.lsn for r in cur.poll(max_records=2)] == [2, 3]
        assert [r.lsn for r in cur.poll()] == [4]
        wal.close()

    def test_truncated_position_raises(self, tmp_path):
        wal = SegmentedWal(tmp_path)
        for _ in range(3):
            wal.append(OPS)
        wal.rotate()
        wal.append(OPS)
        wal.truncate_before(3)
        cur = WalCursor(tmp_path, next_lsn=1)
        with pytest.raises(WalTruncated):
            cur.poll()
        wal.close()

    def test_fenced_cursor_rejects_zombie_records(self, tmp_path):
        wal = SegmentedWal(tmp_path)
        for _ in range(4):
            wal.append(OPS)
        cur = WalCursor(tmp_path)
        assert len(cur.poll(max_records=2)) == 2
        # Promotion at lsn 3: a new epoch-1 segment takes over, while the
        # zombie writer appends round 3 (and more) under epoch 0.
        new = SegmentedWal(tmp_path)
        new.reset_to(3, epoch=1)
        wal.append(OPS)  # zombie's round 3 (stale epoch)
        cur.fence(3, 1)
        got = cur.poll()
        # Round 2 still replays; zombie's round 3 is rejected, the
        # epoch-1 round 3 is accepted instead once it lands.
        assert [(r.lsn, r.epoch) for r in got] == [(2, 0)]
        new.append(OPS)
        got = cur.poll()
        assert [(r.lsn, r.epoch) for r in got] == [(3, 1)]
        assert cur.fenced_rejections >= 1
        wal.close()
        new.close()


# ----------------------------------------------------------------------
# WAL growth bound + legacy layout
# ----------------------------------------------------------------------


class TestWalGrowth:
    def test_rotation_and_truncation_bound_the_log(self, tmp_path):
        cfg = svc_config(snapshot_every=2, retain_snapshots=2)
        svc = StreamService(make_sw(), data_dir=tmp_path, config=cfg)
        for b in stream_rounds(rounds=12):
            svc.submit(b)
            svc.flush()
        svc.close()
        s = wal_summary(tmp_path / "wal")
        assert s["next_lsn"] == 12
        # Oldest retained snapshot is at lsn 9 (cadence 2, retain 2), so
        # only rounds > 9 plus the fresh tail segment survive.
        assert s["base_lsn"] > 0
        assert s["rounds"] <= cfg.snapshot_every * cfg.retain_snapshots
        # And recovery from the bounded log still works, byte-identically.
        svc2 = StreamService.open(tmp_path, make_sw, config=cfg)
        direct = make_sw()
        for b in stream_rounds(rounds=12):
            direct.batch_insert(list(b.edges))
            if b.expire:
                direct.batch_expire(b.expire)
        assert fingerprint(svc2.structure) == fingerprint(direct)
        svc2.close()


# ----------------------------------------------------------------------
# Followers
# ----------------------------------------------------------------------


class TestFollower:
    def _primary(self, tmp_path, rounds=8, **cfg):
        svc = StreamService(
            make_sw(), data_dir=tmp_path, config=svc_config(**cfg)
        )
        for b in stream_rounds(rounds=rounds):
            svc.submit(b)
            svc.flush()
        return svc

    def test_bootstrap_plus_tail_matches_primary(self, tmp_path):
        svc = self._primary(tmp_path)
        f = Follower(0, tmp_path, make_sw)
        # snapshot_every=3 over 8 rounds: bootstrap starts past lsn 0.
        assert f.replayed_lsn > 0
        f.catch_up()
        assert f.replayed_lsn == svc.next_lsn
        assert fingerprint(f.structure) == fingerprint(svc.structure)
        svc.close()

    def test_kill_then_restart_retails(self, tmp_path):
        svc = self._primary(tmp_path)
        f = Follower(0, tmp_path, make_sw)
        f.catch_up(max_records=2)
        f.kill()
        with pytest.raises(FollowerDead):
            f.query(lambda s: s.num_components)
        with pytest.raises(FollowerDead):
            f.catch_up()
        f.restart()
        f.catch_up()
        assert fingerprint(f.structure) == fingerprint(svc.structure)
        svc.close()

    def test_rebootstraps_after_truncation(self, tmp_path):
        # The primary truncates aggressively; a follower that never
        # replayed anything must fall back to snapshot bootstrap.
        svc = self._primary(
            tmp_path, rounds=10, snapshot_every=2, retain_snapshots=1
        )
        f = Follower(0, tmp_path, make_sw)
        f.catch_up()
        assert fingerprint(f.structure) == fingerprint(svc.structure)
        svc.close()


# ----------------------------------------------------------------------
# ReplicatedService: writes, lag, promotion, split brain
# ----------------------------------------------------------------------


class TestReplicatedService:
    def test_write_tokens_and_lag(self, tmp_path):
        with ReplicatedService(
            make_sw, tmp_path, svc_config(), followers=2
        ) as rs:
            tokens = [
                rs.write([(i, i + 1)]) for i in range(5)
            ]
            assert tokens == list(range(5))
            assert set(rs.lag().values()) == {5}
            rs.poll()
            assert set(rs.lag().values()) == {0}
            assert rs.write() == 4  # empty write: newest committed token

    def test_background_replication_converges(self, tmp_path):
        import time

        with ReplicatedService(
            make_sw, tmp_path, svc_config(), followers=2
        ) as rs:
            rs.start_replication(interval=0.001)
            for b in stream_rounds(rounds=6):
                rs.write(b.edges, expire=b.expire)
            deadline = time.monotonic() + 5.0
            while any(rs.lag().values()) and time.monotonic() < deadline:
                time.sleep(0.002)
            assert set(rs.lag().values()) == {0}
            want = rs.primary.query(fingerprint)
            for f in rs.followers:
                assert f.query(fingerprint) == want

    def test_promote_caught_up_follower(self, tmp_path):
        with ReplicatedService(
            make_sw, tmp_path, svc_config(), followers=2
        ) as rs:
            for b in stream_rounds(rounds=6):
                rs.write(b.edges, expire=b.expire)
            want = rs.primary.query(fingerprint)
            tip = rs.primary.next_lsn
            old = rs.promote(rs.followers[0])
            assert rs.epoch == 1
            assert rs.primary.next_lsn == tip  # catch_up lost nothing
            assert rs.primary.query(fingerprint) == want
            old.close()

    def test_promote_requires_most_caught_up(self, tmp_path):
        # snapshot_every=0: no truncation, so partial catch-up really
        # leaves the follower lagged (truncation would force a bootstrap
        # jump past the retained base).
        with ReplicatedService(
            make_sw, tmp_path, svc_config(snapshot_every=0), followers=2
        ) as rs:
            for b in stream_rounds(rounds=6):
                rs.write(b.edges, expire=b.expire)
            a, b_ = rs.followers
            a.catch_up(max_records=2)
            b_.catch_up()
            with pytest.raises(ValueError, match="behind"):
                rs.promote(a, catch_up=False)

    def test_promotion_without_catch_up_discards_tail(self, tmp_path):
        with ReplicatedService(
            make_sw, tmp_path, svc_config(snapshot_every=0), followers=1
        ) as rs:
            for b in stream_rounds(rounds=6):
                rs.write(b.edges, expire=b.expire)
            f = rs.followers[0]
            f.catch_up(max_records=4)  # rounds 4 and 5 never replicated
            old = rs.promote(f, catch_up=False)
            assert rs.primary.next_lsn == 4
            # The discarded rounds are gone from the durable timeline.
            records, _ = read_wal_dir(tmp_path / "wal")
            assert max(r.lsn for r in records) == 3
            old.close()

    def test_split_brain_zombie_is_fenced(self, tmp_path):
        rs = ReplicatedService(
            make_sw, tmp_path, svc_config(snapshot_every=0), followers=2
        )
        for b in stream_rounds(rounds=6):
            rs.write(b.edges, expire=b.expire)
        lagged = rs.followers[1]
        lagged.catch_up(max_records=3)  # mid-segment when the fence lands
        rs.followers[0].catch_up()
        zombie = rs.promote(rs.followers[0])

        # Split brain: both "primaries" accept writes for a while.
        zombie.submit_insert([(0, 1), (1, 2), (2, 3)])
        zombie.flush()
        new_token = rs.write([(4, 5)])
        assert new_token == 6

        # The lagged follower replays the shared prefix, *rejects* the
        # zombie's round 6, and lands on the new primary's timeline.
        rs.poll()
        assert lagged.cursor.fenced_rejections >= 1
        assert lagged.replayed_lsn == 7
        assert lagged.query(fingerprint) == rs.primary.query(fingerprint)

        # Recovery from the shared directory also sides with the winner
        # -- even though the zombie wrote *more* rounds.
        want = rs.primary.query(fingerprint)
        rs.close()
        zombie.close()
        svc = StreamService.open(tmp_path, make_sw, config=svc_config())
        assert svc.epoch == 1
        assert fingerprint(svc.structure) == want
        svc.close()

    def test_zombie_checkpoints_are_rejected_on_recovery(self, tmp_path):
        # A zombie that keeps running long enough will checkpoint fenced
        # state; recovery must skip those checkpoints.
        cfg = svc_config(snapshot_every=2)
        rs = ReplicatedService(make_sw, tmp_path, cfg, followers=1)
        for b in stream_rounds(rounds=4):
            rs.write(b.edges, expire=b.expire)
        zombie = rs.promote(rs.followers[0])
        for i in range(4):  # crosses the zombie's snapshot cadence
            zombie.submit_insert([(i, i + 1)])
            zombie.flush()
        assert any(
            lsn >= 4
            for lsn in SnapshotStore(tmp_path / "snapshots").lsns()
        )
        want = rs.primary.query(fingerprint)
        rs.close()
        zombie.close()
        svc = StreamService.open(tmp_path, make_sw, config=cfg)
        assert fingerprint(svc.structure) == want
        svc.close()


# ----------------------------------------------------------------------
# QueryService
# ----------------------------------------------------------------------


class TestQueryService:
    def _rs(self, tmp_path, followers=2):
        return ReplicatedService(
            make_sw, tmp_path, svc_config(), followers=followers
        )

    def test_read_your_writes_catch_up(self, tmp_path):
        with self._rs(tmp_path) as rs:
            qs = QueryService(rs)
            token = rs.write([(0, 1), (1, 2)])
            res = qs.run(
                [("connected", 0, 2), ("components",), ("window_size",)],
                at_least=token,
            )
            assert res.replica.startswith("follower")
            assert res.lsn > token
            assert res.answers[0] is True
            assert res.answers == rs.primary.query(
                lambda s: [s.is_connected(0, 2), s.num_components, s.window_size]
            )

    def test_batched_pair_queries_match_singles(self, tmp_path):
        with self._rs(tmp_path) as rs:
            for b in stream_rounds(rounds=6):
                rs.write(b.edges, expire=b.expire)
            token = rs.write()
            pairs = [(u, v) for u in range(0, N, 3) for v in range(1, N, 5)]
            qs = QueryService(rs)
            res = qs.run(
                [("connected", u, v) for u, v in pairs]
                + [("path_max", u, v) for u, v in pairs],
                at_least=token,
            )
            direct = rs.primary.query(
                lambda s: [s.is_connected(u, v) for u, v in pairs]
                + [None if u == v else s.heaviest_edge(u, v) for u, v in pairs]
            )
            assert res.answers == direct

    def test_zero_followers_redirects_to_primary(self, tmp_path):
        with self._rs(tmp_path, followers=0) as rs:
            token = rs.write([(0, 1)])
            res = QueryService(rs).run([("connected", 0, 1)], at_least=token)
            assert res.replica == "primary"
            assert res.answers == [True]

    def test_wait_policy_blocks_until_replayed(self, tmp_path):
        with self._rs(tmp_path) as rs:
            rs.start_replication(interval=0.001)
            qs = QueryService(rs, on_lag="wait", wait_timeout=5.0)
            token = rs.write([(2, 3)])
            res = qs.run([("connected", 2, 3)], at_least=token)
            assert res.answers == [True]
            assert res.lsn > token

    def test_wait_policy_times_out(self, tmp_path):
        with self._rs(tmp_path) as rs:
            token = rs.write([(0, 1)])  # nobody replicates it
            qs = QueryService(rs, on_lag="wait", wait_timeout=0.05)
            with pytest.raises(StalenessExceeded):
                qs.run([("connected", 0, 1)], at_least=token)

    def test_max_staleness_escape_hatch(self, tmp_path):
        with self._rs(tmp_path) as rs:
            rs.write([(0, 1)])
            rs.poll()
            for i in range(3):
                rs.write([(i + 1, i + 2)])  # followers now lag by 3
            res = QueryService(rs).run([("window_size",)], max_staleness=3)
            assert res.replica.startswith("follower")
            with pytest.raises(StalenessExceeded):
                QueryService(rs, on_lag="wait", wait_timeout=0.05).run(
                    [("window_size",)], max_staleness=1
                )

    def test_unsupported_query_raises(self, tmp_path):
        with self._rs(tmp_path) as rs:
            token = rs.write([(0, 1)])
            qs = QueryService(rs)
            with pytest.raises(UnsupportedQuery):
                qs.run([("weight",)], at_least=token)  # no .weight here
            with pytest.raises(UnsupportedQuery):
                qs.run([("no-such-kind",)], at_least=token)

    def test_dead_followers_fall_back_to_primary(self, tmp_path):
        with self._rs(tmp_path) as rs:
            token = rs.write([(0, 1)])
            rs.poll()
            for f in rs.followers:
                f.kill()
            res = QueryService(rs).run([("connected", 0, 1)], at_least=token)
            assert res.replica == "primary"
            assert res.answers == [True]


# ----------------------------------------------------------------------
# Kill matrix: a follower killed at every replay offset re-tails to
# byte-identical state.
# ----------------------------------------------------------------------

KM_ROUNDS = 6


@pytest.mark.slow
class TestFollowerKillMatrix:
    def test_kill_at_every_replay_offset(self, tmp_path):
        factory = make_sw
        svc = StreamService(
            factory(),
            data_dir=tmp_path,
            config=svc_config(snapshot_every=2),
        )
        for b in stream_rounds(rounds=KM_ROUNDS):
            svc.submit(b)
            svc.flush()
        want = fingerprint(svc.structure)

        uninterrupted = Follower(99, tmp_path, factory)
        uninterrupted.catch_up()
        assert fingerprint(uninterrupted.structure) == want

        for offset in range(KM_ROUNDS + 1):
            f = Follower(offset, tmp_path, factory)
            start = f.replayed_lsn  # snapshot bootstrap may skip ahead
            if offset > start:
                f.catch_up(max_records=offset - start)
            f.kill()
            f.restart()
            f.catch_up()
            assert f.replayed_lsn == KM_ROUNDS, offset
            assert fingerprint(f.structure) == want, offset
        svc.close()


# ----------------------------------------------------------------------
# Reply LSNs name the state that was read
# ----------------------------------------------------------------------


def _run_after_first_call(monkeypatch, cls, name, after):
    """Patch ``cls.name`` so its first call runs ``after()`` right after
    the original returns -- once the lock that call held is released."""
    orig = getattr(cls, name)
    pending = [after]

    def patched(self, *args, **kwargs):
        out = orig(self, *args, **kwargs)
        if pending:
            pending.pop()()
        return out

    monkeypatch.setattr(cls, name, patched)


class TestReplyLsn:
    """A round committed (or replayed) between the locked read and the
    reply must not leak into the reply's LSN: the reply would name a
    state it did not read.  Round 0 links (0, 1); the racing round 1
    links (2, 3), so ``connected(2, 3)`` answered at LSN 1 is False."""

    def test_primary_read(self, tmp_path, monkeypatch):
        with ReplicatedService(make_sw, tmp_path, svc_config()) as rs:
            rs.write([(0, 1)])
            _run_after_first_call(
                monkeypatch, StreamService, "query", lambda: rs.write([(2, 3)])
            )
            res = QueryService(rs).run([("connected", 2, 3)])
            assert res.replica == "primary"
            assert res.answers == [False]
            assert res.lsn == 1
            assert rs.primary.next_lsn == 2

    def test_follower_read(self, tmp_path, monkeypatch):
        with ReplicatedService(
            make_sw, tmp_path, svc_config(), followers=1
        ) as rs:
            rs.write([(0, 1)])
            rs.poll()
            (f,) = rs.followers

            def commit_and_replay():
                rs.write([(2, 3)])
                f.catch_up()

            _run_after_first_call(
                monkeypatch, Follower, "try_query", commit_and_replay
            )
            res = QueryService(rs).run([("connected", 2, 3)])
            assert res.replica == f"follower{f.fid}"
            assert res.answers == [False]
            assert res.lsn == 1
            assert f.replayed_lsn == 2

    def test_worker_reply(self, tmp_path, monkeypatch):
        from repro.replication.worker import WorkerServer

        with ReplicatedService(make_sw, tmp_path, svc_config()) as rs:
            rs.write([(0, 1)])
            f = Follower(7, tmp_path, make_sw)
            f.catch_up()

            def commit_and_replay():
                rs.write([(2, 3)])
                f.catch_up()

            _run_after_first_call(
                monkeypatch, Follower, "try_query", commit_and_replay
            )
            server = WorkerServer(("127.0.0.1", 0), f)
            try:
                reply = server.dispatch(
                    {"op": "read", "queries": [["connected", 2, 3]]}
                )
            finally:
                server.server_close()
            assert reply["ok"] and reply["answers"] == [False]
            assert reply["lsn"] == 1
            assert f.replayed_lsn == 2
