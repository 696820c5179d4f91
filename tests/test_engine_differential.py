"""Differential tests: the serving RC-tree engine against its reference.

``RCArrayForest`` (``repro.trees.rcarray``, what ``DynamicForest`` runs
on) is required to be *extensionally identical* to the ``RCForest``
reference model: same query answers, same compressed path trees, same
maintained MSF, and -- because both charge the simulated cost model
through the same accounting contract -- the same work/span for every
operation.  The reference is swapped in with
:func:`tests.helpers.with_reference_rc`.  Hypothesis drives both through
identical random batch streams and compares everything after every step.

The same cases also pin the array engine's scalar/dense crossover: extra
copies with ``DENSE_THRESHOLD`` forced to 0 (every pass vectorized) and
to ``10**9`` (every pass scalar) must match the default-threshold engine
and the reference in ``snapshot()``, MSF edge ids, CPTs and per-op
(work, span).  Every case runs under both augmentation profiles
(``msf`` and ``full``), and :class:`TestProfileDifferential` holds the
two profiles against each other on one stream.

Seeded determinism rides along: a (stream, seed) pair must reproduce
byte-identical MSF edge ids and phase trees on both across independent
runs, and the golden fingerprints below pin three seeded streams against
changes to code both share (ternarization, batch queries, hashing,
Algorithm 2), which a differential between them cannot see.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BatchIncrementalMSF
from repro.msf.graph import EdgeArray
from repro.msf.kruskal import kruskal_msf
from repro.runtime import CostModel, measure
from repro.trees import DynamicForest, RCArrayForest, RCForest
from repro.trees.cluster import AUGMENT_PROFILES
from tests.helpers import msf_fields, with_augment, with_reference_rc

# Small vertex counts + a coarse weight pool force collisions: parallel
# edges, weight ties (broken by eid), repeated endpoints, self-loops.
N = 12
_VERTS = st.integers(0, N - 1)
_WEIGHT = st.integers(0, 6).map(float)
_EDGE = st.tuples(_VERTS, _VERTS, _WEIGHT)
_BATCHES = st.lists(st.lists(_EDGE, max_size=12), min_size=1, max_size=6)

# A fixed query sample covering every vertex at least once (the full
# O(n^2) sweep per step would dominate the suite's runtime).
_QUERY_PAIRS = [
    (0, 1), (2, 7), (3, 11), (5, 6), (8, 9), (4, 10), (1, 11), (0, 6),
]

#: Forced ``DENSE_THRESHOLD`` values: every pass dense, every pass scalar.
_THRESHOLDS = (0, 10**9)


def _msf(n, seed, cost, augment):
    """An MSF whose forest runs the ``augment`` profile."""
    m = BatchIncrementalMSF(n, seed=seed, cost=cost)
    if augment != m.forest.augment:
        with_augment(m.forest, augment)
    return m


def _build_pair(n=N, seed=5, augment="msf"):
    """Fresh (reference, array) MSF pair sharing nothing but the seed."""
    co, ca = CostModel(), CostModel()
    mo = _msf(n, seed, co, augment)
    with_reference_rc(mo.forest)
    ma = _msf(n, seed, ca, augment)
    return mo, ma, co, ca


def _build_pinned(n=N, seed=5, augment="msf"):
    """Array MSFs with the scalar/dense crossover forced each way."""
    pinned = []
    for threshold in _THRESHOLDS:
        cost = CostModel()
        m = _msf(n, seed, cost, augment)
        m.forest.rc.DENSE_THRESHOLD = threshold
        pinned.append((m, cost))
    return pinned


def _kruskal_edges(n, edges):
    """Oracle MSF edge ids via the static Kruskal kernel."""
    if not edges:
        return set()
    arr = EdgeArray.from_tuples(n, edges)
    return set(arr.eid[kruskal_msf(arr)].tolist())


class TestBatchMSFDifferential:
    @given(batches=_BATCHES)
    @settings(deadline=None)
    def test_engines_agree_on_everything(self, batches):
        for augment in AUGMENT_PROFILES:
            self._engines_agree(batches, augment)

    @staticmethod
    def _engines_agree(batches, augment):
        mo, ma, co, ca = _build_pair(augment=augment)
        pinned = _build_pinned(augment=augment)
        all_edges = []
        next_eid = 0
        for batch in batches:
            rows = []
            for u, v, w in batch:
                rows.append((u, v, w, next_eid))
                next_eid += 1
            all_edges.extend(r for r in rows if r[0] != r[1])

            with measure(co) as op_o:
                rep_o = mo.batch_insert(rows)
            with measure(ca) as op_a:
                rep_a = ma.batch_insert(rows)

            # Identical simulated cost for the *operation*, not just the
            # running totals (which could mask compensating drift).
            assert (op_o.work, op_o.span) == (op_a.work, op_a.span)

            # Identical insert reports (inserted / evicted / rejected).
            assert rep_o.inserted == rep_a.inserted
            assert rep_o.evicted == rep_a.evicted
            assert rep_o.rejected == rep_a.rejected

            # Identical MSF edge sets, matching the Kruskal oracle.
            msf_o = mo.msf_edges()
            assert msf_o == ma.msf_edges()
            assert {e[3] for e in msf_o} == _kruskal_edges(N, all_edges)

            # Point queries agree everywhere sampled.
            for u, v in _QUERY_PAIRS:
                assert mo.connected(u, v) == ma.connected(u, v)
                assert mo.heaviest_edge(u, v) == ma.heaviest_edge(u, v)

            # The forced-threshold copies: same op charges, contraction
            # and MSF as the default threshold and the reference.
            snap = ma.forest.rc.snapshot()
            assert snap == mo.forest.rc.snapshot()
            for m, cost in pinned:
                with measure(cost) as op_p:
                    m.batch_insert(rows)
                assert (op_p.work, op_p.span) == (op_a.work, op_a.span)
                assert m.forest.rc.snapshot() == snap
                assert m.msf_edges() == msf_o
        assert (co.work, co.span) == (ca.work, ca.span)

    @given(batches=_BATCHES)
    @settings(deadline=None)
    def test_summary_queries_agree(self, batches):
        mo, ma, _, _ = _build_pair()
        assert isinstance(mo.forest.rc, RCForest)
        assert isinstance(ma.forest.rc, RCArrayForest)
        for batch in batches:
            rows = [(u, v, w) for u, v, w in batch if u != v]
            mo.batch_insert(rows)
            ma.batch_insert(rows)
            assert mo.num_components == ma.num_components
            assert mo.num_msf_edges == ma.num_msf_edges
            assert mo.total_weight() == ma.total_weight()


class TestCPTDifferential:
    @given(
        batches=_BATCHES,
        marks=st.lists(_VERTS, min_size=1, max_size=6),
        seed=st.integers(0, 3),
    )
    @settings(deadline=None)
    def test_compressed_path_trees_identical(self, batches, marks, seed):
        for augment in AUGMENT_PROFILES:
            self._cpts_identical(batches, marks, seed, augment)

    @staticmethod
    def _cpts_identical(batches, marks, seed, augment):
        fo = with_reference_rc(DynamicForest(N, seed=seed, augment=augment))
        fa = DynamicForest(N, seed=seed, augment=augment)
        pinned = []
        for threshold in _THRESHOLDS:
            f = DynamicForest(N, seed=seed, augment=augment)
            f.rc.DENSE_THRESHOLD = threshold
            pinned.append(f)
        # Union-find over accepted edges keeps every batch a forest batch
        # (links must be acyclic *after* in-batch links too).
        parent = list(range(N))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        next_eid = 0
        for batch in batches:
            links = []
            for u, v, w in batch:
                ru, rv = find(u), find(v)
                if ru == rv:
                    continue
                parent[ru] = rv
                links.append((u, v, w, next_eid))
                next_eid += 1
            fo.batch_link(links)
            fa.batch_link(links)

            co, ca = CostModel(), CostModel()
            fo.cost = co
            fa.cost = ca
            cpt_o = fo.compressed_path_tree(marks)
            cpt_a = fa.compressed_path_tree(marks)
            # Same node set, same edge set (with annotations), same
            # aggregates, same marked set -- and the same charges.
            assert cpt_o.vertices == cpt_a.vertices
            assert cpt_o.edges == cpt_a.edges
            assert cpt_o.aggregates == cpt_a.aggregates
            assert cpt_o.marked == cpt_a.marked
            assert (co.work, co.span) == (ca.work, ca.span)

            snap = fa.rc.snapshot()
            assert snap == fo.rc.snapshot()
            for f in pinned:
                f.batch_link(links)
                f.cost = cp = CostModel()
                cpt_p = f.compressed_path_tree(marks)
                assert f.rc.snapshot() == snap
                assert (cpt_p.vertices, cpt_p.edges) == (cpt_a.vertices, cpt_a.edges)
                assert cpt_p.aggregates == cpt_a.aggregates
                assert (cp.work, cp.span) == (ca.work, ca.span)


def _strip_wall(d):
    """Drop the ``wall_s`` measurement (real time is never deterministic;
    the *simulated* phase tree -- names, work, span, calls, items -- is)."""
    return {
        k: ([_strip_wall(c) for c in v] if k == "children" else v)
        for k, v in d.items()
        if k != "wall_s"
    }


def _stream(seed):
    rng = random.Random(seed)
    batches = []
    for _ in range(5):
        batches.append(
            [
                (rng.randrange(24), rng.randrange(24), float(rng.randrange(9)))
                for _ in range(rng.randrange(1, 14))
            ]
        )
    return batches


def _run_stream(seed, reference=False, augment="msf"):
    """Run :func:`_stream` through a fresh MSF whose forest runs the
    ``augment`` profile; returns it and its cost."""
    cost = CostModel()
    m = _msf(24, seed, cost, augment)
    if reference:
        with_reference_rc(m.forest)
    for batch in _stream(seed):
        m.batch_insert([(u, v, w) for u, v, w in batch if u != v])
    return m, cost


class TestSeededDeterminism:
    """Same stream + same seed => byte-identical results, run to run."""

    @staticmethod
    def _run(engine, seed, augment):
        m, cost = _run_stream(
            seed, reference=engine == "object", augment=augment
        )
        msf_ids = bytes(
            json.dumps([e[3] for e in m.msf_edges()]), "utf-8"
        )
        phase_tree = bytes(
            json.dumps(_strip_wall(cost.phases.to_dict()), sort_keys=True), "utf-8"
        )
        return msf_ids, phase_tree

    def test_byte_identical_across_runs_and_engines(self):
        for seed, augment in itertools.product((0, 7, 2024), AUGMENT_PROFILES):
            runs = {
                engine: [self._run(engine, seed, augment) for _ in range(2)]
                for engine in ("object", "array")
            }
            # Two independent runs of the same engine: byte-identical MSF
            # edge ids and byte-identical phase trees.
            for engine, (r1, r2) in runs.items():
                assert r1[0] == r2[0], f"{engine} MSF ids differ across runs"
                assert r1[1] == r2[1], f"{engine} phase tree differs across runs"
            # And across engines: the array engine replays the object
            # engine's phases with the same names and the same charges.
            assert runs["object"][0] == runs["array"][0]
            assert runs["object"][1] == runs["array"][1]


def _sha256(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=repr).encode()
    ).hexdigest()


#: profile -> seed -> (MSF edge ids, sha256 of rc.snapshot(), sha256 of
#: the phase tree without wall time) for :func:`_stream`.  The ``full``
#: rows predate the ``msf`` profile; the ``msf`` rows have the same MSF
#: and a narrower snapshot, and charge less work (fewer rebuilds).
#: Regenerate only for a deliberate change to the contraction, its cost
#: charges or Algorithm 2.
GOLDEN = {
    "full": {
        0: (
            [0, 2, 3, 4, 5, 6, 7, 10, 13, 14, 17, 18, 20, 21, 26, 27, 29, 32,
             34],
            "a70b1f8c5868f47e512e2434a7183318ac73f6b45de0ece8874844cd3cb5f9c4",
            "a3fec400fc63ef16e44b4cf44c110f4ce1d78c40b4fead9f690503243f0531b3",
        ),
        7: (
            [0, 1, 2, 3, 5, 6, 7, 8, 9, 12, 13, 14, 18, 19, 22, 23, 24, 28,
             30, 31],
            "43682ffbf7f3610ab51d9074b8e3b44d462d801c80c1810afdd3f9c9216f77c9",
            "da4ddbefa0d980ba1209a08c1a2ca42bd75b1f99c5b401f88d19f8a42d2384ad",
        ),
        2024: (
            [5, 6, 7, 8, 10, 14, 15, 16, 17, 18, 22, 25, 26, 27, 28, 29, 32,
             34, 38, 40, 41, 43],
            "b416a0766f2b7fed9648ae5350b1d81ee3753e53f63b5acf4d18d6f57c274db5",
            "859e380daf8a0b0ffc46a9df596a1208c8522748ba01189dc00c8a3af2193f15",
        ),
    },
    "msf": {
        0: (
            [0, 2, 3, 4, 5, 6, 7, 10, 13, 14, 17, 18, 20, 21, 26, 27, 29, 32,
             34],
            "8db35b5fd9a7bb0266f3345f115a9b065891e59b2f04a559f94fecd538597305",
            "50ae2e894d1abfc1cf5a4df9e1666b6c67940e02fab3448e506d6c0b37351e57",
        ),
        7: (
            [0, 1, 2, 3, 5, 6, 7, 8, 9, 12, 13, 14, 18, 19, 22, 23, 24, 28,
             30, 31],
            "24b4cad38af43153248603dd94b06fad894127c1a68e58b5b327c17352224ea4",
            "d23a08073553a0419d7ff309fc876084ce6ccba927867500ac5e9334196ff9eb",
        ),
        2024: (
            [5, 6, 7, 8, 10, 14, 15, 16, 17, 18, 22, 25, 26, 27, 28, 29, 32,
             34, 38, 40, 41, 43],
            "7fb10f6b2d7115ec33b0744d0ace52419a065f1922285de7ac92ce5b98671724",
            "347cb5f8b4efb67500ae0fe981d0108a7bd52cf37bad916d6010a0075a3d30da",
        ),
    },
}


class TestGoldenFingerprints:
    def test_seeded_streams_match_golden(self):
        for augment, rows in GOLDEN.items():
            for seed, want in rows.items():
                m, cost = _run_stream(seed, augment=augment)
                got = (
                    [e[3] for e in m.msf_edges()],
                    _sha256(m.forest.rc.snapshot()),
                    _sha256(_strip_wall(cost.phases.to_dict())),
                )
                assert got == want, (augment, seed, got)


class TestProfileDifferential:
    """The ``msf`` profile against ``full`` on one stream: everything the
    ``msf`` profile maintains must agree, field for field."""

    @given(
        batches=_BATCHES,
        marks=st.lists(_VERTS, min_size=1, max_size=6),
        seed=st.integers(0, 50),
    )
    @settings(deadline=None)
    def test_msf_profile_matches_full(self, batches, marks, seed):
        mm = _msf(N, seed, CostModel(), "msf")
        mf = _msf(N, seed, CostModel(), "full")
        assert (mm.forest.rc.augment, mf.forest.rc.augment) == ("msf", "full")
        pairs = [(u, v) for u in range(N) for v in range(N)]
        next_eid = 0
        for batch in batches:
            rows = []
            for u, v, w in batch:
                rows.append((u, v, w, next_eid))
                next_eid += 1
            rep_m = mm.batch_insert(rows)
            rep_f = mf.batch_insert(rows)
            assert (rep_m.inserted, rep_m.evicted, rep_m.rejected) == (
                rep_f.inserted,
                rep_f.evicted,
                rep_f.rejected,
            )
            assert [e[3] for e in mm.msf_edges()] == [
                e[3] for e in mf.msf_edges()
            ]
            assert mm.batch_heaviest_edges(pairs) == mf.batch_heaviest_edges(
                pairs
            )
            assert mm.batch_connected(pairs) == mf.batch_connected(pairs)
            cpt_m = mm.forest.compressed_path_tree(marks)
            cpt_f = mf.forest.compressed_path_tree(marks)
            assert (cpt_m.vertices, cpt_m.edges) == (
                cpt_f.vertices,
                cpt_f.edges,
            )
            assert cpt_m.aggregates == []
            snap_m = mm.forest.rc.snapshot()
            assert snap_m == msf_fields(snap_m)
            assert snap_m == msf_fields(mf.forest.rc.snapshot())
            mm.forest.rc.check_invariants()
            mf.forest.rc.check_invariants()
