"""The benchmark's oracle against the real structure on seeded streams.

Run with ``python -m pytest bench/test_oracle.py`` from the repository
root (the tier-1 suite does not collect ``bench/``).
"""

from __future__ import annotations

import pathlib
import random
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from oracle import (  # noqa: E402
    OracleError,
    Read,
    Window,
    check_probes,
    check_reads,
)
from repro.gateway.protocol import jsonable  # noqa: E402
from repro.replication import ReplicatedService  # noqa: E402
from repro.replication.worker import build_factory  # noqa: E402
from repro.service import ServiceConfig  # noqa: E402
from repro.service.query import answer_queries  # noqa: E402

N = 48


def _queries(rng: random.Random, count: int) -> list[list]:
    out: list[list] = [["components"], ["window_size"]]
    for _ in range(count):
        u, v = rng.randrange(N), rng.randrange(N)
        out.append([rng.choice(("connected", "path_max")), u, v])
    out.append(["path_max", 3, 3])
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_matches_service(tmp_path, seed):
    """Seeded writes through the real service, answers compared on every
    committed state, including the two-round writes (batch >= the
    service's flush threshold) and self-loops."""
    rng = random.Random(seed)
    factory = build_factory("SWConnectivityEager", N, 0)
    writes = []
    with ReplicatedService(factory, tmp_path / "d", ServiceConfig()) as rs:
        for i in range(40):
            size = rng.choice((1, 5, 20, 300)) if i else 120
            edges = [[rng.randrange(N), rng.randrange(N)] for _ in range(size)]
            if rng.random() < 0.2:
                edges.append([7, 7])
            expire = 0 if i < 3 else rng.choice((0, size, rng.randrange(1, 400)))
            lsn = rs.write([tuple(e) for e in edges], expire=expire)
            writes.append((lsn, edges, expire))
            window = Window(N, writes)
            assert window.rounds == rs.primary.next_lsn
            qs = _queries(rng, 30)
            served = jsonable(
                rs.primary.query(lambda s: answer_queries(s, [tuple(q) for q in qs]))
            )
            state = window.state(window.rounds)
            assert [state.answer(q) for q in qs] == served
    assert any(b - a == 2 for (a, _, _), (b, _, _) in zip(writes, writes[1:]))


def test_inconsistent_writes_raise():
    with pytest.raises(OracleError):
        Window(N, [(0, [[1, 2]], 0), (3, [[2, 3]], 1)])


def _window() -> Window:
    return Window(N, [(0, [[0, 1], [1, 2]], 0), (1, [[2, 3]], 1)])


def test_check_reads_accepts_overstated_lsn_and_flags_wrong_answers():
    w = _window()
    q = [["connected", 0, 1], ["connected", 2, 3], ["window_size"]]
    # The state after one round (edges 0-1, 1-2), reported as lsn 2
    # because a write committed between the answer and the LSN read.
    good = Read(0.6, 1.0, q, None, 2, "primary", [True, False, 2])
    bad = Read(0.6, 1.0, q, None, 2, "primary", [False, False, 2])
    v = check_reads(w, [good], [(0.5, 0)], sample=10, seed=0)
    assert (v.checked, v.wrong) == (1, 0)
    v = check_reads(w, [bad], [(0.5, 0)], sample=10, seed=0)
    assert v.wrong == 1
    # Once the second write was acknowledged before the read was sent,
    # the older state is no longer a candidate.
    v = check_reads(w, [good], [(0.5, 0), (0.55, 1)], sample=10, seed=0)
    assert v.wrong == 1


def test_check_reads_flags_read_your_writes_violation():
    w = _window()
    r = Read(0.0, 1.0, [["window_size"]], 1, 1, "worker1", [3])
    v = check_reads(w, [r], [], sample=0, seed=0)
    assert v.ryw_violations == 1


def test_check_probes_requires_final_state():
    w = _window()
    ok = Read(0.0, 1.0, [["path_max", 1, 3], ["components"]], 1, 2, "primary",
              [[-1.0, 1], N - 2])
    stale = Read(0.0, 1.0, [["components"]], 1, 1, "primary", [N - 2])
    assert check_probes(w, [ok]).wrong == 0
    assert check_probes(w, [stale]).wrong == 1
