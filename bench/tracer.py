"""Wall-clock spans around the server's layer boundaries.

``serve.py --spans FILE`` installs a :class:`Tracer` into a gateway or
worker process before the server module builds anything, and writes the
spans to ``FILE`` when the server's ``main()`` returns.  Spans stay in
memory until then.

Each wrapped call records ``(name, root, t0, duration, self)`` in
``time.monotonic_ns`` units (``CLOCK_MONOTONIC`` on Linux, so the client
can cut a phase window out of another process's spans).  ``root`` numbers
the outermost wrapped call on the thread, so every span of one request --
or of one background replay poll -- shares it.  ``self`` is the duration
minus the wrapped calls nested inside it on the same thread.  A gateway
root also carries the client's ``X-Bench-Id`` request header, so the
client can match its requests to their spans exactly.

Each name is patched where the server looks it up: a method on its class,
or a function in the namespace of the module that calls it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

#: Layers of the structure apply path; both processes run them.
_STRUCTURE = [
    ("sliding_window.batch_insert", "repro.sliding_window.connectivity", "SWConnectivityEager.batch_insert"),
    ("sliding_window.batch_expire", "repro.sliding_window.connectivity", "SWConnectivityEager.batch_expire"),
    ("sliding_window.batch_is_connected", "repro.sliding_window.connectivity", "SWConnectivityEager.batch_is_connected"),
    ("sliding_window.batch_heaviest_edges", "repro.sliding_window.connectivity", "SWConnectivityEager.batch_heaviest_edges"),
    ("core.batch_insert", "repro.core.batch_msf", "BatchIncrementalMSF.batch_insert"),
    ("core.forget_edges", "repro.core.batch_msf", "BatchIncrementalMSF.forget_edges"),
    ("core.batch_connected", "repro.core.batch_msf", "BatchIncrementalMSF.batch_connected"),
    ("core.batch_heaviest_edges", "repro.core.batch_msf", "BatchIncrementalMSF.batch_heaviest_edges"),
    ("trees.compressed_path_tree", "repro.trees.forest", "DynamicForest.compressed_path_tree"),
    ("trees.batch_update", "repro.trees.forest", "DynamicForest.batch_update"),
    ("trees.batch_cut", "repro.trees.forest", "DynamicForest.batch_cut"),
    ("trees.batch_connected", "repro.trees.forest", "DynamicForest.batch_connected"),
    ("trees.batch_path_max", "repro.trees.forest", "DynamicForest.batch_path_max"),
]

TARGETS = {
    "gateway": [
        ("gateway.dispatch", "repro.gateway.server", "_Handler._dispatch"),
        ("gateway.handle_read", "repro.gateway.server", "Gateway.handle_read"),
        ("gateway.handle_write", "repro.gateway.server", "Gateway.handle_write"),
        ("gateway.dumps", "repro.gateway.server", "dumps"),
        ("gateway.parse_queries", "repro.gateway.server", "parse_queries"),
        ("gateway.parse_edges", "repro.gateway.server", "parse_edges"),
        ("workers.read", "repro.gateway.workers", "WorkerPool.read"),
        ("query.run", "repro.service.query", "QueryService.run"),
        ("query.answer_queries", "repro.service.query", "answer_queries"),
        ("replication.write", "repro.replication.replicated", "ReplicatedService.write"),
        ("service.flush", "repro.service.service", "StreamService.flush"),
        ("service.query", "repro.service.service", "StreamService.query"),
        ("service.wal_append", "repro.service.wal", "SegmentedWal.append"),
        ("service.fsync", "repro.service.storage", "StorageIO.fsync"),
        ("service.snapshot_save", "repro.service.snapshot", "SnapshotStore.save"),
    ] + _STRUCTURE,
    "worker": [
        ("worker.dispatch", "repro.replication.worker", "WorkerServer.dispatch"),
        ("worker.catch_up", "repro.replication.follower", "Follower.catch_up"),
        ("worker.try_query", "repro.replication.follower", "Follower.try_query"),
        ("replication.follower_query", "repro.replication.follower", "Follower.query"),
        ("query.answer_queries", "repro.replication.worker", "answer_queries"),
    ] + _STRUCTURE,
}


def _request_id(args: tuple):
    """The client's ``X-Bench-Id`` header of an HTTP request handler."""
    return args[0].headers.get("X-Bench-Id")


class Tracer:
    """In-memory span recorder (thread-safe under the GIL)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        #: root -> tag of the call that opened it (the request id)
        self.tags: dict[int, str] = {}
        self._local = threading.local()
        self._roots = itertools.count()

    def wrap(self, name: str, fn, tag=None):
        """``fn`` recording a span named ``name``; ``tag(args)``, if
        given, labels the root when this call opens one."""
        idx = len(self.names)
        self.names.append(name)
        local, spans, roots, tags = self._local, self.spans, self._roots, self.tags
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if not stack:
                local.root = next(roots)
                if tag is not None:
                    tags[local.root] = tag(args)
            root = local.root
            children = [0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                spans.append((idx, root, t0, dur, dur - children[0]))

        return traced

    def install(self, role: str) -> None:
        """Patch every target of ``role`` (``"gateway"`` or ``"worker"``)."""
        for name, module, attr in TARGETS[role]:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            tag = _request_id if name == "gateway.dispatch" else None
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf), tag))
        # The MSF kernel is bound when a structure is built, from this
        # table.  The module attribute is patched too: snapshots pickle the
        # kernel by its qualified name, which must resolve to the object.
        batch_msf = importlib.import_module("repro.core.batch_msf")
        kkt = importlib.import_module("repro.msf.kkt")
        traced = self.wrap("msf.kkt_msf", batch_msf._KERNELS["kkt"])
        batch_msf._KERNELS["kkt"] = traced
        kkt.kkt_msf = traced

    def dump(self, path: str, role: str) -> None:
        with open(path, "w") as f:
            json.dump({"role": role, "names": self.names, "spans": self.spans,
                       "tags": self.tags}, f)
