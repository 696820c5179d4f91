"""Run a server module's own ``main()``, optionally traced.

Usage::

    python3 bench/serve.py gateway [--spans FILE] -- <python -m repro.gateway args>
    python3 bench/serve.py worker  [--spans FILE] -- <python -m repro.replication.worker args>

With ``--spans`` the layer wrappers of :mod:`tracer` are installed before
``main()`` builds the structure, and the spans are written to ``FILE``
when it returns (SIGTERM, or a worker ``stop`` frame).
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    role, rest = argv[0], argv[1:]
    spans = None
    if rest[:1] == ["--spans"]:
        spans, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    tracer = None
    if spans is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(role)
    if role == "gateway":
        from repro.gateway.__main__ import main as serve
    elif role == "worker":
        from repro.replication.worker import main as serve
    else:
        print(f"unknown role {role!r}", file=sys.stderr)
        return 2
    try:
        return serve(rest)
    finally:
        if tracer is not None:
            tracer.dump(spans, role)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
