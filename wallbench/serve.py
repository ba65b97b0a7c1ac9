"""Launcher of the ``repro.net`` server child used by ``served-mix``.

``python wallbench/serve.py [--spans-out FILE] -- <repro.net arguments>``

With ``--spans-out`` it installs the benchmark's wrappers before handing
control to ``repro.net.__main__.main``, and writes the recorded spans to
``FILE`` once the server has shut down (SIGTERM or SIGINT).  The exit code
is the server's own.
"""

from __future__ import annotations

import argparse
import sys

from tracer import Tracer, install


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="serve.py")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = args.server_args
    if server_args and server_args[0] == "--":
        server_args = server_args[1:]
    tracer = install(Tracer()) if args.spans_out else None

    from repro.net.__main__ import main as serve

    try:
        return serve(server_args)
    finally:
        if tracer is not None:
            tracer.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
