"""Traced worked-cli op: run ``netgame.cli.main(argv)`` in this fresh interpreter.

Usage: ``python traced_cli.py COMMAND [ARGS...]`` with this checkout's
``src`` on PYTHONPATH.  Prints one JSON object: the CLI's exit code, its
standard output, and the spans of ``cli.import`` (importing the package
and its CLI module), ``cli.main`` and every layer call beneath it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys

from tracer import Tracer


def main(argv: list[str]) -> None:
    tracer = Tracer()
    cli = tracer.wrap("cli.import", importlib.import_module)("netgame.cli")
    out = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(out):
        rc = tracer.wrap("cli.main", cli.main)(argv)
    json.dump({"rc": rc, "out": out.getvalue(), "spans": tracer.spans}, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
