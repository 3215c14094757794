"""Run the program's CLI with the benchmark's span shims installed.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/launcher.py SPANS.json serve start STORE --addr unix://S

Installs ``tracer``'s shims, calls ``repro.cli.main`` with the remaining
arguments, and when it returns writes every recorded span to
``SPANS.json``.  The daemon's ``stats`` handler runs unrecorded: it
encodes the whole table to project codec sizes, which is introspection,
not served work.
"""

from __future__ import annotations

import json
import os
import sys


def main() -> int:
    import tracer

    dump, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.install()
    from repro.cli import main as cli_main
    from repro.serve.daemon import ServeDaemon

    tracer.mute_during(ServeDaemon, "_stats_payload")
    try:
        status = cli_main(argv)
    finally:
        tmp = dump + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(recorder.spans, fh)
        os.replace(tmp, dump)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
