"""Run ``appell_kit.cli`` with spans installed, for the traced report workload.

Usage: python perfbench/traced_cli.py verify all --seed 0

The report goes to stdout exactly as ``python -m appell_kit.cli`` writes it;
the span rows go to stderr as one JSON line, after everything the CLI
itself writes there.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, instrument

from appell_kit import cli

if __name__ == "__main__":
    tracer = Tracer()
    with instrument(tracer):
        code = tracer.wrap("cli.main", cli.main)(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps(tracer.export()), file=sys.stderr)
    sys.exit(code)
