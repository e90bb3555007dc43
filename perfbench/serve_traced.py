"""``fastbns serve`` under the span recorder, for the traced trace-replay run.

Usage: ``python3 perfbench/serve_traced.py SPANS_OUT serve --listen ...``.
Installs :class:`spans.SpanRecorder` before the CLI builds its server,
runs the CLI until it is signalled to drain, then writes every thread's
spans as JSON to ``SPANS_OUT``.
"""

import json
import sys
from pathlib import Path

from spans import SpanRecorder


def main() -> int:
    spans_out, argv = Path(sys.argv[1]), sys.argv[2:]
    recorder = SpanRecorder()
    recorder.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.uninstall()
        spans_out.write_text(json.dumps(recorder.threads()))


if __name__ == "__main__":
    raise SystemExit(main())
