"""Start ``repro serve`` with the benchmark's tracer installed.

    python bench/serve_entry.py TRACE_JSON serve --port 0 --ready-file FILE

Installs the wrappers of ``bench/trace.py``, hands the remaining
arguments to ``repro.cli.main``, and writes the recorded spans as
Chrome trace JSON to TRACE_JSON once the server has drained and exited
(on SIGTERM).  ``bench/serve_load.py`` starts traced servers this way.
"""

import os
import sys
from pathlib import Path

# The checkout root replaces this script's directory on the path, so
# ``bench.trace`` never shadows the standard library's ``trace``.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from bench.common import require_source  # noqa: E402
from bench.trace import Tracer, write_chrome_trace  # noqa: E402


def main(argv):
    require_source()
    trace_path, args = argv[0], argv[1:]
    tracer = Tracer().install()
    from repro.cli import main as cli_main

    try:
        return cli_main(args)
    finally:
        tracer.uninstall()
        write_chrome_trace(trace_path, tracer.chrome_events(os.getpid()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
