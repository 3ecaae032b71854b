"""Launch ``repro serve`` with the serve-path layers wrapped in spans.

Usage: ``python bench/traced_server.py --spans FILE [serve options...]``

The launcher wraps the public functions of each serve layer (see
:func:`tracing.install_serve`), then calls
``repro.service.server.serve_main`` with the remaining options.  When the
server has drained and returned, the spans go to ``FILE`` as JSONL.
"""

from __future__ import annotations

import argparse
import sys

from common import use_repo_src
from tracing import Recorder, install_serve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSONL output path")
    args, serve_argv = parser.parse_known_args(argv)
    use_repo_src()
    recorder = Recorder()
    install_serve(recorder)
    from repro.service.server import serve_main

    try:
        return serve_main(serve_argv)
    finally:
        recorder.restore()
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
