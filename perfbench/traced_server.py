"""``repro serve`` with the benchmark's layer proxies installed.

``python3 perfbench/traced_server.py SPANS.json serve ARGS...`` runs the
program's own CLI entry point unchanged; when the server stops, the
spans and counters recorded in this process are written to SPANS.json.
"""

from __future__ import annotations

import sys

from spans import Recorder


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    recorder = Recorder()
    recorder.install()
    try:
        return cli_main(argv[2:])
    finally:
        recorder.uninstall()
        recorder.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
