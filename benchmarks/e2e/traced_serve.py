"""``python -m repro.cli`` with the benchmark's spans installed first.

Used only by the traced pass of ``service_warm``:
``traced_serve.py TRACE_FILE serve --data ...`` behaves like the CLI and
writes the server-side spans and counters to ``TRACE_FILE`` on exit.
"""

from __future__ import annotations

import sys

from tracing import Recorder, install


def main() -> int:
    trace_file, *cli_args = sys.argv[1:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main())
