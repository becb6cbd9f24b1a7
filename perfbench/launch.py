"""Child process of the benchmark: import the CLI, note when it is ready, run it.

    python3 launch.py REPORT TRACE -- qbmlab-argv...

REPORT receives a JSON object with the monotonic time at which
``qbmlab.cli`` finished importing (comparable with the parent's launch
time on Linux) and, when TRACE is 1, the spans recorded around the
package's public functions.  Nothing is imported before ``qbmlab.cli`` that
the CLI would not import itself, so the ready time is the program's own
set-up cost.
"""

import sys
import time


def main() -> int:
    report_path, traced, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py REPORT TRACE -- ARGV...")
    import qbmlab.cli as cli

    ready = time.monotonic()
    report = {"ready": ready, "qbmlab": cli.__file__}
    run = cli.main
    tracer = None
    if traced == "1":
        from tracer import Tracer

        tracer = Tracer()
        run = tracer.install(cli)
    try:
        return run(argv)
    finally:
        if tracer is not None:
            report.update(tracer.export())
        import json

        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
