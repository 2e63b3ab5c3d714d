"""Run the ``camelion`` command line as its own process, as the console script does.

Usage: python3 bench/cli_entry.py <camelion arguments...>

The package is imported from the ``src/`` directory beside ``bench/``. When
BENCH_TRACE_OUT names a file, the span recorder is installed after the
import and the spans (the import, the command and every traced stage) are
written there when the command ends; BENCH_TRACE_UNIT is the id they share
and BENCH_TRACE_PHASE (default "measure") the benchmark phase they belong to.
Without it, the script does what ``camelion <arguments>`` does and nothing else.
"""

import os
import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import camelion.cli  # noqa: E402

imported = time.perf_counter()


def command_name(argv) -> str:
    """Span name of the command: cli.phantom, cli.run.<method>, cli.eval, ..."""
    if argv and argv[0] == "run" and "--method" in argv:
        return f"cli.run.{argv[argv.index('--method') + 1]}"
    return f"cli.{argv[0]}" if argv else "cli"


def main() -> int:
    argv = sys.argv[1:]
    trace_out = os.environ.get("BENCH_TRACE_OUT")
    if not trace_out:
        return camelion.cli.main(argv)

    import tracing

    tracer = tracing.Tracer()
    try:
        with tracing.installed(tracer), tracer.unit_of_work(
            os.environ.get("BENCH_TRACE_PHASE", "measure"), os.environ.get("BENCH_TRACE_UNIT", "cli")
        ):
            tracer.record("cli.import", start, imported, tracer.root)
            t0 = time.perf_counter()
            try:
                return camelion.cli.main(argv)
            finally:
                tracer.record(command_name(argv), t0, time.perf_counter(), tracer.root)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
