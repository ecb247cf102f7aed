"""Run one symbreak CLI command in this fresh process.

    python3 perfbench/child.py [--trace FILE] ARGV...

Untraced, this is the `symbreak` console script: import the CLI and call
`symbreak.cli.main(ARGV)`.  With `--trace FILE` it first wraps the layer
functions (perfbench/tracer.py) and writes their counters to FILE on exit.
"""

import sys
import time


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    start = time.perf_counter()
    import symbreak.cli
    import_s = time.perf_counter() - start
    if trace_path is None:
        return symbreak.cli.main(argv)

    import tracer

    recorder = tracer.install()
    try:
        return symbreak.cli.main(argv)
    finally:
        recorder.dump(trace_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
