"""Run the tropcheck CLI with the layer tracer installed.

Usage: python3 perfbench/tracecli.py <subcommand> [flags]   (stdin/stdout as the CLI)

The spans of the run go to stderr as one line after the marker, once the CLI
returns; the benchmark adopts them into the operation that started this
process.
"""

import sys

import tracing


def main() -> int:
    tracer = tracing.Tracer()
    tracer.install()
    cli = sys.modules["tropcheck.cli"]
    tracer.stack.append(0)  # stands for the parent's operation span
    try:
        return cli.main(sys.argv[1:])
    finally:
        tracer.stack.pop()
        sys.stderr.write(tracing.SPANS_MARKER + tracer.dump() + "\n")


if __name__ == "__main__":
    sys.exit(main())
