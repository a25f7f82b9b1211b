"""Traced stand-in for ``python -m obstructkit.cli``.

Usage: ``cli_child.py SPANS_JSON <obstructkit cli arguments>``.  Installs the
span wrappers, runs the CLI in this process and writes the spans to
SPANS_JSON on exit, whatever the exit code.
"""

import sys

import tracer as tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Tracer()
    tracing.install(recorder)
    from obstructkit import cli

    try:
        return cli.main(argv)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
