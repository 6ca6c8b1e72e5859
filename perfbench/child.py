"""Traced stand-in for ``python -m waxsim`` on ``cli-cold``.

Usage: ``python perfbench/child.py SPANS_JSON ARGV...``. Imports
``waxsim.cli``, installs the tracer, runs ``cli.main(ARGV)``, writes the
op's spans and counters to SPANS_JSON and exits with main's code.
"""
import json
import sys

import waxsim.cli as cli

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
