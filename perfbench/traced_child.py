"""Run one `qpool` command with span tracing installed, then save the spans.

Usage: python perfbench/traced_child.py SPANS.npz COMMAND [ARGS...]

The cli_pool workload runs this in place of `python -m qpool.cli` for its
traced children and merges each child's spans into the run's table.
"""

import sys

import spans
from qpool import cli


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    with tracer.installed(), tracer.op():
        rc = cli.main(argv)
    tracer.table.save(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
