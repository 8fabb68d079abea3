"""The set-up phase of a benchmark workload, launched on its own so that the
benchmark can time it from launch to exit: interpreter start,
`import keyvariety`, parsing the workload's config and build_case for every
case the config names. It stops before the first check.

    PYTHONPATH=src python3 perfbench/setup_probe.py --config perfbench/configs/singular.cfg
    PYTHONPATH=src python3 perfbench/setup_probe.py --cases g4,g5,g6q,g8
"""
import argparse
import sys

import keyvariety  # noqa: F401
from keyvariety.catalog import build_case
from keyvariety.cli import parse_config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="time a workload's set-up")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--config")
    group.add_argument("--cases")
    args = parser.parse_args(argv)
    cases = (parse_config(args.config).cases if args.config
             else args.cases.split(","))
    for case in cases:
        build_case(case)
    return 0


if __name__ == "__main__":
    sys.exit(main())
