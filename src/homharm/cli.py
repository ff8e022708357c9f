"""Command-line entry point: property-check suites and field-file conversion.

Exit codes: 0 all checks passed, 1 at least one check failed (a check that
raised counts as failed and prints an ERROR line), 2 usage error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .checks import (_LEAST, _MAX_BANDWIDTH, _MAX_TRIALS, _MAX_WORK_BANDWIDTH,
                     SUITES, CheckConfigError, default_config, run_suite)
from .io import FieldFormatError, convert_field

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homharm",
        description="Verification harness for equivariant spectral "
                    "convolutions and nonlinearities on the sphere, the "
                    "rotation group, and point clouds.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a property-check suite")
    check.add_argument("--suite", default="all",
                       help="suite name or 'all' (choices: "
                            + ", ".join(list(SUITES) + ["all"]) + ")")
    config = default_config()
    check.add_argument("--bandwidth", type=int, default=config["bandwidth"],
                       metavar="B", help=f"grid bandwidth, {_LEAST['bandwidth']} "
                       f"to {_MAX_BANDWIDTH} (default %(default)s)")
    check.add_argument("--seed", type=int, default=config["seed"],
                       help=f"at least {_LEAST['seed']} (default %(default)s)")
    check.add_argument("--trials", type=int, default=config["trials"],
                       help="random draws per equivariance check, "
                            f"{_LEAST['trials']} to {_MAX_TRIALS} "
                            "(default %(default)s)")
    check.add_argument("--oversample", type=int, default=config["oversample"],
                       help="activation-grid oversampling factor, at least "
                            f"{_LEAST['oversample']}, with bandwidth x "
                            f"oversample at most {_MAX_WORK_BANDWIDTH} "
                            "(default %(default)s)")
    check.add_argument("--report", metavar="PATH",
                       help="write the report to this path")
    check.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")

    conv = sub.add_parser("convert", help="convert a field file json<->csv")
    conv.add_argument("input")
    conv.add_argument("output")
    return parser


def _cmd_check(args) -> int:
    config = {key: getattr(args, key) for key in default_config()}
    try:
        report = run_suite(args.suite, config)
    except CheckConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    for c in sorted(report.checks, key=lambda c: c.name):
        if c.error is not None:
            print(f"ERROR {c.name:32s} {c.error}  ({c.wall_time_ms:.1f} ms)")
            continue
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name:32s} measured {c.measured_error:.3e}  "
              f"tolerance {c.tolerance:.1e}  ({c.wall_time_ms:.1f} ms)")
    print(f"{'all checks passed' if report.passed else 'CHECK FAILURES'} "
          f"({len(report.checks)} checks, suite {args.suite!r}, "
          f"B={args.bandwidth}, seed={args.seed})")
    if args.report:
        payload = (report.to_json_bytes() if args.format == "json"
                   else report.to_csv_bytes())
        try:
            with open(args.report, "wb") as fh:
                fh.write(payload)
        except OSError as e:
            print(f"error: cannot write report: {e}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_convert(args) -> int:
    try:
        convert_field(args.input, args.output)
    except (FieldFormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    return _cmd_convert(args)


if __name__ == "__main__":
    sys.exit(main())
