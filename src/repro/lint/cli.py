"""Command-line front end of the repo linter.

Reachable two ways with identical behaviour::

    python -m repro.lint [paths...] [options]
    python -m repro.cli lint [paths...] [options]

Exit codes (documented, regression-tested): **0** clean, **1** findings,
**2** usage error (unknown option, non-existent path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.baseline import write_baseline
from repro.lint.engine import run_lint
from repro.lint.findings import format_finding
from repro.lint.rules import RULES

__all__ = ["add_lint_arguments", "run_lint_command", "main"]

_DEFAULT_BASELINE = "lint-baseline.txt"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared by both entry points)."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        default=None,
        help="files or directories to lint (default: src/ and tests/ when "
        "present, else the current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        dest="output_format",
        help="output format: grep-style text (default) or GitHub Actions "
        "annotations",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file of grandfathered findings (default: "
        f"{_DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rule ids and what they enforce, then exit",
    )


def _default_paths() -> list[Path]:
    candidates = [Path("src"), Path("tests")]
    present = [path for path in candidates if path.is_dir()]
    return present or [Path(".")]


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id}  {rule.slug:<24} {rule.summary}")
        return 0

    paths = list(args.paths) if args.paths else _default_paths()
    missing = [path for path in paths if not path.exists()]
    if missing:
        names = ", ".join(str(path) for path in missing)
        print(f"repro lint: error: no such file or directory: {names}",
              file=sys.stderr)
        return 2

    baseline = args.baseline
    if baseline is None and Path(_DEFAULT_BASELINE).is_file():
        baseline = Path(_DEFAULT_BASELINE)

    if args.write_baseline:
        report = run_lint(paths, baseline_path=None)
        target = args.baseline or Path(_DEFAULT_BASELINE)
        count = write_baseline(target, report.findings)
        print(f"wrote {count} baseline entr{'y' if count == 1 else 'ies'} "
              f"to {target}")
        return 0

    report = run_lint(paths, baseline_path=baseline)
    for finding in report.findings:
        print(format_finding(finding, args.output_format))
    summary = (
        f"checked {report.files_checked} files: "
        f"{len(report.findings)} finding(s)"
    )
    if report.suppressed:
        summary += f", {report.suppressed} suppressed by noqa"
    if report.baselined:
        summary += f", {report.baselined} baselined"
    print(summary, file=sys.stderr)
    return 1 if report.findings else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based checker for the repo's estimation invariants.",
    )
    add_lint_arguments(parser)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 on --help and 2 on usage errors; surface both as
        # return codes so embedding callers never see SystemExit.
        return exc.code if isinstance(exc.code, int) else 2
    return run_lint_command(args)
