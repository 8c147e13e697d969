"""The lint engine: file discovery, checking, suppression.

``run_lint`` walks the given files/directories, parses every ``*.py`` file
in turn, runs all rules, filters ``# repro: noqa[...]`` suppressions, and
applies an optional baseline.  Unparseable files surface as ``REPRO-E001``
findings rather than crashing the gate: a syntax error in checked code is
itself a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.baseline import apply_baseline, load_baseline
from repro.lint.context import build_context
from repro.lint.findings import LintFinding
from repro.lint.rules import run_rules

__all__ = ["LintReport", "run_lint", "check_source", "iter_python_files"]

#: Directory names never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "venv", "node_modules",
                        ".mypy_cache", ".pytest_cache", "build", "dist"})


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: list[LintFinding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    baselined: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Every ``*.py`` file under ``paths`` (files are taken verbatim)."""
    files: list[Path] = []
    seen: set[Path] = set()
    for path in paths:
        if path.is_file():
            candidates = [path]
        else:
            candidates = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not _SKIP_DIRS.intersection(candidate.parts)
                and not any(part.startswith(".") for part in candidate.parts[1:])
            )
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


def display_path(path: Path, root: Path | None = None) -> str:
    """Stable, slash-separated path used in findings and baseline keys."""
    base = root or Path.cwd()
    try:
        relative = path.resolve().relative_to(base.resolve())
    except ValueError:
        return path.as_posix()
    return relative.as_posix()


def check_source(path: str, source: str) -> tuple[list[LintFinding], int]:
    """Lint one in-memory module; returns (findings, suppressed count)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return (
            [
                LintFinding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) or 1,
                    rule="REPRO-E001",
                    message=f"cannot parse file: {exc.msg}",
                )
            ],
            0,
        )
    ctx = build_context(path, source, tree)
    raw = run_rules(ctx)
    findings = [f for f in raw if not ctx.suppressed(f.line, f.rule)]
    return sorted(findings), len(raw) - len(findings)


def _check_file(path: Path, root: Path | None) -> tuple[list[LintFinding], int]:
    name = display_path(path, root)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        finding = LintFinding(
            path=name, line=1, col=1, rule="REPRO-E001",
            message=f"cannot read file: {exc}",
        )
        return [finding], 0
    return check_source(name, source)


def run_lint(
    paths: list[Path],
    baseline_path: Path | None = None,
    root: Path | None = None,
) -> LintReport:
    """Lint every Python file under ``paths``.

    ``baseline_path`` (when given and existing) absorbs grandfathered
    findings.  Files are parsed serially: ``ast.parse`` is GIL-bound, so
    threads buy no speed, and concurrent parses can fail on CPython 3.11
    (``SystemError: AST constructor recursion depth mismatch``).
    """
    files = iter_python_files(paths)
    report = LintReport(files_checked=len(files))
    if not files:
        return report

    results = [_check_file(path, root) for path in files]
    findings: list[LintFinding] = []
    for file_findings, suppressed in results:
        findings.extend(file_findings)
        report.suppressed += suppressed
    findings.sort()

    if baseline_path is not None:
        findings, absorbed = apply_baseline(findings, load_baseline(baseline_path))
        report.baselined = absorbed
    report.findings = findings
    return report
