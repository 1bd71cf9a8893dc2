"""Render a conformance report for the compatibility kit.

Since the runner attaches per-case :class:`QueryMetrics`, the report
carries timing columns — each case line shows its wall time, the
summary shows the sweep total, and the JSON form exposes the full
phase breakdown per case — so a conformance run doubles as perf
evidence.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.compat.runner import CaseResult
from repro.formats.sqlpp_text import dumps
from repro.observability import format_seconds


def format_report(results: Sequence[CaseResult], verbose: bool = False) -> str:
    """A text report: one line per case plus a summary (and diffs when
    ``verbose``)."""
    lines: List[str] = []
    lines.append("SQL++ compatibility kit")
    lines.append("=" * 70)
    passed = 0
    total_s = 0.0
    by_section: dict = {}
    for result in results:
        case = result.case
        status = "PASS" if result.passed else "FAIL"
        if result.passed:
            passed += 1
        total_s += result.elapsed_s
        mode = "compat" if case.sql_compat else "core"
        mode += "/strict" if case.typing_mode == "strict" else ""
        lines.append(
            f"[{status}] {case.case_id:<28} §{case.section:<6} "
            f"({mode:<13}) {format_seconds(result.elapsed_s):>9}  "
            f"{case.title}"
        )
        section = by_section.setdefault(case.section, [0, 0, 0.0])
        section[0] += int(result.passed)
        section[1] += 1
        section[2] += result.elapsed_s
        if not result.passed:
            if result.error:
                lines.append(f"       error: {result.error}")
            else:
                lines.append("       expected:")
                lines.append(_indent(dumps(result.expected), 9))
                lines.append("       actual:")
                lines.append(_indent(dumps(result.actual), 9))
        elif verbose and result.expected is not None:
            lines.append(_indent(dumps(result.expected), 9))
    lines.append("-" * 70)
    lines.append(
        f"{passed}/{len(results)} cases passed "
        f"in {format_seconds(total_s)}"
    )
    for section in sorted(by_section):
        ok, total, section_s = by_section[section]
        lines.append(
            f"  §{section:<6} {ok}/{total}  ({format_seconds(section_s)})"
        )
    return "\n".join(lines)


def _indent(text: str, width: int) -> str:
    pad = " " * width
    return "\n".join(pad + line for line in text.splitlines())


def _phases_json(result: CaseResult) -> Optional[dict]:
    """The case's phase-timing breakdown, when the runner recorded one."""
    metrics = result.metrics
    if metrics is None:
        return None
    return {
        "parse_s": round(metrics.parse_s, 6),
        "rewrite_s": round(metrics.rewrite_s, 6),
        "plan_s": (
            round(metrics.plan_s, 6) if metrics.plan_s is not None else None
        ),
        "execute_s": round(metrics.execute_s, 6),
        "total_s": round(metrics.total_s, 6),
        "cache_hit": metrics.cache_hit,
    }


def report_json(results: Sequence[CaseResult]) -> dict:
    """A machine-readable summary (for CI and cross-engine comparison)."""
    return {
        "total": len(results),
        "passed": sum(result.passed for result in results),
        "elapsed_s": round(sum(result.elapsed_s for result in results), 6),
        "cases": [
            {
                "id": result.case.case_id,
                "section": result.case.section,
                "title": result.case.title,
                "mode": "compat" if result.case.sql_compat else "core",
                "typing": result.case.typing_mode,
                "passed": result.passed,
                "elapsed_s": round(result.elapsed_s, 6),
                "phases": _phases_json(result),
                "error": result.error,
            }
            for result in results
        ],
    }
