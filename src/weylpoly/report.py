"""Machine-readable verification reports.

Every check run by the verification suites produces one ReportEntry; a
VerificationReport is the ordered collection.  Witness payloads are plain
JSON-ready structures (dicts, lists, strings, numbers), so serialization
round-trips bit-exactly.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable

from .errors import UsageError
from .exactpoly import poly_to_json
from .record import Record

VERDICTS = ("pass", "fail", "skipped")


class ReportEntry(Record):
    check_id: str
    parameters: dict
    verdict: str
    witness: object | None = None
    elapsed_ms: float = 0.0
    __hash__ = None  # parameters is a dict

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise UsageError(f"verdict must be one of {VERDICTS}")
        if self.verdict == "fail" and self.witness is None:
            raise UsageError("fail entries must carry a witness")

    def to_json(self) -> dict:
        return {
            "check_id": self.check_id,
            "parameters": self.parameters,
            "verdict": self.verdict,
            "witness": self.witness,
            "elapsed_ms": self.elapsed_ms,
        }

    @staticmethod
    def from_json(d: dict) -> "ReportEntry":
        if not (
            isinstance(d, dict)
            and isinstance(d.get("check_id"), str)
            and isinstance(d.get("parameters"), dict)
            and isinstance(d.get("elapsed_ms", 0.0), (int, float))
        ):
            raise UsageError(
                "a report entry needs a string check_id, a parameters object and a numeric elapsed_ms"
            )
        return ReportEntry(
            check_id=d["check_id"],
            parameters=d["parameters"],
            verdict=d.get("verdict"),
            witness=d.get("witness"),
            elapsed_ms=d.get("elapsed_ms", 0.0),
        )


def poly_equality(got, want) -> tuple[bool, dict | None]:
    """(True, None) when two polynomials agree, else False and their difference."""
    if got == want:
        return True, None
    return False, {"difference": poly_to_json(got - want)}


def timed_entry(check_id: str, params: dict, check: Callable[[], tuple[bool, object]] | None) -> ReportEntry:
    """Run one check and time it; ``check`` returns (ok, witness).

    A passing check may carry a witness; a failing one without a witness is
    given a generic one.  A missing check is reported as skipped.
    """
    if check is None:
        return ReportEntry(check_id, params, "skipped", None, 0.0)
    start = time.perf_counter()
    ok, witness = check()
    elapsed = (time.perf_counter() - start) * 1000.0
    if ok:
        return ReportEntry(check_id, params, "pass", witness, elapsed)
    return ReportEntry(check_id, params, "fail", witness or {"detail": "check failed"}, elapsed)


class VerificationReport(Record):
    entries: tuple[ReportEntry, ...] = ()

    @property
    def all_passed(self) -> bool:
        """True iff every non-skipped entry passes."""
        return all(e.verdict != "fail" for e in self.entries)

    @property
    def counts(self) -> dict[str, int]:
        out = {v: 0 for v in VERDICTS}
        for e in self.entries:
            out[e.verdict] += 1
        return out

    def to_json(self) -> dict:
        return {"entries": [e.to_json() for e in self.entries]}

    @staticmethod
    def from_json(d: dict) -> "VerificationReport":
        if not isinstance(d, dict) or not isinstance(d.get("entries"), list):
            raise UsageError("a report is an object holding an entries list")
        return VerificationReport(tuple(ReportEntry.from_json(e) for e in d["entries"]))

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @staticmethod
    def loads(text: str) -> "VerificationReport":
        return VerificationReport.from_json(json.loads(text))

    def render_markdown(self) -> str:
        """Deterministic summary with fail entries first."""
        counts = self.counts
        lines = [
            "# Verification report",
            "",
            f"pass: {counts['pass']}  fail: {counts['fail']}  skipped: {counts['skipped']}",
            "",
            "| verdict | check | parameters | elapsed_ms |",
            "|---|---|---|---|",
        ]
        ordered = [e for e in self.entries if e.verdict == "fail"]
        ordered += [e for e in self.entries if e.verdict != "fail"]
        for e in ordered:
            params = json.dumps(e.parameters, sort_keys=True)
            lines.append(f"| {e.verdict} | {e.check_id} | `{params}` | {e.elapsed_ms:.1f} |")
        fails = [e for e in self.entries if e.verdict == "fail"]
        if fails:
            lines.append("")
            lines.append("## Failures")
            for e in fails:
                lines.append("")
                lines.append(f"### {e.check_id} {json.dumps(e.parameters, sort_keys=True)}")
                lines.append("```json")
                lines.append(json.dumps(e.witness, indent=2, sort_keys=True))
                lines.append("```")
        return "\n".join(lines) + "\n"
