"""Verification findings and reports."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ERROR findings mean the strategy must not be executed; WARNING
    findings flag risks the release engineer should sign off on.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One verification finding."""

    severity: Severity
    code: str
    message: str
    phase: str | None = None

    def describe(self) -> str:
        """One log line."""
        location = f" [{self.phase}]" if self.phase else ""
        return f"{self.severity.value.upper()} {self.code}{location}: {self.message}"


@dataclass
class VerificationReport:
    """All findings of one verification run."""

    subject: str
    findings: list[Finding] = field(default_factory=list, init=False)

    def add(
        self,
        severity: Severity,
        code: str,
        message: str,
        phase: str | None = None,
    ) -> None:
        """Record a finding."""
        self.findings.append(Finding(severity, code, message, phase))

    @property
    def errors(self) -> list[Finding]:
        """ERROR-level findings."""
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        """WARNING-level findings."""
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """Whether the subject may be executed (no errors)."""
        return not self.errors

    def describe(self) -> str:
        """Multi-line summary."""
        if not self.findings:
            return f"{self.subject}: verified, no findings"
        lines = [f"{self.subject}: {len(self.errors)} error(s), "
                 f"{len(self.warnings)} warning(s)"]
        lines.extend(f"  {finding.describe()}" for finding in self.findings)
        return "\n".join(lines)
