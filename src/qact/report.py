"""Uniform pass/fail reporting for the verification battery."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


@dataclass
class Report:
    subject: str
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def first_failure(self) -> Check | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(Check(name, passed, detail))

    def extend(self, other: "Report", prefix: str = ""):
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.passed, c.detail))

    def require(self, exc_type: type[Exception]):
        """Raise exc_type naming the first failed check, if any."""
        bad = self.first_failure
        if bad is not None:
            message = bad.name if not bad.detail else f"{bad.name}: {bad.detail}"
            raise exc_type(message)
        return self

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": [c.to_json() for c in self.checks]}
