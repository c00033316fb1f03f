"""Uniform pass/fail reporting for the verification battery."""

from __future__ import annotations


class Check:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name, self.passed, self.detail = name, passed, detail

    def to_json(self) -> dict:
        return {"name": self.name, "pass": self.passed, "detail": self.detail}


class Report:
    __slots__ = ("checks",)

    def __init__(self):
        self.checks = []

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
