"""The outcome of one benchmark run, shared by every workload."""
from __future__ import annotations


class Run:
    """Metrics by name plus the count of checked operations and failures."""

    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; report it on stdout if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}", flush=True)

