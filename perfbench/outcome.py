"""What one workload run reports back to ``run.py``."""

from __future__ import annotations

from typing import Dict, List


class Outcome:
    """Metrics plus the attempted/failed tally of checked operations."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    @property
    def failed(self) -> int:
        return len(self.failures)
