"""Assembling per-step phase times into ns/day."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..units import ns_per_day


@dataclass
class StepTimeline:
    """The modelled time of one MD step, broken into phases (seconds)."""

    timestep_fs: float
    phases: dict[str, float] = field(default_factory=dict)

    def add(self, phase: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("phase time must be non-negative")
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    @property
    def step_time(self) -> float:
        return float(sum(self.phases.values()))

    @property
    def ns_day(self) -> float:
        return ns_per_day(self.step_time, self.timestep_fs)

    def fraction(self, phase: str) -> float:
        total = self.step_time
        if total == 0.0:
            return 0.0
        return self.phases.get(phase, 0.0) / total

    def summary(self) -> str:
        lines = [f"{'phase':<12}{'ms':>12}{'%':>8}"]
        total = self.step_time
        for name, seconds in sorted(self.phases.items(), key=lambda kv: -kv[1]):
            pct = 100.0 * seconds / total if total else 0.0
            lines.append(f"{name:<12}{seconds * 1e3:>12.4f}{pct:>7.1f}%")
        lines.append(f"{'total':<12}{total * 1e3:>12.4f}{100.0:>7.1f}%")
        lines.append(f"ns/day = {self.ns_day:.2f} (dt = {self.timestep_fs} fs)")
        return "\n".join(lines)
