"""Structured verification reports with stable JSON serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


def complex_pair(z) -> list[float] | None:
    """Serialize a complex number as ``[re, im]`` (None passes through)."""
    if z is None:
        return None
    zc = complex(z)
    return [zc.real, zc.imag]


def _json_safe(value):
    """Recursively convert values to JSON-representable types.

    Complex numbers become ``[re, im]``; non-finite floats become ``None``
    (JSON has no inf/nan).
    """
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, complex):
        return complex_pair(value)
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if hasattr(value, "item"):  # numpy scalars
        return _json_safe(value.item())
    return value


@dataclass
class BoundReport:
    """Outcome of a single grid/inequality check.

    ``margin`` is the worst signed slack: positive means the check passed
    with room to spare, negative by how much it failed.
    """

    check: str
    passed: bool
    margin: float
    grid: dict | None = None
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _json_safe({
            "check": self.check,
            "pass": bool(self.passed),
            "margin": float(self.margin),
            "grid": self.grid,
            "witness": self.witness,
            "details": self.details,
        })

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        reason = f" ({self.details['reason']})" if "reason" in self.details else ""
        return f"[{status}] {self.check}: margin={self.margin:.6g}{reason}"


@dataclass
class UnivalenceReport:
    """Verdict of an injectivity scan at a fixed grid resolution."""

    verdict: str  # certified-at-resolution | collision | degenerate-jacobian | inconclusive
    resolution: int
    z1: complex | None = None
    z2: complex | None = None
    image_gap: float | None = None
    refinement_residual: float | None = None
    separation: float | None = None
    degenerate_point: complex | None = None
    details: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.verdict == "certified-at-resolution"

    def to_dict(self) -> dict:
        return _json_safe({
            "verdict": self.verdict,
            "z1": complex_pair(self.z1),
            "z2": complex_pair(self.z2),
            "image_gap": self.image_gap,
            "resolution": int(self.resolution),
            "refinement_residual": self.refinement_residual,
            "separation": self.separation,
            "degenerate_point": complex_pair(self.degenerate_point),
            "details": self.details,
        })

    def summary(self) -> str:
        if self.verdict == "collision":
            return (f"collision: z1={self.z1:.8g} z2={self.z2:.8g} "
                    f"gap={self.image_gap:.3g} (resolution {self.resolution})")
        if self.verdict == "degenerate-jacobian":
            return f"degenerate-jacobian at z={self.degenerate_point:.8g}"
        if self.verdict == "inconclusive":
            return (f"inconclusive: candidate pairs truncated, no collision confirmed "
                    f"(resolution {self.resolution})")
        return f"certified-at-resolution (resolution {self.resolution})"


def dump_json(payload: dict, pretty: bool = True) -> str:
    """Deterministic JSON text (sorted keys, fixed separators)."""
    payload = _json_safe(payload)
    if pretty:
        return json.dumps(payload, indent=2, sort_keys=True)
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)
