"""Population-level dynamic segmentation of the observation window.

The 24-hour window is cut into segments wherever the population-average
feature change ratio spikes relative to the largest ratio magnitude seen so
far in the scan.  Breakpoints are global: fitted once on training data and
reused for every address, so segment positions are comparable across the
population.  Per address, each segment is summarized by the mean of its
normalized feature rows (the segment representation g) and by the difference
to the previous segment (the differentiation d, with g_0 the zero vector).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .base import ParamsMixin, as_float_matrix
from .errors import DataError, NotFittedError
from .serialize import fmt_floats


def change_ratio(f_curr: np.ndarray, f_prev: np.ndarray, delta: float) -> float:
    """Mean over addresses and features of (curr - prev) / (prev + delta)."""
    f_curr = as_float_matrix(f_curr, "f_curr")
    f_prev = as_float_matrix(f_prev, "f_prev")
    if f_curr.shape != f_prev.shape:
        raise DataError("change_ratio requires matrices of identical shape")
    return float(np.mean((f_curr - f_prev) / (f_prev + delta)))


def propose_breakpoints(normalized: np.ndarray, theta_s: float, delta: float) -> tuple[int, ...]:
    """Scan hours 2..T, emitting hour J when |C_J| exceeds theta_s times the
    largest |C_j| seen earlier in the scan.

    ``normalized`` has shape (n_addresses, T, n_features).  The ratio sign
    is informative but segmentation triggers on magnitude.
    """
    n, T, m = normalized.shape
    breakpoints = []
    c_high = 0.0
    for j in range(1, T):
        c_j = change_ratio(normalized[:, j, :], normalized[:, j - 1, :], delta)
        if abs(c_j) > theta_s * c_high:
            breakpoints.append(j + 1)  # 1-based hour index
        c_high = max(c_high, abs(c_j))
    return tuple(breakpoints)


def segments_from_breakpoints(breakpoints, hours: int) -> tuple[tuple[int, int], ...]:
    """Half-open 0-based (start, end) row ranges; a breakpoint at hour J
    starts a new segment at row J-1."""
    starts = [0] + [b - 1 for b in breakpoints]
    bounds = []
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else hours
        bounds.append((start, end))
    return tuple(bounds)


@dataclass(slots=True)
class SegmentationPlan:
    breakpoints: tuple[int, ...]
    feature_min: np.ndarray
    feature_max: np.ndarray
    hours: int
    theta_s: float
    delta: float

    @property
    def n_segments(self) -> int:
        return len(self.breakpoints) + 1

    def segment_bounds(self) -> tuple[tuple[int, int], ...]:
        return segments_from_breakpoints(self.breakpoints, self.hours)

    def segment_of_hour(self) -> np.ndarray:
        """Map each 0-based hour row to its segment index."""
        out = np.zeros(self.hours, dtype=np.int64)
        for k, (start, end) in enumerate(self.segment_bounds()):
            out[start:end] = k
        return out

    def normalize(self, matrix: np.ndarray) -> np.ndarray:
        """Min-max scale with the training stats, clamped to [0, 1].

        Constant training features scale to zero.
        """
        matrix = as_float_matrix(matrix, "matrix")
        span = self.feature_max - self.feature_min
        safe = np.where(span > 0, span, 1.0)
        scaled = (matrix - self.feature_min) / safe
        scaled[:, span <= 0] = 0.0
        return np.clip(scaled, 0.0, 1.0)

    def to_json(self) -> str:
        return json.dumps(
            {
                "breakpoints": list(self.breakpoints),
                "feature_min": fmt_floats(self.feature_min),
                "feature_max": fmt_floats(self.feature_max),
                "hours": self.hours,
                "theta_s": self.theta_s,
                "delta": self.delta,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SegmentationPlan":
        obj = json.loads(text)
        return cls(
            breakpoints=tuple(obj["breakpoints"]),
            feature_min=np.array([float(v) for v in obj["feature_min"]]),
            feature_max=np.array([float(v) for v in obj["feature_max"]]),
            hours=obj["hours"],
            theta_s=obj["theta_s"],
            delta=obj["delta"],
        )


def segment_representations(normalized: np.ndarray, plan: SegmentationPlan):
    """Per-segment means g and differences d (g_0 = 0) for one address."""
    if normalized.shape[0] != plan.hours:
        raise DataError(
            f"timeline has {normalized.shape[0]} rows, plan expects {plan.hours}"
        )
    bounds = plan.segment_bounds()
    g = np.vstack([normalized[s:e].mean(axis=0) for s, e in bounds])
    prev = np.vstack([np.zeros(normalized.shape[1]), g[:-1]])
    return g, g - prev


class SegmentationPlanner(ParamsMixin):
    """Fits normalization stats and global breakpoints on training timelines."""

    def __init__(self, theta_s: float = 0.5, delta: float = 1e-8):
        self.theta_s = theta_s
        self.delta = delta
        self.plan_: SegmentationPlan | None = None

    def fit(self, matrices: list[np.ndarray]):
        if not matrices:
            raise DataError("need at least one timeline to fit a plan")
        stack = np.stack([as_float_matrix(m, "timeline") for m in matrices])
        hours = stack.shape[1]
        fmin = stack.reshape(-1, stack.shape[2]).min(axis=0)
        fmax = stack.reshape(-1, stack.shape[2]).max(axis=0)
        plan = SegmentationPlan((), fmin, fmax, hours, self.theta_s, self.delta)
        normalized = np.stack([plan.normalize(m) for m in stack])
        breakpoints = propose_breakpoints(normalized, self.theta_s, self.delta)
        self.plan_ = SegmentationPlan(breakpoints, fmin, fmax, hours,
                                      self.theta_s, self.delta)
        return self

    def transform(self, matrix: np.ndarray):
        if self.plan_ is None:
            raise NotFittedError("SegmentationPlanner is not fitted")
        normalized = self.plan_.normalize(matrix)
        return segment_representations(normalized, self.plan_)
