"""Timeline evaluation: per-step scores, early/consistency-weighted F1,
and per-address confident-time statistics.

Predictions are thresholded at 0.5.  The early-weighted score divides each
step's F1 by sqrt(step) before normalizing, so the first hours dominate; the
consistency-weighted score multiplies each step's F1 by the fraction of
addresses whose thresholded predictions agree with the following step,
weighted by sqrt(step) over steps 1..N-1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .serialize import fmt_float, open_artifact

NO_CONFIDENCE = None


def threshold_predictions(p_malicious: np.ndarray) -> np.ndarray:
    """(B, T) probabilities -> 0/1 labels; 0.5 counts as positive."""
    return (np.asarray(p_malicious) >= 0.5).astype(np.int64)


@dataclass(slots=True)
class StepScores:
    accuracy: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray

    def means(self) -> dict[str, float]:
        return {
            "accuracy": float(self.accuracy.mean()),
            "precision": float(self.precision.mean()),
            "recall": float(self.recall.mean()),
            "f1": float(self.f1.mean()),
        }


def timeline_metrics(p_malicious: np.ndarray, labels: np.ndarray) -> StepScores:
    """Per-step accuracy/precision/recall/F1 over a (B, T) prediction matrix.

    Precision (and recall) are defined as 0 when their denominator is empty.
    """
    pred = threshold_predictions(p_malicious)
    labels = np.asarray(labels).astype(np.int64)
    if pred.ndim != 2 or labels.ndim != 1 or pred.shape[0] != labels.size:
        raise DataError("predictions must be (B, T) with one label per row")
    B, T = pred.shape
    acc = np.zeros(T)
    prec = np.zeros(T)
    rec = np.zeros(T)
    f1 = np.zeros(T)
    pos = labels == 1
    for t in range(T):
        p = pred[:, t]
        tp = int(np.sum((p == 1) & pos))
        fp = int(np.sum((p == 1) & ~pos))
        fn = int(np.sum((p == 0) & pos))
        acc[t] = float(np.mean(p == labels))
        prec[t] = tp / (tp + fp) if tp + fp else 0.0
        rec[t] = tp / (tp + fn) if tp + fn else 0.0
        f1[t] = (2 * prec[t] * rec[t] / (prec[t] + rec[t])
                 if prec[t] + rec[t] else 0.0)
    return StepScores(acc, prec, rec, f1)


def f1_early(f1_sequence: np.ndarray) -> float:
    """Sum of F1_i / sqrt(i) over i=1..N, normalized by sum of 1 / sqrt(i)."""
    f1_sequence = np.asarray(f1_sequence, dtype=np.float64)
    n = f1_sequence.size
    if n == 0:
        raise DataError("need at least one step")
    inv = 1.0 / np.sqrt(np.arange(1, n + 1, dtype=np.float64))
    return float(np.sum(f1_sequence * inv) / np.sum(inv))


def consistency_fractions(p_malicious: np.ndarray) -> np.ndarray:
    """Fraction of addresses whose thresholded label agrees with the next
    step, for steps 1..N-1."""
    pred = threshold_predictions(p_malicious)
    if pred.shape[1] < 2:
        raise DataError("need at least two steps for consistency")
    return (pred[:, :-1] == pred[:, 1:]).mean(axis=0)


def f1_consistency(f1_sequence: np.ndarray, p_malicious: np.ndarray) -> float:
    """Sum over i=1..N-1 of sqrt(i) * F1_i * consistent_fraction_i,
    normalized by sum of sqrt(i)."""
    f1_sequence = np.asarray(f1_sequence, dtype=np.float64)
    frac = consistency_fractions(p_malicious)
    n = f1_sequence.size
    if frac.size != n - 1:
        raise DataError("consistency fractions must cover steps 1..N-1")
    w = np.sqrt(np.arange(1, n, dtype=np.float64))
    return float(np.sum(w * f1_sequence[:-1] * frac) / np.sum(w))


def confident_time(p_row: np.ndarray, label: int) -> int | None:
    """Smallest 1-based step from which the thresholded prediction stays
    constant and equal to the label; None when the final call is wrong."""
    pred = threshold_predictions(np.asarray(p_row)[None, :])[0]
    if pred[-1] != label:
        return NO_CONFIDENCE
    t = pred.size - 1
    while t > 0 and pred[t - 1] == label:
        t -= 1
    return t + 1


@dataclass(slots=True)
class EvalReport:
    step_scores: StepScores
    f1_early: float
    f1_consistency: float
    confident_times: dict[str, int | None]
    means: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "per_step": {
                "accuracy": list(self.step_scores.accuracy),
                "precision": list(self.step_scores.precision),
                "recall": list(self.step_scores.recall),
                "f1": list(self.step_scores.f1),
            },
            "means": self.means,
            "f1_early": self.f1_early,
            "f1_consistency": self.f1_consistency,
            "confident_times": {
                k: (v if v is not None else "no-confidence")
                for k, v in sorted(self.confident_times.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def evaluate(addresses, p_malicious: np.ndarray, labels: np.ndarray) -> EvalReport:
    scores = timeline_metrics(p_malicious, labels)
    fe = f1_early(scores.f1)
    fc = f1_consistency(scores.f1, p_malicious)
    times = {
        addr: confident_time(p_malicious[i], int(labels[i]))
        for i, addr in enumerate(addresses)
    }
    report = EvalReport(scores, fe, fc, times)
    report.means = scores.means()
    return report


def write_eval_csv(path, report: EvalReport) -> None:
    with open_artifact(path) as fh:
        fh.write("t_index,accuracy,precision,recall,f1\n")
        s = report.step_scores
        for t in range(s.f1.size):
            fh.write(f"{t + 1},{fmt_float(s.accuracy[t])},{fmt_float(s.precision[t])},"
                     f"{fmt_float(s.recall[t])},{fmt_float(s.f1[t])}\n")


def write_survival_csv(path, addresses, survival: np.ndarray) -> None:
    with open_artifact(path) as fh:
        fh.write("address,t_index,survival\n")
        for i, addr in enumerate(addresses):
            for t in range(survival.shape[1]):
                fh.write(f"{addr},{t + 1},{fmt_float(survival[i, t])}\n")
