"""Correctness, quality and determinism checks on one assignment.

Everything here runs on the driver with numpy, outside the timed region.
"""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np


def invalid_reason(ids: np.ndarray, parts: np.ndarray, n: int, k: int) -> str | None:
    """Why ``[id, part]`` is not a total assignment of ids 0..n-1 to [0, k)."""
    if ids.shape != (n,) or parts.shape != (n,):
        return f"{ids.size} rows for {n} vertices"
    if not np.array_equal(np.sort(ids), np.arange(n)):
        return "ids are not exactly 0..n-1"
    if parts.min() < 0 or parts.max() >= k:
        return f"parts outside [0, {k})"
    return None


def by_id(ids: np.ndarray, parts: np.ndarray) -> np.ndarray:
    out = np.empty(ids.size, dtype=np.int64)
    out[ids] = parts
    return out


def edge_locality(src: np.ndarray, dst: np.ndarray, parts: np.ndarray) -> float:
    """Fraction of canonical edges whose endpoints share a part (paper §4.1)."""
    return float(np.mean(parts[src] == parts[dst]))


def epsilon_balance(parts: np.ndarray, W: np.ndarray, k: int) -> float:
    """Smallest ε for which the assignment is ε-balanced (Definition 2.1),
    with ``repro.metrics.epsilon_balance`` semantics (empty parts count)."""
    worst = 0.0
    for j in range(W.shape[1]):
        loads = np.bincount(parts, weights=W[:, j], minlength=k)
        target = loads.sum() / k
        if target > 0:
            worst = max(worst, float(np.abs(loads - target).max() / target))
    return worst


def eps_tolerance(eps: float, k: int) -> float:
    """Compounded tolerance ``(1 + ε/L)^L − 1`` of ``L = log2 k`` levels at ε/L."""
    levels = max(int(np.log2(k)), 1)
    return (1.0 + eps / levels) ** levels - 1.0


def digest(parts: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(parts, dtype=np.int64).tobytes()).hexdigest()


class Ledger:
    """Assignment digests of earlier runs, kept in the checkout.

    Every run of one (workload, config, instance seed) must produce the
    digest recorded by the first such run.
    """

    def __init__(self, path: Path):
        self.path = path
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def check(self, key: str, value: str) -> bool:
        first = self.known.setdefault(key, value)
        return first == value

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True))
        os.replace(tmp, self.path)
