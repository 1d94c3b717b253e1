"""Hyper-parameters of Algorithm 1 (GD), defaults per paper §4.3.

The constants below are fixed by Algorithm 1 (§3.1–3.2) and shared by the
Spark and numpy engines. GD iterations project onto the balance planes
``⟨w_j, x⟩ = 0``; the final projection goes to the slab faces.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Per-coordinate Gaussian σ of the t=0 noise is NOISE_SIGMA_MULT / n_iter, so
# the expected noise norm matches √n / n_iter (noise only at t=0, §3.2).
NOISE_SIGMA_MULT = 1.0
# Vertex fixing freezes free coordinates with |x| ≥ FIX_THRESHOLD from
# iteration FIX_START_FRAC · n_iter on (§3.2).
FIX_THRESHOLD = 0.999
FIX_START_FRAC = 0.7
# Round cap of the final alternating projection onto the slab faces (§3.1).
FINAL_PROJECT_ITERS = 100


@dataclass
class GDParams:
    """Parameters of the projected-gradient-descent partitioner.

    - ``n_iter``: iteration budget ``I`` (paper uses 100 at FB scale; quality
      plateaus much earlier at our graph sizes).
    - ``eps``: balance tolerance; slab half-width is ``eps · Σ_i w_i^(j)``.
    - ``step_mult``: target step length is ``step_mult · √n / n_iter``
      (Fig 8: ``2·√n/100`` is a good choice at I=100).
    - ``projection``: one of ``one_shot`` (default, §3.1), ``alternating``,
      ``dykstra``, ``exact``.
    - ``adaptive``: rescale γ_t so realized ‖x_{t+1}−x_t‖ tracks the target
      step length (§3.2).
    - ``fixing``: freeze near-integral coordinates (|x| ≥ ``FIX_THRESHOLD``)
      after ``FIX_START_FRAC`` of the iterations (§3.2).
    - ``final_project``: run alternating projections to convergence (slab
      target) before rounding, fixing the one-shot drift (§3.1, Fig 9).
    """

    n_iter: int = 60
    eps: float = 0.05
    step_mult: float = 2.0
    projection: str = "one_shot"
    adaptive: bool = True
    fixing: bool = True
    final_project: bool = True
    seed: int = 0
    record_history: bool = False

    def __post_init__(self) -> None:
        if self.projection not in {"one_shot", "alternating", "dykstra", "exact"}:
            raise ValueError(f"unknown projection method {self.projection!r}")

    @property
    def fix_start(self) -> int:
        return int(FIX_START_FRAC * self.n_iter)

    def next_gamma(
        self, gamma: float | None, gnorm: float, prev_step: float, target_len: float
    ) -> float:
        """Step size γ_t of the coming update (§3.2, Fig 8).

        Fixed step length, and the first adaptive step (``gamma`` None):
        ``target_len / gnorm``, so ‖γ·grad_free‖ = ``target_len``. Adaptive: γ
        times ``clip(target_len / prev_step, 0.5, 2)``, ``prev_step`` being the
        realized length of the last update."""
        if not self.adaptive or gamma is None:
            return target_len / max(gnorm, 1e-12)
        if prev_step > 1e-12:
            return gamma * float(np.clip(target_len / prev_step, 0.5, 2.0))
        return gamma


@dataclass
class GDHistory:
    """Per-iteration diagnostics (Fig 9 traces)."""

    locality: list = field(default_factory=list)
    max_imbalance: list = field(default_factory=list)
    step_len: list = field(default_factory=list)
    n_fixed: list = field(default_factory=list)
