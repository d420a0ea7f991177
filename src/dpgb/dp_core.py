"""Differential-privacy primitives.

L1 norms and clipping of per-user runs, seeded inverse-CDF Laplace noise,
exact quantile selection, and a per-run epsilon ledger.  Noise is
double-precision inverse-CDF sampling; mitigations for floating-point
attacks on DP (snapping, discrete noise) are deliberately out of scope for
this research-scale artifact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .schema import ConfigError

ADJACENCY = "(user, week) add/remove"

# Smallest uniform fed to the inverse CDFs; only ever replaces an exact 0.0
# draw, which Generator.random can produce.
_U_FLOOR = 2.0 ** -54

# Relative slack when checking charges against the budget, absorbing float
# accumulation across many equal charges (e.g. 27 slices of epsilon/27).
_BUDGET_SLACK = 1e-9


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary labels.

    Built on SHA-256 so results do not depend on PYTHONHASHSEED, platform,
    or process; used wherever sub-streams are derived (per user, per sweep
    cell).
    """
    token = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class BudgetExceededError(RuntimeError):
    """A charge would push the ledger past its budget."""

    def __init__(self, message: str, ledger: "PrivacyLedger"):
        super().__init__(message)
        self.ledger = ledger


@dataclass
class PrivacyLedger:
    """Accumulates epsilon charges for one release run.

    Charges compose by plain summation under the fixed adjacency relation.
    ``total`` uses an exactly rounded sum, so it is invariant under
    re-ordering of charges.
    """

    budget: float
    charges: list[tuple[str, float]] = field(default_factory=list)
    adjacency: str = ADJACENCY

    def charge(self, label: str, epsilon: float) -> None:
        if epsilon < 0 or math.isnan(epsilon):
            raise ConfigError(f"invalid charge {epsilon} for {label!r}")
        candidate = math.fsum([eps for _, eps in self.charges] + [epsilon])
        if candidate > self.budget * (1.0 + _BUDGET_SLACK):
            raise BudgetExceededError(
                f"charge {label!r} ({epsilon}) would bring the total to "
                f"{candidate}, exceeding the budget {self.budget}\n{self.summary()}",
                self,
            )
        self.charges.append((label, epsilon))

    def total(self) -> float:
        return math.fsum(eps for _, eps in self.charges)

    def snapshot(self) -> "PrivacyLedger":
        return PrivacyLedger(self.budget, list(self.charges), self.adjacency)

    def summary(self) -> str:
        lines = [f"# adjacency: {self.adjacency}"]
        lines += [f"{label},{eps!r}" for label, eps in self.charges]
        lines.append(f"total,{self.total()!r}")
        return "\n".join(lines)


def laplace_inverse_cdf(u, scale_b):
    """Map uniforms in (0, 1) to Laplace(0, b) draws; u = 0.5 maps to 0."""
    u = np.asarray(u, dtype=float)
    d = u - 0.5
    return -scale_b * np.sign(d) * np.log1p(-2.0 * np.abs(d))


def l1_norms(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """L1 norm of each run ``values[starts[i]:starts[i + 1]]``.

    Each norm is a ``math.fsum``, exactly rounded, so it does not depend on
    the order of the run.
    """
    magnitudes = np.abs(values).tolist()
    edges = np.asarray(starts).tolist()
    return np.array([math.fsum(magnitudes[lo:hi]) for lo, hi in zip(edges, edges[1:])],
                    dtype=float)


def clip_l1(values: np.ndarray, starts: np.ndarray, clip) -> np.ndarray:
    """Rescale each run ``values[starts[i]:starts[i + 1]]`` so its L1 norm
    is at most its bound; directions preserved.

    ``clip`` is one bound for every run or one per run.  A run over its
    bound is multiplied by bound / norm; one within it (including an empty
    run) keeps its values bit for bit.
    """
    bounds = np.asarray(clip, dtype=float)
    if not np.all(bounds > 0):
        raise ConfigError(f"clip bound must be > 0, got {clip}")
    bounds = np.broadcast_to(bounds, (len(starts) - 1,))
    norms = l1_norms(values, starts)
    factors = np.ones(norms.size)
    over = norms > bounds
    factors[over] = bounds[over] / norms[over]
    return values * np.repeat(factors, np.diff(starts))


def dense_laplace_noise(scale_b, seed, shape) -> np.ndarray:
    """One seeded noise stream filling ``shape`` in C order.

    ``scale_b`` may be a scalar or any array that broadcasts against
    ``shape``; the uniforms do not depend on it, so a stream reshaped to
    (slices, cells per slice) draws the same values as a flat one.  ``seed``
    may also be a Generator, whose stream then continues where the last
    call left it, so a domain noised block by block draws the same values
    as one noised at once.
    """
    rng = np.random.default_rng(seed)
    return laplace_inverse_cdf(np.maximum(rng.random(shape), _U_FLOOR), scale_b)


def exact_quantile(values, q: float) -> float:
    """Lower empirical quantile, no interpolation.

    Returns the smallest element x such that at least ceil(q * n) elements
    are <= x.  The rank is computed with exact rational arithmetic so the
    result of e.g. q=0.95, n=100 does not depend on the rounding of q * n.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    if not ordered.size:
        raise ValueError("exact_quantile needs a non-empty input")
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0, 1), got {q}")
    rank = math.ceil(Fraction(q) * ordered.size)
    return float(ordered[max(rank, 1) - 1])
