"""Differential-privacy primitives.

L1 clipping, seeded inverse-CDF Laplace noise, exact and private quantile
selection, and a per-run epsilon ledger.  Noise is double-precision
inverse-CDF sampling; mitigations for floating-point attacks on DP (snapping,
discrete noise) are deliberately out of scope for this research-scale
artifact.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .schema import ConfigError, SparseHistogram

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


@dataclass(frozen=True)
class LaplaceNoiseSpec:
    """Zero-mean Laplace noise with density exp(-|x|/b) / (2b)."""

    scale_b: float
    rng_seed: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale_b) and self.scale_b > 0):
            raise ConfigError(f"scale_b must be finite and > 0, got {self.scale_b}")


def laplace_inverse_cdf(u, scale_b):
    """Map uniforms in (0, 1) to Laplace(0, b) draws; u = 0.5 maps to 0."""
    u = np.asarray(u, dtype=float)
    d = u - 0.5
    return -scale_b * np.sign(d) * np.log1p(-2.0 * np.abs(d))


def _open_uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    return np.maximum(rng.random(shape), _U_FLOOR)


def laplace_sample(spec: LaplaceNoiseSpec, n: int) -> np.ndarray:
    """n i.i.d. Laplace(0, b) draws, reproducible bit-for-bit from the spec."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng(spec.rng_seed)
    return laplace_inverse_cdf(_open_uniforms(rng, n), spec.scale_b)


def clip_l1(v: SparseHistogram, clip: float) -> SparseHistogram:
    """Rescale v so its L1 norm is at most ``clip``; directions preserved.

    Returns v unchanged when already within the bound (including the empty
    histogram), which keeps the no-op case exact.
    """
    if math.isnan(clip) or clip <= 0:
        raise ConfigError(f"clip bound must be > 0, got {clip}")
    norm = v.l1_norm()
    if norm <= clip:
        return v
    return v.scale(clip / norm)


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
    return laplace_inverse_cdf(_open_uniforms(rng, shape), scale_b)


def exact_quantile(values, q: float) -> float:
    """Lower empirical quantile, no interpolation.

    Returns the smallest element x such that at least ceil(q * n) elements
    are <= x.  The rank is computed with exact rational arithmetic so the
    result of e.g. q=0.95, n=100 does not depend on the rounding of q * n.
    """
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("exact_quantile needs a non-empty input")
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0, 1), got {q}")
    rank = math.ceil(Fraction(q) * len(ordered))
    return ordered[max(rank, 1) - 1]


def private_quantile(
    values,
    q: float,
    epsilon_q: float,
    upper_bound: float,
    bins: int,
    seed: int,
    *,
    utility_sensitivity: float = 1.0,
    ledger: PrivacyLedger | None = None,
) -> float:
    """Quantile via the exponential mechanism over a discretized range.

    [0, upper_bound] is split into ``bins`` equal intervals; the candidate
    outputs are the interval right endpoints t.  Utility is
    -(|#{v <= t} - q * n|) and an endpoint is drawn with probability
    proportional to exp(epsilon_q * utility / (2 * utility_sensitivity)).
    The default sensitivity of 1 assumes one record per user; callers whose
    users contribute k records should pass k.

    An infinite ``epsilon_q`` short-circuits to the utility argmax (ties go
    to the smallest endpoint), for noise-free testing.
    """
    arr = np.asarray(list(values), dtype=float)
    if not (math.isfinite(upper_bound) and upper_bound > 0):
        raise ConfigError(f"upper_bound must be finite and > 0, got {upper_bound}")
    if bins < 2:
        raise ConfigError(f"bins must be >= 2, got {bins}")
    if not 0 < q < 1:
        raise ConfigError(f"q must be in (0, 1), got {q}")
    if epsilon_q <= 0:
        raise ConfigError(f"epsilon_q must be > 0, got {epsilon_q}")
    if utility_sensitivity <= 0:
        raise ConfigError("utility_sensitivity must be > 0")
    if arr.size and (arr.min() < 0 or arr.max() > upper_bound):
        raise ValueError(f"values must lie in [0, {upper_bound}]")

    endpoints = upper_bound * (np.arange(1, bins + 1) / bins)
    ranks = np.searchsorted(np.sort(arr), endpoints, side="right")
    utility = -np.abs(ranks - q * arr.size)

    if ledger is not None:
        ledger.charge("private_quantile", math.inf if math.isinf(epsilon_q) else epsilon_q)
    if math.isinf(epsilon_q):
        return float(endpoints[int(np.argmax(utility))])

    # Gumbel-max draw from the exponential-mechanism distribution.
    rng = np.random.default_rng(seed)
    gumbel = -np.log(-np.log(_open_uniforms(rng, bins)))
    scores = utility * (epsilon_q / (2.0 * utility_sensitivity)) + gumbel
    return float(endpoints[int(np.argmax(scores))])


def slice_histogram(hist: SparseHistogram, activity: int, metric: int) -> SparseHistogram:
    """Restrict to the cells of one (activity, metric) pair."""
    cells = {c: v for c, v in hist.cells.items() if c[0] == activity and c[1] == metric}
    return SparseHistogram(hist.dims, cells)
