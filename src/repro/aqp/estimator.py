"""Statistical core of the AQP subsystem.

Two responsibilities live here, deliberately free of any engine state so
they are trivially testable:

**Deterministic Bernoulli sampling.**  Membership of a row in a sample is
a pure function of its hidden ``_rowid`` and the sample's seed:
``hash64(rowid XOR seed) / 2**64 < rate``.  The same splitmix64 finalizer
the segmentation layer uses (:func:`repro.vertica.segmentation.hash64`)
gives uniform, well-mixed draws, and — because the decision depends only
on the rowid — an epoch-incremental fold over a delta window selects
*exactly* the rows a from-scratch rebuild at the same snapshot would.
That identity is what the mutation×AQP parity tests pin to 1e-9.

**Horvitz–Thompson estimation.**  Every sampled row carries a weight
``w = 1/r`` where ``r`` is its inclusion probability (uniform samples: one
rate for every row; stratified samples: a per-stratum rate, so rare strata
can be oversampled).  For independent Bernoulli inclusion the unbiased
variance estimators reduce to ``w*(w-1)`` terms:

* ``COUNT``: estimate ``sum(w)``, variance ``sum(w*(w-1))``
* ``SUM(y)``: estimate ``sum(w*y)``, variance ``sum(w*(w-1)*y**2)``
* ``AVG(y)``: the ratio ``sum(w*y)/sum(w)`` with the linearized (delta
  method) variance ``sum(w*(w-1)*(y-R)**2) / sum(w)**2``

Confidence intervals are CLT-normal: ``estimate ± z * sqrt(variance)``
with ``z`` from an Acklam-style rational approximation of the inverse
normal CDF (no scipy dependency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.vertica.segmentation import hash64

__all__ = [
    "Estimate",
    "keep_mask",
    "stratum_rates",
    "ht_estimate",
    "inverse_normal_cdf",
    "z_value",
]

#: Stratified samples keep at least this many expected rows per stratum by
#: boosting the stratum's rate above the nominal sample rate.
MIN_STRATUM_ROWS = 100


@dataclass(frozen=True)
class Estimate:
    """One approximate aggregate with its CLT confidence interval."""

    estimate: float
    ci_low: float
    ci_high: float
    se: float
    confidence: float

    @property
    def half_width(self) -> float:
        return self.ci_high - self.estimate


def keep_mask(rowids: np.ndarray, seed: int, rate: float) -> np.ndarray:
    """Deterministic Bernoulli membership: keep row iff
    ``hash64(rowid XOR seed) / 2**64 < rate``.

    A pure function of (rowid, seed), so incremental folds and full
    rebuilds select identical row sets.
    """
    rid = np.asarray(rowids).astype(np.int64, copy=False)
    mixed = rid ^ np.int64(seed & 0x7FFFFFFFFFFFFFFF)
    draws = hash64(mixed).astype(np.float64) / float(2**64)
    return draws < float(rate)


def keep_mask_stratified(
    rowids: np.ndarray,
    strata: np.ndarray,
    seed: int,
    rates: dict[object, float],
    default_rate: float,
) -> np.ndarray:
    """Per-stratum Bernoulli membership with the same hash draws.

    ``rates`` maps stratum value -> inclusion rate; strata unseen at build
    time (new values arriving in a delta) fall back to ``default_rate``.
    """
    rid = np.asarray(rowids).astype(np.int64, copy=False)
    mixed = rid ^ np.int64(seed & 0x7FFFFFFFFFFFFFFF)
    draws = hash64(mixed).astype(np.float64) / float(2**64)
    row_rates = np.fromiter(
        (float(rates.get(v, default_rate)) for v in strata.tolist()),
        dtype=np.float64, count=len(strata),
    )
    return draws < row_rates


def stratum_rates(
    counts: dict[object, int], rate: float,
    min_rows: int = MIN_STRATUM_ROWS,
) -> dict[object, float]:
    """Per-stratum inclusion rates: the nominal rate, boosted so every
    stratum expects at least ``min_rows`` sampled rows (capped at 1.0)."""
    out: dict[object, float] = {}
    for value, n in counts.items():
        boosted = max(float(rate), float(min_rows) / max(int(n), 1))
        out[value] = min(1.0, boosted)
    return out


# -- inverse normal CDF (Acklam's rational approximation) ----------------------

_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def inverse_normal_cdf(p: float) -> float:
    """The standard-normal quantile function, accurate to ~1.15e-9."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must be in (0, 1); got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4])
                 * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    if p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4])
                  * q + _C[5])
                 / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4])
             * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4])
               * r + 1.0))


def z_value(confidence: float) -> float:
    """The two-sided critical value for a ``confidence`` CLT interval."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1); got {confidence}")
    return inverse_normal_cdf(0.5 + confidence / 2.0)


# -- Horvitz–Thompson estimators -----------------------------------------------


def ht_estimate(
    func: str,
    values: np.ndarray | None,
    weights: np.ndarray,
    confidence: float,
) -> Estimate:
    """HT scale-up of one aggregate over weighted sample rows.

    ``values`` is the aggregate argument per sampled row (None for
    COUNT(*)); ``weights`` is ``1 / inclusion_rate`` per row.  Rows must
    already be predicate-filtered.
    """
    w = np.asarray(weights, dtype=np.float64)
    z = z_value(confidence)
    excess = w * (w - 1.0)  # Bernoulli variance kernel per row
    if func == "COUNT":
        est = float(np.sum(w))
        var = float(np.sum(excess))
    elif func == "SUM":
        y = np.asarray(values, dtype=np.float64)
        est = float(np.sum(w * y))
        var = float(np.sum(excess * y * y))
    elif func == "AVG":
        y = np.asarray(values, dtype=np.float64)
        n_hat = float(np.sum(w))
        if n_hat <= 0.0:
            raise ValueError("AVG over an empty sample")
        est = float(np.sum(w * y)) / n_hat
        resid = y - est
        var = float(np.sum(excess * resid * resid)) / (n_hat * n_hat)
    else:
        raise ValueError(f"unsupported approximate aggregate {func!r}")
    se = math.sqrt(max(var, 0.0))
    return Estimate(
        estimate=est,
        ci_low=est - z * se,
        ci_high=est + z * se,
        se=se,
        confidence=confidence,
    )
