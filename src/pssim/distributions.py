"""Probability machinery: categorical pmfs, log-normal participation model,
Poisson event model, parameter rescaling, and a seeded random source.

Randomness discipline
---------------------
All sampling goes through :class:`RandomSource`, a thin wrapper over numpy's
PCG64 bit generator.  A source is identified by its master seed plus a path
of named substreams; ``substream(name)`` derives an independent child stream
deterministically, so adding draws in one pipeline stage never perturbs the
draws of another.  Identical seed and call sequence reproduce identical
output bit-for-bit across platforms.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Hashable, Iterable, Mapping

import numpy as np

from .errors import PsSimError

#: Absolute tolerance on |sum(probs) - 1| for every pmf in the package.
NORMALIZATION_TOL = 1e-9

#: Name of the underlying bit generator; pinned so golden traces stay valid.
GENERATOR_NAME = "pcg64"

_STANDARD_NORMAL = NormalDist()


def _stream_key(name: str) -> int:
    """Stable 64-bit key for a named substream (independent of PYTHONHASHSEED)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomSource:
    """Deterministic, splittable random source.

    ``generator`` exposes the underlying :class:`numpy.random.Generator` for
    bulk draws; ``substream(name)`` returns an independent child source keyed
    by the master seed and the path of substream names.
    """

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        if not 0 <= seed < 2**64:
            raise PsSimError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        self._spawn_key = _spawn_key
        seq = np.random.SeedSequence(seed, spawn_key=_spawn_key)
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def substream(self, name: str) -> "RandomSource":
        """Derive the independent child stream identified by ``name``."""
        return RandomSource(self.seed, self._spawn_key + (_stream_key(name),))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, path={self._spawn_key!r})"


@dataclass(frozen=True)
class Pmf:
    """Normalized categorical distribution over a finite, ordered support."""

    support: tuple[Hashable, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.support:
            raise PsSimError("empty distribution")
        if len(self.support) != len(self.probs):
            raise PsSimError("support and probs lengths differ")
        if len(set(self.support)) != len(self.support):
            raise PsSimError("support labels must be duplicate-free")
        if any(not math.isfinite(p) or p < 0.0 for p in self.probs):
            raise PsSimError("probabilities must be finite and >= 0")
        if abs(math.fsum(self.probs) - 1.0) > NORMALIZATION_TOL:
            raise PsSimError(
                f"probabilities sum to {math.fsum(self.probs)!r}, not 1"
            )

    def prob(self, label: Hashable) -> float:
        try:
            return self.probs[self.support.index(label)]
        except ValueError:
            raise PsSimError(f"label {label!r} not in support") from None

    def cumulative(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.probs, dtype=np.float64))

    def as_dict(self) -> dict[Hashable, float]:
        return dict(zip(self.support, self.probs))


def pmf_from_counts(counts: Mapping[Hashable, float]) -> Pmf:
    """Normalize a map of nonnegative counts into a Pmf.

    Support order follows the mapping's iteration order.  All-zero or empty
    counts are rejected.
    """
    if any(c < 0 for c in counts.values()):
        raise PsSimError("counts must be nonnegative")
    total = math.fsum(counts.values())
    if not counts or total <= 0:
        raise PsSimError("empty distribution")
    support = tuple(counts.keys())
    probs = tuple(counts[s] / total for s in support)
    return Pmf(support, probs)


def uniform_pmf(support: Iterable[Hashable]) -> Pmf:
    """Equal mass on every element of ``support``, in its order; an empty
    or duplicated support is rejected as by ``Pmf``."""
    support = tuple(support)
    return Pmf(support, tuple(1 / len(support) for _ in support))


def _categorical_indices(cumulative: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms in [0, 1) to support indices by inverse-CDF lookup.

    The index of ``u`` is the number of entries of ``cumulative[:-1]`` at
    or below it, one vectorized compare per entry: the same index as
    ``min(searchsorted(cumulative, u, "right"), K - 1)``, so a ``u`` past a
    rounded-down last entry still maps to the last index.
    """
    idx = np.zeros(np.shape(u), dtype=np.intp)
    for edge in cumulative[:-1].tolist():
        idx += u >= edge
    return idx


def pmf_sample(pmf: Pmf, rng: RandomSource) -> Hashable:
    """Draw one support element with the pmf's probabilities."""
    u = rng.generator.random()
    return pmf.support[int(_categorical_indices(pmf.cumulative(), np.asarray(u)))]


def pmf_sample_indices(pmf: Pmf, size: int, rng: RandomSource) -> np.ndarray:
    """Draw ``size`` support indices in one batch (one uniform per draw)."""
    u = rng.generator.random(size)
    return _categorical_indices(pmf.cumulative(), u)


@dataclass(frozen=True)
class LogNormalParams:
    """Location/scale pair of the participation model, in log space."""

    m: float
    s: float

    def __post_init__(self) -> None:
        if not self.s > 0.0:
            raise PsSimError(f"scale parameter must be > 0, got {self.s}")


def lognormal_pdf(x: float, params: LogNormalParams) -> float:
    """Log-normal density 1/(s*x*sqrt(2pi)) * exp(-(ln x - m)^2 / (2 s^2))."""
    if x <= 0.0:
        raise PsSimError(f"support violation: x must be > 0, got {x}")
    z = (math.log(x) - params.m) / params.s
    return math.exp(-0.5 * z * z) / (params.s * x * math.sqrt(2.0 * math.pi))


def lognormal_cdf(x: float, params: LogNormalParams) -> float:
    if x <= 0.0:
        return 0.0
    return _STANDARD_NORMAL.cdf((math.log(x) - params.m) / params.s)


def lognormal_quantile(p: float, params: LogNormalParams) -> float:
    """Inverse CDF; ``p`` must lie strictly inside (0, 1)."""
    if not 0.0 < p < 1.0:
        raise PsSimError(f"quantile level must be in (0, 1), got {p}")
    return math.exp(params.m + params.s * _STANDARD_NORMAL.inv_cdf(p))


def lognormal_quantiles(p: np.ndarray, params: LogNormalParams) -> np.ndarray:
    """``lognormal_quantile`` of every level in ``p``, bit for bit.

    ``NormalDist.inv_cdf`` is Wichura's AS241; its central branch
    (|p - 0.5| <= 0.425) is plain arithmetic, so it is evaluated here on
    the whole array with the same constants in the same order.  The tails
    still go through ``inv_cdf``, and every exponential through
    ``math.exp``, whose last bit numpy's ``exp`` need not match.
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise PsSimError("quantile levels must be in (0, 1)")
    q = p - 0.5
    central = np.abs(q) <= 0.425
    z = np.empty_like(p)
    qc = q[central]
    r = 0.180625 - qc * qc
    num = (((((((2.50908_09287_30122_6727e+3 * r +
                 3.34305_75583_58812_8105e+4) * r +
                 6.72657_70927_00870_0853e+4) * r +
                 4.59219_53931_54987_1457e+4) * r +
                 1.37316_93765_50946_1125e+4) * r +
                 1.97159_09503_06551_4427e+3) * r +
                 1.33141_66789_17843_7745e+2) * r +
                 3.38713_28727_96366_6080e+0) * qc
    den = (((((((5.22649_52788_52854_5610e+3 * r +
                 2.87290_85735_72194_2674e+4) * r +
                 3.93078_95800_09271_0610e+4) * r +
                 2.12137_94301_58659_5867e+4) * r +
                 5.39419_60214_24751_1077e+3) * r +
                 6.87187_00749_20579_0830e+2) * r +
                 4.23133_30701_60091_1252e+1) * r +
                 1.0)
    z[central] = num / den
    z[~central] = [_STANDARD_NORMAL.inv_cdf(x) for x in p[~central].tolist()]
    return np.asarray([math.exp(x) for x in (params.m + params.s * z).tolist()])


def lognormal_sample_counts(
    n: int, params: LogNormalParams, rng: RandomSource
) -> np.ndarray:
    """Draw ``n`` per-participant report quotas.

    Each quota is a continuous log-normal draw rounded to the nearest
    nonnegative integer; a quota of 0 is a registered but silent participant.
    """
    if n < 1:
        raise PsSimError(f"need at least one participant, got n={n}")
    draws = rng.generator.lognormal(mean=params.m, sigma=params.s, size=n)
    return np.rint(draws).astype(np.int64)


def fit_lognormal(samples: Iterable[float] | np.ndarray) -> LogNormalParams:
    """Log-moment estimator: m = mean(ln x), s = sample std dev of ln x."""
    if not isinstance(samples, np.ndarray):
        samples = list(samples)
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size < 2:
        raise PsSimError(f"need at least 2 samples to fit, got {arr.size}")
    if np.any(arr <= 0.0):
        raise PsSimError("support violation: all samples must be > 0")
    logs = np.log(arr)
    s = float(np.std(logs, ddof=1))
    if s == 0.0:
        raise PsSimError("zero variance: all samples identical")
    return LogNormalParams(m=float(np.mean(logs)), s=s)


def rescale(mlog: float, sdlog: float, tau: int) -> LogNormalParams:
    """Rescale weekly participation parameters to a tau-day horizon.

    The expected per-participant quota scales linearly with duration
    (mu = mlog + ln(tau/7)) while the log-scale, hence relative dispersion,
    is preserved.  At tau=7 this is the identity.
    """
    if tau < 1:
        raise PsSimError(f"tau must be >= 1, got {tau}")
    return LogNormalParams(m=mlog + math.log(tau / 7.0), s=sdlog)


def poisson_pmf(k: int, lam: float) -> float:
    """P(k) = exp(-lam) * lam^k / k!, evaluated in log space for stability."""
    if k < 0:
        raise PsSimError(f"k must be >= 0, got {k}")
    if lam <= 0.0:
        raise PsSimError(f"rate must be > 0, got {lam}")
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def poisson_sample(lam: float, rng: RandomSource) -> int:
    """One draw from Poisson(lam)."""
    if lam <= 0.0:
        raise PsSimError(f"rate must be > 0, got {lam}")
    return int(rng.generator.poisson(lam))
