"""Probability machinery: categorical pmfs, the log-normal participation
model, parameter rescaling, and a seeded random source.

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
            repeated = list(dict.fromkeys(s for s in self.support if self.support.count(s) > 1))
            raise PsSimError(f"support labels must be duplicate-free, repeated: {repeated!r}")
        if any(not math.isfinite(p) or p < 0.0 for p in self.probs):
            raise PsSimError("probabilities must be finite and >= 0")
        if abs(math.fsum(self.probs) - 1.0) > NORMALIZATION_TOL:
            raise PsSimError(
                f"probabilities sum to {math.fsum(self.probs)!r}, not 1"
            )

    def cumulative(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.probs, dtype=np.float64))


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


def lognormal_cdf(x: float, params: LogNormalParams) -> float:
    if x <= 0.0:
        return 0.0
    return _STANDARD_NORMAL.cdf((math.log(x) - params.m) / params.s)


def lognormal_quantile(p: float, params: LogNormalParams) -> float:
    """Inverse CDF; ``p`` must lie strictly inside (0, 1)."""
    if not 0.0 < p < 1.0:
        raise PsSimError(f"quantile level must be in (0, 1), got {p}")
    return math.exp(params.m + params.s * _STANDARD_NORMAL.inv_cdf(p))


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
