"""Generative model for ordinal paired-comparison outcomes.

An outcome Y takes values in {-K, ..., -1, 1, ..., K} (no ties).  Its law is
an exponential-family tilt

    P(Y = k)  propto  exp( phi(sign(k) * gamma) + psi(|k|) ),

where ``phi`` is a strength link (monotone, odd) applied to the latent
preference difference ``gamma`` between the two items, and ``psi`` weights the
outcome magnitudes.  The law factorizes: sign(Y) is Bernoulli with
P(Y > 0) = sigmoid(2 * phi(gamma)), and |Y| is an independent draw from the
magnitude distribution with weights proportional to exp(psi(k)).  All
arithmetic here is done in log space so that steep links (e.g. cubic) do not
overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import erf, expit, log_ndtr, ndtr

__all__ = [
    "InvalidPatternError",
    "CorruptDataError",
    "StrengthLink",
    "PatternDistribution",
    "ModelMoments",
    "OrdinalModel",
    "log_cosh",
    "sech2",
]

_LOG2 = math.log(2.0)
# |phi| and |lam| * max k up to here take the log1p forms below; beyond it
# the log-sum-exp forms, whose absolute error no longer swamps the result
_SMALL_ARG = 1.0

# The links, by the names that ``name[:scale]`` specs use
LINK_NAMES = ("cubic", "identity", "tanhsig", "logitnorm")
# The patterns, by the names that ``name[:args][,K=<k>]`` specs use, and how
# many numbers follow ``name:`` (None: a weight list, whose length is K)
_PATTERN_ARITY = {"abs": 1, "sq": 1, "uniform": 0, "weights": None,
                  "min-unconstrained": 0, "min-monotone": 0}
PATTERN_FAMILIES = ("abs", "sq")  # the names that take a beta


class InvalidPatternError(ValueError):
    """Raised when the given weights or parameters make no magnitude law."""


class CorruptDataError(ValueError):
    """Raised when observed outcomes violate the no-ties contract."""


def _check_finite(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


@dataclass(frozen=True)
class StrengthLink:
    """Monotone, origin-antisymmetric map from preference difference to
    propensity scale.

    ``kind`` is a name from ``LINK_NAMES``; ``scale`` is a positive
    multiplier.  ``logitnorm`` is scale * log(F(x) / (1 - F(x))) for the
    standard normal CDF F (Thurstone): a log1p with no cancellation up to
    |x| = _SMALL_ARG, and log_ndtr on both tails beyond, accurate far past
    the point where 1 - F(x) underflows.  For the logistic CDF that logit
    is x itself, so Bradley-Terry is ``identity``.  ``from_spec`` and
    ``spec`` read and write the ``name[:scale]`` strings.
    """

    kind: str = "identity"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in LINK_NAMES:
            raise ValueError(f"unknown link {self.kind!r}; choose from {'|'.join(LINK_NAMES)}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"link scale {self.scale!r} is not a positive finite real")

    def __call__(self, x):
        """Evaluate the link; accepts scalars or arrays, returns the same.
        A value past float range is refused, naming the link and gamma."""
        arr = _check_finite(x, "link argument")
        with np.errstate(over="ignore", divide="ignore"):
            if self.kind == "cubic":
                out = self.scale * arr**3
            elif self.kind == "identity":
                out = self.scale * arr
            elif self.kind == "tanhsig":
                # (1 - e^-x) / (1 + e^-x) == tanh(x / 2), exactly odd in floats
                out = self.scale * np.tanh(arr / 2.0)
            else:  # logitnorm: F(|x|) / F(-|x|) = 1 + erf(|x| / sqrt 2) / F(-|x|)
                a = np.abs(arr)
                near = np.sign(arr) * np.log1p(erf(a / math.sqrt(2.0)) / ndtr(-a))
                out = self.scale * np.where(a <= _SMALL_ARG, near,
                                            log_ndtr(arr) - log_ndtr(-arr))
            finite = np.isfinite(out)
            if self.kind == "cubic" and not finite.all():
                # x**3 left float range before the scale could bring it back
                out = np.where(finite, out, self.scale * arr * arr * arr)
                finite = np.isfinite(out)
        if not finite.all():
            gamma = float(arr[~finite].flat[0])
            raise ValueError(f"link {self.spec} leaves float range at gamma={gamma!r}")
        if np.ndim(x) == 0:
            return float(out)
        return out

    @classmethod
    def from_spec(cls, spec: str) -> "StrengthLink":
        """The link named by ``name[:scale]``, a name from ``LINK_NAMES``;
        a scale, when the colon is there, must be a number."""
        if not isinstance(spec, str):
            raise ValueError(f"a link is a name[:scale] string such as 'cubic:3.0', "
                             f"not {spec!r}")
        name, colon, scale = spec.partition(":")
        try:
            value = float(scale) if colon else 1.0
        except ValueError:
            raise ValueError(f"bad link scale {scale!r} in {spec!r}") from None
        return cls(name, value)

    @property
    def spec(self) -> str:
        """The ``name[:scale]`` string that ``from_spec`` reads back."""
        return self.kind if self.scale == 1.0 else f"{self.kind}:{self.scale!r}"


@dataclass(frozen=True)
class PatternDistribution:
    """Distribution of the outcome magnitude |Y| on {1, ..., K}.

    Canonical form is the normalized weight vector, so magnitude laws with
    zero-probability levels (log-weight -inf) are representable and adding a
    constant to the log weights is a no-op.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise InvalidPatternError("weights must be a non-empty 1-d sequence")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InvalidPatternError("weights must be finite and non-negative")
        with np.errstate(over="ignore"):  # a sum past the largest float is refused below
            total = w.sum()
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise InvalidPatternError(f"weights sum to {float(total)!r}, expected 1")
        object.__setattr__(self, "weights", tuple(float(v) for v in w))

    @property
    def K(self) -> int:
        return len(self.weights)

    @classmethod
    def from_weights(cls, weights: Sequence[float]) -> "PatternDistribution":
        w = np.asarray(weights, dtype=float)
        if not (np.any(w > 0) and np.all(w >= 0) and np.all(np.isfinite(w))):
            raise InvalidPatternError("weights must be non-negative with positive sum")
        with np.errstate(over="ignore"):  # finite weights may sum past the largest float
            w = w / w.max() if w.sum() == np.inf else w  # a finite sum keeps every bit
        return cls(tuple(w / w.sum()))

    @classmethod
    def from_psi(cls, psi_values: Sequence[float]) -> "PatternDistribution":
        """Normalized exp(psi) weights, computed as a log-space softmax.

        Entries of -inf are allowed and map to weight exactly 0.
        """
        psi = np.asarray(psi_values, dtype=float)
        if psi.ndim != 1 or psi.size < 1:
            raise InvalidPatternError("psi must be a non-empty 1-d sequence")
        if np.any(np.isnan(psi)) or np.any(psi == np.inf):
            raise InvalidPatternError("psi entries must be real or -inf")
        top = np.max(psi)
        if top == -np.inf:
            raise InvalidPatternError("psi is -inf everywhere")
        shifted = np.exp(psi - top)
        return cls(tuple(shifted / shifted.sum()))

    @classmethod
    def uniform(cls, K: int) -> "PatternDistribution":
        if K < 1:
            raise InvalidPatternError("K must be >= 1")
        return cls((1.0 / K,) * K)

    @classmethod
    def from_family(cls, family: str, beta: float, K: int) -> "PatternDistribution":
        """Magnitude-penalty families: 'abs' is psi(k) = -beta*k and
        'sq' is psi(k) = -beta*k^2.  A beta so large that some psi(k) leaves
        float range puts all mass on the level that maximises psi."""
        if family not in PATTERN_FAMILIES:
            raise ValueError(f"unknown pattern family {family!r}")
        if not (math.isfinite(beta) and K >= 1):
            raise InvalidPatternError(f"pattern {family} needs a finite beta and "
                                      f"K >= 1, got beta={beta!r} and K={K}")
        ks = np.arange(1, K + 1, dtype=float) ** (1 if family == "abs" else 2)
        with np.errstate(over="ignore"):
            psi = -beta * ks
        if np.isinf(psi).any():
            psi = np.where(ks == (ks[0] if beta > 0 else ks[-1]), 0.0, -np.inf)
        return cls.from_psi(psi)

    @classmethod
    def from_spec(cls, spec: str, K: int | None = None,
                  K_from: str = "flag --K") -> "PatternDistribution":
        """The law of ``name[:args][,K=<k>]``: abs:<beta>, sq:<beta>, uniform,
        weights:w1,..,wK, min-unconstrained or min-monotone.  Every K given (``K``,
        ``,K=`` parts, a weight count) must agree, and one must be given; the
        message names ``K_from`` as where ``K`` comes from.  Other specs raise
        ValueError; numbers that make no law raise InvalidPatternError."""
        name, texts, K_texts = cls.split_spec(spec)
        if name not in _PATTERN_ARITY:
            raise ValueError(f"unknown pattern {name!r}; choose from "
                             f"{'|'.join(_PATTERN_ARITY)}")
        arity = _PATTERN_ARITY[name]
        try:
            Ks = {int(k) for k in K_texts} | ({K} - {None})
            args = [float(v) for v in texts]
        except ValueError:
            raise ValueError(f"bad number in pattern spec {spec!r}") from None
        if arity is None and args:
            Ks.add(len(args))
        elif len(args) != arity:
            wanted = {None: "a weight list", 0: "no argument", 1: "one number"}[arity]
            raise ValueError(f"pattern {name!r} takes {wanted} in {spec!r}")
        if len(Ks) != 1:
            raise ValueError(f"pattern {name!r} needs one K ({K_from} or ',K=<k>'), "
                             f"got {sorted(Ks) or 'none'}")
        K = Ks.pop()
        if name in PATTERN_FAMILIES:
            return cls.from_family(name, args[0], K)
        if name == "weights":
            return cls.from_weights(args)
        if name == "uniform":
            return cls.uniform(K)
        from . import snr  # snr imports this module
        return getattr(snr, "minimal_snr_" + name.removeprefix("min-"))(K)[1]

    @staticmethod
    def split_spec(spec: str) -> tuple[str, list[str], list[str]]:
        """The name, argument texts and ``K=`` values of a pattern spec."""
        if not isinstance(spec, str):
            raise ValueError("a pattern is a name[:args][,K=<k>] string such as "
                             f"'abs:0.5,K=4' or 'weights:0.5,0.5', not {spec!r}")
        parts = [p.strip() for p in spec.split(",") if p.strip()]
        body = [p for p in parts if not p.upper().startswith("K=")]
        if not body:
            raise ValueError(f"empty pattern spec {spec!r}")
        name, colon, first = body[0].partition(":")
        return name, ([first] if colon else []) + body[1:], [p[2:] for p in parts if p not in body]

    @property
    def magnitudes(self) -> np.ndarray:
        return np.arange(1, self.K + 1, dtype=float)

    def mean(self) -> float:
        return float(np.dot(self.magnitudes, self.weights))

    def second_moment(self) -> float:
        return float(np.dot(self.magnitudes**2, self.weights))

    def variance(self) -> float:
        return max(self.second_moment() - self.mean() ** 2, 0.0)

    def is_degenerate(self) -> bool:
        return sum(1 for w in self.weights if w > 0) == 1

    @property
    def inverse_snr(self) -> float:
        """1/SNR(|Y|) = var(|Y|) / (E|Y|)^2; exactly 0 for a degenerate law,
        where the variance would otherwise keep a rounding residue."""
        if self.is_degenerate():
            return 0.0
        return self.variance() / self.mean() ** 2

    def to_dict(self) -> dict:
        # 17 significant digits round-trips IEEE doubles bit-exactly
        return {"K": self.K, "weights": [f"{w:.17g}" for w in self.weights]}

    @classmethod
    def from_dict(cls, d: dict) -> "PatternDistribution":
        if "weights" not in d:
            raise InvalidPatternError("pattern dict needs 'weights'")
        pattern = cls(tuple(float(v) for v in d["weights"]))
        if "K" in d and int(d["K"]) != pattern.K:
            raise InvalidPatternError(f"K={d['K']} but the pattern has {pattern.K} levels")
        return pattern


class ModelMoments(NamedTuple):
    mean: float
    variance: float
    snr: float


def log_cosh(x):
    """log cosh x for scalars or arrays: log1p(2 sinh^2(x/2)) keeps full
    relative precision at tiny |x|, and |x| + log1p(e^-2|x|) - log 2 stays
    finite at huge |x|."""
    a = np.abs(np.asarray(x, dtype=float))
    with np.errstate(over="ignore"):
        out = np.where(a <= _SMALL_ARG, np.log1p(2.0 * np.sinh(a / 2.0) ** 2),
                       a + np.log1p(np.exp(-2.0 * a)) - _LOG2)
    if np.ndim(x) == 0:
        return float(out)
    return out


def sech2(x):
    """sech^2 x = 1 - tanh^2 x, without the cancellation that zeroes the
    difference once tanh rounds to 1 (from |x| ~ 19)."""
    out = np.exp(-2.0 * log_cosh(x))
    if np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class OrdinalModel:
    """Ordinal comparison law over {-K..-1, 1..K} for given link and
    magnitude pattern; ``gamma`` is supplied per evaluation."""

    link: StrengthLink
    pattern: PatternDistribution

    @property
    def K(self) -> int:
        return self.pattern.K

    @property
    def support(self) -> np.ndarray:
        K = self.K
        return np.concatenate([np.arange(-K, 0), np.arange(1, K + 1)])

    def prob_positive(self, gamma: float) -> float:
        """P(Y > 0) = sigmoid(2 * phi(gamma)); does not depend on the
        magnitude pattern."""
        return float(expit(2.0 * self.link(gamma)))

    def pmf_table(self, gamma) -> tuple[np.ndarray, np.ndarray]:
        """Support values k and their probabilities
        P(Y = k) = w_|k| * sigmoid(2 * sign(k) * phi(gamma)), ordered
        -K..-1, 1..K; an array of gammas gives one row per gamma.  Each sign
        takes its own sigmoid, so negating gamma mirrors a row exactly."""
        w = np.asarray(self.pattern.weights)
        two_phi = 2.0 * self.link(gamma)
        probs = np.concatenate([np.multiply.outer(expit(-two_phi), w[::-1]),
                                np.multiply.outer(expit(two_phi), w)], axis=-1)
        return self.support, probs

    def moments(self, gamma: float) -> ModelMoments:
        """Mean, variance and signal-to-noise ratio of Y.

        mean = tanh(phi(gamma)) * E|Y|,  var = E|Y|^2 - mean^2,
        snr  = tanh^2 / (1/snr(|Y|) + sech^2); a degenerate law where sech^2
        underflows (|phi| past about 373) yields the +inf sentinel, never NaN.
        """
        phi = self.link(gamma)
        t = math.tanh(phi)
        mean = t * self.pattern.mean()
        variance = self.pattern.second_moment() - mean * mean
        denom = self.pattern.inverse_snr + sech2(phi)
        if denom <= 0.0:
            snr = math.inf
        else:
            snr = t * t / denom
        return ModelMoments(mean, variance, snr)

    def sample(self, gamma: float, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. outcomes via inverse CDF over the 2K-row table."""
        if count < 0:
            raise ValueError("count must be >= 0")
        values, probs = self.pmf_table(gamma)
        cdf = np.cumsum(probs)
        idx = np.searchsorted(cdf, rng.random(count), side="right")
        return values[np.minimum(idx, values.size - 1)]

    def _tilted(self, gamma, lam, moments: bool) -> tuple:
        """``_tilt`` at ``gamma`` and ``lam`` broadcast together."""
        phi, lam = np.broadcast_arrays(np.asarray(self.link(gamma), dtype=float),
                                       _check_finite(lam, "lam"))
        out = self._tilt(phi)(lam, moments)
        if out[0].ndim == 0:
            return tuple(float(v) for v in out)
        return out

    def _tilt(self, phi: np.ndarray):
        """At fixed link values ``phi``, the function of ``lam`` (shaped like
        phi) and ``moments`` that returns ``(log_mgf,)`` (moments=False) or the
        tilted ``(mean, variance)``, with the terms of phi alone computed once.

        With x_k = phi + lam k over the magnitudes k of positive weight w_k,
        points where |phi| and |lam| max k are at most _SMALL_ARG use
        M - 1 = sum_k w_k (2 sinh^2(lam k / 2) + tanh phi sinh(lam k)), which
        loses nothing to cancellation at tiny phi and lam; the others use
        log-sum-exp forms over w_k e^(+-x_k - top), top = max_k |x_k|, which
        cannot overflow once every x_k is finite, and a point where one is
        not raises ValueError.  The variance is E[Y^2] - mean^2 near the origin,
        where |x_k| <= 2 keeps it above sech^2(2) E[Y^2], and the mean square
        deviation elsewhere, which stays >= 0 and accurate when saturated.
        """
        w = np.asarray(self.pattern.weights)
        ks = self.pattern.magnitudes[w > 0]
        w = w[w > 0]
        wks, wks2 = w * ks, w * ks**2
        t = np.tanh(phi)[..., None]
        level = np.abs(phi) <= _SMALL_ARG
        lc_phi = log_cosh(phi)

        def near(lk, moments):
            sh = np.sinh(lk)
            terms = 2.0 * np.sinh(lk / 2.0) ** 2 + t * sh  # cosh + t sinh - 1
            excess = (w * terms).sum(axis=-1)  # M - 1
            if not moments:
                return (np.log1p(excess),)
            mean = (wks * (sh + t * np.cosh(lk))).sum(axis=-1) / (1.0 + excess)
            square = (wks2 * (1.0 + terms)).sum(axis=-1) / (1.0 + excess)
            return mean, square - mean * mean

        def far(x, moments):
            top = np.max(np.abs(x), axis=-1, keepdims=True)
            up, down = w * np.exp(x - top), w * np.exp(-x - top)
            total = (up + down).sum(axis=-1)
            if not moments:
                return (top[..., 0] + np.log(total) - _LOG2 - lc_phi,)
            mean = (ks * (up - down)).sum(axis=-1) / total
            m = mean[..., None]
            return mean, ((ks - m) ** 2 * up + (ks + m) ** 2 * down).sum(axis=-1) / total

        def tilted(lam: np.ndarray, moments: bool) -> tuple:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                reach = np.abs(lam) * ks[-1]
                if not np.isfinite(reach).all():
                    raise ValueError(f"lam times the largest magnitude, {ks[-1]:g}, "
                                     "must be finite")
                small = level & (reach <= _SMALL_ARG)
                lk = lam[..., None] * ks
                # each form is computed only when some point needs it
                if small.all():
                    return near(lk, moments)
                x = phi[..., None] + lk
                if not np.isfinite(x).all():
                    raise ValueError("phi plus lam times a magnitude overflows the float range")
                if not small.any():
                    return far(x, moments)
                return tuple(np.where(small, a, b)
                             for a, b in zip(near(lk, moments), far(x, moments)))

        return tilted

    def log_mgf(self, gamma, lam) -> float | np.ndarray:
        """log E[exp(lam * Y)] = log sum_k w_k cosh(phi + lam k) - log cosh(phi).

        ``gamma`` and ``lam`` may be scalars or arrays and broadcast against
        each other.
        """
        return self._tilted(gamma, lam, moments=False)[0]

    def tilted_moments(self, gamma, lam) -> tuple:
        """The first two lam-derivatives of ``log_mgf``: the mean and the
        variance of Y under the law tilted by e^(lam Y),

            mean = sum_k w_k k (sinh lam k + t cosh lam k) / M,
            var  = sum_k w_k k^2 (cosh lam k + t sinh lam k) / M - mean^2,
            M    = sum_k w_k (cosh lam k + t sinh lam k),   t = tanh phi,

        from one pass over the same sums.  Broadcasts like ``log_mgf``.
        """
        return self._tilted(gamma, lam, moments=True)

    def to_dict(self) -> dict:
        return {"link": self.link.spec, "pattern": self.pattern.to_dict()}
