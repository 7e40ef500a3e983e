"""Independent references the benchmark checks ``ordrank`` outputs against.

None of these call ``ordrank``: the model law is rebuilt from its
definition, P(Y = k) = w_|k| * sigmoid(2 * sign(k) * phi(gamma)).

- ``two_item_exact``: P(raw sum > 0) by L-fold convolution of the 2K-point
  pmf and P(sign sum > 0) as a binomial tail.
- ``RatesOracle``: misranking rates in 40-digit arithmetic (mpmath), with
  the minimising lambda found as the root of the analytic derivative.
- ``nitem_taus``: n-item ranking errors from multinomial outcome counts,
  used once to record ``refs_nitem.json`` at a high replication count.
- ``evaluate_reference``: expected split-protocol accuracies, exact for
  sign-sum (hypergeometric) and Monte-Carlo for raw-sum.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.special import expit, ndtr

TAIL_5SD = float(2.0 * ndtr(-5.0))  # two-sided normal tail beyond 5 sd


# -- model law ---------------------------------------------------------------

def pattern_weights(spec: str) -> np.ndarray:
    """Magnitude weights for the ``ordrank`` pattern spec strings used here."""
    body, _, k = spec.partition(",K=")
    K = int(k)
    name, _, arg = body.partition(":")
    ks = np.arange(1, K + 1, dtype=float)
    if name == "abs":
        w = np.exp(-float(arg) * ks)
    elif name == "sq":
        w = np.exp(-float(arg) * ks**2)
    elif name == "uniform":
        w = np.ones(K)
    elif name == "min-unconstrained":
        w = np.zeros(K)
        w[0], w[-1] = K / (K + 1.0), 1.0 / (K + 1.0)
    elif name == "min-monotone":
        tail = 2.0 * (2 * K - 1) / (K * (K - 1) * (2 * K + 5.0))
        w = np.r_[(2.0 * K * K + K + 2.0) / (2.0 * K * K + 5.0 * K), [tail] * (K - 1)]
    else:
        raise ValueError(f"no oracle for pattern {spec!r}")
    return w / w.sum()


def pmf(weights: np.ndarray, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Support -K..-1, 1..K and its probabilities."""
    K = weights.size
    p_pos = expit(2.0 * phi)
    values = np.r_[np.arange(-K, 0), np.arange(1, K + 1)]
    return values, np.r_[weights[::-1] * (1.0 - p_pos), weights * p_pos]


# -- two-item ------------------------------------------------------------------

def two_item_exact(weights: np.ndarray, phi: float, L_grid) -> dict[int, tuple[float, float]]:
    """{L: (P(raw sum > 0), P(sign sum > 0))} for i.i.d. outcomes."""
    from scipy.stats import binom

    K = weights.size
    _, probs = pmf(weights, phi)
    step = np.zeros(2 * K + 1)  # index = value + K, no zero outcome
    step[:K], step[K + 1:] = probs[:K], probs[K:]
    dist = np.ones(1)
    out, done = {}, 0
    for L in sorted(L_grid):
        for _ in range(L - done):
            dist = np.convolve(dist, step)
        done = L
        p_raw = float(dist[L * K + 1:].sum())
        p_sign = float(binom.sf(L // 2, L, expit(2.0 * phi)))
        out[L] = (p_raw, p_sign)
    return out


def binomial_band(p: float, reps: int) -> tuple[float, float]:
    """Hit-rate band holding all but ``TAIL_5SD`` of Binomial(reps, p): the
    exact-distribution form of a 5-standard-error check."""
    from scipy.stats import binom

    lo = binom.ppf(TAIL_5SD / 2.0, reps, p)
    hi = binom.isf(TAIL_5SD / 2.0, reps, p)
    return float(lo) / reps, float(hi) / reps


# -- rates ---------------------------------------------------------------------

class RatesOracle:
    """High-precision Cramer rates at zero for the sweep's links/patterns."""

    def __init__(self, dps: int = 40):
        import mpmath

        self.mp = mpmath.mp.clone()
        self.mp.dps = dps

    def phi(self, link: str, gamma: float):
        mp = self.mp
        g = mp.mpf(gamma)
        if link == "cubic":
            return g**3
        if link == "identity":
            return g
        if link == "tanhsig":
            return mp.tanh(g / 2)
        if link == "logitnorm":
            return mp.log(mp.ncdf(g)) - mp.log(mp.ncdf(-g))
        raise ValueError(f"no oracle for link {link!r}")

    def binary(self, phi) -> float:
        return float(self.mp.log(self.mp.cosh(phi)))

    def _terms(self, weights, phi, lam):
        """log M, d/dlam log M, d2/dlam2 log M for one comparison law."""
        mp = self.mp
        c0 = c2 = s1 = mp.zero
        for k, w in enumerate(weights, start=1):
            if w == 0:
                continue
            w = mp.mpf(float(w))
            e = mp.exp(phi + lam * k)
            ch, sh = (e + 1 / e) / 2, (e - 1 / e) / 2
            c0 += w * ch
            s1 += w * k * sh
            c2 += w * k * k * ch
        d1 = s1 / c0
        return mp.log(c0) - mp.log(mp.cosh(phi)), d1, c2 / c0 - d1 * d1

    def _minimise(self, parts) -> float:
        """Rate = -min over lam of sum_t m_t log M_t(c_t lam), parts = (weights,
        phi, c_t, m_t); safeguarded Newton on the increasing derivative."""
        mp = self.mp

        def deriv(lam):
            d1 = d2 = mp.zero
            for w, phi, c, m in parts:
                _, a, b = self._terms(w, phi, c * lam)
                d1 += m * c * a
                d2 += m * c * c * b
            return d1, d2

        hi = mp.zero
        lo = -mp.mpf(max(abs(phi) for _, phi, _, _ in parts)) - 1
        while deriv(lo)[0] > 0:
            lo *= 2
        lam = (lo + hi) / 2
        tol = mp.mpf(10) ** (-mp.dps + 10)
        for _ in range(400):
            d1, d2 = deriv(lam)
            if d1 > 0:
                hi = lam
            else:
                lo = lam
            step = lam - d1 / d2 if d2 > 0 else (lo + hi) / 2
            nxt = step if lo < step < hi else (lo + hi) / 2
            if abs(nxt - lam) <= tol * (1 + abs(lam)):
                lam = nxt
                break
            lam = nxt
        return float(-sum(m * self._terms(w, phi, c * lam)[0] for w, phi, c, m in parts))

    def ordinal(self, weights, phi) -> float:
        return self._minimise([(weights, phi, 1, 1)])

    def nitem(self, weights, link: str, theta, i: int, j: int) -> float:
        """Rate that item j out-scores item i (theta_i > theta_j) in the
        n-item counting algorithm: direct term at 2*lam plus the indirect
        terms through every other item k (gaps equal to 1e-15 merged)."""
        terms = Counter([(round(theta[i] - theta[j], 15), 2)])
        for k in range(len(theta)):
            if k not in (i, j):
                terms[(round(theta[i] - theta[k], 15), 1)] += 1
                terms[(round(theta[k] - theta[j], 15), 1)] += 1
        return self._minimise([(weights, self.phi(link, g), c, m)
                               for (g, c), m in terms.items()])


# -- n-item ranking errors -----------------------------------------------------

def nitem_taus(weights: np.ndarray, theta: np.ndarray, L: int, reps: int,
               rng: np.random.Generator) -> np.ndarray:
    """(reps, 2) ranking errors (ordinal, binary) of the counting scores, from
    per-pair multinomial outcome counts; identity link."""
    n = theta.size
    iu, ju = np.triu_indices(n, k=1)
    raw = np.zeros((reps, n))
    sign = np.zeros((reps, n))
    for i, j in zip(iu.tolist(), ju.tolist()):
        values, probs = pmf(weights, float(theta[i] - theta[j]))
        counts = rng.multinomial(L, probs, size=reps)
        s, b = counts @ values, counts @ np.sign(values)
        raw[:, i] += s
        raw[:, j] -= s
        sign[:, i] += b
        sign[:, j] -= b
    dt = (theta[iu] - theta[ju])[None, :]
    out = np.empty((reps, 2))
    for col, scores in enumerate((raw, sign)):
        bad = (scores[:, iu] - scores[:, ju]) * dt <= 0
        out[:, col] = bad.mean(axis=1)
    return out


# -- ratings split protocol ----------------------------------------------------

def _n_train(n: int, train_frac: float) -> int:
    return min(max(int(train_frac * n), 1), n - 1)


def evaluate_reference(offsets, diffs, train_frac: float, min_pair_count: int,
                       reps: int, rng: np.random.Generator) -> dict:
    """Expected mean accuracies of the split protocol over eligible pairs.

    Sign-sum: exact, the train positives are hypergeometric.  Raw-sum:
    Monte-Carlo over ``reps`` random splits of every pair.  Returns the
    eligible pair indices, the binary mean, and the ordinal mean with its
    standard error over repetitions.
    """
    from scipy.stats import hypergeom

    lengths = np.diff(offsets)
    eligible = np.flatnonzero(lengths >= max(min_pair_count, 2))
    binary = np.empty(eligible.size)
    ordinal = np.zeros((reps, eligible.size))
    for n in np.unique(lengths[eligible]).tolist():
        cols = np.flatnonzero(lengths[eligible] == n)
        m = _n_train(n, train_frac)
        n_test = n - m
        rows = np.stack([diffs[offsets[p]:offsets[p] + n] for p in eligible[cols]])
        pos = (rows > 0).sum(axis=1)
        x = np.arange(m + 1)[:, None]
        prob = hypergeom.pmf(x, n, pos[None, :], m)
        test_pos = pos[None, :] - x
        acc = np.where(2 * x > m, test_pos / n_test,
                       np.where(2 * x < m, 1.0 - test_pos / n_test, 0.5))
        binary[cols] = (prob * acc).sum(axis=0)
        for r in range(reps):
            pick = np.argpartition(rng.random(rows.shape), m, axis=1)[:, :m]
            train = np.take_along_axis(rows, pick, axis=1)
            total = train.sum(axis=1)
            test_pos = pos - (train > 0).sum(axis=1)
            ordinal[r, cols] = np.where(total > 0, test_pos / n_test,
                                        np.where(total < 0, 1.0 - test_pos / n_test, 0.5))
    rep_means = ordinal.mean(axis=1)
    return {
        "eligible": eligible,
        "binary": float(binary.mean()),
        "ordinal": float(rep_means.mean()),
        "ordinal_se": float(rep_means.std(ddof=1) / math.sqrt(reps)),
    }
