"""Per-instance noise scoring and thresholding.

Four detectors produce one score per training instance from the recorded
training dynamics:

* likelihood-ratio: probability of the assigned label over the probability of
  the predicted class, from the latest round (low scores are suspicious);
* margin average: assigned-label logit minus the best other-class logit,
  averaged over the retained window (negative means suspicious);
* confidence/correctness: mean label probability and fraction of rounds
  predicted as the label, combined into one score over the whole run;
* gradient magnitude: the largest absolute per-instance gradient over the
  window (large is suspicious).

Each detector applies its own flagging rule: the likelihood ratio flags a
label less likely than the predicted class, the margin average flags a
negative mean margin, and confidence/correctness and gradient magnitude split
their scores with a two-component Gaussian mixture.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import DynamicsLog

LOW_IS_NOISY = "low_is_noisy"
HIGH_IS_NOISY = "high_is_noisy"

METHOD_LRT = "lrt"
METHOD_AUM = "aum"
METHOD_CONFCORR = "confcorr"
METHOD_GRADIENTS = "gradients"
ALL_METHODS = (METHOD_LRT, METHOD_AUM, METHOD_CONFCORR, METHOD_GRADIENTS)

# confidence/correctness and gradient-magnitude scores live on probability
# scales, so an absolute minimum separation between the mixture components is
# meaningful: a perfectly fitted, consistently labeled problem compresses all
# scores into a sliver and the mixture split inside it carries no noise
# evidence
MIN_COMPONENT_GAP = 0.05

# the likelihood ratio flags below this ratio, the margin average below this
# margin
LRT_CUT = 1.0
AUM_CUT = 0.0


@dataclass
class NoiseScores:
    """Columnar detector output for a whole training set."""

    method: str
    scores: np.ndarray
    polarity: str
    flagged: np.ndarray
    threshold_used: float
    note: str = ""

    def noisiness(self) -> np.ndarray:
        """Scores oriented so that larger always means more suspicious."""
        return -self.scores if self.polarity == LOW_IS_NOISY else self.scores


# --------------------------------------------------------------------------
# two-component 1-D Gaussian mixture
# --------------------------------------------------------------------------

@dataclass
class Gmm1D:
    """Two-component mixture; components are ordered by mean ascending."""

    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray
    log_likelihoods: list = field(default_factory=list)

    def posterior_upper(self, x: np.ndarray) -> np.ndarray:
        """Posterior probability of the higher-mean component."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        log_p = (-0.5 * np.log(2.0 * np.pi * self.variances)
                 - (x[:, None] - self.means) ** 2 / (2.0 * self.variances)
                 + np.log(self.weights))
        return np.exp(log_p[:, 1] - np.logaddexp(log_p[:, 0], log_p[:, 1]))


def fit_gmm_1d(values: np.ndarray, max_iter: int = 200,
               tol: float = 1e-6) -> Gmm1D:
    """EM fit of a two-component Gaussian mixture to 1-D data.

    The means start at the 25th and 75th percentiles with a shared variance
    and equal weights, variances are floored at 1e-9 times the squared data
    range, and EM stops once an iteration gains less than ``tol``. Each
    iteration is one pass over z = x - mean(x), centred once. With component
    1's log-odds d = (a z + b) z + c, the log-likelihood is
    sum log(w_0 N_0(z)), closed-form in sum z and sum z^2, plus
    sum log(1 + e^d). The M-step's sufficient statistics are component 1's
    responsibilities summed against 1, z and z^2; component 0's are the
    totals minus those.
    """
    x = np.asarray(values, dtype=np.float64)
    span = float(x.max() - x.min()) if x.size else 0.0
    if span == 0.0:
        raise ValueError("need at least 2 distinct values to fit a mixture")
    var_floor = 1e-9 * span * span
    centre = x.mean()
    z = x - centre
    powers = np.stack([np.ones(len(x)), z, z * z])
    n, sz, szz = totals = powers.sum(axis=1).tolist()
    params = [(m, max(szz / n, var_floor), 0.5)
              for m in (np.percentile(x, [25.0, 75.0]) - centre).tolist()]
    lls: list[float] = []
    for _ in range(max_iter):
        (m0, v0, w0), (m1, v1, w1) = params
        c = (math.log(w1 / w0) - 0.5 * math.log(v1 / v0)
             + 0.5 * m0 * m0 / v0 - 0.5 * m1 * m1 / v1)
        d = ((0.5 / v0 - 0.5 / v1) * z + (m1 / v1 - m0 / v0)) * z + c
        sp = np.logaddexp(0.0, d)
        sq0 = szz - m0 * (2.0 * sz - n * m0)
        lls.append(n * (math.log(w0) - 0.5 * math.log(2.0 * math.pi * v0))
                   - 0.5 * sq0 / v0 + float(sp.sum()))
        if len(lls) > 1 and lls[-1] - lls[-2] < tol:
            break
        upper = np.einsum("ki,i->k", powers, np.exp(d - sp)).tolist()
        params = []
        for r, s, q in ([t - u for t, u in zip(totals, upper)], upper):
            nk = max(r, 1e-12)
            m = s / nk
            v = max((q - m * (2.0 * s - m * r)) / nk, var_floor)
            params.append((m, v, nk / n))
    mu, var, w = np.array(sorted(params, key=lambda p: p[0])).T
    return Gmm1D(means=mu + centre, variances=var, weights=w,
                 log_likelihoods=lls)


def gmm_decision_threshold(gmm: Gmm1D) -> float:
    """Score value where the posterior of the higher-mean component rises
    through one half.

    That is the rising root of D, the upper component's weighted log-density
    minus the lower one's: a quadratic a y^2 + b y + c in y = x - mean_0,
    linear when the variances are equal. Its slope b = gap / var_1 at the
    lower mean is positive, so the root -2c / (b + sqrt(b^2 - 4ac)) has no
    cancellation. When the curves never cross, the wider component wins
    everywhere: -inf for the upper one, +inf for the lower one.
    """
    (m0, m1), (v0, v1), (w0, w1) = gmm.means, gmm.variances, gmm.weights
    d = float(m1 - m0)
    if d <= 0.0:
        return float(m0)
    a = 0.5 / v0 - 0.5 / v1
    b = d / v1
    c = math.log(w1 / w0) - 0.5 * math.log(v1 / v0) - 0.5 * d * d / v1
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return -math.inf if a > 0.0 else math.inf
    return float(m0) - 2.0 * c / (b + math.sqrt(disc))


def _flag_none(scores: np.ndarray, polarity: str,
               note: str) -> tuple[np.ndarray, float, str]:
    cut = -np.inf if polarity == LOW_IS_NOISY else np.inf
    return np.zeros(len(scores), dtype=bool), cut, note


def _gmm_flags(scores: np.ndarray,
               polarity: str) -> tuple[np.ndarray, float, str]:
    """Mixture-based flags: the component on the suspicious side is treated as
    the noise population. Nothing is flagged when the fitted component means
    sit closer than ``MIN_COMPONENT_GAP`` (no separable noise population)."""
    if not len(scores) or scores.min() == scores.max():
        warnings.warn("mixture thresholding degenerate: fewer than 2 distinct "
                      "scores; flagging nothing")
        return _flag_none(scores, polarity, "degenerate: identical scores")
    gmm = fit_gmm_1d(scores)
    if gmm.means[1] - gmm.means[0] < MIN_COMPONENT_GAP:
        return _flag_none(scores, polarity,
                          "mixture components indistinguishable; not flagged")
    cut = gmm_decision_threshold(gmm)
    return (scores < cut if polarity == LOW_IS_NOISY else scores > cut), cut, ""


# --------------------------------------------------------------------------
# detectors
# --------------------------------------------------------------------------

def lrt_scores(probs: np.ndarray, labels: np.ndarray) -> NoiseScores:
    """Likelihood ratio p(label | x) / p(predicted | x) from the latest round;
    flagged when the ratio falls below 1, i.e. when the label is less likely
    than the predicted class."""
    probs = np.asarray(probs, dtype=np.float64)
    ratio = probs[np.arange(len(probs)), labels] / probs.max(axis=1)
    return NoiseScores(method=METHOD_LRT, scores=ratio, polarity=LOW_IS_NOISY,
                       flagged=ratio < LRT_CUT, threshold_used=LRT_CUT)


def aum_scores(window_logits: np.ndarray, labels: np.ndarray) -> NoiseScores:
    """Mean margin (assigned-label logit minus best other-class logit) over
    the retained window; flagged when negative."""
    window_logits = np.asarray(window_logits, dtype=np.float64)
    if window_logits.ndim != 3 or window_logits.shape[0] == 0:
        raise ValueError("expected a non-empty (rounds, instances, classes) window")
    _, n, c = window_logits.shape
    if c < 2:
        raise ValueError("margins need at least 2 classes")
    idx = np.arange(n)
    masked = window_logits.copy()
    masked[:, idx, labels] = -np.inf
    score = (window_logits[:, idx, labels] - masked.max(axis=2)).mean(axis=0)
    return NoiseScores(method=METHOD_AUM, scores=score, polarity=LOW_IS_NOISY,
                       flagged=score < AUM_CUT, threshold_used=AUM_CUT)


def confcorr_scores(log: DynamicsLog) -> NoiseScores:
    """Confidence (mean label probability) and correctness (fraction of
    rounds predicted as the label) over all recorded rounds, combined as
    (confidence + correctness) / 2 and thresholded by mixture fit."""
    combined = 0.5 * (log.confidence() + log.correctness())
    flags, cut, note = _gmm_flags(combined, LOW_IS_NOISY)
    return NoiseScores(method=METHOD_CONFCORR, scores=combined,
                       polarity=LOW_IS_NOISY, flagged=flags,
                       threshold_used=cut, note=note)


def gradient_scores(window_gradients: np.ndarray) -> NoiseScores:
    """Largest absolute per-instance gradient over the retained window,
    thresholded by mixture fit (higher-mean component is the noise cluster)."""
    window_gradients = np.asarray(window_gradients, dtype=np.float64)
    if window_gradients.ndim != 2 or window_gradients.shape[0] == 0:
        raise ValueError("expected a non-empty (rounds, instances) window")
    score = window_gradients.max(axis=0)
    flags, cut, note = _gmm_flags(score, HIGH_IS_NOISY)
    return NoiseScores(method=METHOD_GRADIENTS, scores=score,
                       polarity=HIGH_IS_NOISY, flagged=flags,
                       threshold_used=cut, note=note)


def score_all(log: DynamicsLog, labels: np.ndarray,
              methods=ALL_METHODS) -> dict[str, NoiseScores]:
    """Run the requested detectors against one dynamics log."""
    out: dict[str, NoiseScores] = {}
    for method in methods:
        if method == METHOD_LRT:
            out[method] = lrt_scores(log.latest().probs, labels)
        elif method == METHOD_AUM:
            out[method] = aum_scores(log.window_logits(), labels)
        elif method == METHOD_CONFCORR:
            out[method] = confcorr_scores(log)
        elif method == METHOD_GRADIENTS:
            out[method] = gradient_scores(log.window_max_abs_gradients())
        else:
            raise ValueError(f"unknown detector {method!r}")
    return out
