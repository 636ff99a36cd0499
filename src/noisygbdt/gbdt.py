"""Gradient-boosted decision trees with per-round hooks for noise handling.

A ``Booster`` holds one run's state and trains one round per ``step``;
``train`` runs one to the end, and ``Booster.fork`` lets several runs share
a trained prefix. The trainer exposes everything the noise detectors
consume: per-round logits, probabilities, predictions, and per-instance
gradients are recorded into a DynamicsLog, and an optional per-round callback
may zero instance weights or rewrite labels in place, and that round's trees
fit the edited arrays. Of the fit set the trainer reads features and noisy
labels alone; the experiment layer scores the kept per-round training argmax
and the callback's flags against the injected noise (``metrics_report``).
The test set's clean labels feed its series, early stopping and the final
metrics. Training scores are updated from the grower's leaf partition; only
zero-weight rows and held-out sets go through ``Tree.predict``.

The fit size picks the split search, with no setting to override it: up to
2,048 fitted rows it is exact greedy (columns presorted once per run, each
node carrying its rows' sorted blocks, split from its parent's, and all
features of a node searched in one vectorised pass), above that it uses
histograms. A feature with at most 256 distinct fitted values is cut at every
value, a wider one at quantiles; either way it gets one bin more than it has
cuts, and its codes are stored once per run as ``uint8``, column-major and
row-major (``Binner``). Two-valued features whose minority rows never
overlap, such as the columns of a one-hot categorical, share one row-major
code column, a bundle. A node histogram has one compact block per group of
features of similar bin count. Large nodes build each quantile-binned feature
with its own ``bincount`` and the other columns, bundles included, together
in one interleaved pass; small nodes build every column in that pass. A
bundle member keeps its own two bins: the minority one is its bundle's bin,
the majority one the node total minus that. The larger child is its parent
minus its sibling, and children at ``max_depth`` get their gradient and
hessian sums alone (``_HistSplitter``). The splitter is built once per
training run (``_splitter``), and one recursive function (``_fit_tree``)
grows every tree through four of its calls: ``node_stats``, ``best_split``,
``partition`` and ``child_stats``. A split crosses that seam as a feature
and a threshold, whichever search found it.

Two classes train one logistic tree per round, more classes one softmax tree
per class. Raw scores, gradients and hessians are always (n, width) arrays,
width 1 or c, and ``probabilities``/``grad_hess`` read the objective off that
shape.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass

import numpy as np

from .data_ingest import Dataset
from .dynamics import DynamicsLog, EpochRecord
from .metrics_report import SERIES_COLUMNS, RunReport, classification_metrics

# histogram splits above this many fitted rows, exact splits up to it
_HIST_THRESHOLD = 2048
_MAX_BINS = 256
# a histogram node of this many rows or more builds one bincount per
# quantile-binned feature; smaller nodes build every feature interleaved
_PER_FEATURE_ROWS = 2000
# node rows per chunk of the interleaved build
_CHUNK_ROWS = 4096
_HESSIAN_FLOOR = 1e-16

_PROB_EPS = 1e-15


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class BoostConfig:
    """Boosting, early-stopping and detection-window settings.

    The objective follows the class count and the split search the fit size
    (see the module docstring); neither is a setting.
    """

    max_depth: int = 6
    learning_rate: float = 0.3
    n_rounds: int = 100
    l2_reg: float = 1.0
    min_split_gain: float = 0.0
    early_stop_min_delta: float = 0.5
    early_stop_patience: int = 10
    warmup_rounds: int = 15
    history_window: int = 5

    def validate(self, *, with_callback: bool = False) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.l2_reg <= 0:
            raise ValueError("l2_reg must be positive")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be at least 1")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be at least 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if with_callback and self.warmup_rounds >= self.n_rounds:
            raise ValueError("warmup_rounds must be below n_rounds when a "
                             "correction callback is installed")


# --------------------------------------------------------------------------
# objective math
# --------------------------------------------------------------------------

def probabilities(logits: np.ndarray) -> np.ndarray:
    """Class probabilities (n, c) from raw scores (n, width).

    One column is a logistic score, expanded to columns [1-p, p] of its
    sigmoid p; more columns are softmax logits.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logit")
    if logits.ndim != 2:
        raise ValueError("expected (n, width) raw scores")
    if logits.shape[1] == 1:
        p = 1.0 / (1.0 + np.exp(-logits))
        return np.concatenate([1.0 - p, p], axis=1)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def expand_logits(raw: np.ndarray) -> np.ndarray:
    """A new (n, c) logit array from (n, width) raw scores: a logistic
    score z becomes the row [0, z]."""
    if raw.shape[1] == 1:
        return np.concatenate([np.zeros_like(raw), raw], axis=1)
    return raw.copy()


def grad_hess(probs: np.ndarray,
              labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cross-entropy gradient and hessian of the raw scores, (n, width),
    against the given labels.

    Two classes have one logistic score: g = p_1 - [label == 1] and
    h = max(floor, p_1 (1 - p_1)). More classes have one softmax score per
    class: g_k = p_k - [k == label] and h_k = max(floor, 2 p_k (1 - p_k)).
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape[1] == 2:
        p = probs[:, 1:]
        g = p - (labels == 1)[:, None]
        h = np.maximum(_HESSIAN_FLOOR, p * (1.0 - p))
        return g, h
    g = probs.copy()
    g[np.arange(len(g)), labels] -= 1.0
    h = np.maximum(_HESSIAN_FLOOR, 2.0 * probs * (1.0 - probs))
    return g, h


def _split_gains(gl: np.ndarray, hl: np.ndarray, g_total: float,
                 h_total: float, lam: float) -> np.ndarray:
    """Gain of each candidate split of a node from the summed gradients and
    hessians left of it; the right side is the node total minus the left."""
    grh = g_total - gl
    hrh = h_total - hl
    parent = g_total * g_total / (h_total + lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * (gl * gl / (hl + lam) + grh * grh / (hrh + lam) - parent)


def leaf_value(g_sum: float, h_sum: float, l2_reg: float,
               learning_rate: float) -> float:
    return -learning_rate * g_sum / (h_sum + l2_reg)


# --------------------------------------------------------------------------
# trees
# --------------------------------------------------------------------------

@dataclass
class Tree:
    """Flat-array binary tree; leaves carry the boosted step already scaled by
    the learning rate. Routing predicate: feature value <= threshold goes left."""

    feature: np.ndarray     # int32, -1 marks a leaf
    threshold: np.ndarray   # float64
    left: np.ndarray        # int32 child indices
    right: np.ndarray
    value: np.ndarray       # float64 leaf values (0 on internal nodes)

    def predict(self, features: np.ndarray) -> np.ndarray:
        node = np.zeros(features.shape[0], dtype=np.int32)
        while True:
            feat = self.feature[node]
            active = np.flatnonzero(feat >= 0)
            if active.size == 0:
                break
            f = feat[active]
            go_left = features[active, f] <= self.threshold[node[active]]
            node[active] = np.where(go_left, self.left[node[active]],
                                    self.right[node[active]])
        return self.value[node]


def _midpoint(lo: float, hi: float) -> float:
    """Midpoint threshold; guards float rounding so lo routes left and hi right
    under the <= predicate."""
    mid = 0.5 * (lo + hi)
    if mid >= hi:
        return lo
    return mid


class _ExactSplitter:
    """Exact greedy search over all features of a node at once.

    A node's statistics carry its sorted blocks: ``idx`` (d, m), the node's
    rows in ascending order of each feature, and ``xs`` (d, m), those rows'
    values. The root's blocks are the presort (every column's stable argsort
    and sorted values, built once per training run) compacted to the root
    rows; each child's are its parent's compacted to the child's rows.
    Compaction is stable, so a node's blocks are the presort filtered by
    node membership, the order of a stable per-node sort since rows are
    ascending. Cuts between tied values get gain -inf; one row-major argmax
    keeps the first feature, then the first position, of the best gain.
    Children at ``max_depth`` are leaves, so they get their gradient and
    hessian sums alone.
    """

    method = "exact"

    def __init__(self, features: np.ndarray, config: BoostConfig):
        self.x = features
        self.lam = config.l2_reg
        order = np.argsort(features, axis=0, kind="stable")
        values = np.take_along_axis(features, order, axis=0)
        self.order = np.ascontiguousarray(order.T)
        self.sorted_x = np.ascontiguousarray(values.T)

    def best_split(self, stats, g: np.ndarray, h: np.ndarray):
        g_total, h_total, idx, xs = stats
        m = idx.shape[1]
        gl = np.cumsum(g[idx], axis=1)[:, :-1]
        hl = np.cumsum(h[idx], axis=1)[:, :-1]
        gains = _split_gains(gl, hl, g_total, h_total, self.lam)
        if not gains.size:   # no features
            return -np.inf, None, None
        gains[xs[:, :-1] == xs[:, 1:]] = -np.inf
        # argmax stops at the first NaN; a NaN gain is no candidate
        k = int(np.argmax(gains))
        if np.isnan(gains.flat[k]):
            gains[np.isnan(gains)] = -np.inf
            k = int(np.argmax(gains))
        j, pos = divmod(k, m - 1)
        gain = float(gains[j, pos])
        if gain == -np.inf:
            return -np.inf, None, None
        return gain, j, _midpoint(float(xs[j, pos]), float(xs[j, pos + 1]))

    def partition(self, rows: np.ndarray, feature: int, threshold: float):
        go_left = self.x[rows, feature] <= threshold
        return rows[go_left], rows[~go_left]

    @staticmethod
    def _sums(rows: np.ndarray, g: np.ndarray, h: np.ndarray):
        return float(g[rows].sum()), float(h[rows].sum())

    def _member(self, rows: np.ndarray) -> np.ndarray:
        member = np.zeros(self.order.shape[1], dtype=bool)
        member[rows] = True
        return member

    @staticmethod
    def _compact(idx: np.ndarray, xs: np.ndarray, keep: np.ndarray, m: int):
        """The entries of both blocks where ``keep`` is set, (d, m) each.
        ``flatnonzero`` and ``take`` beat boolean indexing at these sizes."""
        at = np.flatnonzero(keep)
        d = len(idx)
        return idx.take(at).reshape(d, m), xs.take(at).reshape(d, m)

    def node_stats(self, rows: np.ndarray, g: np.ndarray, h: np.ndarray):
        keep = self._member(rows)[self.order]
        return (*self._sums(rows, g, h),
                *self._compact(self.order, self.sorted_x, keep, len(rows)))

    def child_stats(self, stats, left_rows, right_rows, g, h, leaves: bool):
        """The parent's blocks split by the go-left membership of
        ``left_rows``; children that will be leaves get their sums alone."""
        left, right = self._sums(left_rows, g, h), self._sums(right_rows, g, h)
        if leaves:
            return left, right
        idx, xs = stats[2:]
        keep = self._member(left_rows)[idx]
        return ((*left, *self._compact(idx, xs, keep, len(left_rows))),
                (*right, *self._compact(idx, xs, ~keep, len(right_rows))))


class Binner:
    """Per-feature cut points fitted on ``fit_rows``, the bin codes of every
    row, exclusive-feature bundles and the compact histogram layout.

    A feature with at most ``_MAX_BINS`` (256) distinct fitted values is cut
    between each pair of them, a wider one at quantiles. Feature j has
    ``len(cuts[j]) + 1`` bins, at most 256, so its codes fit ``uint8``.
    ``codes_T`` holds them column-major (d, n), so one feature's codes of a
    node are a contiguous gather.

    Two-valued features whose minority rows never overlap form a bundle
    (exclusive feature bundling, Ke et al., LightGBM, NeurIPS 2017): in
    index order, each goes into the first bundle none of whose members has
    a minority row in common with it, over every coded row, with at most 255
    members per bundle. A feature's majority code is the more frequent of
    its two (0 on a tie). A bundle's code is 0 on rows where every member
    sits at its majority code and r where member r (from 1) does not; a
    lone feature forms no bundle. Feature 0 is never bundled, since node
    totals are read off its bins (``totals_row``). ``bundles`` lists each
    bundle's members. ``codes`` holds the histogram build's code columns
    row-major (n, k): the ``plain`` distinct-value features, then the
    bundles, then the ``quantile`` features, so a row's codes of the
    interleaved columns (the first ``n_interleaved``) are one slice;
    ``column_offsets`` is where each column's bins start.

    A node histogram is one flat array of ``size`` bins with a block per
    group of features whose bin counts round up to the same power of two:
    ``blocks`` holds each block's (start, stop, width), a (k, width) array
    of its features in ascending order, each padded with empty bins up to
    ``width``. ``offsets[j]`` is where feature j's bins start; a bundle
    member keeps its own two bins there. The build adds the bundles' bins
    past ``size``, up to ``hist_size``, and fills each member's slot from
    them: its minority bin (at ``minority_pos``) is bundle bin
    ``bundle_bins``, its majority bin (``majority_pos``) the node total
    minus that. ``cut_pos`` lists the position of every real split
    candidate (the last bin of a feature is none) feature by feature, and
    ``cut_feature`` and ``cut_bin`` name its feature and bin.
    """

    def __init__(self, features: np.ndarray, fit_rows: np.ndarray):
        n, d = features.shape
        sample = features[fit_rows]
        self.cuts: list[np.ndarray] = []
        distinct = np.zeros(d, dtype=bool)
        for j in range(d):
            uniq = np.unique(sample[:, j])
            distinct[j] = len(uniq) <= _MAX_BINS
            if distinct[j]:
                cuts = np.array([_midpoint(float(a), float(b))
                                 for a, b in zip(uniq[:-1], uniq[1:])])
            else:
                qs = np.quantile(sample[:, j],
                                 np.linspace(0.0, 1.0, _MAX_BINS + 1)[1:-1])
                cuts = np.unique(qs)
                cuts = cuts[cuts < uniq[-1]]
            self.cuts.append(cuts)
        self.codes_T = np.empty((d, n), dtype=np.uint8)
        for j in range(d):
            self.codes_T[j] = np.searchsorted(self.cuts[j], features[:, j],
                                              side="left")
        self.n_bins = np.array([len(c) + 1 for c in self.cuts], dtype=np.intp)
        widths = np.array([1 << int(nb - 1).bit_length()
                           for nb in self.n_bins], dtype=np.intp)
        self.offsets = np.empty(d, dtype=np.intp)
        self.blocks = []
        start = 0
        for width in np.unique(widths).tolist():
            feats = np.flatnonzero(widths == width)
            self.offsets[feats] = start + np.arange(len(feats)) * width
            self.blocks.append((start, start + len(feats) * width, width))
            start += len(feats) * width
        self.size = start
        self.cut_feature = np.repeat(np.arange(d), self.n_bins - 1)
        self.cut_bin = np.concatenate([np.arange(len(c)) for c in self.cuts])
        self.cut_pos = self.offsets[self.cut_feature] + self.cut_bin
        # node totals sum feature 0's padded row of its block
        self.totals_row = slice(self.offsets[0], self.offsets[0] + widths[0])

        groups = []   # per bundle: its members' (feature, minority code)
        taken = []    # and the rows where one of them is at its minority
        for j in np.flatnonzero(self.n_bins[1:] == 2) + 1:
            minority = int(2 * np.count_nonzero(self.codes_T[j]) <= n)
            rows = np.flatnonzero(self.codes_T[j] == minority)
            for members, used in zip(groups, taken):
                if len(members) < 255 and not used[rows].any():
                    break
            else:
                members, used = [], np.zeros(n, dtype=bool)
                groups.append(members)
                taken.append(used)
            members.append((j, minority))
            used[rows] = True
        groups = [g for g in groups if len(g) > 1]
        self.bundles = [np.array([j for j, _ in g]) for g in groups]
        bundled = np.zeros(d, dtype=bool)
        bundle_codes = np.zeros((len(groups), n), dtype=np.uint8)
        bundle_offsets, bundle_bins = [], []
        start = self.size
        for code, group in zip(bundle_codes, groups):
            bundle_offsets.append(start)
            for r, (j, minority) in enumerate(group, 1):
                code[self.codes_T[j] == minority] = r
                bundled[j] = True
                bundle_bins.append(start + r)
            start += len(group) + 1
        self.hist_size = start
        self.bundle_bins = np.array(bundle_bins, dtype=np.intp)
        member, minority = np.array([m for g in groups for m in g],
                                    dtype=np.intp).reshape(-1, 2).T
        self.minority_pos = self.offsets[member] + minority
        self.majority_pos = self.offsets[member] + 1 - minority
        self.plain = np.flatnonzero(distinct & ~bundled)
        self.quantile = np.flatnonzero(~distinct & ~bundled)
        self.n_interleaved = len(self.plain) + len(groups)
        self.column_offsets = np.concatenate(
            [self.offsets[self.plain], np.array(bundle_offsets, dtype=np.intp),
             self.offsets[self.quantile]])
        self.codes = np.ascontiguousarray(np.concatenate(
            [self.codes_T[self.plain], bundle_codes,
             self.codes_T[self.quantile]]).T)


class _HistSplitter:
    """Histogram split search on a Binner's codes and layout.

    A node of at least ``_PER_FEATURE_ROWS`` rows builds each quantile-binned
    feature's histogram with its own ``bincount`` over its contiguous codes.
    Its other columns (distinct-value features and bundles), and every column
    of a smaller node, go through one interleaved pass: per chunk of
    ``_CHUNK_ROWS`` node rows, one ``np.add.at`` over the row-major codes, so
    consecutive adds land in different columns' bins. A distinct-value
    feature often has most rows in one bin, which serialises a ``bincount``
    on that bin; interleaving keeps adds to one bin apart. Either way each
    bin sums its rows' weights in row order from 0.0, so both builds give
    the same histograms to the bit. A bundle is one column of that pass
    (``covertype_like``'s 44 one-hot columns are 2). Then each bundle
    member's two bins are filled in: its minority bin is its bundle bin,
    which sums the same rows in the same order, so it equals a direct build
    to the bit; its majority bin is the node total (from feature 0's bins,
    which is why feature 0 is never bundled) minus the minority bin, which
    may round differently from a direct sum. ``node_hists`` returns the
    layout's ``size`` bins, so the search and the parent-minus-sibling
    subtraction never see bundles. The search runs one cumsum per block and
    one argmax over the real cuts in (feature, bin) order, so the first of
    equal gains wins as in a row-major argmax over every feature's bins, and
    the best cut leaves as its threshold, ``cuts[feature][bin]``. A
    feature's cuts are strictly increasing (distinct-value midpoints lie
    strictly between their values, quantile cuts pass ``np.unique``), so
    ``partition`` finds that bin again with ``searchsorted`` and routes rows
    on their codes. Node totals are the sums of feature 0's row. Children at
    ``max_depth`` are leaves, so they get those totals alone
    (``child_stats``).
    """

    method = "hist"

    def __init__(self, binner: Binner, config: BoostConfig):
        self.b = binner
        self.lam = config.l2_reg

    def node_hists(self, rows: np.ndarray, g: np.ndarray, h: np.ndarray):
        b = self.b
        gr, hr = g[rows], h[rows]
        gh, hh = np.zeros(b.hist_size), np.zeros(b.hist_size)
        # the first k columns of the row-major codes go interleaved; large
        # nodes build the quantile-binned columns one at a time
        k = len(b.column_offsets)
        if len(rows) >= _PER_FEATURE_ROWS:
            k = b.n_interleaved
            for j in b.quantile:
                node_codes = b.codes_T[j][rows]
                lo, nb = b.offsets[j], b.n_bins[j]
                gh[lo:lo + nb] = np.bincount(node_codes, gr, minlength=nb)
                hh[lo:lo + nb] = np.bincount(node_codes, hr, minlength=nb)
        if k:
            offsets = b.column_offsets[:k]
            for lo in range(0, len(rows), _CHUNK_ROWS):
                hi = lo + _CHUNK_ROWS
                flat = np.add(b.codes[rows[lo:hi], :k], offsets,
                              dtype=np.intp).ravel()
                np.add.at(gh, flat, np.repeat(gr[lo:hi], k))
                np.add.at(hh, flat, np.repeat(hr[lo:hi], k))
        for hist in (gh, hh):
            minority = hist[b.bundle_bins]
            hist[b.minority_pos] = minority
            hist[b.majority_pos] = hist[b.totals_row].sum() - minority
        return gh[:b.size], hh[:b.size]

    def best_split(self, stats, g: np.ndarray, h: np.ndarray):
        g_total, h_total, *hists = stats
        b = self.b
        if not len(b.cut_pos):
            return -np.inf, None, None
        gl, hl = np.empty(b.size), np.empty(b.size)
        for hist, cum in zip(hists, (gl, hl)):
            for start, stop, width in b.blocks:
                np.cumsum(hist[start:stop].reshape(-1, width), axis=1,
                          out=cum[start:stop].reshape(-1, width))
        gains = _split_gains(gl[b.cut_pos], hl[b.cut_pos], g_total, h_total,
                             self.lam)
        gains[~np.isfinite(gains)] = -np.inf
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if gain == -np.inf:
            return -np.inf, None, None
        feature = int(b.cut_feature[k])
        return gain, feature, float(b.cuts[feature][b.cut_bin[k]])

    def partition(self, rows: np.ndarray, feature: int, threshold: float):
        bin_idx = int(np.searchsorted(self.b.cuts[feature], threshold))
        go_left = self.b.codes_T[feature][rows] <= bin_idx
        return rows[go_left], rows[~go_left]

    def _stats(self, gh: np.ndarray, hh: np.ndarray):
        # every feature histogram sums all node rows, so feature 0's has the
        # totals
        row = self.b.totals_row
        return float(gh[row].sum()), float(hh[row].sum()), gh, hh

    def node_stats(self, rows: np.ndarray, g: np.ndarray, h: np.ndarray):
        return self._stats(*self.node_hists(rows, g, h))

    def child_stats(self, stats, left_rows, right_rows, g, h, leaves: bool):
        """The smaller child's histograms are built, its sibling's are the
        parent's minus them. Children that will be leaves need only their
        sums: feature 0's histogram alone, laid out as ``totals_row``."""
        gh, hh = stats[2:]
        small_left = len(left_rows) <= len(right_rows)
        small_rows = left_rows if small_left else right_rows
        if leaves:
            row = self.b.totals_row
            codes, width = self.b.codes_T[0][small_rows], row.stop - row.start
            sg = np.bincount(codes, g[small_rows], minlength=width)
            sh = np.bincount(codes, h[small_rows], minlength=width)
            small = float(sg.sum()), float(sh.sum())
            large = float((gh[row] - sg).sum()), float((hh[row] - sh).sum())
        else:
            sg, sh = self.node_hists(small_rows, g, h)
            small, large = self._stats(sg, sh), self._stats(gh - sg, hh - sh)
        return (small, large) if small_left else (large, small)


def _splitter(features: np.ndarray, fit_rows: np.ndarray, config: BoostConfig):
    """The split search the fit size selects, built once per training run:
    histograms above ``_HIST_THRESHOLD`` fitted rows, exact up to it."""
    if fit_rows.size > _HIST_THRESHOLD:
        return _HistSplitter(Binner(features, fit_rows), config)
    return _ExactSplitter(features, config)


def _fit_tree(splitter, g: np.ndarray, h: np.ndarray, rows: np.ndarray,
              config: BoostConfig) -> tuple[Tree, np.ndarray]:
    """The tree fitted to ``rows`` and each row's leaf index (-1 outside
    ``rows``).

    A node's statistics (``node_stats``, ``child_stats``) lead with its
    gradient and hessian sums; told that the children sit at ``max_depth``,
    ``child_stats`` may give their sums alone. A node is a leaf at
    ``max_depth``, below 2 rows, when no cut gains more than
    ``min_split_gain``, or when the best cut leaves no row on one side (a
    cut past every row of the node gains only float residue). Both splitters
    partition rows with the predicate ``Tree.predict`` routes by, so each
    row's leaf is the one ``Tree.predict`` finds for it.
    """
    nodes = []   # [feature, threshold, left, right, value] per node
    leaf_of_row = np.full(len(g), -1, dtype=np.int32)

    def grow(rows: np.ndarray, depth: int, stats) -> int:
        idx = len(nodes)
        node = [-1, 0.0, -1, -1, 0.0]
        nodes.append(node)
        if depth < config.max_depth and len(rows) >= 2:
            gain, feat, threshold = splitter.best_split(stats, g, h)
            if feat is not None and gain > config.min_split_gain:
                left_rows, right_rows = splitter.partition(rows, feat,
                                                           threshold)
                if left_rows.size and right_rows.size:
                    left, right = splitter.child_stats(
                        stats, left_rows, right_rows, g, h,
                        leaves=depth + 1 == config.max_depth)
                    node[:4] = (feat, threshold,
                                grow(left_rows, depth + 1, left),
                                grow(right_rows, depth + 1, right))
                    return idx
        node[4] = leaf_value(stats[0], stats[1], config.l2_reg,
                             config.learning_rate)
        leaf_of_row[rows] = idx
        return idx

    grow(rows, 0, splitter.node_stats(rows, g, h))
    # the recursive closure refers to itself; breaking that cycle frees its
    # gradient arrays now rather than at the next full garbage collection
    del grow
    feature, threshold, left, right, value = zip(*nodes)
    tree = Tree(feature=np.asarray(feature, dtype=np.int32),
                threshold=np.asarray(threshold, dtype=np.float64),
                left=np.asarray(left, dtype=np.int32),
                right=np.asarray(right, dtype=np.int32),
                value=np.asarray(value, dtype=np.float64))
    return tree, leaf_of_row


def build_tree(features: np.ndarray, gradients: np.ndarray,
               hessians: np.ndarray, weights: np.ndarray,
               config: BoostConfig) -> Tree:
    """Fit one regression tree to (gradient, hessian) targets.

    Zero-weight instances are excluded from the split search and leaf fitting
    entirely, so the result is identical to physically deleting them.
    """
    config.validate()
    if not np.isfinite(features).all():
        raise ValueError("features must be finite")
    weights = np.asarray(weights, dtype=np.float64)
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    if (np.asarray(hessians) < 0).any():
        raise ValueError("hessians must be non-negative")
    rows = np.flatnonzero(weights > 0)
    if rows.size == 0:
        raise ValueError("all instance weights are zero")
    g = np.asarray(gradients, dtype=np.float64) * weights
    h = np.asarray(hessians, dtype=np.float64) * weights
    return _fit_tree(_splitter(features, rows, config), g, h, rows,
                     config)[0]


# --------------------------------------------------------------------------
# early stopping
# --------------------------------------------------------------------------

class EarlyStopper:
    """Stop when the monitored loss fails to improve on the previous round by
    at least ``min_delta`` for ``patience`` consecutive rounds. The best round
    is the last one that made a full-delta improvement; the first round is the
    baseline."""

    def __init__(self, min_delta: float, patience: int):
        self.min_delta = min_delta
        self.patience = patience
        self.prev_loss: float | None = None
        self.best_round = 0
        self.strikes = 0

    def update(self, round_index: int, loss: float) -> bool:
        """Feed one monitored loss; returns True when training should stop."""
        if self.prev_loss is None or self.prev_loss - loss >= self.min_delta:
            self.best_round = round_index
            self.strikes = 0
        else:
            self.strikes += 1
        self.prev_loss = loss
        return self.strikes >= self.patience


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------

@dataclass
class TrainResult:
    trees: list       # per round to the best: a list of Tree, one per column
    predicted: list   # per trained round: the training-set argmax
    dynamics: DynamicsLog
    report: RunReport


def _logloss_terms(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    p = probs[np.arange(len(labels)), labels]
    return -np.log(np.clip(p, _PROB_EPS, 1.0))


# a round is evaluated only after ``step`` has fitted a positive weight, so
# neither mean divides by zero
def _weighted_mean_logloss(probs, labels, weights) -> float:
    terms = _logloss_terms(probs, labels)
    return float((terms * weights).sum() / weights.sum())


def _weighted_accuracy(predicted, labels, weights) -> float:
    return float(((predicted == labels) * weights).sum() / weights.sum())


class Booster:
    """The state of one boosting run, advanced one round per ``step``.

    A booster owns the raw scores of the training, test and monitored sets,
    the current labels and weights, the probabilities and gradients that are
    the next round's inputs, the DynamicsLog, the early stopper, the
    per-round series, trees and argmaxes. ``fork`` copies it, so several
    runs can continue from one trained prefix; ``result`` reports the run.
    ``step`` trains one round and ``run`` steps on until the end, calling
    its callback between steps. A caller may edit ``labels`` and ``weights``
    in place between steps, and the next step fits them: it recomputes the
    gradients when the labels differ from those they were computed against.

    Training scores are a prediction cache: each tree adds its leaf values to
    the rows the grower put in each leaf, the same single addition per row
    that ``Tree.predict`` gives, and only rows outside the fit (zero weight)
    go through ``Tree.predict``. The test argmax of the best monitored round
    is kept as training goes, so the final metrics need no second pass over
    the test features.
    """

    def __init__(self, dataset: Dataset, config: BoostConfig, *,
                 test: Dataset | None = None, monitor=None):
        config.validate()
        n = len(dataset)
        c = dataset.class_count
        self.dataset = dataset
        self.config = config
        self.test = test
        self.objective = "logistic" if c == 2 else "softprob"
        self.width = 1 if self.objective == "logistic" else c
        features = dataset.features
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")

        self.labels = dataset.noisy_labels.astype(np.int64).copy()
        self.weights = np.ones(n)

        self.raw = np.zeros((n, self.width))
        self.raw_test = self.raw_mon = self.mon_features = None
        held_out = {}
        if test is not None:
            self.raw_test = np.zeros((len(test), self.width))
            held_out["test"] = test.features
        if isinstance(monitor, str):
            # the monitored loss is read off the test scores
            if monitor != "test" or test is None:
                raise ValueError('monitor must be "test", with a test '
                                 'dataset, or a (features, labels) pair')
            self.mon_labels = test.clean_labels
        elif monitor is not None:
            self.mon_features, self.mon_labels = map(np.asarray, monitor)
            if len(self.mon_features) != len(self.mon_labels):
                raise ValueError("the monitor pair's lengths differ")
            held_out["monitor"] = self.mon_features
            self.raw_mon = np.zeros((len(self.mon_labels), self.width))
        for name, x in held_out.items():
            if x.ndim != 2 or x.shape[1] != features.shape[1]:
                raise ValueError(f"{name} feature width does not match the "
                                 f"trained width {features.shape[1]}")
        self.stopper = (EarlyStopper(config.early_stop_min_delta,
                                     config.early_stop_patience)
                        if monitor is not None else None)

        self.splitter = _splitter(features, np.arange(n), config)

        self.dynamics = DynamicsLog(n, c, config.history_window)
        self.series = {k: [] for k in SERIES_COLUMNS}
        self.trees = []      # per round: one Tree per score column
        self.predicted = []  # per round: the training argmax, never edited
        self.stopped_early = False
        self.rounds_trained = 0
        self.best_test_predicted = None

        self.probs = probabilities(self.raw)
        self.g, self.h = grad_hess(self.probs, self.labels)
        self._grad_labels = self.labels.copy()

    @property
    def done(self) -> bool:
        return (self.stopped_early
                or self.rounds_trained == self.config.n_rounds)

    def run(self, callback=None, until: int | None = None) -> "Booster":
        """Step until training ends, or until ``until`` rounds are trained,
        calling ``callback(round, dynamics, labels, weights)`` before each
        round past the warm-up (the contract is ``train``'s)."""
        while not self.done and (until is None or self.rounds_trained < until):
            if (callback is not None
                    and self.rounds_trained >= self.config.warmup_rounds):
                callback(self.rounds_trained, self.dynamics, self.labels,
                         self.weights)
            self.step()
        return self

    def step(self) -> None:
        """Train the next round.

        Fit one tree per class to the gradients of the current labels and
        weights, then record the post-update state in the DynamicsLog and
        evaluate the round.
        """
        if self.done:
            raise RuntimeError("training has finished")
        cfg, t = self.config, self.rounds_trained
        if not np.array_equal(self.labels, self._grad_labels):
            self.g, self.h = grad_hess(self.probs, self.labels)
            self._grad_labels = self.labels.copy()

        fitted = self.weights > 0
        rows = np.flatnonzero(fitted)
        if rows.size == 0:
            raise TrainingDivergedError("every instance weight is zero")
        unfitted = np.flatnonzero(~fitted)
        features = self.dataset.features
        held_out = []
        if self.raw_test is not None:
            held_out.append((self.test.features, self.raw_test))
        if self.raw_mon is not None:
            held_out.append((self.mon_features, self.raw_mon))
        trees = []
        for k in range(self.width):
            tree, leaf_of_row = _fit_tree(self.splitter,
                                          self.g[:, k] * self.weights,
                                          self.h[:, k] * self.weights, rows,
                                          cfg)
            trees.append(tree)
            update = tree.value[leaf_of_row]
            if unfitted.size:
                update[unfitted] = tree.predict(features[unfitted])
            self.raw[:, k] += update
            for x, scores in held_out:
                scores[:, k] += tree.predict(x)
        self.trees.append(trees)
        self.rounds_trained = t + 1
        self._evaluate(t)

    def _evaluate(self, t: int) -> None:
        """Record round ``t``'s post-update state, its series values and the
        early-stopping decision; the new gradients are the next inputs."""
        series = self.series
        self.probs = probs = probabilities(self.raw)
        self.g, self.h = grad_hess(probs, self.labels)
        predicted = probs.argmax(axis=1)
        self.dynamics.record(
            EpochRecord(round=t, logits=expand_logits(self.raw), probs=probs,
                        predicted=predicted,
                        max_abs_gradient=np.abs(self.g).max(axis=1)),
            self.labels)
        self.predicted.append(
            predicted.astype(np.min_scalar_type(probs.shape[1] - 1)))

        train_loss = _weighted_mean_logloss(probs, self.labels, self.weights)
        if not np.isfinite(train_loss):
            raise TrainingDivergedError(
                f"round {t}: training loss became non-finite")
        series["train_logloss"].append(train_loss)
        series["train_accuracy"].append(
            _weighted_accuracy(predicted, self.labels, self.weights))

        test_predicted = None
        if self.test is not None:
            test_probs = probabilities(self.raw_test)
            test_predicted = test_probs.argmax(axis=1)
            series["test_logloss"].append(float(
                _logloss_terms(test_probs, self.test.clean_labels).mean()))
            series["test_accuracy"].append(float(
                (test_predicted == self.test.clean_labels).mean()))

        if self.stopper is not None:
            mon_probs = (test_probs if self.raw_mon is None
                         else probabilities(self.raw_mon))
            monitor_loss = float(_logloss_terms(mon_probs,
                                                self.mon_labels).sum())
            if not np.isfinite(monitor_loss):
                raise TrainingDivergedError(
                    f"round {t}: monitored loss became non-finite")
            series["monitor_logloss"].append(monitor_loss)
            self.stopped_early = self.stopper.update(t, monitor_loss)
        if self.stopper is None or self.stopper.best_round == t:
            self.best_test_predicted = test_predicted

    def fork(self) -> "Booster":
        """A copy that trains on independently of this booster.

        Mutable state is copied. Read-only state is shared: the datasets, the
        splitter, the trees, argmaxes, probabilities, gradients and the labels
        they follow and the recorded EpochRecords (none is ever edited).
        """
        other = copy.copy(self)
        for name in ("raw", "raw_test", "raw_mon", "labels", "weights"):
            value = getattr(self, name)
            if value is not None:
                setattr(other, name, value.copy())
        other.dynamics = self.dynamics.copy()
        other.stopper = copy.copy(self.stopper)
        other.series = {k: list(v) for k, v in self.series.items()}
        other.trees = list(self.trees)
        other.predicted = list(self.predicted)
        return other

    def result(self) -> TrainResult:
        """The trees up to the best monitored round (the last round without
        monitoring), every round's argmax, the DynamicsLog and the report,
        which has no prediction types (``run_group`` counts them)."""
        best_round = (self.stopper.best_round if self.stopper is not None
                      else self.rounds_trained - 1)
        report = RunReport(
            config=asdict(self.config) | {
                "objective_resolved": self.objective,
                "tree_method_resolved": self.splitter.method},
            rounds_trained=self.rounds_trained,
            best_round=best_round,
            stopped_early=self.stopped_early,
            series={k: v for k, v in self.series.items() if v},
        )
        if self.test is not None:
            report.final = classification_metrics(
                self.best_test_predicted, self.test.clean_labels,
                self.dataset.class_count)
        return TrainResult(trees=self.trees[:best_round + 1],
                           predicted=list(self.predicted),
                           dynamics=self.dynamics, report=report)


def train(dataset: Dataset, config: BoostConfig, callback=None, *,
          test: Dataset | None = None, monitor=None) -> TrainResult:
    """Boost for up to ``config.n_rounds`` rounds: a ``Booster`` run to the
    end.

    ``callback(round, dynamics, labels, weights)`` is invoked once per round
    after the warm-up. It may zero entries of ``weights`` or rewrite
    ``labels`` in place, naming rows by their position in ``dataset``; both
    take effect in that round's tree fit, and its return value is ignored.
    The trainer never sees the noise mask: scoring the callback's flags and
    corrections against the injected noise is left to the caller
    (``experiment.run_group``).

    ``monitor`` selects early stopping: None disables it, "test" monitors the
    summed log-loss on the clean test set, and an (features, labels) pair
    monitors a held-out set with the training columns. The returned trees stop
    at the best monitored round; ``predicted`` covers every round.
    """
    config.validate(with_callback=callback is not None)
    return Booster(dataset, config, test=test,
                   monitor=monitor).run(callback).result()
