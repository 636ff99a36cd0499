"""Config-driven experiment stages.

Stage 1 trains uncorrected models over a (noise kind, rate) grid and records
per-round curves against the clean test set. Stage 2 runs the full detector x
correction grid plus an uncorrected baseline per grid point, sharing one noise
realization per (kind, rate) so cells differ only in the method. Stage 3
aggregates stage-2 reports into comparison tables, one set per noise kind.

The unit of work is a (kind, rate, trial) group (``run_group``): its data,
noise and warm-up rounds are prepared and trained once, and cells share one
run for as long as their corrections have made the same edits, forking where
they first differ. A cell that fails leaves ``error.txt`` in its directory
instead of a report, and the rest of the grid goes on.
"""

from __future__ import annotations

import dataclasses
import logging
import traceback
import typing
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import datasets, detect, noise
from .correct import DEFAULT_REMOVAL_BUDGET, NoiseHandler
from .data_ingest import (SplitSpec, load_csv, prepare, stratified_mask,
                          subsample_table)
from .gbdt import Booster, BoostConfig
from .metrics_report import (RunReport, detection_report, load_report,
                             prediction_type_counts, write_tables_csv,
                             write_report)

MONITORS = ("none", "clean_test", "noisy_val")

# the comparison stage aggregates these rates only
COMPARISON_DETECTION_RATES = (0.1, 0.2, 0.3)
COMPARISON_CLASSIFICATION_RATE = 0.3

DEFAULT_RATES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


log = logging.getLogger(__name__)


class ExperimentError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    dataset: str = "dry_bean_like"
    label_column: str | None = None          # required for csv paths
    split: SplitSpec = field(default_factory=SplitSpec)
    noise_kinds: tuple[str, ...] = ("pair", "symmetric")
    noise_rates: tuple[float, ...] = DEFAULT_RATES
    boost: BoostConfig = field(default_factory=BoostConfig)
    detectors: tuple[str, ...] = detect.ALL_METHODS
    corrections: tuple[str, ...] = ("remove", "relabel")
    # clean-test monitoring: a noisy holdout penalizes exactly the sharpening
    # that correction buys, truncating corrected runs back to the warm-up point
    monitor: str = "clean_test"
    noisy_val_fraction: float = 0.1
    removal_budget: float = DEFAULT_REMOVAL_BUDGET
    seed: int = 7
    out_dir: str = "runs"
    subsample: int | None = None
    trials: int = 1
    jobs: int = 1

    def validate(self) -> None:
        if not self.noise_kinds or not self.noise_rates:
            raise ExperimentError("noise grids must be non-empty")
        for kind in self.noise_kinds:
            if kind not in noise.NOISE_KINDS:
                raise ExperimentError(f"unknown noise kind {kind!r}")
        for rate in self.noise_rates:
            if not (0.0 <= rate <= 1.0):
                raise ExperimentError(f"noise rate {rate} outside [0, 1]")
        for det in self.detectors:
            if det not in detect.ALL_METHODS:
                raise ExperimentError(f"unknown detector {det!r}")
        for corr in self.corrections:
            if corr not in ("remove", "relabel"):
                raise ExperimentError(f"unknown correction {corr!r}")
        # cells of a repeated entry would share an output directory, and
        # _cell_dir names a rate by two decimals
        for key, values in (
                ("noise_kinds", self.noise_kinds),
                ("noise_rates (to two decimals)",
                 [f"{rate:.2f}" for rate in self.noise_rates]),
                ("detectors", self.detectors),
                ("corrections", self.corrections)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ExperimentError(f"{key} lists {value!r} twice")
        self.boost.validate(with_callback=True)
        if not (0.0 <= self.removal_budget <= 1.0):
            raise ExperimentError("removal_budget must lie in [0, 1]")
        if self.monitor not in MONITORS:
            raise ExperimentError(f"unknown monitor {self.monitor!r}")
        if not (0.0 < self.noisy_val_fraction < 0.5):
            raise ExperimentError("noisy_val_fraction must lie in (0, 0.5)")
        if self.trials < 1:
            raise ExperimentError("trials must be at least 1")
        if self.jobs < 1:
            raise ExperimentError("jobs must be at least 1")
        if self.subsample is not None and self.subsample < 1:
            raise ExperimentError("subsample must be at least 1")
        if not datasets.is_builtin(self.dataset) and self.label_column is None:
            raise ExperimentError("csv datasets need label_column")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        payload = yaml.safe_load(fh) or {}
    return config_from_dict(payload)


def _fits(value, hint) -> bool:
    """Whether a YAML value fits a field annotated ``hint``: a tuple takes a
    list, an int no bool or float, a float also an int, ``X | None`` null."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, (list, tuple))
                and all(_fits(item, args[0]) for item in value))
    if type(None) in args:
        return value is None or _fits(value, args[0])
    return (isinstance(value, (int, float) if hint is float else hint)
            and not isinstance(value, bool))


def _section(payload, schema, prefix: str = "") -> dict:
    """The keyword arguments of ``schema`` from a config mapping, with its
    keys and value types checked against the dataclass fields."""
    if not isinstance(payload, dict):
        raise ExperimentError(f"config key {prefix[:-1]!r} must be a mapping"
                              if prefix else "a config must be a mapping")
    hints = typing.get_type_hints(schema)
    unknown = sorted(prefix + str(k) for k in set(payload) - set(hints))
    if unknown:
        raise ExperimentError(f"unknown config keys: {unknown}")
    declared = {f.name: f.type for f in dataclasses.fields(schema)}
    kwargs = {}
    for key, value in payload.items():
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            value = hint(**_section(value, hint, f"{prefix}{key}."))
        elif not _fits(value, hint):
            expected = declared[key].replace("tuple", "list")
            raise ExperimentError(f"config key {prefix + key!r} must be "
                                  f"{expected}, got {value!r}")
        kwargs[key] = _coerce(value, hint)
    return kwargs


def _coerce(value, hint):
    """A value that fits ``hint`` as the field's type: a list becomes a
    tuple and an int given for a float a float, so ``1`` and ``1.0`` give
    one config."""
    if typing.get_origin(hint) is tuple:
        return tuple(_coerce(item, typing.get_args(hint)[0]) for item in value)
    return float(value) if hint is float else value


def config_from_dict(payload: dict) -> ExperimentConfig:
    cfg = ExperimentConfig(**_section(payload, ExperimentConfig))
    cfg.validate()
    return cfg


def derive_seed(master: int, *keys) -> int:
    """Stable sub-seed from a master seed and a mixed key path."""
    ints = [int(master) & 0xFFFFFFFF]
    for key in keys:
        if isinstance(key, str):
            ints.append(zlib.crc32(key.encode()))
        elif isinstance(key, float):
            ints.append(int(round(key * 10_000)))
        else:
            ints.append(int(key) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(ints).generate_state(1)[0])


# --------------------------------------------------------------------------
# data preparation
# --------------------------------------------------------------------------

def prepare_data(cfg: ExperimentConfig, trial_seed: int):
    """Load or generate the dataset, then split with train-only statistics."""
    if datasets.is_builtin(cfg.dataset):
        table, label_column = datasets.load_builtin(
            cfg.dataset, n=cfg.subsample,
            seed=derive_seed(trial_seed, "datagen"))
    else:
        table, label_column = load_csv(cfg.dataset), cfg.label_column
    if cfg.subsample is not None and table.n_rows > cfg.subsample:
        table = subsample_table(table, label_column, cfg.subsample,
                                derive_seed(trial_seed, "subsample"))
    spec = SplitSpec(test_fraction=cfg.split.test_fraction,
                     seed=derive_seed(trial_seed, "split", cfg.split.seed))
    return prepare(table, label_column, spec)


def _carve_validation(train_ds, fraction: float, seed: int):
    """Stratified noisy-label holdout carved from the training split; a
    class with fewer than 2 rows gives none."""
    sizes = np.bincount(train_ds.noisy_labels, minlength=train_ds.class_count)
    counts = np.where(sizes < 2, 0, np.maximum(1, np.round(fraction * sizes)))
    val_mask = stratified_mask(train_ds.noisy_labels, counts, seed)
    return train_ds.take(~val_mask), train_ds.take(val_mask)


# --------------------------------------------------------------------------
# experiment cells, one (kind, rate, trial) group at a time
# --------------------------------------------------------------------------

def _noisy_fit_set(cfg: ExperimentConfig, train_ds, kind: str, rate: float,
                   trial_seed: int):
    """The noisy set a grid point fits, its early-stopping monitor and its
    noise seed. All depend only on (trial_seed, kind, rate)."""
    noise_seed = derive_seed(trial_seed, "noise", kind, rate)
    matrix = noise.matrix_for(kind, rate, train_ds.class_count)
    noisy_labels, _ = noise.inject(train_ds.clean_labels, matrix, noise_seed)
    fit_ds = train_ds.with_noise(noisy_labels)
    monitor = None
    if cfg.monitor == "noisy_val":
        fit_ds, val_ds = _carve_validation(
            fit_ds, cfg.noisy_val_fraction,
            derive_seed(trial_seed, "val", kind, rate))
        monitor = (val_ds.features, val_ds.noisy_labels)
    elif cfg.monitor == "clean_test":
        monitor = "test"
    return fit_ds, monitor, noise_seed


def _handler(cfg: ExperimentConfig, detector: str | None,
             correction: str) -> NoiseHandler:
    if correction == "none":
        return NoiseHandler(detectors=cfg.detectors, mode="none")
    return NoiseHandler(detectors=(detector,), mode=correction,
                        removal_budget=cfg.removal_budget)


def _step(booster: Booster, riding: dict, results: list) -> bool:
    """Train the booster's next round; an exception fails every cell riding
    it."""
    try:
        booster.step()
    except Exception as exc:
        for i in riding:
            results[i] = exc
        return False
    return True


def _ride(booster: Booster, riding: dict, handlers: list,
          results: list) -> None:
    """Train ``booster`` on for the cells in ``riding`` and put each one's
    report and training argmaxes, or the exception that failed it, into
    ``results``. Keeping no dynamics lets each fork's be freed at its end.

    ``riding`` maps a cell to its own labels and weights, which its handler
    edits and which equal the booster's. Each round every riding cell's
    handler runs on the booster's dynamics; cells whose arrays then differ
    from the booster's leave it, grouped by equal arrays, since the arrays
    alone decide the next tree. Each group forks the booster, which adopts
    the group's arrays, steps this round and rides on to its end at once;
    the last group takes the booster itself when no cell stays.
    """
    while riding and not booster.done:
        t = booster.rounds_trained
        groups = []     # [labels, weights, members]
        for i in list(riding):
            labels, weights = riding[i]
            try:
                handlers[i](t, booster.dynamics, labels, weights)
            except Exception as exc:
                del riding[i]
                results[i] = exc
                continue
            if (np.array_equal(labels, booster.labels)
                    and np.array_equal(weights, booster.weights)):
                continue
            group = next((g for g in groups if np.array_equal(g[0], labels)
                          and np.array_equal(g[1], weights)), None)
            if group is None:
                group = [labels, weights, {}]
                groups.append(group)
            group[2][i] = riding.pop(i)
        for n, (labels, weights, members) in enumerate(groups):
            fork = (booster if not riding and n == len(groups) - 1
                    else booster.fork())
            np.copyto(fork.labels, labels)
            np.copyto(fork.weights, weights)
            if fork is booster:
                riding = members
            elif _step(fork, members, results):
                _ride(fork, members, handlers, results)
        if not riding or not _step(booster, riding, results):
            return
    for i in riding:
        result = booster.result()
        results[i] = result.report, result.predicted


def run_group(cfg: ExperimentConfig, train_ds, test_ds, kind: str,
              rate: float, cells, trial_seed: int) -> list:
    """Train the cells of one (noise kind, rate, trial) grid point.

    ``cells`` lists (detector, correction) pairs; (None, "none") is the
    uncorrected baseline. The noise realization and validation carve depend
    only on (trial_seed, kind, rate), and the correction callback is not
    invoked before ``warmup_rounds``, so all cells train the same warm-up.

    One trunk Booster trains past the warm-up with no callback. Each cell's
    handler edits the cell's own copies of the labels and weights, and the
    cell rides the trunk while they equal the trunk's (``_ride``), training
    no trees of its own. Cells whose arrays first differ in the same round
    fork the trunk before that round's trees, one fork per distinct (labels,
    weights), and ride that fork in turn. So cells that make the same edits
    share every tree they have in common, and a cell trains alone only from
    the round its run first differs from every other cell's. Forks run to
    the end at once, depth first, and the last group to leave a booster
    takes it instead of a fork, so a one-cell group copies nothing. Cells
    that ride a booster to its end, or to an early stop, take its result.

    Training and correction act without the ground truth. It is used here:
    reports are scored against the injected noise, and prediction types
    count against the original noisy labels, whatever a cell relabeled.

    Returns one entry per cell, in order: its RunReport, or the exception
    the cell raised, so one failing cell does not cost the others. A handler
    that raises fails its own cell. An exception from a booster's step fails
    every cell riding it, as each one's own step would have raised it. An
    exception before the first post-warm-up round (noise injection, the
    warm-up) propagates.
    """
    cfg.boost.validate(with_callback=True)
    fit_ds, monitor, noise_seed = _noisy_fit_set(cfg, train_ds, kind, rate,
                                                 trial_seed)
    trunk = Booster(fit_ds, cfg.boost, test=test_ds, monitor=monitor).run(
        until=cfg.boost.warmup_rounds)
    handlers = [_handler(cfg, detector, correction)
                for detector, correction in cells]
    results: list = [None] * len(cells)
    _ride(trunk, {i: (trunk.labels.copy(), trunk.weights.copy())
                  for i in range(len(cells))}, handlers, results)
    for i, ((detector, correction), handler, result) in enumerate(
            zip(cells, handlers, results)):
        if isinstance(result, Exception):
            continue
        report, predicted = result
        results[i] = report
        try:
            report.prediction_types = prediction_type_counts(
                predicted, fit_ds.clean_labels, fit_ds.noisy_labels)
            report.empirical_noise_rate = float(fit_ds.noise_mask.mean())
            (report.detector_series, report.evaluation, report.detector_peaks,
             report.correction_events) = detection_report(
                handler.flag_rounds, handler.events, fit_ds.noise_mask,
                fit_ds.instance_ids, report.best_round)
            report.dataset = cfg.dataset
            report.noise_kind = kind
            report.noise_rate = rate
            report.detection = detector or "none"
            report.correction = correction
            report.seed = trial_seed
            report.note = "subsampled" if cfg.subsample else ""
            # without the output directory, so a config writes the same
            # report wherever it runs
            experiment = cfg.as_dict()
            del experiment["out_dir"]
            report.config = {"experiment": experiment,
                             "training": report.config,
                             "noise_seed": noise_seed}
            report.correction_summary = handler.summary()
        except Exception as exc:
            results[i] = exc
    return results


def run_cell(cfg: ExperimentConfig, train_ds, test_ds, kind: str, rate: float,
             detector: str | None, correction: str,
             trial_seed: int) -> RunReport:
    """Train one (noise kind, rate, detector, correction) cell.

    It is a one-cell group (``run_group``), so it trains exactly as the same
    cell of a grid does; a failure is raised.
    """
    (result,) = run_group(cfg, train_ds, test_ds, kind, rate,
                          [(detector, correction)], trial_seed)
    if isinstance(result, Exception):
        raise result
    return result


def _stage_dir(cfg: ExperimentConfig, stage: int) -> Path:
    """A stage's output directory for the dataset; a CSV dataset is named by
    its file name, so an absolute path stays inside ``out_dir``."""
    return Path(cfg.out_dir) / f"stage{stage}" / Path(cfg.dataset).name


def _cell_dir(stage: int, cfg, kind, rate, detector, correction,
              trial: int) -> Path:
    base = _stage_dir(cfg, stage) / f"{kind}_{rate:.2f}"
    name = f"{correction}_{detector or 'none'}"
    if cfg.trials > 1:
        name += f"_trial{trial}"
    return base / name


def _trial_seeds(cfg: ExperimentConfig) -> list[int]:
    if cfg.trials == 1:
        return [cfg.seed]
    return [derive_seed(cfg.seed, "trial", k) for k in range(cfg.trials)]


def _stage_groups(cfg: ExperimentConfig, stage: int):
    """(kind, rate, cells) of every grid point of a stage."""
    for kind in cfg.noise_kinds:
        for rate in cfg.noise_rates:
            cells = [(None, "none")]
            if stage == 2:
                cells += [(detector, correction)
                          for detector in cfg.detectors
                          for correction in cfg.corrections]
            yield kind, rate, cells


def stage_cell_count(cfg: ExperimentConfig, stage: int) -> int:
    """How many cells a stage's grid trains."""
    return len(_trial_seeds(cfg)) * sum(
        len(cells) for _, _, cells in _stage_groups(cfg, stage))


def _write_cell(out: Path, result) -> bool:
    """Write a cell's report, or the text of its exception to error.txt;
    either one replaces what an earlier run left of the other."""
    out.mkdir(parents=True, exist_ok=True)
    failed = isinstance(result, Exception)
    (out / ("report.json" if failed else "error.txt")).unlink(missing_ok=True)
    if failed:
        (out / "error.txt").write_text(
            "".join(traceback.format_exception(result)))
        log.error("cell %s failed: %s: %s", out, type(result).__name__,
                  result)
    else:
        write_report(result, out)
    return not failed


def _run_group_spec(args) -> list[str]:
    """Prepare the data, train one group and write its cells; returns the
    directories of the cells that succeeded."""
    cfg_payload, stage, kind, rate, cells, trial_seed, trial_index = args
    cfg = config_from_dict(cfg_payload)
    try:
        train_ds, test_ds = prepare_data(cfg, trial_seed)
        results = run_group(cfg, train_ds, test_ds, kind, rate, cells,
                            trial_seed)
    except Exception as exc:
        results = [exc] * len(cells)
    written = []
    for (detector, correction), result in zip(cells, results):
        out = _cell_dir(stage, cfg, kind, rate, detector, correction,
                        trial_index)
        if _write_cell(out, result):
            written.append(str(out))
    return written


def _run_stage_grid(cfg: ExperimentConfig, stage: int) -> list[RunReport]:
    """Run a stage's (kind, rate, trial) groups and return the reports of
    the cells that succeeded.

    With ``jobs > 1`` the groups run in parallel worker processes, so a grid
    of a single group runs serially.
    """
    cfg.validate()
    specs = [(cfg.as_dict(), stage, kind, rate, cells, trial_seed,
              trial_index)
             for trial_index, trial_seed in enumerate(_trial_seeds(cfg))
             for kind, rate, cells in _stage_groups(cfg, stage)]
    if cfg.jobs > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=min(cfg.jobs,
                                                 len(specs))) as pool:
            written = list(pool.map(_run_group_spec, specs))
    else:
        written = [_run_group_spec(spec) for spec in specs]
    return [load_report(Path(d) / "report.json")
            for dirs in written for d in dirs]


def run_stage1(cfg: ExperimentConfig) -> list[RunReport]:
    """Uncorrected noise-impact runs over the (kind, rate) grid."""
    return _run_stage_grid(cfg, stage=1)


def run_stage2(cfg: ExperimentConfig) -> list[RunReport]:
    """Detector x correction grid plus a baseline per (kind, rate)."""
    return _run_stage_grid(cfg, stage=2)


# --------------------------------------------------------------------------
# stage 3: comparison tables
# --------------------------------------------------------------------------

def _collect_stage2_reports(cfg: ExperimentConfig) -> list[RunReport]:
    root = _stage_dir(cfg, 2)
    paths = sorted(root.glob("**/report.json"))
    if not paths:
        raise ExperimentError(
            f"no stage-2 reports under {root}; run stage 2 first")
    return [load_report(p) for p in paths]


def _mark_best(rows: list[dict], group_keys) -> None:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in group_keys), []).append(row)
    for members in groups.values():
        best = max(m["value"] for m in members)
        for m in members:
            m["is_best"] = "yes" if m["value"] == best else ""


def _table_row(cfg: ExperimentConfig, kind: str, rate: float, detector: str,
               correction: str, metric: str, values: list[float]) -> dict:
    """One stage-3 row: the mean of ``values`` over trials, with their std in
    the note when the config runs several trials."""
    arr = np.asarray(values, dtype=np.float64)
    note = "subsampled" if cfg.subsample else ""
    if cfg.trials > 1:
        note = (note + f" std={float(arr.std()):.2f}").strip()
    return {"dataset": cfg.dataset, "noise_kind": kind, "rate": rate,
            "detection": detector, "correction": correction, "metric": metric,
            "value": round(float(arr.mean()), 2), "evaluated_at": "early_stop",
            "note": note, "is_best": ""}


def run_stage3(cfg: ExperimentConfig, kind: str = "pair") -> dict:
    """Aggregate the stage-2 reports of one noise kind into detection and
    classification tables, written under ``stage3/<dataset>/<kind>``.

    Detection accuracy is tabulated per (rate, detector) at the early-stopped
    epoch: the best value over the correction modes of that detector within
    each trial, then the mean (and, with several trials, the std) over
    trials. Classification metrics are tabulated per (correction, detector)
    at the comparison rate, as the mean and std over trials. Only the rates
    in ``COMPARISON_DETECTION_RATES`` and ``COMPARISON_CLASSIFICATION_RATE``,
    and only the config's detectors and corrections, enter the tables.
    """
    cfg.validate()
    reports = [r for r in _collect_stage2_reports(cfg) if r.noise_kind == kind]

    detection_rows: list[dict] = []
    for rate in COMPARISON_DETECTION_RATES:
        for detector in cfg.detectors:
            cells = [r for r in reports
                     if abs(r.noise_rate - rate) < 1e-9
                     and r.detection == detector
                     and r.correction in cfg.corrections]
            best_per_trial: dict[int, float] = {}
            for r in cells:
                methods = r.evaluation.get("early_stop", {}).get("methods", {})
                if detector in methods:
                    value = 100.0 * methods[detector]["accuracy"]
                    best_per_trial[r.seed] = max(
                        value, best_per_trial.get(r.seed, value))
            if best_per_trial:
                detection_rows.append(_table_row(
                    cfg, kind, rate, detector, "best", "detection_accuracy",
                    list(best_per_trial.values())))
    _mark_best(detection_rows, ("rate",))

    classification_rows: list[dict] = []
    rate = COMPARISON_CLASSIFICATION_RATE
    combos = [("none", "none")] + [
        (corr, det) for corr in ("relabel", "remove")
        if corr in cfg.corrections for det in cfg.detectors]
    for correction, detector in combos:
        cells = [r for r in reports
                 if abs(r.noise_rate - rate) < 1e-9
                 and r.correction == correction and r.detection == detector]
        for metric in ("accuracy", "precision", "recall", "f1"):
            values = [100.0 * r.final[metric] for r in cells if r.final]
            if values:
                classification_rows.append(_table_row(
                    cfg, kind, rate, detector, correction, metric, values))
    _mark_best(classification_rows, ("metric",))

    out = _stage_dir(cfg, 3) / kind
    out.mkdir(parents=True, exist_ok=True)
    write_tables_csv(detection_rows, out / "detection_tables.csv")
    write_tables_csv(classification_rows, out / "classification_tables.csv")
    write_tables_csv(detection_rows + classification_rows, out / "tables.csv")
    return {"detection": detection_rows, "classification": classification_rows,
            "out_dir": str(out)}
