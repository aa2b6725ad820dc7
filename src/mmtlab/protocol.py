"""Missingness bookkeeping: schedules, test variants, weighting, metrics.

Missingness is always *cumulative*: a schedule orders sample ids with the
naturally incomplete ones first and the complete ones behind them in a
seeded shuffle, and the missing set at rate r is the first floor(r*N) ids.
Raising r only ever extends the set, so results at different rates are
comparable on shared samples, and a rate below the natural fraction is
impossible to honor (absent data cannot be restored).

Evaluation applies a substitution method to the flagged samples on the fly,
through :func:`mmtlab.missing.substitute`, the one place training uses
too; stored data is never rewritten. Accuracies land in a
:class:`MetricsTable` whose CSV form is byte-deterministic.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InfeasibleRateError
from .missing import MmtBank, SubstitutionMethod, substitute, substitute_skip
from .model import MODALITIES, MbtParameters, forward
from .rng import Stream
from .synthdata import SynthDataset, missing_count

log = logging.getLogger("mmtlab")


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class MissingnessSchedule:
    """Cumulative missing-set order for one modality of one split."""

    order: np.ndarray  # every sample id: natural incompletes, then shuffled
    natural_count: int

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def natural_rate(self) -> float:
        return self.natural_count / self.n

    def count_at(self, rate: float) -> int:
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"rate {rate} outside [0, 1]")
        count = missing_count(rate, self.n)
        if count < self.natural_count:
            raise InfeasibleRateError(rate, self.natural_rate)
        return count

    def mask_at(self, rate: float) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[self.order[: self.count_at(rate)]] = True
        return mask


def build_schedule(
    natural_missing: np.ndarray, seed: int, stream: str
) -> MissingnessSchedule:
    """Order ids for cumulative missingness under a named shuffle stream."""
    natural_missing = np.asarray(natural_missing, dtype=bool)
    natural = np.flatnonzero(natural_missing)
    complete = np.flatnonzero(~natural_missing).tolist()
    Stream(seed, stream).shuffle(complete)
    order = np.concatenate([natural, np.asarray(complete, dtype=np.int64)])
    return MissingnessSchedule(order.astype(np.int64), len(natural))


def make_test_variants(
    natural_missing: np.ndarray, rates: list[float], seed: int, stream: str = "test-missing"
) -> dict[float, np.ndarray]:
    """Missing masks for each requested test rate, nested by construction."""
    if not rates:
        raise ConfigError("need at least one test rate")
    schedule = build_schedule(natural_missing, seed, stream)
    return {float(r): schedule.mask_at(r) for r in sorted(rates)}


# ---------------------------------------------------------------------------
# loss weighting


def class_weights(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """w_c = 1 - count_c / total, from the training split's histogram."""
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= n_classes:
        raise DataError("label outside [0, n_classes)")
    counts = np.bincount(labels, minlength=n_classes)
    return 1.0 - counts / labels.shape[0]


# ---------------------------------------------------------------------------
# evaluation


def _predict_group(
    params: MbtParameters,
    bank: MmtBank,
    ds: SynthDataset,
    idx: np.ndarray,
    present: tuple[str, ...],
    missing: dict[str, np.ndarray],
    method: SubstitutionMethod,
) -> np.ndarray:
    """Logits -> (len(idx), heads) label predictions for one presence group."""
    patches = {m: ds.patches(m)[idx] for m in present}
    flags = {m: missing[m][idx] for m in present}
    logits = forward(params, substitute(params, bank, patches, flags, method))
    # argmax would silently pick the first NaN, so refuse to score
    if not all(np.isfinite(l.data).all() for l in logits):
        raise FloatingPointError(f"non-finite logits in a batch of {len(idx)} samples")
    return np.stack([l.data.argmax(axis=1) for l in logits], axis=1)


def evaluate(
    params: MbtParameters,
    bank: MmtBank,
    ds: SynthDataset,
    missing: dict[str, np.ndarray],
    method: SubstitutionMethod,
    batch_size: int = 128,
) -> dict:
    """Top-1 accuracy per head over the whole set under one missing pattern.

    ``missing`` maps each modality to its flags for this variant (natural
    absences included). The skip method dispatches per presence group;
    samples with nothing left are scored wrong and logged. Other methods
    keep every branch alive via substitution. Only the modalities the
    model's arch reads are embedded, so a unimodal model scores the
    samples whose one modality was skipped as wrong.
    """
    n = len(ds)
    heads = len(params.config.n_classes)
    for m in MODALITIES:
        if missing[m].shape != (n,):
            raise ConfigError(f"missing mask for {m} has shape {missing[m].shape}")
    preds = np.full((n, heads), -1, dtype=np.int64)

    if method is SubstitutionMethod.SKIP:
        groups = substitute_skip(missing)
    else:
        groups = [(MODALITIES, np.arange(n))]

    for present, idx in groups:
        if not present:
            log.warning(
                "%d samples missing every modality under skip; scoring them wrong",
                len(idx),
            )
            continue
        present = tuple(m for m in present if m in params.config.input_modalities)
        if not present:
            continue  # the one branch this model has is absent: wrong
        for lo in range(0, len(idx), batch_size):
            chunk = idx[lo : lo + batch_size]
            preds[chunk] = _predict_group(params, bank, ds, chunk, present, missing, method)

    per_head = [float((preds[:, h] == ds.labels[:, h]).mean()) for h in range(heads)]
    return {"per_head": per_head, "mean": float(np.mean(per_head)), "n": n, "preds": preds}


# ---------------------------------------------------------------------------
# metrics table


class MetricsTable:
    """Rows of (method, r_test, head, seed, accuracy, n) with stable CSV form.

    ``r_test`` is stored as a percentage. Floats are written with fixed
    precision and rows are sorted on save, so two runs that computed the
    same numbers produce byte-identical files. Add rows through
    :meth:`add`: :meth:`has` answers from a key set that ``add`` and the
    constructor keep, so a resumed sweep's checks stay constant-time.
    """

    HEADER = "method,r_test,head,seed,accuracy,n"

    def __init__(self, rows: list[tuple] | None = None):
        self.rows: list[tuple] = list(rows or [])
        self._keys = {self._key(*row[:4]) for row in self.rows}

    def add(self, method: str, r_test: float, head: str, seed: int, accuracy: float, n: int):
        if not 0.0 <= accuracy <= 1.0:
            raise DataError(f"accuracy {accuracy} outside [0, 1]")
        self.rows.append((str(method), float(r_test), str(head), int(seed), float(accuracy), int(n)))
        self._keys.add(self._key(method, r_test, head, seed))

    def has(self, method: str, r_test: float, head: str, seed: int) -> bool:
        """Whether a row exists for this cell and head; rows are matched as
        written to CSV, so a loaded table answers like the one saved."""
        return self._key(method, r_test, head, seed) in self._keys

    @classmethod
    def _key(cls, method: str, r_test: float, head: str, seed: int) -> tuple:
        return (str(method), cls._fmt_rate(r_test), str(head), int(seed))

    @staticmethod
    def _fmt_rate(r: float) -> str:
        return f"{float(r):g}"

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for m, r, h, s, acc, n in sorted(
            self.rows, key=lambda row: (row[0], row[1], row[2], row[3])
        ):
            lines.append(f"{m},{self._fmt_rate(r)},{h},{s},{acc:.6f},{n}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_csv())

    @classmethod
    def load(cls, path: str) -> "MetricsTable":
        with open(path) as f:
            lines = [ln.strip() for ln in f if ln.strip()]
        if not lines or lines[0] != cls.HEADER:
            raise DataError(f"{path}: missing metrics header {cls.HEADER!r}")
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 6:
                raise DataError(f"{path}: malformed row {ln!r}")
            m, r, h, s, acc, n = parts
            rows.append((m, float(r), h, int(s), float(acc), int(n)))
        return cls(rows)


def sweep(cells: list[dict], run_cell, table: MetricsTable, path: str) -> MetricsTable:
    """Fill a metrics table cell by cell, skipping already-present cells.

    Each cell dict carries ``method``, ``r_test``, ``seed``, ``heads`` plus
    whatever ``run_cell`` needs; ``run_cell(cell)`` returns {head_name:
    (accuracy, n)}, and only the heads the table lacks are added. The
    table is saved after every new cell so an interrupted sweep resumes
    where it stopped, and a resumed sweep's final file is identical to an
    uninterrupted one because rows are sorted on save.
    """
    for cell in cells:
        method, r_test, seed = cell["method"], cell["r_test"], cell["seed"]
        todo = [h for h in cell["heads"] if not table.has(method, r_test, h, seed)]
        if not todo:
            continue
        results = run_cell(cell)
        for head in todo:
            acc, n = results[head]
            table.add(method, r_test, head, seed, acc, n)
        table.save(path)
    table.save(path)
    return table


# ---------------------------------------------------------------------------
# run manifests


def blob_sha1(path: str) -> str:
    """Content hash of a file, computed over a length-prefixed payload."""
    with open(path, "rb") as f:
        data = f.read()
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


def write_manifest(path: str, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
