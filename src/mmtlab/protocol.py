"""Evaluation bookkeeping: test variants, weighting, metrics.

Test variants are :func:`mmtlab.synthdata.build_schedule`'s cumulative
missing sets on the split seed's "test-missing" stream.

Evaluation applies a substitution method to the flagged samples on the fly,
through :func:`mmtlab.missing.substitute`, the one place training uses
too; stored data is never rewritten. Accuracies land in a
:class:`MetricsTable` whose CSV form is byte-deterministic.

Every op of the forward pass works per sample, so a sample's prediction
depends on its own patches and on which modalities it has, not on the
test rate that flagged it. Scoring one model over a rate grid therefore
needs each sample forwarded once per presence group it falls in:
:func:`evaluate` can keep the predictions it made in a memo (``scored``)
and fill later rates from it. The missing sets nest, so a five-rate grid
with no natural absences forwards 2n samples instead of 5n. Batches then
group samples differently from a run without the memo; the tests check
that this changes no prediction.
"""

from __future__ import annotations

import hashlib
import json
import logging

import numpy as np

from .errors import ConfigError, DataError
from .missing import MmtBank, SubstitutionMethod, batch_flags, presence_groups, substitute
from .model import MODALITIES, MbtParameters, forward, write_artifact
from .synthdata import SynthDataset, build_schedule

log = logging.getLogger("mmtlab")


# ---------------------------------------------------------------------------
# test variants


def make_test_variants(
    natural_missing: np.ndarray, rates: list[float], seed: int
) -> dict[float, np.ndarray]:
    """Missing masks for each requested test rate, nested by construction."""
    if not rates:
        raise ConfigError("need at least one test rate")
    schedule = build_schedule(natural_missing, seed, "test-missing")
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
    embedded: tuple[str, ...],
    missing: dict[str, np.ndarray],
    method: SubstitutionMethod,
) -> np.ndarray:
    """Logits -> (len(idx), heads) label predictions for the samples ``idx``,
    with the modalities ``embedded`` as the model's input."""
    patches = {m: ds.patches(m)[idx] for m in embedded}
    flags = {m: missing[m][idx] for m in embedded}
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
    scored: dict | None = None,
) -> dict:
    """Top-1 accuracy per head over the whole set under one missing pattern.

    ``missing`` maps each modality to its flags for this variant (natural
    absences included). Samples are scored per presence group: the skip
    method runs each group on the modalities it has, and samples with
    nothing left are scored wrong and logged; other methods keep every
    branch alive via substitution. Only the modalities the model's arch
    reads are embedded, so a unimodal model scores the samples whose one
    modality was skipped as wrong.

    ``scored`` is a memo of predictions already made by this same model,
    shared by the calls that score it over a rate grid. It maps (method,
    split seed, split name, n, modalities present and read) to an (n,
    heads) array whose unfilled rows hold -1. A sample's prediction
    depends only on its data and that key, so a filled row is what a new
    forward would give; only unfilled rows are forwarded. Without a memo
    every sample is forwarded. The returned ``preds`` is a fresh array.
    """
    n = len(ds)
    heads = len(params.config.n_classes)
    missing = {m: batch_flags(missing[m], n, f"missing mask for {m}") for m in MODALITIES}
    scored = {} if scored is None else scored
    preds = np.full((n, heads), -1, dtype=np.int64)

    skip = method is SubstitutionMethod.SKIP
    for present, idx in presence_groups(missing):
        if skip and not present:
            log.warning(
                "%d samples missing every modality under skip; scoring them wrong",
                len(idx),
            )
            continue
        present = tuple(m for m in present if m in params.config.input_modalities)
        if skip and not present:
            continue  # the one branch this model has is absent: wrong
        memo = scored.setdefault(
            (method.value, ds.seed, ds.split, n, present),
            np.full((n, heads), -1, dtype=np.int64),
        )
        todo = idx[memo[idx, 0] < 0]
        embedded = present if skip else params.config.input_modalities
        for lo in range(0, len(todo), batch_size):
            chunk = todo[lo : lo + batch_size]
            memo[chunk] = _predict_group(params, bank, ds, chunk, embedded, missing, method)
        preds[idx] = memo[idx]

    per_head = [float((preds[:, h] == ds.labels[:, h]).mean()) for h in range(heads)]
    return {"per_head": per_head, "mean": float(np.mean(per_head)), "n": n, "preds": preds}


# ---------------------------------------------------------------------------
# metrics table


class MetricsTable:
    """Rows of (method, r_test, head, seed, accuracy, n) with stable CSV form.

    ``r_test`` is stored as a percentage. Floats are written with fixed
    precision and rows are sorted on save, so two runs that computed the
    same numbers produce byte-identical files. Every row, loaded or
    computed, goes through :meth:`add`, which checks it and keeps the key
    set that :meth:`has` answers from, so a resumed sweep's checks stay
    constant-time.
    """

    HEADER = "method,r_test,head,seed,accuracy,n"

    def __init__(self):
        self.rows: list[tuple] = []
        self._keys: set[tuple] = set()

    def add(self, method: str, r_test: float, head: str, seed: int, accuracy: float, n: int):
        if not 0.0 <= accuracy <= 1.0:
            raise DataError(f"accuracy {accuracy} outside [0, 1]")
        key = self._key(method, r_test, head, seed)
        if key in self._keys:
            raise DataError(f"a row for (method, r_test, head, seed) {key} already exists")
        self.rows.append((str(method), float(r_test), str(head), int(seed), float(accuracy), int(n)))
        self._keys.add(key)

    def has(self, method: str, r_test: float, head: str, seed: int) -> bool:
        """Whether a row exists for this cell and head; rows are matched as
        written to CSV, so a loaded table answers like the one saved."""
        return self._key(method, r_test, head, seed) in self._keys

    @classmethod
    def _key(cls, method: str, r_test: float, head: str, seed: int) -> tuple:
        return (str(method), cls.rate_label(r_test), str(head), int(seed))

    @staticmethod
    def rate_label(r: float) -> str:
        """``r_test`` as the CSV writes it and rows are keyed: two rates
        with one label are one row."""
        return f"{float(r):g}"

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for m, r, h, s, acc, n in sorted(
            self.rows, key=lambda row: (row[0], row[1], row[2], row[3])
        ):
            lines.append(f"{m},{self.rate_label(r)},{h},{s},{acc:.6f},{n}")
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        write_artifact(path, self.to_csv().encode())

    @classmethod
    def load(cls, path: str) -> "MetricsTable":
        with open(path) as f:
            lines = [ln.strip() for ln in f if ln.strip()]
        if not lines or lines[0] != cls.HEADER:
            raise DataError(f"{path}: missing metrics header {cls.HEADER!r}")
        table = cls()
        for ln in lines[1:]:
            try:
                m, r, h, s, acc, n = ln.split(",")
                table.add(m, float(r), h, int(s), float(acc), int(n))
            except DataError as e:
                raise DataError(f"{path}: row {ln!r}: {e}") from None
            except ValueError:
                raise DataError(f"{path}: malformed row {ln!r}") from None
        return table


def sweep(cells: list[dict], run_cell, table: MetricsTable, path: str) -> MetricsTable:
    """Fill a metrics table cell by cell, skipping already-present cells.

    Each cell dict carries ``method``, ``r_test``, ``seed``, ``heads`` plus
    whatever ``run_cell`` needs; ``run_cell(cell)`` returns {head_name:
    (accuracy, n)}, and only the heads the table lacks are added. The
    table is saved whole after each new cell, and only then, so an
    interrupted sweep resumes from the cells it finished, and a resumed
    sweep's final file is identical to an uninterrupted one: rows are sorted on save.
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
    return table


# ---------------------------------------------------------------------------
# run records


def blob_sha1(path: str) -> str:
    """Content hash of a file, computed over a length-prefixed payload."""
    with open(path, "rb") as f:
        data = f.read()
    h = hashlib.sha1()
    h.update(b"blob %d\0" % len(data))
    h.update(data)
    return h.hexdigest()


def write_json(path: str, payload: dict) -> None:
    """Every JSON file a run writes, whole and in one byte-stable form."""
    write_artifact(path, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())
