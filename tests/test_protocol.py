import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from helpers import micro_model_config, micro_synth_config
from mmtlab import autodiff as ad
from mmtlab.autodiff import Tensor
from mmtlab.errors import ConfigError, DataError, InfeasibleRateError
from mmtlab.missing import MmtBank, SubstitutionMethod, substitute
from mmtlab.model import MbtParameters, forward
from mmtlab.protocol import (
    MetricsTable,
    blob_sha1,
    build_schedule,
    class_weights,
    evaluate,
    make_test_variants,
    sweep,
    write_manifest,
)
from mmtlab.synthdata import SynthDataset, generate


# ---------------------------------------------------------------------------
# schedules


def test_schedule_orders_natural_absences_first():
    natural = np.array([False, True, False, True, False, False])
    s = build_schedule(natural, seed=0, stream="test-missing")
    assert s.natural_count == 2
    assert set(s.order[:2].tolist()) == {1, 3}
    assert sorted(s.order.tolist()) == list(range(6))


def test_schedule_masks_nest():
    natural = np.zeros(40, dtype=bool)
    natural[:5] = True
    s = build_schedule(natural, seed=3, stream="test-missing")
    prev = np.zeros(40, dtype=bool)
    for rate in (0.125, 0.25, 0.5, 0.75, 1.0):
        mask = s.mask_at(rate)
        assert mask.sum() == int(rate * 40)
        assert np.all(mask[prev])  # strictly cumulative
        prev = mask
    assert np.all(s.mask_at(0.2)[natural])


def test_schedule_rejects_infeasible_rate():
    natural = np.zeros(10, dtype=bool)
    natural[:3] = True
    s = build_schedule(natural, seed=0, stream="train-missing")
    with pytest.raises(InfeasibleRateError, match="cannot be restored"):
        s.mask_at(0.1)
    np.testing.assert_array_equal(s.mask_at(0.3), natural)
    with pytest.raises(ConfigError):
        s.mask_at(1.5)


def test_schedule_is_seed_deterministic_and_stream_separated():
    natural = np.zeros(30, dtype=bool)
    a = build_schedule(natural, seed=5, stream="test-missing")
    b = build_schedule(natural, seed=5, stream="test-missing")
    c = build_schedule(natural, seed=6, stream="test-missing")
    d = build_schedule(natural, seed=5, stream="train-missing/video")
    np.testing.assert_array_equal(a.order, b.order)
    assert not np.array_equal(a.order, c.order)
    assert not np.array_equal(a.order, d.order)


def test_variants_counts_and_nesting():
    natural = np.zeros(400, dtype=bool)
    variants = make_test_variants(natural, [0.0, 0.25, 0.5, 0.75, 1.0], seed=1)
    counts = [int(variants[r].sum()) for r in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert counts == [0, 100, 200, 300, 400]
    assert np.all(variants[1.0][variants[0.5]])
    with pytest.raises(ConfigError):
        make_test_variants(natural, [], seed=1)


# ---------------------------------------------------------------------------
# weighting


def test_class_weight_identity_is_exact():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 5, size=977)
    w = class_weights(labels, 5)
    counts = np.bincount(labels, minlength=5)
    for i in range(5):
        assert w[i] + counts[i] / 977 == 1.0  # exact in floating point
    assert np.all((w >= 0) & (w < 1))


def test_class_weight_38_percent_example():
    labels = np.concatenate([np.zeros(38, dtype=int), np.ones(62, dtype=int)])
    w = class_weights(labels, 2)
    assert abs(w[0] - 0.62) < 1e-12
    assert abs(w[1] - 0.38) < 1e-12


def test_uniform_histogram_scales_unweighted_loss():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.standard_normal((8, 4)))
    labels = np.tile(np.arange(4), 2)  # exactly uniform
    w = class_weights(labels, 4)
    np.testing.assert_allclose(w, 0.75)
    weighted = ad.cross_entropy(logits, labels, w)
    plain = ad.cross_entropy(Tensor(logits.data), labels)
    np.testing.assert_allclose(weighted.data, 0.75 * plain.data, atol=1e-12)


def test_weight_functions_reject_bad_labels():
    with pytest.raises(DataError):
        class_weights(np.array([0, 5]), 3)
    with pytest.raises(DataError):
        class_weights(np.array([-1, 0]), 3)


# ---------------------------------------------------------------------------
# evaluation


@pytest.fixture(scope="module")
def setup():
    scfg = micro_synth_config()
    mcfg = micro_model_config()
    ds = generate(scfg, seed=2, n=120, split="test")
    params = MbtParameters.init(mcfg, seed=4)
    bank = MmtBank.init(mcfg.embed_dim, seed=4)
    return ds, params, bank


def no_missing(ds):
    return {m: np.zeros(len(ds), dtype=bool) for m in ("audio", "video")}


def test_random_model_scores_chance(setup):
    ds, params, bank = setup
    res = evaluate(params, bank, ds, no_missing(ds), SubstitutionMethod.MMT)
    assert res["n"] == len(ds)
    assert abs(res["per_head"][0] - 0.25) < 0.15
    assert abs(res["per_head"][1] - 1 / 3) < 0.15


def test_non_finite_logits_raise_instead_of_scoring(setup):
    ds, params, bank = setup
    arrays = params.as_arrays()
    arrays["audio.head.0.b"] = np.array([0.0, np.nan, 0.0, 0.0])
    broken = MbtParameters.from_arrays(params.config, arrays)
    with pytest.raises(FloatingPointError):
        evaluate(broken, bank, ds, no_missing(ds), SubstitutionMethod.MMT)


def test_methods_agree_when_nothing_is_missing(setup):
    ds, params, bank = setup
    results = [
        evaluate(params, bank, ds, no_missing(ds), method)
        for method in SubstitutionMethod
    ]
    for other in results[1:]:
        assert other["per_head"] == results[0]["per_head"]
        np.testing.assert_array_equal(other["preds"], results[0]["preds"])


def test_accuracy_is_order_invariant(setup):
    ds, params, bank = setup
    perm = np.random.default_rng(3).permutation(len(ds))
    shuffled = SynthDataset(
        ds.config,
        ds.seed,
        ds.split,
        ds.labels[perm],
        {m: ds.raw[m][perm] for m in ds.raw},
        {m: ds.missing[m][perm] for m in ds.missing},
    )
    missing = no_missing(ds)
    a = evaluate(params, bank, ds, missing, SubstitutionMethod.MMT)
    b = evaluate(params, bank, shuffled, missing, SubstitutionMethod.MMT)
    assert a["per_head"] == b["per_head"]


def test_zeros_and_mmt_substitution_give_different_logits(setup):
    # the zero-input image (projection bias) only matches the learned token
    # by coincidence, so the two methods disagree on a random model
    ds, params, bank = setup
    patches = {m: ds.patches(m) for m in ("audio", "video")}
    flags = {"audio": np.ones(len(ds), dtype=bool), "video": np.zeros(len(ds), dtype=bool)}
    a = forward(params, substitute(params, bank, patches, flags, SubstitutionMethod.MMT))
    b = forward(params, substitute(params, bank, patches, flags, SubstitutionMethod.ZEROS))
    assert max(np.abs(x.data - y.data).max() for x, y in zip(a, b)) > 1e-9


@pytest.mark.parametrize("method", list(SubstitutionMethod), ids=lambda m: m.value)
def test_evaluate_is_argmax_of_forward_over_substitute(setup, method):
    ds, params, bank = setup
    flags = np.random.default_rng(6).uniform(size=len(ds)) < 0.5
    assert flags.any() and not flags.all()
    missing = {"audio": np.zeros(len(ds), dtype=bool), "video": flags}
    res = evaluate(params, bank, ds, missing, method)

    def preds(present, flags):
        patches = {m: ds.patches(m) for m in present}
        logits = forward(params, substitute(params, bank, patches, flags, method))
        return np.stack([l.data.argmax(axis=1) for l in logits], axis=1)

    if method is SubstitutionMethod.SKIP:
        # skip runs each sample on the modalities it has left
        both = preds(("audio", "video"), no_missing(ds))
        audio = preds(("audio",), no_missing(ds))
        want = np.where(flags[:, None], audio, both)
    else:
        want = preds(("audio", "video"), missing)
    np.testing.assert_array_equal(res["preds"], want)


def test_skip_batch_equals_single_sample_dispatch(setup):
    ds, params, bank = setup
    rng = np.random.default_rng(4)
    missing = {
        "audio": rng.uniform(size=len(ds)) < 0.3,
        "video": rng.uniform(size=len(ds)) < 0.3,
    }
    big = evaluate(params, bank, ds, missing, SubstitutionMethod.SKIP, batch_size=128)
    one = evaluate(params, bank, ds, missing, SubstitutionMethod.SKIP, batch_size=1)
    np.testing.assert_array_equal(big["preds"], one["preds"])


def test_skip_scores_fully_missing_samples_wrong(setup, caplog):
    ds, params, bank = setup
    missing = no_missing(ds)
    missing["audio"][:10] = True
    missing["video"][:10] = True
    with caplog.at_level(logging.WARNING, logger="mmtlab"):
        res = evaluate(params, bank, ds, missing, SubstitutionMethod.SKIP)
    assert any("missing every modality" in r.message for r in caplog.records)
    assert np.all(res["preds"][:10] == -1)


def test_skip_equals_single_branch_forward(setup):
    # dropping video must equal running the reduced forward directly
    from mmtlab.model import embed_content

    ds, params, bank = setup
    missing = no_missing(ds)
    missing["video"][:] = True
    res = evaluate(params, bank, ds, missing, SubstitutionMethod.SKIP)
    content = {"audio": embed_content(params, "audio", ds.patches("audio"))}
    logits = forward(params, content)
    want = np.stack([l.data.argmax(axis=1) for l in logits], axis=1)
    np.testing.assert_array_equal(res["preds"], want)


def test_unimodal_arch_evaluation(setup):
    ds, params, bank = setup
    params = MbtParameters(replace(params.config, arch="unimodal:video"), params.tensors)
    res = evaluate(params, bank, ds, no_missing(ds), SubstitutionMethod.MMT)
    assert res["n"] == len(ds)
    # unimodal model with its only modality missing everywhere scores zero-ish
    missing = no_missing(ds)
    missing["video"][:] = True
    gone = evaluate(params, bank, ds, missing, SubstitutionMethod.SKIP)
    assert np.all(gone["preds"] == -1)


# ---------------------------------------------------------------------------
# metrics table and sweep


def test_metrics_csv_roundtrip_and_format(tmp_path):
    t = MetricsTable()
    t.add("mmt", 50.0, "A", 1, 0.8125, 500)
    t.add("zeros", 0.0, "B", 2, 1 / 3, 500)
    path = str(tmp_path / "m.csv")
    t.save(path)
    text = open(path).read()
    assert text.splitlines()[0] == "method,r_test,head,seed,accuracy,n"
    assert "mmt,50,A,1,0.812500,500" in text
    assert "zeros,0,B,2,0.333333,500" in text
    back = MetricsTable.load(path)
    assert back.has("mmt", 50.0, "A", 1)
    assert not back.has("mmt", 50.0, "A", 3)
    assert back.to_csv() == text


def test_metrics_has_sees_added_and_loaded_rows(tmp_path):
    t = MetricsTable()
    assert not t.has("mmt", 25, "A", 1)
    t.add("mmt", 25, "A", 1, 0.5, 10)
    assert t.has("mmt", 25.0, "A", 1)  # rates match as written to CSV
    assert not t.has("mmt", 25.0, "B", 1) and not t.has("zeros", 25.0, "A", 1)
    path = str(tmp_path / "m.csv")
    t.save(path)
    back = MetricsTable.load(path)
    back.add("mmt", 50.0, "B", 2, 0.25, 10)
    assert back.has("mmt", 25, "A", 1) and back.has("mmt", 50, "B", 2)


def test_metrics_rows_sorted_for_byte_identity(tmp_path):
    a = MetricsTable()
    a.add("zeros", 100.0, "A", 1, 0.5, 10)
    a.add("mmt", 0.0, "A", 1, 0.9, 10)
    b = MetricsTable()
    b.add("mmt", 0.0, "A", 1, 0.9, 10)
    b.add("zeros", 100.0, "A", 1, 0.5, 10)
    assert a.to_csv() == b.to_csv()


def test_metrics_validation(tmp_path):
    t = MetricsTable()
    with pytest.raises(DataError):
        t.add("mmt", 0.0, "A", 1, 1.5, 10)
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n")
    with pytest.raises(DataError):
        MetricsTable.load(str(bad))
    bad.write_text(MetricsTable.HEADER + "\nmmt,0,A\n")
    with pytest.raises(DataError):
        MetricsTable.load(str(bad))


def test_sweep_skips_completed_cells_and_matches_full_run(tmp_path):
    heads = ("A", "B")
    cells = [
        {"method": "mmt", "r_test": r, "seed": s, "heads": heads}
        for r in (0.0, 100.0)
        for s in (1, 2)
    ]

    calls = []

    def run_cell(cell):
        calls.append((cell["method"], cell["r_test"], cell["seed"]))
        base = 0.5 + 0.01 * cell["seed"] - 0.001 * cell["r_test"]
        return {"A": (base, 100), "B": (base / 2, 100)}

    full_path = str(tmp_path / "full.csv")
    sweep(cells, run_cell, MetricsTable(), full_path)
    assert len(calls) == 4

    # pre-seed a partial table: only the remaining cells run
    calls.clear()
    partial = MetricsTable()
    for head, (acc, n) in run_cell(cells[0]).items():
        partial.add("mmt", 0.0, head, 1, acc, n)
    calls.clear()
    resumed_path = str(tmp_path / "resumed.csv")
    sweep(cells, run_cell, partial, resumed_path)
    assert len(calls) == 3
    assert open(resumed_path).read() == open(full_path).read()

    # a cell with one head present is rerun for the missing head only
    calls.clear()
    one_head = MetricsTable()
    one_head.add("mmt", 0.0, "A", 1, *run_cell(cells[0])["A"])
    calls.clear()
    sweep(cells, run_cell, one_head, resumed_path)
    assert len(calls) == 4
    assert open(resumed_path).read() == open(full_path).read()


def test_blob_hash_and_manifest(tmp_path):
    import hashlib

    p = tmp_path / "x.bin"
    p.write_bytes(b"hello")
    want = hashlib.sha1(b"blob 5\x00hello").hexdigest()
    assert blob_sha1(str(p)) == want

    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    payload = {"b": 1, "a": [1, 2]}
    write_manifest(str(m1), payload)
    write_manifest(str(m2), {"a": [1, 2], "b": 1})
    assert m1.read_bytes() == m2.read_bytes()
    assert json.load(open(m1)) == payload
