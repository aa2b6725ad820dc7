import numpy as np
import pytest

from mmtlab import autodiff as ad
from mmtlab.autodiff import Tape, Tensor
from mmtlab.errors import CheckpointError, ConfigError, DimensionError
from mmtlab.missing import (
    MmtBank,
    SubstitutionMethod,
    check_replace_probs,
    presence_groups,
    random_replace,
    replace_with_mmt,
    substitute,
)
from mmtlab.model import ARCHS, MODALITIES, MbtParameters, embed_content, forward
from mmtlab.rng import Stream

from helpers import micro_model_config


def test_method_parsing():
    assert SubstitutionMethod.parse("mmt") is SubstitutionMethod.MMT
    assert SubstitutionMethod.parse("zeros") is SubstitutionMethod.ZEROS
    assert SubstitutionMethod.parse("skip") is SubstitutionMethod.SKIP
    with pytest.raises(ConfigError):
        SubstitutionMethod.parse("drop")


def test_replaced_rows_equal_token_exactly():
    bank = MmtBank.init(8, seed=1)
    rng = np.random.default_rng(0)
    content = Tensor(rng.standard_normal((4, 5, 8)))
    replace = np.array([True, False, True, False])
    out = replace_with_mmt(bank, "video", content, replace)
    token = bank["video"].data
    for i in (0, 2):
        for j in range(5):
            np.testing.assert_array_equal(out.data[i, j], token)
    for i in (1, 3):
        np.testing.assert_array_equal(out.data[i], content.data[i])


def test_replacement_is_content_independent():
    bank = MmtBank.init(8, seed=1)
    rng = np.random.default_rng(0)
    replace = np.array([True, True, False])
    a = replace_with_mmt(bank, "audio", Tensor(rng.standard_normal((3, 4, 8))), replace)
    b = replace_with_mmt(bank, "audio", Tensor(rng.standard_normal((3, 4, 8))), replace)
    np.testing.assert_array_equal(a.data[:2], b.data[:2])


def test_no_replacement_is_identity_object():
    bank = MmtBank.init(8, seed=1)
    content = Tensor(np.zeros((2, 3, 8)))
    out = replace_with_mmt(bank, "audio", content, np.zeros(2, dtype=bool))
    assert out is content


def test_replace_mask_shape_checked():
    bank = MmtBank.init(8, seed=1)
    with pytest.raises(DimensionError):
        replace_with_mmt(bank, "audio", Tensor(np.zeros((2, 3, 8))), np.zeros(3, dtype=bool))


def test_unknown_modality_rejected():
    bank = MmtBank.init(8, seed=1)
    with pytest.raises(ConfigError):
        bank["depth"]


def test_gradients_respect_the_swap():
    bank = MmtBank.init(6, seed=2)
    rng = np.random.default_rng(3)
    content = Tensor(rng.standard_normal((4, 3, 6)))
    replace = np.array([True, False, False, True])
    with Tape() as tape:
        out = replace_with_mmt(bank, "video", content, replace)
        loss = ad.mean(ad.mul(out, Tensor(rng.standard_normal(out.shape))))
        tape.backward(loss)
    # replaced rows: content gradient is exactly zero, not merely small
    assert np.all(content.grad[replace] == 0.0)
    assert np.abs(content.grad[~replace]).max() > 0.0
    assert np.abs(bank["video"].grad).max() > 0.0


def mmt_gradient_mask_check(batch: int = 6, tokens: int = 5, dim: int = 8, seed: int = 0) -> dict:
    """Measure gradient leakage across the substitution boundary.

    Returns the largest gradient magnitude reaching (a) replaced content
    rows and (b) the token when nothing was replaced. Both must be exactly
    zero: substitution is a hard swap, not an interpolation.
    """
    rng = np.random.default_rng(seed)
    bank = MmtBank.init(dim, seed=seed)
    replace = np.zeros(batch, dtype=bool)
    replace[:: 2] = True

    content = Tensor(rng.standard_normal((batch, tokens, dim)))
    with Tape() as tape:
        out = replace_with_mmt(bank, "audio", content, replace)
        loss = ad.mean(ad.mul(out, Tensor(rng.standard_normal(out.shape))))
        tape.backward(loss)
    leak_content = float(np.abs(content.grad[replace]).max())

    bank2 = MmtBank.init(dim, seed=seed)
    content2 = Tensor(rng.standard_normal((batch, tokens, dim)))
    with Tape() as tape:
        out = replace_with_mmt(bank2, "audio", content2, np.zeros(batch, dtype=bool))
        loss = ad.mean(ad.mul(out, Tensor(rng.standard_normal(out.shape))))
        tape.backward(loss)
    g = bank2["audio"].grad
    leak_token = 0.0 if g is None else float(np.abs(g).max())
    return {"replaced_content_grad": leak_content, "idle_token_grad": leak_token}


def test_gradient_leak_check_reports_zero():
    report = mmt_gradient_mask_check()
    assert report == {"replaced_content_grad": 0.0, "idle_token_grad": 0.0}


@pytest.mark.parametrize("arch", ARCHS)
def test_no_gradient_crosses_the_swap_through_the_classifier(arch):
    # the whole forward, whose last block computes only the CLS rows, still
    # sends exactly zero gradient into the content it swapped out
    mcfg = micro_model_config(arch=arch, fusion_layer=0)
    params = MbtParameters.init(mcfg, seed=3)
    bank = MmtBank.init(mcfg.embed_dim, seed=3)
    rng = np.random.default_rng(7)
    replace = np.array([True, False, True, False])
    embedded, content = {}, {}
    with Tape() as tape:
        for m in mcfg.input_modalities:
            patches = rng.standard_normal((4, mcfg.tokens(m), mcfg.patch_dim(m)))
            embedded[m] = embed_content(params, m, patches)
            content[m] = replace_with_mmt(bank, m, embedded[m], replace)
        logits = forward(params, content)
        tape.backward(ad.add(ad.mean(logits[0]), ad.mean(logits[1])))
    for m, emb in embedded.items():
        assert np.all(emb.grad[replace] == 0.0), m
        assert np.abs(emb.grad[~replace]).max() > 0.0, m
        assert np.abs(bank[m].grad).max() > 0.0, m


@pytest.mark.parametrize("flagged", [[False, True, False, True, False], [False] * 5, [True] * 5])
def test_zeros_substitution_embeds_the_zeroed_patches(flagged):
    # the blend with the embedding bias is the old path: zero the raw
    # patches of flagged samples, then embed every sample
    mcfg = micro_model_config()
    params = MbtParameters.init(mcfg, seed=2)
    bank = MmtBank.init(mcfg.embed_dim, seed=2)
    rng = np.random.default_rng(4)
    flags = {m: np.array(flagged) for m in MODALITIES}
    patches = {m: rng.standard_normal((5, mcfg.tokens(m), mcfg.patch_dim(m))) for m in MODALITIES}
    out = substitute(params, bank, patches, flags, SubstitutionMethod.ZEROS)
    for m, x in patches.items():
        zeroed = np.where(flags[m][:, None, None], 0.0, x)
        np.testing.assert_array_equal(out[m].data, embed_content(params, m, zeroed).data)
    with pytest.raises(DimensionError):
        substitute(params, bank, patches, {**flags, "audio": flags["audio"][:3]}, SubstitutionMethod.ZEROS)


def test_substitute_builds_content_per_method():
    mcfg = micro_model_config()
    params = MbtParameters.init(mcfg, seed=1)
    bank = MmtBank.init(mcfg.embed_dim, seed=1)
    rng = np.random.default_rng(5)
    patches = {"audio": rng.standard_normal((3, mcfg.tokens("audio"), mcfg.patch_dim("audio")))}
    flags = {"audio": np.array([False, True, False])}
    plain = embed_content(params, "audio", patches["audio"]).data
    zeroed = embed_content(params, "audio", np.zeros_like(patches["audio"])).data

    mmt = substitute(params, bank, patches, flags, SubstitutionMethod.MMT)["audio"].data
    zeros = substitute(params, bank, patches, flags, SubstitutionMethod.ZEROS)["audio"].data
    for out in (mmt, zeros):
        np.testing.assert_array_equal(out[[0, 2]], plain[[0, 2]])
    assert np.all(mmt[1] == bank["audio"].data)
    np.testing.assert_array_equal(zeros[1], zeroed[1])

    none = {"audio": np.zeros(3, dtype=bool)}
    skip = substitute(params, bank, patches, none, SubstitutionMethod.SKIP)["audio"].data
    np.testing.assert_array_equal(skip, plain)
    # skip drops absent modalities instead; a flagged one is a caller error
    with pytest.raises(ConfigError, match="flagged absent"):
        substitute(params, bank, patches, flags, SubstitutionMethod.SKIP)


def test_skip_partition_covers_batch_once():
    missing = {
        "audio": np.array([False, True, False, True, False, True]),
        "video": np.array([False, False, True, True, False, True]),
    }
    groups = presence_groups(missing)
    seen = np.concatenate([idx for _, idx in groups])
    assert sorted(seen.tolist()) == list(range(6))
    as_dict = {present: idx.tolist() for present, idx in groups}
    assert as_dict[("audio", "video")] == [0, 4]
    assert as_dict[("video",)] == [1]
    assert as_dict[("audio",)] == [2]
    assert as_dict[()] == [3, 5]


def test_skip_partition_group_order_is_deterministic():
    missing = {
        "audio": np.array([True, False]),
        "video": np.array([False, True]),
    }
    a = presence_groups(missing)
    b = presence_groups(missing)
    assert [p for p, _ in a] == [p for p, _ in b]


def test_policy_validation():
    with pytest.raises(ConfigError):
        check_replace_probs({"video": 1.5})
    with pytest.raises(ConfigError):
        check_replace_probs({"video": 0.7, "audio": 0.7})
    with pytest.raises(ConfigError):
        check_replace_probs({"depth": 0.1})
    for ok in ({}, {"video": 0.0}, {"audio": 0.5, "video": 0.5}):
        check_replace_probs(ok)


def test_random_replace_keeps_natural_absences():
    probs = {"video": 0.0}
    natural = {
        "audio": np.array([False, False, True, False]),
        "video": np.array([True, False, False, False]),
    }
    masks = random_replace(probs, Stream(0, "random-replace"), natural)
    np.testing.assert_array_equal(masks["audio"], natural["audio"])
    np.testing.assert_array_equal(masks["video"], natural["video"])


def test_random_replace_rate_approaches_probability():
    probs = {"video": 0.25}
    n = 20000
    natural = {"audio": np.zeros(n, dtype=bool), "video": np.zeros(n, dtype=bool)}
    masks = random_replace(probs, Stream(7, "random-replace"), natural)
    rate = masks["video"].mean()
    assert abs(rate - 0.25) < 0.01
    assert not masks["audio"].any()


def test_random_replace_is_deterministic_per_seed():
    probs = {"video": 0.5}
    natural = {"audio": np.zeros(64, dtype=bool), "video": np.zeros(64, dtype=bool)}
    a = random_replace(probs, Stream(3, "random-replace"), natural)
    b = random_replace(probs, Stream(3, "random-replace"), natural)
    c = random_replace(probs, Stream(4, "random-replace"), natural)
    np.testing.assert_array_equal(a["video"], b["video"])
    assert not np.array_equal(a["video"], c["video"])


def test_dual_replace_is_mutually_exclusive():
    probs = {"audio": 0.4, "video": 0.4}
    n = 10000
    natural = {"audio": np.zeros(n, dtype=bool), "video": np.zeros(n, dtype=bool)}
    masks = random_replace(probs, Stream(5, "random-replace"), natural)
    assert not np.any(masks["audio"] & masks["video"])
    assert abs(masks["audio"].mean() - 0.4) < 0.02
    assert abs(masks["video"].mean() - 0.4) < 0.02


def test_incomplete_samples_consume_no_draws():
    # the uniform stream position only advances on complete samples, so a
    # run with extra natural absences sees the same draws for the rest
    probs = {"video": 0.5}
    base_natural = {"audio": np.zeros(10, dtype=bool), "video": np.zeros(10, dtype=bool)}
    more_natural = {
        "audio": np.array([True] + [False] * 9),
        "video": np.zeros(10, dtype=bool),
    }
    a = random_replace(probs, Stream(9, "random-replace"), base_natural)
    b = random_replace(probs, Stream(9, "random-replace"), more_natural)
    # sample 0 consumed one draw in run a; in run b it is skipped, so run
    # b's sample 1 sees run a's sample-0 draw
    np.testing.assert_array_equal(a["video"][:9], b["video"][1:])


def test_bank_roundtrip_and_validation():
    bank = MmtBank.init(8, seed=3)
    arrays = bank.as_arrays()
    again = MmtBank.from_arrays(8, arrays)
    np.testing.assert_array_equal(again["audio"].data, bank["audio"].data)
    with pytest.raises(CheckpointError):
        MmtBank.from_arrays(8, {"token.audio": np.zeros(8)})
    with pytest.raises(CheckpointError):
        MmtBank.from_arrays(8, {"mmt.audio": np.zeros(4), "mmt.video": np.zeros(8)})
