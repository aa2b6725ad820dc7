"""Substitution strategies for absent modalities.

Three ways to classify when a modality's input is unavailable:

* ``mmt``    learned missing-modality token. One vector per modality; a
             substituted sample keeps its sequence length but every content
             embedding becomes that vector (positions are added afterwards,
             so token i reads mmt + pos[i]). The vector is trained by
             randomly replacing present modalities during training.
* ``zeros``  zero the raw input and tokenize as usual. The patch embedding
             is affine, so that is the ``mmt`` blend with the embedding bias
             ``{m}.embed.b`` as the token.
* ``skip``   drop the branch: the model runs on the modalities that remain
             and the readout averages over those only.

Substitution is a mask blend, ``out = (1-m)*content + m*sub`` with m in
{0.0, 1.0}: replaced rows are bit-identical regardless of the underlying
input, and the gradient into replaced content is exactly zero.

:func:`substitute` is the one place that builds model content from
patches: training's random replacement and every evaluation method go
through it, so a token is applied the same way it was trained.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError
from .model import MODALITIES, MbtParameters, ParamSet, embed_content, normal_init
from .rng import Stream
from .synthdata import complete


class SubstitutionMethod(enum.Enum):
    MMT = "mmt"
    ZEROS = "zeros"
    SKIP = "skip"

    @classmethod
    def parse(cls, name: str) -> "SubstitutionMethod":
        try:
            return cls(name)
        except ValueError:
            raise ConfigError(
                f"unknown substitution method {name!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


@dataclass(eq=False)
class MmtBank(ParamSet):
    """Learned substitution vectors "mmt.<modality>", one per modality that
    can go missing. Indexing takes the modality name."""

    dim: int
    tensors: dict[str, Tensor]

    def __getitem__(self, modality: str) -> Tensor:
        try:
            return self.tensors[f"mmt.{modality}"]
        except KeyError:
            raise ConfigError(f"no substitution token for modality {modality!r}") from None

    @classmethod
    def init(cls, dim: int, seed: int) -> "MmtBank":
        normal = normal_init(Stream(seed, "mmt-init").numpy_rng())
        return cls(dim, {f"mmt.{m}": normal(dim) for m in MODALITIES})


def batch_flags(flags, batch: int, what: str = "replace mask") -> np.ndarray:
    """``flags`` as a boolean (batch,) array, one flag per sample; any
    other shape is a DimensionError naming ``what``."""
    flags = np.asarray(flags, dtype=bool)
    if flags.shape != (batch,):
        raise DimensionError(f"{what} shape {flags.shape} != (batch,) = ({batch},)")
    return flags


def _blend(content: Tensor, stand_in: Tensor, replace: np.ndarray) -> Tensor:
    """Swap whole samples' content embeddings for a (dim,) stand-in.

    ``replace`` is a boolean (batch,) mask. Rows where it is set come out
    as the stand-in broadcast over every position; other rows pass through
    untouched. The stand-in is broadcast straight to the content's shape;
    backward sums its gradient over every row and position. The blend
    weights are ``autodiff.Constant`` data and take no gradient.
    """
    replace = batch_flags(replace, content.shape[0])
    if not replace.any():
        return content
    # the 0/1 blend weights in the content's dtype, so float32 stays float32
    m = replace.astype(content.data.dtype)[:, None, None]
    token = ad.broadcast_to(stand_in, content.shape)
    return ad.add(ad.mul(content, ad.Constant(1.0 - m)), ad.mul(token, ad.Constant(m)))


def replace_with_mmt(
    bank: MmtBank, modality: str, content: Tensor, replace: np.ndarray
) -> Tensor:
    """Swap the flagged samples' content embeddings for the modality's
    learned token (see :func:`_blend`)."""
    return _blend(content, bank[modality], replace)


def substitute(
    params: MbtParameters,
    bank: MmtBank,
    patches: dict[str, np.ndarray],
    flags: dict[str, np.ndarray],
    method: SubstitutionMethod,
) -> dict[str, Tensor]:
    """Content embeddings for each modality in ``patches``, ready for
    :func:`mmtlab.model.forward`.

    ``flags[m]`` is a boolean (batch,) mask of the samples whose ``m`` is
    absent. Every sample's patches are embedded as they are; ``mmt`` then
    swaps the flagged samples' embeddings for the bank's token, and
    ``zeros`` for the embedding bias, which is exactly what all-zero
    patches embed to. ``skip`` substitutes nothing:
    the caller passes only modalities that are present (see
    :func:`presence_groups`), so a flagged sample there is an error.
    """
    content = {}
    for m, x in patches.items():
        replace = batch_flags(flags[m], x.shape[0], f"{m} flags")
        if method is SubstitutionMethod.SKIP and replace.any():
            raise ConfigError(f"skip substitutes nothing, but {m} is flagged absent")
        emb = embed_content(params, m, x)
        if method is SubstitutionMethod.MMT:
            emb = replace_with_mmt(bank, m, emb, replace)
        elif method is SubstitutionMethod.ZEROS:
            emb = _blend(emb, params[f"{m}.embed.b"], replace)
        content[m] = emb
    return content


def presence_groups(
    missing: dict[str, np.ndarray],
) -> list[tuple[tuple[str, ...], np.ndarray]]:
    """Partition a batch by which modalities remain present.

    ``missing`` maps modality name to a boolean (batch,) mask. Returns
    (present_modalities, sample_indices) groups in a fixed order; every
    index appears in exactly one group. A group with no present modalities
    is returned too, for the caller to score as it sees fit.
    """
    names = [m for m in MODALITIES if m in missing]
    n = len(next(iter(missing.values())))
    missing = {m: batch_flags(mask, n, f"missing mask for {m}") for m, mask in missing.items()}
    key = np.zeros(n, dtype=np.int64)
    for bit, m in enumerate(names):
        key += (~missing[m]).astype(np.int64) << bit
    groups = []
    for pattern in sorted(set(key.tolist()), reverse=True):
        present = tuple(m for bit, m in enumerate(names) if pattern >> bit & 1)
        groups.append((present, np.flatnonzero(key == pattern)))
    return groups


def check_replace_probs(probs: dict[str, float]) -> None:
    """Validate ``train.replace_probs``: per modality, the chance that a
    modal-complete sample has it swapped for its token in a given epoch.
    The draws are exclusive (see :func:`random_replace`), so they sum to
    at most 1."""
    for m, p in probs.items():
        if m not in MODALITIES:
            raise ConfigError(f"unknown modality {m!r} in replace policy")
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"replace probability for {m} is {p}, outside [0, 1]")
    if sum(probs.values()) > 1.0 + 1e-12:
        raise ConfigError("replace probabilities sum past 1; draws are exclusive")


def random_replace(
    probs: dict[str, float],
    stream: Stream,
    natural_missing: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Decide which samples get substituted this pass.

    ``natural_missing`` holds the dataset's own absence masks in visit
    order. The result marks those samples unconditionally and adds random
    replacements for complete samples, consuming exactly one uniform per
    complete sample so the stream stays aligned whatever the probabilities.
    That uniform picks at most one modality to replace, by ``probs``.
    """
    names = [m for m in MODALITIES if m in natural_missing]
    masks = {m: np.asarray(natural_missing[m], dtype=bool).copy() for m in names}
    n = len(masks[names[0]])
    whole = complete(masks)
    ordered = [m for m in names if probs.get(m, 0.0) > 0.0]
    for i in range(n):
        if not whole[i]:
            continue
        u = stream.uniform()
        lo = 0.0
        for m in ordered:
            hi = lo + probs[m]
            if lo <= u < hi:
                masks[m][i] = True
                break
            lo = hi
    return masks
