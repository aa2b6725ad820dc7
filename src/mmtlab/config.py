"""Run configuration: one JSON file drives data, model, training, and eval.

The dataclass tree below is the JSON tree: :class:`RunConfig` has one
field per top-level key and one dataclass per section, and
:func:`mmtlab.schema.decode` reads a file against it with the same rules
it applies to sweep cells and checkpoint headers:

* a key left out keeps its default, at every depth, so a partial
  ``model.audio`` fills in from the default geometry;
* unknown keys, values of the wrong JSON type (``bool`` is not ``int``;
  an ``int`` is accepted for a ``float``) and non-objects where a section
  belongs fail together in one SchemaError naming their dotted paths;
* a ``dict`` field (``replace_probs``, ``gains``, ...) is data: a given
  dict replaces its default whole, and its values are type-checked;
* values of the right type that break an invariant (a negative rate, an
  infeasible eval or induced rate, a mask ratio that hides no token, ...)
  fail in a ``__post_init__`` with a ConfigError.

So an impossible request fails when the config loads. Every command
writes the fully resolved config (``dataclasses.asdict``) next to its
outputs and hashes them into ``manifest.json``. Only ``train
--checkpoint`` reads a model from outside its directory, and names its
SHA-1 there (``inputs``), so a run can be re-derived from its artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .errors import ConfigError
from .mae import MaeConfig, mask_count
from .missing import SubstitutionMethod
from .model import MODALITIES, ModelConfig
from .protocol import MetricsTable
from .schema import decode
from .synthdata import SynthConfig, missing_count
from .tokenizer import geometry
from .training import TrainConfig


@dataclass(frozen=True)
class DataConfig:
    """How many samples each split generates."""

    n_train: int = 2000
    n_test: int = 500

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise ConfigError("n_train and n_test must be positive")


@dataclass(frozen=True)
class EvalConfig:
    """How ``eval`` and ``sweep`` score a model."""

    method: str = "mmt"
    missing: str = "video"  # modality dropped at test time
    rates: tuple[float, ...] = (0.0, 25.0, 50.0, 75.0, 100.0)  # percent

    def __post_init__(self):
        SubstitutionMethod.parse(self.method)
        if self.missing not in MODALITIES:
            raise ConfigError(f"eval missing modality {self.missing!r} unknown")
        if not self.rates:
            raise ConfigError("need at least one eval rate")
        labels: dict[str, float] = {}
        for r in self.rates:
            if not 0.0 <= r <= 100.0:
                raise ConfigError(f"eval rate {r} outside [0, 100] percent")
            label = MetricsTable.rate_label(r)
            if label in labels:
                raise ConfigError(
                    f"eval rates {labels[label]} and {r} are both written as r_test {label}"
                )
            labels[label] = r


# seeds key 64-bit random streams (see mmtlab.rng.derive_key)
_SEED_SPAN = 1 << 64


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs, resolved and validated."""

    synth: SynthConfig = field(default_factory=SynthConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    mae: MaeConfig = field(default_factory=MaeConfig)
    data: DataConfig = field(default_factory=DataConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    seed: int = 1
    seeds: tuple[int, ...] = (1, 2, 3)
    out: str = "runs/out"

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("need at least one sweep seed")
        for what, seed in [("seed", self.seed)] + [("seeds", s) for s in self.seeds]:
            if not 0 <= seed < _SEED_SPAN:
                raise ConfigError(
                    f"{what}: {seed} is outside [0, 2**64); random streams take seeds "
                    f"modulo 2**64, so it would run seed {seed % _SEED_SPAN}"
                )
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ConfigError(f"seeds: {repeated} appear more than once; each seed names one run")
        eval_rates = [r / 100.0 for r in self.eval.rates]
        check_feasible_rates(self, "eval.rates", self.eval.missing, eval_rates, self.data.n_test)
        for m, rate in self.train.induced_missing.items():
            check_feasible_rates(self, f"train.induced_missing.{m}", m, [rate], self.data.n_train)
        for m in self.model.input_modalities:
            try:
                mask_count(self.mae.mask_ratio(m), self.model.tokens(m))
            except ConfigError as e:
                raise ConfigError(f"mae.mask_ratio_{m}: {e}") from None


def check_feasible_rates(cfg: RunConfig, what: str, modality: str, rates, n: int) -> None:
    """Reject missing fractions of ``modality`` below its natural rate.

    ``rates`` are fractions; a percent rate r is scored as r / 100. Counts
    through :func:`mmtlab.synthdata.missing_count`, as the generator and
    the schedules do: the samples absent in the data already are a floor
    that no schedule can restore.
    """
    natural = cfg.synth.natural_missing.get(modality, 0.0)
    floor = missing_count(natural, n)
    for r in rates:
        count = missing_count(r, n)
        if count < floor:
            raise ConfigError(
                f"{what}: {100 * r:g}% of {n} samples is {count}, below the "
                f"{floor} with {modality} naturally absent ({natural:.0%}); "
                f"rates must start at the natural rate"
            )


def load_run_config(source, overrides: dict | None = None) -> RunConfig:
    """Decode a config dict or JSON file path into a resolved RunConfig.

    ``overrides`` (from CLI flags) replace top-level keys before decoding;
    a None value leaves the file's value.
    """
    if isinstance(source, str):
        with open(source) as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{source}: not valid JSON ({e})") from None
    else:
        raw = source
    if isinstance(raw, dict):
        raw = {**raw, **{k: v for k, v in (overrides or {}).items() if v is not None}}
    return decode(RunConfig, raw)


def check_data_compat(cfg: RunConfig) -> None:
    """Commands that touch data need model and generator geometry to agree."""
    problems = [
        f"{m} geometry differs between model and synth"
        for m in MODALITIES
        if geometry(cfg.model, m) != geometry(cfg.synth, m)
    ]
    if cfg.model.n_classes != cfg.synth.n_classes:
        problems.append("n_classes differs between model and synth")
    if problems:
        raise ConfigError("; ".join(problems))


def preset_path(name: str) -> str:
    """Filesystem path of a shipped preset, by bare name."""
    ref = resources.files("mmtlab").joinpath("presets", f"{name}.json")
    if not ref.is_file():
        have = sorted(
            p.name[: -len(".json")]
            for p in resources.files("mmtlab").joinpath("presets").iterdir()
            if p.name.endswith(".json")
        )
        raise ConfigError(f"no preset {name!r}; shipped presets: {', '.join(have)}")
    return str(ref)
