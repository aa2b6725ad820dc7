"""Run configuration: one JSON file drives data, model, training, and eval.

The file is a strict schema: every key must be a known field of its
section, and violations are reported all at once with full dotted paths.
Unset fields fall back to desk-scale defaults, and every command writes
the fully resolved config next to its outputs so a run can be re-derived
from its artifacts alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from importlib import resources

from .errors import ConfigError, SchemaError
from .mae import MaeConfig
from .missing import SubstitutionMethod
from .model import MODALITIES, ModelConfig
from .synthdata import SynthConfig
from .tokenizer import SpectrogramGeometry, VideoGeometry
from .training import TrainConfig

_GEOMETRY_KEYS = {
    "audio": {f.name for f in fields(SpectrogramGeometry)},
    "video": {f.name for f in fields(VideoGeometry)},
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs, resolved and validated."""

    synth: SynthConfig
    model: ModelConfig
    train: TrainConfig
    mae: MaeConfig
    n_train: int = 2000
    n_test: int = 500
    eval_method: str = "mmt"
    eval_missing: str = "video"  # modality dropped at test time
    eval_rates: tuple[float, ...] = (0.0, 25.0, 50.0, 75.0, 100.0)  # percent
    seed: int = 1
    seeds: tuple[int, ...] = (1, 2, 3)
    out: str = "runs/out"

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise ConfigError("n_train and n_test must be positive")
        SubstitutionMethod.parse(self.eval_method)
        if self.eval_missing not in MODALITIES:
            raise ConfigError(f"eval missing modality {self.eval_missing!r} unknown")
        if not self.eval_rates:
            raise ConfigError("need at least one eval rate")
        for r in self.eval_rates:
            if not 0.0 <= r <= 100.0:
                raise ConfigError(f"eval rate {r} outside [0, 100] percent")
        if not self.seeds:
            raise ConfigError("need at least one sweep seed")
        check_feasible_rates(self, "eval.rates", self.eval_rates, self.n_test)

    def to_json_dict(self) -> dict:
        return {
            "synth": self.synth.to_dict(),
            "model": self.model.to_dict(),
            "train": self.train.to_dict(),
            "mae": self.mae.to_dict(),
            "data": {"n_train": self.n_train, "n_test": self.n_test},
            "eval": {
                "method": self.eval_method,
                "missing": self.eval_missing,
                "rates": list(self.eval_rates),
            },
            "seed": self.seed,
            "seeds": list(self.seeds),
            "out": self.out,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=2, sort_keys=True)
            f.write("\n")


def check_feasible_rates(cfg: RunConfig, what: str, rates_pct, n: int) -> None:
    """Reject percent rates of ``eval_missing`` below its natural rate.

    Uses the generator's and the schedules' own arithmetic: ``int(rate *
    n)`` samples are missing at a rate, and ``int(natural * n)`` of them
    are absent in the data already, which no schedule can restore.
    """
    natural = cfg.synth.natural_missing.get(cfg.eval_missing, 0.0)
    floor = int(natural * n)
    for r in rates_pct:
        if int(r / 100.0 * n) < floor:
            raise ConfigError(
                f"{what}: {r:g}% of {n} samples is {int(r / 100.0 * n)}, below the "
                f"{floor} with {cfg.eval_missing} naturally absent ({natural:.0%}); "
                f"rates must start at the natural rate"
            )


_TOP_KEYS = {"synth", "model", "train", "mae", "data", "eval", "seed", "seeds", "out"}
_DATA_KEYS = {"n_train", "n_test"}
_EVAL_KEYS = {"method", "missing", "rates"}


def _collect_unknown(given: dict, allowed: set, prefix: str, bad: list) -> None:
    for key in given:
        if key not in allowed:
            bad.append(f"{prefix}{key}")


def _section(raw: dict, name: str, cfg_cls, bad: list) -> dict:
    """Validate one section's keys against its dataclass; return the dict."""
    given = raw.get(name, {})
    if not isinstance(given, dict):
        bad.append(name)
        return {}
    allowed = {f.name for f in fields(cfg_cls)}
    _collect_unknown(given, allowed, f"{name}.", bad)
    for mod in MODALITIES:
        geo = given.get(mod)
        if isinstance(geo, dict):
            _collect_unknown(geo, _GEOMETRY_KEYS[mod], f"{name}.{mod}.", bad)
    return {k: v for k, v in given.items() if k in allowed}


def _build_section(name: str, cfg_cls, given: dict):
    """Construct a section config from defaults overridden by given keys."""
    if name == "synth":
        base = SynthConfig().to_dict()
    elif name == "model":
        base = ModelConfig(SynthConfig().audio, SynthConfig().video).to_dict()
    elif name == "train":
        base = TrainConfig().to_dict()
    else:
        base = MaeConfig().to_dict()
    base.update(given)
    return cfg_cls.from_dict(base)


def load_run_config(source, overrides: dict | None = None) -> RunConfig:
    """Parse a config dict or JSON file path into a resolved RunConfig.

    ``overrides`` (from CLI flags) replace top-level scalars after the
    file is read. Unknown keys anywhere raise one SchemaError naming all
    of them.
    """
    if isinstance(source, str):
        with open(source) as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{source}: not valid JSON ({e})") from None
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise SchemaError("config root must be a JSON object", ["<root>"])

    bad: list[str] = []
    _collect_unknown(raw, _TOP_KEYS, "", bad)
    sections = {
        "synth": _section(raw, "synth", SynthConfig, bad),
        "model": _section(raw, "model", ModelConfig, bad),
        "train": _section(raw, "train", TrainConfig, bad),
        "mae": _section(raw, "mae", MaeConfig, bad),
    }
    data = raw.get("data", {})
    if isinstance(data, dict):
        _collect_unknown(data, _DATA_KEYS, "data.", bad)
    else:
        bad.append("data")
        data = {}
    ev = raw.get("eval", {})
    if isinstance(ev, dict):
        _collect_unknown(ev, _EVAL_KEYS, "eval.", bad)
    else:
        bad.append("eval")
        ev = {}
    if bad:
        raise SchemaError(f"unknown config keys: {', '.join(sorted(bad))}", sorted(bad))

    kwargs = dict(
        synth=_build_section("synth", SynthConfig, sections["synth"]),
        model=_build_section("model", ModelConfig, sections["model"]),
        train=_build_section("train", TrainConfig, sections["train"]),
        mae=_build_section("mae", MaeConfig, sections["mae"]),
    )
    if "n_train" in data:
        kwargs["n_train"] = int(data["n_train"])
    if "n_test" in data:
        kwargs["n_test"] = int(data["n_test"])
    if "method" in ev:
        kwargs["eval_method"] = str(ev["method"])
    if "missing" in ev:
        kwargs["eval_missing"] = str(ev["missing"])
    if "rates" in ev:
        kwargs["eval_rates"] = tuple(float(r) for r in ev["rates"])
    if "seed" in raw:
        kwargs["seed"] = int(raw["seed"])
    if "seeds" in raw:
        kwargs["seeds"] = tuple(int(s) for s in raw["seeds"])
    if "out" in raw:
        kwargs["out"] = str(raw["out"])

    for key, value in (overrides or {}).items():
        if value is not None:
            kwargs[key] = value
    return RunConfig(**kwargs)


def check_data_compat(cfg: RunConfig) -> None:
    """Commands that touch data need model and generator geometry to agree."""
    problems = []
    if cfg.model.audio != cfg.synth.audio:
        problems.append("audio geometry differs between model and synth")
    if cfg.model.video != cfg.synth.video:
        problems.append("video geometry differs between model and synth")
    if tuple(cfg.model.n_classes) != tuple(cfg.synth.n_classes):
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
