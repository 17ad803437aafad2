"""Sectioned key=value pipeline configuration.

Files are INI-style (configparser, no interpolation). The seed is mandatory;
every referenced path must exist at validation time. Each of [prepare],
[resample], [ssl] and [explain] is one frozen dataclass whose fields with a
plain default are the section's keys: a key present in the file is parsed as
the type of that default (a bool as true or false, a tuple as a
comma-separated list), and the dataclass checks the values. [model] keys are
parsed the same way against the params dataclass of the model kind. A key
that nothing reads is logged as a warning, except in [model], where it is an
error. The effective configuration is dumped (sorted) at the start of a run
and hashed into the run report so reruns can be compared.
"""

from __future__ import annotations

import configparser
import hashlib
import logging
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .matrix import SPLIT_NAMES
from .models import MODEL_KINDS, PARAMS, TREE_KINDS, ModelSpec
from .resample import ResamplePlan
from .ssl import SslPlan
from .trees import FitError

OUTPUT_DIR_ENV = "VETPV_OUTPUT_DIR"
_DATA_DIR = Path(__file__).parent / "data"
_BUNDLED = ("veddra", "descriptors", "species_groups")  # [paths] keys, default data/<key>.tsv

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PrepareSettings:
    correlation_threshold: float = 0.95
    priority: tuple[str, ...] = ("molecular_weight",)  # kept column of a correlated pair
    top_k: int = 256  # multi-hot vocabulary size per list field
    train_ratio: float = 0.8
    validation_ratio: float = 0.1
    test_ratio: float = 0.1

    @property
    def ratios(self) -> tuple[float, float, float]:
        return (self.train_ratio, self.validation_ratio, self.test_ratio)

    def __post_init__(self):
        if not (0 < self.correlation_threshold <= 1):
            raise ValueError(
                f"correlation_threshold must be in (0, 1], got {self.correlation_threshold}"
            )
        if self.top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {self.top_k}")
        if not all(0 < r < 1 for r in self.ratios) or abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ValueError(
                "train_ratio, validation_ratio and test_ratio must each lie in (0, 1) and "
                f"sum to 1, got {self.ratios}"
            )


@dataclass(frozen=True)
class ExplainSettings:
    enabled: bool = True
    dataset: str = "test"  # one of SPLIT_NAMES
    model: str = "supervised"  # or "ssl"
    top_n: int = 10  # top/bottom ranking depth
    top_k: int = 15  # summary feature count
    max_rows: int = 0  # 0 = all rows

    def __post_init__(self):
        if self.dataset not in SPLIT_NAMES:
            raise ValueError(f"dataset must be one of {SPLIT_NAMES}, got {self.dataset!r}")
        if self.model not in ("supervised", "ssl"):
            raise ValueError(f"model must be 'supervised' or 'ssl', got {self.model!r}")
        if self.top_n < 1 or self.top_k < 1:
            raise ValueError(f"top_n and top_k must be >= 1, got {self.top_n} and {self.top_k}")
        if self.max_rows < 0:
            raise ValueError(f"max_rows must be >= 0 (0 = all rows), got {self.max_rows}")


# section -> its settings class; PipelineConfig holds each under the section's name
SECTIONS = {
    "prepare": PrepareSettings,
    "resample": ResamplePlan,
    "ssl": SslPlan,
    "explain": ExplainSettings,
}


@dataclass
class PipelineConfig:
    # paths
    input_dir: Path
    veddra: Path
    descriptors: Path
    species_groups: Path
    output_dir: Path
    # run
    seed: int
    prepare: PrepareSettings
    resample: ResamplePlan
    model: ModelSpec
    ssl: SslPlan
    explain: ExplainSettings


def _ini_keys(cls) -> dict:
    """The ini keys of a settings class with their defaults: the fields that
    have a plain default (SslPlan.base_model, made by a factory, is not one)."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _parse(text: str, default):
    """text as the type of a field's default."""
    if isinstance(default, bool):
        if text.lower() not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text.lower() == "true"
    if isinstance(default, tuple):
        return tuple(p.strip() for p in text.split(",") if p.strip())
    return type(default)(text)


def _read_keys(parser: configparser.ConfigParser, section: str, cls) -> dict:
    """The keys of [section] present in the file, each parsed as the type of
    its default in cls (a None default, ForestParams.features_per_split,
    takes an int)."""
    values = {}
    for key, default in _ini_keys(cls).items():
        if parser.has_option(section, key):
            text = parser.get(section, key).strip()
            try:
                values[key] = _parse(text, 0 if default is None else default)
            except ValueError as exc:
                raise ConfigError(f"invalid [{section}] {key}: {exc}") from None
    return values


def _read_section(parser: configparser.ConfigParser, section: str, cls, **given):
    """cls from the keys of [section] present in the file; every other field
    takes its value from `given`, else its default."""
    try:
        return cls(**{**given, **_read_keys(parser, section, cls)})
    except ValueError as exc:
        raise ConfigError(f"invalid [{section}] section: {exc}") from None


def load_config(path: Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path, encoding="utf-8")

    def required(section, key):
        if not parser.has_option(section, key):
            raise ConfigError(f"missing required option [{section}] {key}")
        return parser.get(section, key).strip()

    def path_option(key, default=None):
        if default is not None and not parser.has_option("paths", key):
            return default
        raw = required("paths", key)
        return Path(raw) if os.path.isabs(raw) else (path.parent / raw).resolve()

    seed_raw = required("run", "seed")
    try:
        seed = int(seed_raw)
    except ValueError:
        raise ConfigError(f"seed must be an integer, got {seed_raw!r}") from None

    paths = {"input_dir": path_option("input_dir")}
    paths.update({key: path_option(key, _DATA_DIR / f"{key}.tsv") for key in _BUNDLED})
    output_override = os.environ.get(OUTPUT_DIR_ENV)
    output_dir = Path(output_override) if output_override else path_option("output_dir")
    for name, p in paths.items():
        if not p.exists():
            raise ConfigError(f"[paths] {name} does not exist: {p}")

    prepare = _read_section(parser, "prepare", PrepareSettings)
    resample = _read_section(parser, "resample", ResamplePlan, seed=seed)

    model_kind = parser.get("model", "kind", fallback="gbdt").strip()
    if model_kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {model_kind!r} (expected one of {MODEL_KINDS})")
    model_keys = _ini_keys(PARAMS[model_kind])
    given = parser.options("model") if parser.has_section("model") else ()
    unknown = sorted(set(given) - {"kind", *model_keys})
    if unknown:
        raise ConfigError(f"invalid [model] section: kind {model_kind!r} takes no key "
                          f"{', '.join(unknown)}")
    model_params = _read_keys(parser, "model", PARAMS[model_kind])
    if "seed" in model_keys:
        model_params.setdefault("seed", seed)
    try:
        model = ModelSpec(model_kind, model_params)
    except FitError as exc:
        raise ConfigError(f"invalid [model] section: {exc}") from None

    ssl = _read_section(parser, "ssl", SslPlan, base_model=model)
    explain = _read_section(parser, "explain", ExplainSettings)
    if explain.enabled and model_kind not in TREE_KINDS:
        raise ConfigError(
            f"explanations require a tree model, but [model] kind is {model_kind!r}; "
            "set [explain] enabled = false"
        )
    if ssl.enabled and model_kind not in TREE_KINDS:
        raise ConfigError(
            f"pseudo-labeling checkpoints require a tree model, but [model] kind is "
            f"{model_kind!r}; set [ssl] enabled = false"
        )
    if explain.enabled and explain.model == "ssl" and not ssl.enabled:
        raise ConfigError("[explain] model = ssl requires [ssl] enabled = true")

    config = PipelineConfig(**paths, output_dir=output_dir, seed=seed, prepare=prepare,
                            resample=resample, model=model, ssl=ssl, explain=explain)
    known = {"paths": {"input_dir", "output_dir", *_BUNDLED}, "run": {"seed"}}
    known.update({section: set(_ini_keys(cls)) for section, cls in SECTIONS.items()})
    for section in parser.sections():
        if section == "model":  # its keys are model params, checked above
            continue
        for key in parser.options(section):
            if key not in known.get(section, ()):
                log.warning("%s: [%s] %s is not an option; ignoring it", path, section, key)
    return config


def _data_path_text(path: Path) -> str:
    """A bundled data file as bundled:<name>, so the text (and its hash) does
    not depend on where the package is installed; any other path as is."""
    return f"bundled:{path.name}" if path == _DATA_DIR / path.name else str(path)


def effective_config_text(config: PipelineConfig, output_dir: bool = True) -> str:
    """Sorted flat dump of the effective configuration (printed and hashed;
    config_hash leaves out paths.output_dir, which says where the outputs go,
    not what they are)."""
    items = {"paths.input_dir": config.input_dir, "run.seed": config.seed,
             "model.kind": config.model.kind}
    items.update({f"paths.{key}": _data_path_text(getattr(config, key)) for key in _BUNDLED})
    if output_dir:
        items["paths.output_dir"] = config.output_dir
    settings = {section: getattr(config, section) for section in SECTIONS}
    settings["model"] = PARAMS[config.model.kind](**config.model.params)
    for section, values in settings.items():
        for key in _ini_keys(type(values)):
            value = getattr(values, key)
            items[f"{section}.{key}"] = ",".join(value) if isinstance(value, tuple) else value
    return "".join(f"{key} = {items[key]}\n" for key in sorted(items))


def config_hash(config: PipelineConfig) -> str:
    text = effective_config_text(config, output_dir=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
