"""Sectioned key=value pipeline configuration.

Files are INI-style (configparser, no interpolation). The seed is mandatory;
every referenced path must exist at validation time. The effective
configuration is dumped (sorted) at the start of a run and hashed into the
run report so reruns can be compared.
"""

from __future__ import annotations

import configparser
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

from .models import MODEL_KINDS, ModelSpec, param_names
from .resample import ResamplePlan
from .ssl import SslPlan
from .trees import FitError

OUTPUT_DIR_ENV = "VETPV_OUTPUT_DIR"
_DATA_DIR = Path(__file__).parent / "data"


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    # paths
    input_dir: Path
    veddra: Path
    atcvet: Path
    descriptors: Path
    species_groups: Path
    output_dir: Path
    # run
    seed: int
    # prepare
    correlation_threshold: float = 0.95
    priority: tuple[str, ...] = ("molecular_weight",)
    top_k: int = 256
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    list_encoding: str = "multi_hot"
    # resample
    resample: ResamplePlan = field(default_factory=ResamplePlan)
    # model
    model: ModelSpec = field(default_factory=lambda: ModelSpec("gbdt"))
    # ssl
    ssl_enabled: bool = True
    ssl: SslPlan = field(default_factory=SslPlan)
    # explain
    explain_enabled: bool = True
    explain_dataset: str = "test"
    explain_model: str = "supervised"  # or "ssl"
    top_n: int = 10
    summary_top_k: int = 15
    explain_max_rows: int = 0  # 0 = all rows


def _coerce(value: str):
    text = value.strip()
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _get(parser, section, key, default=None, required=False):
    if parser.has_option(section, key):
        return parser.get(section, key).strip()
    if required:
        raise ConfigError(f"missing required option [{section}] {key}")
    return default


def load_config(path: Path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(path, encoding="utf-8")

    base = path.parent

    def resolve(section, key, required=True, default=None):
        raw = _get(parser, section, key, required=required, default=default)
        if raw is None:
            return None
        return (base / raw).resolve() if not os.path.isabs(raw) else Path(raw)

    seed_raw = _get(parser, "run", "seed", required=True)
    try:
        seed = int(seed_raw)
    except ValueError:
        raise ConfigError(f"seed must be an integer, got {seed_raw!r}") from None

    input_dir = resolve("paths", "input_dir")
    veddra = resolve("paths", "veddra", required=False) or _DATA_DIR / "veddra.tsv"
    atcvet = resolve("paths", "atcvet", required=False) or _DATA_DIR / "atcvet.tsv"
    descriptors = resolve("paths", "descriptors", required=False) or _DATA_DIR / "descriptors.tsv"
    species_groups = (
        resolve("paths", "species_groups", required=False) or _DATA_DIR / "species_groups.tsv"
    )
    output_override = os.environ.get(OUTPUT_DIR_ENV)
    if output_override:
        output_dir = Path(output_override)
    else:
        output_dir = resolve("paths", "output_dir")

    for name, p in (
        ("input_dir", input_dir),
        ("veddra", veddra),
        ("atcvet", atcvet),
        ("descriptors", descriptors),
        ("species_groups", species_groups),
    ):
        if not Path(p).exists():
            raise ConfigError(f"[paths] {name} does not exist: {p}")

    ratios = (
        float(_get(parser, "prepare", "train_ratio", default="0.8")),
        float(_get(parser, "prepare", "validation_ratio", default="0.1")),
        float(_get(parser, "prepare", "test_ratio", default="0.1")),
    )
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")

    priority_raw = _get(parser, "prepare", "priority", default="molecular_weight")
    priority = tuple(p.strip() for p in priority_raw.split(",") if p.strip())

    try:
        resample = ResamplePlan(
            strategy=_get(parser, "resample", "strategy", default="none"),
            target_ratio=float(_get(parser, "resample", "target_ratio", default="1.0")),
            k_smote=int(_get(parser, "resample", "k_smote", default="5")),
            k_enn=int(_get(parser, "resample", "k_enn", default="3")),
            seed=int(_get(parser, "resample", "seed", default=str(seed))),
            enn_mode=_get(parser, "resample", "enn_mode", default="majority_only"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [resample] section: {exc}") from None

    model_kind = _get(parser, "model", "kind", default="gbdt")
    if model_kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {model_kind!r} (expected one of {MODEL_KINDS})")
    model_params = {}
    if parser.has_section("model"):
        for key, value in parser.items("model"):
            if key == "kind":
                continue
            model_params[key] = _coerce(value)
    if "seed" in param_names(model_kind):
        model_params.setdefault("seed", seed)
    try:
        model = ModelSpec(model_kind, model_params)
    except FitError as exc:
        raise ConfigError(f"invalid [model] section: {exc}") from None

    ssl_enabled = str(_get(parser, "ssl", "enabled", default="true")).lower() == "true"
    try:
        ssl_plan = SslPlan(
            keep_fraction=float(_get(parser, "ssl", "keep_fraction", default="0.3")),
            rounds=int(_get(parser, "ssl", "rounds", default="1")),
            base_model=model,
            max_checkpoints=int(_get(parser, "ssl", "max_checkpoints", default="50")),
            pseudo_weight=float(_get(parser, "ssl", "pseudo_weight", default="1.0")),
            allow_any_fraction=str(
                _get(parser, "ssl", "allow_any_fraction", default="false")
            ).lower()
            == "true",
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [ssl] section: {exc}") from None

    explain_enabled = str(_get(parser, "explain", "enabled", default="true")).lower() == "true"
    explain_model = _get(parser, "explain", "model", default="supervised")
    if explain_model not in ("supervised", "ssl"):
        raise ConfigError(f"[explain] model must be 'supervised' or 'ssl', got {explain_model!r}")
    if explain_enabled and model_kind not in ("tree", "forest", "gbdt"):
        raise ConfigError(
            f"explanations require a tree model, but [model] kind is {model_kind!r}; "
            "set [explain] enabled = false"
        )
    if ssl_enabled and model_kind not in ("tree", "forest", "gbdt"):
        raise ConfigError(
            f"pseudo-labeling checkpoints require a tree model, but [model] kind is "
            f"{model_kind!r}; set [ssl] enabled = false"
        )
    if ssl_enabled and ssl_plan.pseudo_weight != 1.0 and model_kind == "forest":
        raise ConfigError("forest fitting has no sample weights; keep [ssl] pseudo_weight = 1.0")
    if explain_enabled and explain_model == "ssl" and not ssl_enabled:
        raise ConfigError("[explain] model = ssl requires [ssl] enabled = true")

    threshold = float(_get(parser, "prepare", "correlation_threshold", default="0.95"))
    if not (0 < threshold <= 1):
        raise ConfigError(f"correlation_threshold must be in (0, 1], got {threshold}")

    list_encoding = _get(parser, "prepare", "list_encoding", default="multi_hot")
    if list_encoding not in ("multi_hot", "label"):
        raise ConfigError(f"list_encoding must be multi_hot or label, got {list_encoding!r}")
    if explain_enabled and list_encoding == "label":
        raise ConfigError(
            "per-term rankings need multi_hot list encoding; disable explain for label mode"
        )

    return PipelineConfig(
        input_dir=input_dir,
        veddra=veddra,
        atcvet=atcvet,
        descriptors=descriptors,
        species_groups=species_groups,
        output_dir=Path(output_dir),
        seed=seed,
        correlation_threshold=threshold,
        priority=priority,
        top_k=int(_get(parser, "prepare", "top_k", default="256")),
        ratios=ratios,
        list_encoding=list_encoding,
        resample=resample,
        model=model,
        ssl_enabled=ssl_enabled,
        ssl=ssl_plan,
        explain_enabled=explain_enabled,
        explain_dataset=_get(parser, "explain", "dataset", default="test"),
        explain_model=explain_model,
        top_n=int(_get(parser, "explain", "top_n", default="10")),
        summary_top_k=int(_get(parser, "explain", "top_k", default="15")),
        explain_max_rows=int(_get(parser, "explain", "max_rows", default="0")),
    )


def _data_path_text(path: Path) -> str:
    """A bundled data file as bundled:<name>, so the text (and its hash) does
    not depend on where the package is installed; any other path as is."""
    return f"bundled:{path.name}" if path == _DATA_DIR / path.name else str(path)


def effective_config_text(config: PipelineConfig, output_dir: bool = True) -> str:
    """Sorted flat dump of the effective configuration (printed and hashed;
    config_hash leaves out paths.output_dir, which says where the outputs go,
    not what they are)."""
    items = {
        "paths.input_dir": str(config.input_dir),
        "paths.veddra": _data_path_text(config.veddra),
        "paths.atcvet": _data_path_text(config.atcvet),
        "paths.descriptors": _data_path_text(config.descriptors),
        "paths.species_groups": _data_path_text(config.species_groups),
        "run.seed": config.seed,
        "prepare.correlation_threshold": config.correlation_threshold,
        "prepare.priority": ",".join(config.priority),
        "prepare.top_k": config.top_k,
        "prepare.ratios": ",".join(repr(r) for r in config.ratios),
        "prepare.list_encoding": config.list_encoding,
        "resample.strategy": config.resample.strategy,
        "resample.target_ratio": config.resample.target_ratio,
        "resample.k_smote": config.resample.k_smote,
        "resample.k_enn": config.resample.k_enn,
        "resample.seed": config.resample.seed,
        "resample.enn_mode": config.resample.enn_mode,
        "model.kind": config.model.kind,
        "ssl.enabled": config.ssl_enabled,
        "ssl.keep_fraction": config.ssl.keep_fraction,
        "ssl.rounds": config.ssl.rounds,
        "ssl.max_checkpoints": config.ssl.max_checkpoints,
        "ssl.pseudo_weight": config.ssl.pseudo_weight,
        "explain.enabled": config.explain_enabled,
        "explain.dataset": config.explain_dataset,
        "explain.model": config.explain_model,
        "explain.top_n": config.top_n,
        "explain.top_k": config.summary_top_k,
        "explain.max_rows": config.explain_max_rows,
    }
    if output_dir:
        items["paths.output_dir"] = str(config.output_dir)
    for key in sorted(config.model.params):
        items[f"model.{key}"] = config.model.params[key]
    lines = [f"{key} = {items[key]}" for key in sorted(items)]
    return "\n".join(lines) + "\n"


def config_hash(config: PipelineConfig) -> str:
    text = effective_config_text(config, output_dir=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
