"""The benchmark's workloads: which corpus, which `.ini` and which steps.

Every workload starts from the quickstart `pipeline.ini` that
`scripts/make_synthetic_corpus.py` writes and changes only the keys listed
here.  A key set to ``None`` is removed (for example the boosting keys when the
model is a forest).

Each workload has two sizes:

* ``bench``: what the benchmark runs.  A pass must take a few seconds so that
  a run holds several passes and the whole benchmark (4 + 22 x 4 runs) fits
  its time budget.
* ``tiny``: a few hundred reports, for the benchmark's own tests.
"""

from __future__ import annotations

import configparser
import importlib.util
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20240801
SIZES = ("bench", "tiny")

# [model] keys of the quickstart's gbdt that other model kinds reject
_NO_BOOSTING = {"n_rounds": None, "learning_rate": None, "max_depth": None}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple[str, ...]  # "run" is pipeline.run; other names are vetpv subcommands
    settings: dict  # section -> key -> value, applied over the quickstart ini
    sizes: dict  # size -> (reports, settings applied over `settings`)

    @property
    def explains(self) -> bool:
        return "run" in self.steps and self.settings.get("explain", {}).get("enabled") != "false"

    @property
    def trains(self) -> bool:
        return "run" in self.steps or "train" in self.steps


WORKLOADS = (
    Workload(
        name="gbdt-2k",
        why=(
            "Quickstart gbdt run through pipeline.run at 2k reports and 10 rounds: boosting "
            "split search dominates, then the SSL refit and TreeSHAP on depth-4 trees."
        ),
        steps=("run",),
        settings={},
        # 120 rounds at 5k take 64-87 s a pass; 10 rounds at 2k keep the same
        # stages and the same dominant kernel (split search) at a fifteenth.
        sizes={
            "bench": (2000, {"model": {"n_rounds": 10}}),
            "tiny": (300, {"model": {"n_rounds": 4}}),
        },
    ),
    Workload(
        name="forest-5k",
        why=(
            "The grid's forest (40 trees, depth 10): CART split search, staged forest scoring, "
            "deep-tree TreeSHAP. At the seed commit, seed 20240801 gives NaN phi on every row."
        ),
        steps=("run",),
        settings={
            "model": {"kind": "forest", "n_trees": 40, "max_depth": 10,
                      "n_rounds": None, "learning_rate": None},
            # resampling stays `none` on purpose: SMOTE+ENN happens to hide
            # the empty-child splits that turn attributions into NaN
            "resample": {"strategy": "none"},
            "explain": {"max_rows": 24},
        },
        # The NaN defect depends on the 5k corpus and the 40-tree forest, so
        # those stay; fewer explained rows only shorten the explain stage.
        sizes={
            "bench": (5000, {"explain": {"max_rows": 4}}),
            "tiny": (300, {"model": {"n_trees": 3, "max_depth": 4}, "explain": {"max_rows": 4}}),
        },
    ),
    Workload(
        name="data-8k",
        why=(
            "vetpv ingest, prepare, train, evaluate: parsing, bulk I/O, harmonize, matrix CSV, "
            "artifact reads. Logistic, as kind=tree cannot run; at the seed commit it never "
            "converges."
        ),
        steps=("ingest", "prepare", "train", "evaluate"),
        # `kind = tree` would be the cheaper model, but no config can run it:
        # load_config injects `seed` and TreeParams rejects it.
        settings={
            "model": {"kind": "logistic", **_NO_BOOSTING},
            "ssl": {"enabled": "false"},
            "explain": {"enabled": "false"},
        },
        sizes={
            "bench": (8000, {}),
            "tiny": (300, {}),
        },
    ),
    Workload(
        name="resample-5k",
        why=(
            "ingest then prepare with SMOTE+ENN: the only workload where nearest-neighbour "
            "search runs; ENN is quadratic, so it stays at 5k."
        ),
        steps=("ingest", "prepare"),
        settings={"resample": {"strategy": "smote_enn"}},
        sizes={
            "bench": (5000, {}),
            "tiny": (300, {}),
        },
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def quickstart_template(root: Path) -> str:
    """CONFIG_TEMPLATE of the repository's corpus script."""
    path = root / "scripts" / "make_synthetic_corpus.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CONFIG_TEMPLATE


def render_ini(root: Path, workload: Workload, size: str, seed: int,
               input_dir: Path, output_dir: Path) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(quickstart_template(root).format(seed=seed))
    parser["paths"]["input_dir"] = str(input_dir)
    parser["paths"]["output_dir"] = str(output_dir)
    for layer in (workload.settings, workload.sizes[size][1]):
        for section, values in layer.items():
            if not parser.has_section(section):
                parser.add_section(section)
            for key, value in values.items():
                if value is None:
                    parser.remove_option(section, key)
                else:
                    parser[section][key] = str(value)
    lines = []
    for section in parser.sections():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in parser[section].items())
        lines.append("")
    return "\n".join(lines)
