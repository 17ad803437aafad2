import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from vetpv.cli import EXIT_CONFIG, main
from vetpv.config import ConfigError, load_config


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def finished_run(small_corpus, tmp_path_factory):
    """One complete pipeline run in its own output directory."""
    out = tmp_path_factory.mktemp("run-out")
    config_text = (small_corpus / "pipeline.ini").read_text()
    config = small_corpus / "cli.ini"
    config.write_text(config_text.replace("output_dir = out", f"output_dir = {out}"))
    code = run_cli("run", "--config", str(config))
    assert code == 0
    return config, out


class TestRun:
    def test_run_writes_report_with_all_nine_stages(self, finished_run):
        _, out = finished_run
        report = json.loads((out / "run_report.json").read_text())
        names = [s["name"] for s in report["stages"]]
        assert names == [
            "ingest", "harmonize", "prepare", "split", "resample",
            "train", "ssl", "evaluate", "explain",
        ]
        assert len(names) == 9

    def test_run_report_records_environment(self, finished_run):
        import os
        import platform

        _, out = finished_run
        report = json.loads((out / "run_report.json").read_text())
        assert report["environment"] == {"python": platform.python_version(),
                                         "numpy": np.__version__,
                                         "cpus": len(os.sched_getaffinity(0))}

    def test_artifacts_are_content_hash_named(self, finished_run):
        _, out = finished_run
        manifest = dict(
            line.split("\t")
            for line in (out / "manifest.tsv").read_text().splitlines()
            if line
        )
        # with resample strategy none, the resampled matrix is the train matrix's file
        assert manifest["matrix_train_resampled"] == manifest["matrix_train"]
        for name, filename in manifest.items():
            stem = Path(filename).name
            owner = "matrix_train" if name == "matrix_train_resampled" else name
            assert stem.startswith(owner + "-")
            assert (out / filename).exists()

    def test_rerun_reproduces_artifacts_byte_for_byte(self, finished_run, tmp_path):
        config, out = finished_run
        snapshot = tmp_path / "snapshot"
        shutil.copytree(out, snapshot)
        assert run_cli("run", "--config", str(config)) == 0
        for path in sorted(snapshot.iterdir()):
            if path.name == "run_report.json":  # carries timings
                continue
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_aliased_resampled_matrix_loads(self, finished_run):
        from vetpv import pipeline

        _, out = finished_run
        store = pipeline.ArtifactStore(out)
        resampled, train = pipeline.load_resampled(store), pipeline.SplitMatrices(store)["train"]
        assert resampled.n_rows > 0
        assert np.array_equal(resampled.values, train.values)
        assert np.array_equal(resampled.labels, train.labels)
        assert resampled.keys == train.keys

    def test_config_hash_stable(self, finished_run):
        config, out = finished_run
        parsed = load_config(config)
        from vetpv.config import config_hash

        report = json.loads((out / "run_report.json").read_text())
        assert report["config_hash"] == config_hash(parsed)


class TestValidation:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "nope.ini")) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_missing_ontology_file_fails_before_stages(self, small_corpus, tmp_path, capsys):
        config = tmp_path / "broken.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\n"
            f"output_dir = {tmp_path / 'out'}\n"
            f"veddra = {tmp_path / 'missing.tsv'}\n"
            "[run]\nseed = 1\n"
        )
        assert run_cli("run", "--config", str(config)) == 1
        assert "veddra" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_is_mandatory(self, small_corpus, tmp_path):
        config = tmp_path / "noseed.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = out\n[run]\nthreads = 1\n"
        )
        with pytest.raises(ConfigError):
            load_config(config)

    def test_non_tree_model_with_explain_rejected(self, small_corpus, tmp_path):
        config = tmp_path / "logit.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = out\n"
            "[run]\nseed = 1\n[model]\nkind = logistic\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(config)
        assert "tree model" in str(err.value)

    def test_non_tree_model_with_ssl_rejected(self, small_corpus, tmp_path):
        config = tmp_path / "knn.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = out\n"
            "[run]\nseed = 1\n[model]\nkind = knn\n[explain]\nenabled = false\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(config)
        assert "ssl" in str(err.value)

    def test_non_tree_model_allowed_when_ssl_and_explain_off(self, small_corpus, tmp_path):
        config = tmp_path / "knn-ok.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = out\n"
            "[run]\nseed = 1\n[model]\nkind = knn\nk = 3\n"
            "[ssl]\nenabled = false\n[explain]\nenabled = false\n"
        )
        parsed = load_config(config)
        assert parsed.model.kind == "knn"

    def test_unknown_model_key_fails_before_stages(self, small_corpus, tmp_path, capsys):
        config = tmp_path / "step.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = {tmp_path / 'out'}\n"
            "[run]\nseed = 1\n[model]\nkind = logistic\nstep_size = 0.5\n"
            "[ssl]\nenabled = false\n[explain]\nenabled = false\n"
        )
        assert run_cli("run", "--config", str(config)) == EXIT_CONFIG
        assert "step_size" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.tsv").exists()

    def test_model_keys_take_their_params_field_types(self, small_corpus, tmp_path):
        config = tmp_path / "typed.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = out\n"
            "[run]\nseed = 1\n[model]\nkind = forest\nn_trees = 3\nfeatures_per_split = 2\n"
            "bootstrap = false\n[ssl]\nenabled = false\n[explain]\nenabled = false\n"
        )
        params = load_config(config).model.params
        assert params == {"n_trees": 3, "features_per_split": 2, "bootstrap": False, "seed": 1}
        config.write_text(config.read_text().replace("kind = forest\nn_trees = 3\n"
                                                     "features_per_split = 2\nbootstrap = false",
                                                     "kind = gbdt\nlearning_rate = 1\nreg_lambda = 2"))
        params = load_config(config).model.params
        assert params == {"learning_rate": 1.0, "reg_lambda": 2.0}
        assert all(type(v) is float for v in params.values())

    def test_explaining_ssl_model_requires_ssl_enabled(self, small_corpus, tmp_path):
        config = tmp_path / "sslless.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = out\n"
            "[run]\nseed = 1\n[ssl]\nenabled = false\n[explain]\nmodel = ssl\n"
        )
        with pytest.raises(ConfigError):
            load_config(config)

    def test_fraction_validation_surfaces_as_config_error(self, small_corpus, tmp_path):
        config = tmp_path / "frac.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = out\n"
            "[run]\nseed = 1\n[ssl]\nkeep_fraction = 0.05\n"
        )
        with pytest.raises(ConfigError):
            load_config(config)

    @pytest.mark.parametrize("section, options", [
        ("prepare", {"top_k": "-1"}),
        ("prepare", {"train_ratio": "1.2", "validation_ratio": "-0.1", "test_ratio": "-0.1"}),
        ("explain", {"max_rows": "-1"}),
        ("explain", {"top_n": "0"}),
        ("explain", {"enabled": "yes"}),
        ("explain", {"dataset": "foo"}),
        ("ssl", {"enabled": "yes"}),
        ("ssl", {"max_checkpoints": "0"}),
        ("ssl", {"keep_fraction": "1.5"}),
        ("resample", {"k_smote": "abc"}),
        ("model", {"n_rounds": "10.0"}),
        ("model", {"learning_rate": "fast"}),
        ("model", {"n_folds": "0", "kind": "stack"}),
        ("model", {"n_folds": "1", "kind": "stack"}),
        ("model", {"seed": "1.5", "kind": "vote"}),
        ("model", {"members": "gbdt", "kind": "stack"}),
        ("model", {"n_rounds": "0"}),
        ("model", {"k": "0", "kind": "knn"}),
        ("model", {"features_per_split": "0", "kind": "forest"}),
        ("model", {"features_per_split": "-1", "kind": "forest"}),
        ("model", {"min_leaf": "0", "kind": "forest"}),
        ("model", {"min_leaf": "-1", "kind": "forest"}),
    ], ids=["top_k", "ratios", "max_rows", "top_n", "explain.enabled", "dataset",
            "ssl.enabled", "max_checkpoints", "keep_fraction", "k_smote", "n_rounds",
            "learning_rate", "n_folds=0", "n_folds=1", "vote.seed", "members", "n_rounds=0", "k=0",
            "features_per_split=0", "features_per_split=-1", "min_leaf=0", "min_leaf=-1"])
    def test_bad_value_fails_at_load(self, small_corpus, tmp_path, capsys, section, options):
        config = tmp_path / "bad.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = {tmp_path / 'out'}\n"
            f"[run]\nseed = 1\n[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in options.items())
        )
        assert run_cli("run", "--config", str(config)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"invalid [{section}]" in err and next(iter(options)) in err, err
        assert not (tmp_path / "out").exists()


def quickstart_ini(directory: Path, seed: int) -> Path:
    """The quickstart pipeline.ini in directory, with an empty quarters/."""
    import importlib.util

    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_corpus.py"
    spec = importlib.util.spec_from_file_location("make_synthetic_corpus", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (directory / "quarters").mkdir()
    config = directory / "pipeline.ini"
    config.write_text(module.CONFIG_TEMPLATE.format(seed=seed))
    return config


class TestUnreadKeys:
    def test_unread_key_warns_once(self, small_corpus, tmp_path, caplog):
        config = tmp_path / "threads.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = out\n"
            "[run]\nseed = 1\nthreads = 1\n"
        )
        with caplog.at_level("WARNING"):
            load_config(config)
        assert len(caplog.records) == 1
        assert "[run] threads" in caplog.records[0].getMessage()

    def test_quickstart_template_is_read_whole(self, tmp_path, caplog):
        config = quickstart_ini(tmp_path, seed=1)
        with caplog.at_level("WARNING"):
            load_config(config)
        assert caplog.records == []

    def test_benchmark_configs_load_without_warning(self, tmp_path, caplog, monkeypatch):
        """perfbench/workloads.py renders each workload's ini from the quickstart's,
        so a new check that rejects one shows up here, not first in the benchmark."""
        import importlib.util
        import sys

        root = Path(__file__).resolve().parents[1]
        script = root / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", script)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks itself up
        spec.loader.exec_module(workloads)
        quarters = tmp_path / "quarters"
        quarters.mkdir()
        for workload in workloads.WORKLOADS:
            for size in workloads.SIZES:
                config = tmp_path / f"{workload.name}-{size}.ini"
                config.write_text(workloads.render_ini(
                    root, workload, size, workloads.DEFAULT_SEED, quarters, tmp_path / "out"
                ))
                with caplog.at_level("WARNING"):
                    load_config(config)
        assert caplog.records == []


class TestPseudoWeight:
    def ini(self, small_corpus, tmp_path, model, weight):
        config = tmp_path / f"weight-{weight}.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = {tmp_path / 'out'}\n"
            f"[run]\nseed = 1\n[model]\nkind = {model}\n[ssl]\npseudo_weight = {weight}\n"
        )
        return config

    def refit_weighs_pseudo_rows(self, model, small_corpus, tmp_path, separable_matrix):
        from vetpv.matrix import FeatureMatrix
        from vetpv.models import fit_model, serialize_model
        from vetpv.ssl import ssl_train

        labeled = separable_matrix.take_rows(np.arange(180))
        rest = separable_matrix.take_rows(np.arange(180, separable_matrix.n_rows))
        unlabeled = FeatureMatrix(values=rest.values, columns=rest.columns, keys=rest.keys)
        plans = {w: load_config(self.ini(small_corpus, tmp_path, model, w)).ssl for w in (1.0, 0.5)}
        assert plans[0.5].pseudo_weight == 0.5
        models = {w: ssl_train(labeled, unlabeled, plan) for w, plan in plans.items()}
        _, provenance, _ = models[0.5]
        keys, _, labels, _ = zip(*provenance)
        take = [unlabeled.keys.index(key) for key in keys]
        pool = labeled.append_rows(unlabeled.values[take], keys, labels)
        weights = np.concatenate([np.ones(labeled.n_rows), np.full(len(take), 0.5)])
        direct = fit_model(plans[0.5].base_model, pool, sample_weight=weights)
        assert serialize_model(models[0.5][0]) == serialize_model(direct)
        assert serialize_model(models[0.5][0]) != serialize_model(models[1.0][0])

    def test_gbdt_refit_weighs_pseudo_rows(self, small_corpus, tmp_path, separable_matrix):
        model = "gbdt\nn_rounds = 8\nmax_depth = 2"
        self.refit_weighs_pseudo_rows(model, small_corpus, tmp_path, separable_matrix)

    def test_forest_refit_weighs_pseudo_rows(self, small_corpus, tmp_path, separable_matrix):
        model = "forest\nn_trees = 8\nmax_depth = 3"
        self.refit_weighs_pseudo_rows(model, small_corpus, tmp_path, separable_matrix)


class TestSubcommands:
    def test_ssl_without_train_names_missing_artifact(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        config = tmp_path / "stage.ini"
        config.write_text(
            (small_corpus / "pipeline.ini").read_text().replace(
                "input_dir = quarters", f"input_dir = {small_corpus / 'quarters'}"
            ).replace("output_dir = out", f"output_dir = {out}")
        )
        assert run_cli("ingest", "--config", str(config)) == 0
        assert run_cli("prepare", "--config", str(config)) == 0
        code = run_cli("ssl", "--config", str(config))
        assert code == 2
        err = capsys.readouterr().err
        assert "model" in err

    def test_stagewise_chain_matches_run(self, finished_run, small_corpus, tmp_path, capsys):
        out = tmp_path / "chain"
        config = tmp_path / "chain.ini"
        config.write_text(
            (small_corpus / "pipeline.ini").read_text().replace(
                "input_dir = quarters", f"input_dir = {small_corpus / 'quarters'}"
            ).replace("output_dir = out", f"output_dir = {out}")
        )
        for cmd in ("ingest", "prepare", "train", "ssl", "evaluate", "explain"):
            assert run_cli(cmd, "--config", str(config)) == 0, cmd
        # artifact file names are content hashes, so equal manifests mean equal bytes
        _, run_out = finished_run
        assert (out / "manifest.tsv").read_bytes() == (run_out / "manifest.tsv").read_bytes()

    def test_stagewise_chain_matches_run_with_cr_in_report_ids(self, small_corpus, tmp_path):
        # a CR inside a quoted CSV key must survive the artifact reads of the chain
        quarters = Path(shutil.copytree(small_corpus / "quarters", tmp_path / "quarters"))
        plain = quarters / "corpus-q1.json"
        document = json.loads(plain.read_text(encoding="utf-8"))
        for record in document["results"]:
            record["unique_aer_id_number"] = record["unique_aer_id_number"].replace("-", "-\r")
        plain.write_text(json.dumps(document), encoding="utf-8")
        template = (small_corpus / "pipeline.ini").read_text().replace(
            "input_dir = quarters", f"input_dir = {quarters}"
        )
        outs = {}
        for name, commands in (("run", ("run",)),
                               ("chain", ("ingest", "prepare", "train", "ssl", "evaluate", "explain"))):
            outs[name] = tmp_path / name
            config = tmp_path / f"{name}.ini"
            config.write_text(template.replace("output_dir = out", f"output_dir = {outs[name]}"))
            for cmd in commands:
                assert run_cli(cmd, "--config", str(config)) == 0, cmd
        assert b"-\r" in next(outs["run"].glob("matrix_train-*.csv")).read_bytes()
        assert (outs["chain"] / "manifest.tsv").read_bytes() == (outs["run"] / "manifest.tsv").read_bytes()

    def test_rejects_quote_awkward_keys(self, small_corpus, tmp_path):
        import csv
        import io

        from vetpv import pipeline

        out = tmp_path / "out"
        config = tmp_path / "stage.ini"
        config.write_text(
            (small_corpus / "pipeline.ini").read_text().replace(
                "input_dir = quarters", f"input_dir = {small_corpus / 'quarters'}"
            ).replace("output_dir = out", f"output_dir = {out}")
        )
        assert run_cli("ingest", "--config", str(config)) == 0
        # ingest drops a negative age, so the reject is made in the stored bulk table
        manifest = dict(line.split("\t") for line in (out / "manifest.tsv").read_text().splitlines())
        key = 'AWK-1,"quoted"'
        with open(out / manifest["bulk_main"], "a", encoding="utf-8") as fh:
            fh.write(f"{key}\tDog\t\\N\t\\N\t-1.0\tYear\t\\N\t\\N\t\\N\n")
        assert run_cli("prepare", "--config", str(config)) == 0
        text = pipeline.ArtifactStore(out).get_text("rejects")
        assert list(csv.reader(io.StringIO(text))) == [
            ["key", "reason"], [key, f"report {key}: negative age -1.0"]
        ]
        assert text.endswith("\n") and "\r" not in text

    def test_evaluate_scores_ssl_model_only_when_ssl_enabled(self, finished_run, tmp_path):
        import csv
        import io

        from vetpv import pipeline

        run_config, run_out = finished_run
        out = Path(shutil.copytree(run_out, tmp_path / "out"))
        config = tmp_path / "no-ssl.ini"
        text = run_config.read_text().replace(
            "input_dir = quarters", f"input_dir = {run_config.parent / 'quarters'}"
        ).replace(f"output_dir = {run_out}", f"output_dir = {out}")
        config.write_text(text.replace("[ssl]\nenabled = true", "[ssl]\nenabled = false"))
        assert not load_config(config).ssl.enabled
        assert pipeline.ArtifactStore(out).get_text("model_ssl")  # left over from the ssl run
        assert run_cli("evaluate", "--config", str(config)) == 0
        rows = csv.DictReader(io.StringIO(pipeline.ArtifactStore(out).get_text("metrics")))
        assert {row["variant"] for row in rows} == {"supervised"}

    def test_evaluate_parses_only_the_matrices_it_scores(self, finished_run, tmp_path, monkeypatch):
        from vetpv import matrix

        run_config, run_out = finished_run
        out = Path(shutil.copytree(run_out, tmp_path / "out"))
        config = tmp_path / "evaluate.ini"
        config.write_text(run_config.read_text().replace(
            "input_dir = quarters", f"input_dir = {run_config.parent / 'quarters'}"
        ).replace(f"output_dir = {run_out}", f"output_dir = {out}"))
        assert load_config(config).ssl.enabled  # two models, each scored on two matrices
        parsed = []
        from_csv = matrix.from_csv
        monkeypatch.setattr(matrix, "from_csv", lambda *a: parsed.append(a) or from_csv(*a))
        assert run_cli("evaluate", "--config", str(config)) == 0
        assert len(parsed) == 2  # validation and test, once each

    def test_single_tree_model_trains(self, small_corpus, tmp_path):
        out = tmp_path / "tree"
        config = tmp_path / "tree.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = {out}\n"
            "[run]\nseed = 3\n[model]\nkind = tree\nmax_depth = 4\n"
        )
        for cmd in ("ingest", "prepare", "train"):
            assert run_cli(cmd, "--config", str(config)) == 0, cmd
        assert "kind=tree" in next(out.glob("model-*.txt")).read_text()

    def test_ingest_csv_flag(self, small_corpus, tmp_path):
        out = tmp_path / "csvout"
        config = tmp_path / "csv.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = {out}\n[run]\nseed = 5\n"
        )
        assert run_cli("ingest", "--config", str(config), "--csv") == 0
        assert (out / "csv" / "main.csv").exists()


class TestStageFailure:
    def test_failing_stage_recorded_and_partial_artifacts_kept(self, tmp_path, capsys):
        # a corpus with no definitive outcomes at all: the split stage fails
        quarters = tmp_path / "quarters"
        quarters.mkdir()
        records = []
        for i in range(12):
            records.append(
                {
                    "unique_aer_id_number": f"X{i}",
                    "animal": {"species": "Dog", "gender": "Male",
                               "age": {"min": "2", "unit": "Year"},
                               "weight": {"min": "10", "unit": "Kilogram"}},
                    "outcome": [{"medical_status": "Ongoing"}],
                    "reaction": [{"veddra_term_name": "Vomiting"}],
                    "drug": [{"active_ingredients": [{"name": "Carprofen"}],
                              "route": "Oral", "dosage_form": "Tablet"}],
                }
            )
        import json as json_mod

        (quarters / "q1.json").write_text(json_mod.dumps({"results": records}))
        out = tmp_path / "out"
        config = tmp_path / "fail.ini"
        config.write_text(
            f"[paths]\ninput_dir = {quarters}\noutput_dir = {out}\n[run]\nseed = 1\n"
        )
        assert run_cli("run", "--config", str(config)) == 2
        report = json.loads((out / "run_report.json").read_text())
        assert report["failed_stage"] == "split"
        assert [s["name"] for s in report["stages"]] == ["ingest", "harmonize", "prepare"]
        assert (out / "manifest.tsv").exists()  # partial artifacts retained


class TestArtifactStore:
    @pytest.mark.parametrize("failing", ["artifact", "manifest.tsv"])
    def test_failed_replace_keeps_previous_manifest_and_artifact(
        self, tmp_path, monkeypatch, failing
    ):
        import os

        from vetpv import pipeline

        store = pipeline.ArtifactStore(tmp_path)
        old = store.put_text("metrics", "f1\n0.9\n", "csv")
        manifest = (tmp_path / "manifest.tsv").read_bytes()
        replace = os.replace

        def replace_or_fail(src, dst):
            if failing in ("artifact", Path(dst).name):  # "artifact": the first write
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_or_fail)
        with pytest.raises(OSError, match="disk full"):
            store.put_text("metrics", "f1\n0.5\n", "csv")
        monkeypatch.undo()
        assert (tmp_path / "manifest.tsv").read_bytes() == manifest
        assert old.read_text() == "f1\n0.9\n"
        assert not list(tmp_path.glob("*.partial"))
        for reader in (store, pipeline.ArtifactStore(tmp_path)):
            assert reader.get_text("metrics") == "f1\n0.9\n"

    @pytest.mark.parametrize("failing, failing_stage", [
        ("run_report.json", None), ("effective_config.txt", None), ("run_report.json", "split"),
    ])
    def test_failed_replace_keeps_previous_report_and_config(
        self, small_corpus, tmp_path, monkeypatch, failing, failing_stage
    ):
        import os

        from vetpv import pipeline

        out = tmp_path / "out"
        out.mkdir()
        for name in ("run_report.json", "effective_config.txt"):
            (out / name).write_text("previous\n")
        config = tmp_path / "logistic.ini"
        config.write_text(
            f"[paths]\ninput_dir = {small_corpus / 'quarters'}\noutput_dir = {out}\n"
            "[run]\nseed = 1\n[model]\nkind = logistic\n"
            "[ssl]\nenabled = false\n[explain]\nenabled = false\n"
        )
        if failing_stage:
            def fail(*_):
                raise ValueError("stage failed")

            monkeypatch.setattr(pipeline, f"stage_{failing_stage}", fail)
        replace = os.replace

        def replace_or_fail(src, dst):
            if Path(dst).name == failing:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_or_fail)
        with pytest.raises(OSError, match="disk full"):
            pipeline.run(load_config(config), echo=lambda *_: None)
        assert (out / failing).read_text() == "previous\n"
        assert not list(out.glob("*.partial"))

    def test_text_chunks_are_stored_like_their_text(self, tmp_path):
        from vetpv import pipeline

        store = pipeline.ArtifactStore(tmp_path)
        whole = store.put_text("metrics", "f1\n0.9\n", "csv")
        chunked = store.put_text("metrics", iter(["f1\n", "", "0.9\n"]), "csv")
        assert chunked == whole
        assert store.get_text("metrics") == "f1\n0.9\n"
        store.put_text("metrics", 'key\r\n"k\r1"\r\n', "csv")
        assert store.get_text("metrics") == 'key\r\n"k\r1"\r\n'

    def test_malformed_manifest_line_is_named(self, tmp_path):
        from vetpv import pipeline

        (tmp_path / "manifest.tsv").write_text("model\tmodel-abc.txt\nmetrics metrics-def.csv\n")
        with pytest.raises(pipeline.StageError, match=r"manifest\.tsv:2: malformed"):
            pipeline.ArtifactStore(tmp_path)


# effective_config.txt of the quickstart ini (scripts/make_synthetic_corpus.py)
# in {root}; a change to the settings schema shows up here as a diff
QUICKSTART_EFFECTIVE_CONFIG = """\
explain.dataset = test
explain.enabled = True
explain.max_rows = 0
explain.model = supervised
explain.top_k = 15
explain.top_n = 10
model.kind = gbdt
model.learning_rate = 0.1
model.max_depth = 4
model.n_rounds = 120
paths.descriptors = bundled:descriptors.tsv
paths.input_dir = {root}/quarters
paths.output_dir = {root}/out
paths.species_groups = bundled:species_groups.tsv
paths.veddra = bundled:veddra.tsv
prepare.correlation_threshold = 0.95
prepare.priority = molecular_weight
prepare.test_ratio = 0.1
prepare.top_k = 256
prepare.train_ratio = 0.8
prepare.validation_ratio = 0.1
resample.enn_mode = majority_only
resample.k_enn = 3
resample.k_smote = 5
resample.seed = 20240801
resample.strategy = none
resample.target_ratio = 1.0
run.seed = 20240801
ssl.allow_any_fraction = False
ssl.enabled = True
ssl.keep_fraction = 0.3
ssl.max_checkpoints = 50
ssl.pseudo_weight = 1.0
ssl.rounds = 1
"""


class TestEffectiveConfig:
    def test_bundled_data_paths_do_not_depend_on_install_location(self, tmp_path):
        import vetpv
        from vetpv.config import effective_config_text

        (tmp_path / "quarters").mkdir()
        config = tmp_path / "defaults.ini"
        ini = "[paths]\ninput_dir = quarters\noutput_dir = out\n[run]\nseed = 1\n"
        config.write_text(ini)
        text = effective_config_text(load_config(config))
        assert str(Path(vetpv.__file__).parent) not in text
        assert "paths.veddra = bundled:veddra.tsv\n" in text
        groups = tmp_path / "species_groups.tsv"
        groups.write_text("")
        config.write_text(ini.replace("[run]", "species_groups = species_groups.tsv\n[run]"))
        text = effective_config_text(load_config(config))
        assert f"paths.species_groups = {groups}\n" in text

    def test_quickstart_effective_config_is_pinned(self, tmp_path, monkeypatch):
        from vetpv.config import OUTPUT_DIR_ENV, effective_config_text

        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        root = tmp_path.resolve()
        text = effective_config_text(load_config(quickstart_ini(root, seed=20240801)))
        assert text == QUICKSTART_EFFECTIVE_CONFIG.format(root=root)

    def test_ensemble_config_hash_is_pinned(self, tmp_path):
        from vetpv.config import config_hash, effective_config_text

        config = tmp_path / "stack.ini"
        # input_dir = / exists everywhere, so the hash does not depend on tmp_path
        config.write_text(
            "[paths]\ninput_dir = /\noutput_dir = out\n[run]\nseed = 20240801\n"
            "[model]\nkind = stack\nseed = 7\nn_folds = 3\n"
            "[ssl]\nenabled = false\n[explain]\nenabled = false\n"
        )
        parsed = load_config(config)
        text = effective_config_text(parsed)
        assert "model.n_folds = 3\n" in text and "model.seed = 7\n" in text
        assert config_hash(parsed) == "01204169fa73bfae"  # as before [model] was typed for stack

    def test_output_dir_does_not_change_the_hash(self, tmp_path):
        from vetpv.config import config_hash, effective_config_text

        (tmp_path / "quarters").mkdir()
        config = tmp_path / "pipeline.ini"
        configs = []
        for out in ("out", "elsewhere/out"):
            config.write_text(f"[paths]\ninput_dir = quarters\noutput_dir = {out}\n[run]\nseed = 1\n")
            configs.append(load_config(config))
        assert configs[0].output_dir != configs[1].output_dir
        assert config_hash(configs[0]) == config_hash(configs[1])
        for parsed in configs:
            assert f"paths.output_dir = {parsed.output_dir}\n" in effective_config_text(parsed)


class TestEnvOverrides:
    def test_output_dir_env_override(self, small_corpus, tmp_path, monkeypatch):
        override = tmp_path / "env-out"
        monkeypatch.setenv("VETPV_OUTPUT_DIR", str(override))
        config = load_config(small_corpus / "pipeline.ini")
        assert config.output_dir == override

    def test_only_config_reads_the_environment(self):
        """Every input a run reads is named by its config, and so by its hash:
        no module but config reads the environment, and none fetches URLs."""
        import re

        import vetpv

        for path in sorted(Path(vetpv.__file__).parent.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert "urllib" not in text, path.name
            reads = re.findall(r"\bos\.(?:environ|getenv)\b|\bgetenv\(", text)
            if path.name == "config.py":
                assert re.findall(r'"(VETPV_\w+)"', text) == ["VETPV_OUTPUT_DIR"]
                assert len(reads) == 1
            else:
                assert reads == [], path.name

    def test_descriptor_url_in_the_environment_changes_nothing(self, tmp_path, monkeypatch):
        from vetpv import pipeline
        from vetpv.synth import write_corpus

        write_corpus(tmp_path, n_reports=120, seed=77, quarters=1)
        merged = []
        for url in (None, "http://127.0.0.1:9/"):
            if url:
                monkeypatch.setenv("VETPV_DESCRIPTOR_URL", url)
            out = tmp_path / ("with-url" if url else "without")
            (tmp_path / "pipeline.ini").write_text(
                f"[paths]\ninput_dir = quarters\noutput_dir = {out}\n[run]\nseed = 1\n")
            config = load_config(tmp_path / "pipeline.ini")
            store = pipeline.ArtifactStore(out)
            pipeline.run_stages(config, store, ["ingest", "harmonize"], echo=lambda *a: None)
            merged.append(store.get_text("merged"))
        assert merged[0] == merged[1]


class TestReport:
    def test_aggregates_runs_into_table(self, finished_run, tmp_path, capsys):
        import csv
        import io

        from vetpv import pipeline

        _, out = finished_run
        base = tmp_path / "table"
        assert run_cli("report", "--runs", str(out), "--out", str(base)) == 0
        table = base.with_suffix(".txt").read_text()
        assert "none/F1" in table
        assert "gbdt" in table and "gbdt+ssl" in table
        metrics = csv.DictReader(io.StringIO(pipeline.ArtifactStore(out).get_text("metrics")))
        run = next(r for r in metrics if (r["dataset"], r["variant"]) == ("test", "supervised"))
        table_csv = csv.DictReader(io.StringIO(base.with_suffix(".csv").read_text()))
        assert next(r for r in table_csv if r["model"] == "gbdt")["none/F1"] == run["weighted_f1"]

    def test_missing_run_directory_exits_2_and_creates_nothing(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("report", "--runs", "nope", "--out", "res") == 2
        assert capsys.readouterr().err == "missing prerequisite: run directory nope does not exist\n"
        assert list(tmp_path.iterdir()) == []

    def test_malformed_manifest_exits_2_naming_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("badrun").mkdir()
        Path("badrun/manifest.tsv").write_text("metrics\n")
        assert run_cli("report", "--runs", "badrun", "--out", "res") == 2
        err = capsys.readouterr().err
        assert err.startswith("stage failure: badrun/manifest.tsv:1: malformed manifest line"), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["badrun"]

    @pytest.mark.parametrize("text, message", [
        ("model,variant\ngbdt,ssl\n", ": no column dataset, sampling, weighted_f1, "),
        ("dataset,model,variant,sampling,weighted_f1,weighted_precision,weighted_recall,"
         "death_recall,recovered_recall\ntest,gbdt,ssl,none,abc,1,1,1,1\n",
         ":2: could not convert string to float: 'abc'"),
    ], ids=["no-dataset-column", "not-a-number"])
    def test_malformed_metrics_exit_2_naming_the_file(self, tmp_path, capsys, monkeypatch, text,
                                                     message):
        from vetpv import pipeline

        monkeypatch.chdir(tmp_path)
        path = pipeline.ArtifactStore(Path("run")).put_text("metrics", text, "csv")
        assert run_cli("report", "--runs", "run", "--out", "res") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"stage failure: {path}{message}"), err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


class TestBenchmarkTracer:
    def test_tracer_wraps_every_name_it_expects(self):
        """perfbench/spans.py wraps vetpv functions by name, so a rename breaks `--trace 1`."""
        import os
        import subprocess
        import sys

        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import spans; spans.install(spans.Recorder())"],
            cwd=root / "perfbench", env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
