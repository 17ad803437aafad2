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
        resampled, train = pipeline.load_resampled(store), pipeline.load_split(store)["train"]
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

    def test_stagewise_chain_matches_run(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "chain"
        config = tmp_path / "chain.ini"
        config.write_text(
            (small_corpus / "pipeline.ini").read_text().replace(
                "input_dir = quarters", f"input_dir = {small_corpus / 'quarters'}"
            ).replace("output_dir = out", f"output_dir = {out}")
        )
        for cmd in ("ingest", "prepare", "train", "ssl", "evaluate", "explain"):
            assert run_cli(cmd, "--config", str(config)) == 0, cmd
        manifest = (out / "manifest.tsv").read_text()
        for artifact in ("bulk_main", "merged", "matrix_train", "model", "model_ssl",
                         "metrics", "shap_values", "rankings", "summary_points"):
            assert artifact in manifest

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

    def test_malformed_manifest_line_is_named(self, tmp_path):
        from vetpv import pipeline

        (tmp_path / "manifest.tsv").write_text("model\tmodel-abc.txt\nmetrics metrics-def.csv\n")
        with pytest.raises(pipeline.StageError, match=r"manifest\.tsv:2: malformed"):
            pipeline.ArtifactStore(tmp_path)


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

    def test_descriptor_provider_env_factory(self, tmp_path, monkeypatch):
        from vetpv.ingest import HttpDescriptorProvider, http_provider_from_env

        assert http_provider_from_env() is None
        monkeypatch.setenv("VETPV_DESCRIPTOR_URL", "http://mirror/rest")
        monkeypatch.setenv("VETPV_DESCRIPTOR_CACHE", str(tmp_path / "cache"))
        provider = http_provider_from_env()
        assert isinstance(provider, HttpDescriptorProvider)
        assert provider.base_url == "http://mirror/rest"
        assert provider.cache_dir == tmp_path / "cache"


class TestReport:
    def test_aggregates_runs_into_table(self, finished_run, tmp_path, capsys):
        _, out = finished_run
        base = tmp_path / "table"
        assert run_cli("report", "--runs", str(out), "--out", str(base)) == 0
        table = base.with_suffix(".txt").read_text()
        assert "none/F1" in table
        assert "gbdt" in table and "gbdt+ssl" in table
        assert base.with_suffix(".csv").exists()
