"""Tests for the integration pipeline, reports and the command-line interface."""

import pytest

from repro.baselines import Voting
from repro.cli import build_parser, main
from repro.core.model import LatentTruthModel
from repro.data.loaders import save_labels_csv, save_triples_csv
from repro.engine import ExecutionConfig
from repro.exceptions import ConfigurationError, EmptyDatasetError
from repro.io.base import DataSource
from repro.pipeline import format_merged_records, format_quality_report, run_integration
from repro.pipeline.report import format_integration_summary


class TestRunIntegration:
    def test_merges_paper_example(self, paper_triples):
        result = run_integration(
            paper_triples, method=LatentTruthModel(iterations=60, seed=0)
        )
        assert result.claims.num_facts == 5
        assert result.num_accepted() + result.num_rejected() == 5
        harry = result.accepted_values("Harry Potter")
        assert "Daniel Radcliffe" in harry
        assert set(result.fact_scores) == {
            ("Harry Potter", "Daniel Radcliffe"),
            ("Harry Potter", "Emma Watson"),
            ("Harry Potter", "Rupert Grint"),
            ("Harry Potter", "Johnny Depp"),
            ("Pirates 4", "Johnny Depp"),
        }

    def test_voting_integration(self, paper_triples):
        result = run_integration(paper_triples, method=Voting())
        assert result.source_quality is None
        assert result.accepted_values("Pirates 4") == ["Johnny Depp"]

    def test_workspace_tables(self, paper_triples):
        result = run_integration(paper_triples, method=Voting(), keep_workspace=True)
        workspace = result.workspace
        assert workspace is not None
        assert set(workspace) == {"raw_database", "facts", "claims", "truths"}
        assert len(workspace["claims"]["fact_id"]) == result.claims.num_claims
        assert len(workspace["truths"]["fact_id"]) == result.claims.num_facts

    @pytest.mark.parametrize("execution", [None, ExecutionConfig(num_shards=2)])
    def test_workspace_views_the_run(self, paper_triples, monkeypatch, execution):
        def no_raw(self, strict=False):
            raise AssertionError("the workspace must not materialise a RawDatabase")

        monkeypatch.setattr(DataSource, "to_raw", no_raw)
        result = run_integration(
            paper_triples, method="voting", threshold=0.6, keep_workspace=True, execution=execution
        )
        claims, scores, workspace = result.claims, result.truth_result.scores, result.workspace
        raw = workspace["raw_database"]
        # The distinct triples, in claim order.
        assert list(zip(raw["entity"], raw["attribute"], raw["source"])) == [
            (claims.fact(f).entity, claims.fact(f).attribute, claims.source_names[s])
            for f, s, o in zip(claims.claim_fact, claims.claim_source, claims.claim_obs)
            if o
        ]
        assert sorted(zip(raw["entity"], raw["attribute"], raw["source"])) == sorted(
            t.as_tuple() for t in paper_triples
        )
        facts = workspace["facts"]
        assert list(zip(facts["fact_id"], facts["entity"], facts["attribute"])) == [
            (f.fact_id, f.entity, f.attribute) for f in claims.facts
        ]
        assert workspace["claims"]["fact_id"].tolist() == claims.claim_fact.tolist()
        assert workspace["claims"]["source"].tolist() == [
            claims.source_names[s] for s in claims.claim_source
        ]
        assert workspace["claims"]["observation"].tolist() == claims.claim_obs.astype(bool).tolist()
        truths = workspace["truths"]
        assert truths["score"].tolist() == scores.tolist()
        assert truths["truth"].tolist() == (scores >= 0.6).tolist()
        assert truths["entity"].tolist() == facts["entity"].tolist()
        for relation in workspace.values():
            for column in relation.values():
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[0]

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDatasetError):
            run_integration([], method=Voting())

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            run_integration([("e", "a", "s")], threshold=1.5)

    def test_high_threshold_rejects_more(self, paper_triples):
        lenient = run_integration(paper_triples, method=Voting(), threshold=0.3)
        strict = run_integration(paper_triples, method=Voting(), threshold=0.9)
        assert strict.num_accepted() <= lenient.num_accepted()


class TestReports:
    def test_quality_report_format(self, paper_claims):
        result = LatentTruthModel(iterations=30, seed=0).fit(paper_claims)
        text = format_quality_report(result.source_quality)
        assert "Sensitivity" in text
        assert "IMDB" in text
        limited = format_quality_report(result.source_quality, top=2)
        assert len(limited.splitlines()) == 3

    def test_merged_records_format(self):
        text = format_merged_records({"b": ["y", "x"], "a": ["z"]}, limit=None)
        lines = text.splitlines()
        assert lines[0] == "a: z"
        assert lines[1] == "b: x, y"

    def test_merged_records_limit(self):
        merged = {f"e{i}": ["v"] for i in range(30)}
        text = format_merged_records(merged, limit=5)
        assert "more entities" in text

    def test_integration_summary(self, paper_triples):
        result = run_integration(paper_triples, method=Voting())
        text = format_integration_summary(result)
        assert "candidate facts:   5" in text
        assert "method:            Voting" in text


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "books", "out.tsv", "--entities", "10"])
        assert args.command == "simulate" and args.kind == "books"
        args = parser.parse_args(["integrate", "in.tsv", "--iterations", "5"])
        assert args.command == "integrate"
        args = parser.parse_args(["compare", "in.tsv", "labels.tsv"])
        assert args.command == "compare"

    def test_simulate_books(self, tmp_path, capsys):
        out = tmp_path / "books.tsv"
        code = main(["simulate", "books", str(out), "--entities", "20", "--seed", "3"])
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_simulate_movies(self, tmp_path, capsys):
        out = tmp_path / "movies.tsv"
        code = main(["simulate", "movies", str(out), "--entities", "60", "--seed", "3"])
        assert code == 0
        assert out.exists()

    def test_integrate_command(self, tmp_path, paper_raw, capsys):
        triples_path = tmp_path / "triples.tsv"
        save_triples_csv(paper_raw, triples_path)
        code = main(["integrate", str(triples_path), "--iterations", "30", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Merged records" in out
        assert "Source quality" in out

    def test_compare_command(self, tmp_path, paper_raw, capsys):
        from tests.conftest import PAPER_EXAMPLE_TRUTH

        triples_path = tmp_path / "triples.tsv"
        labels_path = tmp_path / "labels.tsv"
        save_triples_csv(paper_raw, triples_path)
        save_labels_csv(PAPER_EXAMPLE_TRUTH, labels_path)
        code = main(["compare", str(triples_path), str(labels_path), "--iterations", "20", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LTM" in out and "Voting" in out

    def test_integrate_command_with_method_flag(self, tmp_path, paper_raw, capsys):
        triples_path = tmp_path / "triples.tsv"
        save_triples_csv(paper_raw, triples_path)
        code = main(["integrate", str(triples_path), "--method", "voting"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Merged records" in out
        # Voting estimates no source quality, so no quality section is printed.
        assert "Source quality" not in out

    def test_integrate_command_unknown_method(self, tmp_path, paper_raw, capsys):
        triples_path = tmp_path / "triples.tsv"
        save_triples_csv(paper_raw, triples_path)
        code = main(["integrate", str(triples_path), "--method", "wat"])
        assert code == 2
        assert "unknown method" in capsys.readouterr().err

    def test_methods_command_lists_registry(self, capsys):
        code = main(["methods"])
        assert code == 0
        out = capsys.readouterr().out
        for key in ("ltm", "voting", "three_estimates", "gaussian_ltm"):
            assert key in out
        assert "incremental" in out and "quality" in out

    def test_compare_command_no_matching_labels(self, tmp_path, paper_raw, capsys):
        triples_path = tmp_path / "triples.tsv"
        labels_path = tmp_path / "labels.tsv"
        save_triples_csv(paper_raw, triples_path)
        save_labels_csv({("Nope", "Nobody"): True}, labels_path)
        code = main(["compare", str(triples_path), str(labels_path)])
        assert code == 2

    def test_datasets_command_lists_catalog(self, capsys):
        code = main(["datasets"])
        assert code == 0
        out = capsys.readouterr().out
        for key in ("paper_example", "books", "movies", "ltm_generative", "adversarial"):
            assert key in out
        assert "aliases" in out

    def test_integrate_with_source_catalog_key(self, capsys):
        code = main(["integrate", "--source", "paper_example", "--method", "voting"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Merged records" in out
        assert "Harry Potter" in out

    def test_integrate_positional_catalog_key(self, capsys):
        code = main(["integrate", "paper_example", "--method", "voting"])
        assert code == 0
        assert "Merged records" in capsys.readouterr().out

    def test_integrate_positional_file_shadows_catalog_key(
        self, tmp_path, paper_raw, capsys, monkeypatch
    ):
        """A local file named like a catalog key still means the file."""
        monkeypatch.chdir(tmp_path)
        save_triples_csv(paper_raw, tmp_path / "books")
        code = main(["integrate", "books", "--method", "voting"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Harry Potter" in out  # the file's data, not the simulated crawl

    def test_integrate_source_file_path(self, tmp_path, paper_raw, capsys):
        triples_path = tmp_path / "triples.tsv"
        save_triples_csv(paper_raw, triples_path)
        code = main(["integrate", "--source", str(triples_path), "--method", "voting"])
        assert code == 0
        assert "Merged records" in capsys.readouterr().out

    def test_integrate_unknown_source(self, capsys):
        code = main(["integrate", "--source", "no_such_dataset", "--method", "voting"])
        assert code == 2
        assert "neither a registered dataset" in capsys.readouterr().err

    def test_integrate_requires_exactly_one_input(self, tmp_path, paper_raw, capsys):
        assert main(["integrate", "--method", "voting"]) == 2
        triples_path = tmp_path / "triples.tsv"
        save_triples_csv(paper_raw, triples_path)
        code = main(
            ["integrate", str(triples_path), "--source", "paper_example", "--method", "voting"]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err


class TestStoreCli:
    """The ``store load | stats | compact`` out-of-core subcommands (ISSUE 7)."""

    def _tsv(self, tmp_path, paper_raw):
        path = tmp_path / "triples.tsv"
        save_triples_csv(paper_raw, path)
        return path

    def test_load_stats_compact_round_trip(self, tmp_path, paper_raw, capsys):
        tsv = self._tsv(tmp_path, paper_raw)
        db = tmp_path / "claims.db"
        assert main(["store", "load", str(tsv), str(db)]) == 0
        assert "loaded 8 triples" in capsys.readouterr().out
        assert main(["store", "stats", str(db)]) == 0
        out = capsys.readouterr().out
        assert "8 triples" in out and "1 generation(s)" in out
        # Second load is a new generation; compact keeps only the newest.
        assert main(["store", "load", str(tsv), str(db)]) == 0
        capsys.readouterr()
        assert main(["store", "compact", str(db), "--keep-last", "1"]) == 0
        assert "evicted 8 triples" in capsys.readouterr().out

    def test_loaded_store_integrates_via_url(self, tmp_path, paper_raw, capsys):
        tsv = self._tsv(tmp_path, paper_raw)
        db = tmp_path / "claims.db"
        assert main(["store", "load", str(tsv), str(db)]) == 0
        capsys.readouterr()
        code = main(
            ["integrate", "--source", f"store://{db}", "--method", "voting",
             "--shards", "2", "--backend", "threads"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 entity shards" in out and "Merged records" in out

    def test_stats_on_missing_store_errors(self, tmp_path, capsys):
        assert main(["store", "stats", str(tmp_path / "absent.db")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_load_missing_input_errors(self, tmp_path, capsys):
        code = main(["store", "load", str(tmp_path / "no.tsv"), str(tmp_path / "c.db")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_compact_requires_criterion(self, tmp_path, paper_raw, capsys):
        tsv = self._tsv(tmp_path, paper_raw)
        db = tmp_path / "claims.db"
        assert main(["store", "load", str(tsv), str(db)]) == 0
        capsys.readouterr()
        assert main(["store", "compact", str(db)]) == 2
        assert "--keep-last" in capsys.readouterr().err

    def test_datasets_table_has_streaming_column(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "streaming" in out.splitlines()[0]

    def test_integrate_on_foreign_sqlite_is_a_clean_error(self, tmp_path, capsys):
        # A sqlite file that is not a claim store must fail with the CLI's
        # friendly error line, not a StoreError traceback.
        import sqlite3

        db = tmp_path / "foreign.db"
        sqlite3.connect(db).execute("CREATE TABLE t (x)").close()
        code = main(["integrate", "--source", f"store://{db}", "--method", "voting"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "not a claim store" in err

    def test_export_on_missing_store_is_a_clean_error(self, tmp_path, capsys):
        code = main(
            ["export", f"store://{tmp_path / 'absent.db'}", str(tmp_path / "art"),
             "--method", "voting"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
