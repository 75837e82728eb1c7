"""Round-trip tests for dataset serialisation."""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.data.claim_builder import bulk_build_claim_matrix
from repro.data.loaders import (
    _CSV_DIALECT,
    iter_triples_csv,
    load_dataset_json,
    load_labels_csv,
    load_triples_csv,
    read_triple_columns,
    save_dataset_json,
    save_labels_csv,
    save_triples_csv,
)
from repro.engine import TruthEngine
from repro.exceptions import DataModelError
from repro.io.sources import DatasetSource, TripleFileSource
from repro.synth.books import BookAuthorConfig, BookAuthorSimulator
from repro.types import Triple, TripleColumns


class TestTripleCsv:
    def test_round_trip(self, paper_raw, tmp_path):
        path = tmp_path / "triples.tsv"
        count = save_triples_csv(paper_raw, path)
        assert count == len(paper_raw)
        loaded = load_triples_csv(path)
        assert len(loaded) == len(paper_raw)
        assert set(loaded.sources) == set(paper_raw.sources)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("")
        with pytest.raises(DataModelError):
            load_triples_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\tc\n1\t2\t3\n")
        with pytest.raises(DataModelError):
            load_triples_csv(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("entity\tattribute\tsource\nonly-two\tcolumns\n")
        with pytest.raises(DataModelError):
            load_triples_csv(path)

    def test_multichar_delimiter_rejected(self, tmp_path):
        with pytest.raises(DataModelError):
            save_triples_csv([Triple("e", "a", "s")], tmp_path / "x.tsv", delimiter="||")

    def test_quotechar_delimiter_rejected(self, tmp_path):
        with pytest.raises(DataModelError):
            load_triples_csv(tmp_path / "x.tsv", delimiter='"')

    def test_arity_error_reports_the_physical_line(self, tmp_path):
        # Line 2-3 hold one quoted record, line 4 is blank, the bad row is on
        # line 6 — the fifth line *record* the reader sees.
        path = tmp_path / "multiline.tsv"
        path.write_text('entity\tattribute\tsource\n"a\nb"\tx\ts1\n\ne\tf\ts2\ng\th\n')
        for read in (lambda p: list(iter_triples_csv(p)), read_triple_columns):
            with pytest.raises(DataModelError, match=r"multiline\.tsv:6: expected 3 columns"):
                read(path)


class TestTripleColumns:
    def test_reads_the_rows_the_stream_yields(self, tmp_path):
        path = tmp_path / "crawl.tsv"
        rows = [Triple("e1", "a", "s1"), Triple("e1", "a", "s1"), Triple("e2", "b\tc", 's"2')]
        save_triples_csv(rows, path)
        columns = read_triple_columns(path)
        assert isinstance(columns, TripleColumns)
        assert len(columns) == 3  # duplicates are kept, like the stream
        rows_back = zip(columns.entities, columns.attributes, columns.sources)
        assert [Triple(*row) for row in rows_back] == list(iter_triples_csv(path))

    def test_unequal_columns_rejected(self):
        with pytest.raises(DataModelError, match="differ in length"):
            TripleColumns(["e1", "e2"], ["a"], ["s"])

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "a\tb\tc\n1\t2\t3\n",
            "entity\tattribute\tsource\nonly-two\tcolumns\n",
            "entity\tattribute\tsource\ne\ta\ts\n\ne\ta\ts\textra\n",
        ],
        ids=["empty", "bad-header", "two-columns", "four-columns"],
    )
    def test_errors_identical_to_the_stream(self, content, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(content)
        with pytest.raises(DataModelError) as streamed:
            list(iter_triples_csv(path))
        with pytest.raises(DataModelError) as columnar:
            read_triple_columns(path)
        assert str(columnar.value) == str(streamed.value)


# Values deliberately include the tab / comma delimiters, quotes, carriage
# returns and newlines — the characters that break naive split-based formats.
_nasty_text = st.text(
    alphabet=st.sampled_from(list("ab\t,;\"'\n\r é")), min_size=1, max_size=8
)
_triples_strategy = st.lists(
    st.tuples(_nasty_text, _nasty_text, _nasty_text).map(lambda t: Triple(*t)),
    min_size=1,
    max_size=20,
    unique=True,
)


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(triples=_triples_strategy, delimiter=st.sampled_from(["\t", ",", ";", "|"]))
    def test_triples_survive_save_load(self, triples, delimiter, tmp_path):
        path = tmp_path / "triples.any"
        count = save_triples_csv(triples, path, delimiter=delimiter)
        assert count == len(triples)
        loaded = load_triples_csv(path, delimiter=delimiter)
        assert sorted(t.as_tuple() for t in loaded) == sorted(t.as_tuple() for t in triples)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        labels=st.dictionaries(
            st.tuples(_nasty_text, _nasty_text), st.booleans(), min_size=1, max_size=15
        ),
        delimiter=st.sampled_from(["\t", ","]),
    )
    def test_labels_survive_save_load(self, labels, delimiter, tmp_path):
        path = tmp_path / "labels.any"
        assert save_labels_csv(labels, path, delimiter=delimiter) == len(labels)
        assert load_labels_csv(path, delimiter=delimiter) == labels


def _write_triple_file(path, rows, delimiter, blank_before):
    """Write ``rows`` under a header, with a blank line wherever ``blank_before`` says."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter, **_CSV_DIALECT)
        writer.writerow(["entity", "attribute", "source"])
        for row, blank in zip(rows, blank_before):
            if blank:
                handle.write("\r\n")
            writer.writerow(row.as_tuple())
        if blank_before[-1]:
            handle.write("\n")


def _assert_same_matrix(expected, actual):
    assert actual.source_names == expected.source_names
    assert actual.facts == expected.facts
    for field in ("claim_fact", "claim_source", "claim_obs", "fact_ptr"):
        left, right = getattr(expected, field), getattr(actual, field)
        assert left.dtype == right.dtype and np.array_equal(left, right), field


class TestFileIngestParity:
    """A file source's columnar build equals the build over its row stream."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(triples=_triples_strategy, suffix=st.sampled_from([".tsv", ".csv"]), data=st.data())
    def test_to_claim_matrix_matches_row_stream(self, triples, suffix, data, tmp_path):
        # Duplicate some rows, shuffle, and scatter blank lines between them.
        rows = triples + data.draw(st.lists(st.sampled_from(triples), max_size=6))
        rows = data.draw(st.permutations(rows))
        slots = len(rows) + 1
        blank_before = data.draw(st.lists(st.booleans(), min_size=slots, max_size=slots))
        path = tmp_path / f"crawl{suffix}"
        _write_triple_file(path, rows, "," if suffix == ".csv" else "\t", blank_before)

        source = TripleFileSource(path)
        streamed = bulk_build_claim_matrix(list(iter_triples_csv(path, delimiter=source.delimiter)))
        _assert_same_matrix(streamed, source.to_claim_matrix())
        assert source.schema().num_triples == len(rows)

    def test_ltm_fit_from_file_is_bit_identical_to_in_memory(self, tmp_path):
        dataset = BookAuthorSimulator(BookAuthorConfig.small(seed=3)).generate()
        path = tmp_path / "crawl.tsv"
        save_triples_csv(DatasetSource(dataset).iter_triples(), path)
        from_file = TruthEngine(method="ltm", iterations=40, seed=11).fit(str(path)).fact_scores
        in_memory = TruthEngine(method="ltm", iterations=40, seed=11).fit(
            list(iter_triples_csv(path))
        ).fact_scores
        assert list(from_file) == list(in_memory)
        as_bytes = [np.array(list(scores.values())).tobytes() for scores in (from_file, in_memory)]
        assert as_bytes[0] == as_bytes[1]


class TestLabelCsv:
    def test_round_trip(self, tmp_path):
        labels = {("book1", "alice"): True, ("book1", "bob"): False}
        path = tmp_path / "labels.tsv"
        assert save_labels_csv(labels, path) == 2
        loaded = load_labels_csv(path)
        assert loaded == labels

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("")
        with pytest.raises(DataModelError):
            load_labels_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("entity\tattribute\tsource\nbook\talice\t1\n")
        with pytest.raises(DataModelError):
            load_labels_csv(path)

    def test_malformed_truth_value_rejected(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("entity\tattribute\ttruth\nbook\talice\tmaybe\n")
        with pytest.raises(DataModelError, match="truth column"):
            load_labels_csv(path)

    @pytest.mark.parametrize("value", ["7", "-1", "2"])
    def test_integer_truth_other_than_0_or_1_rejected(self, value, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text(f"entity\tattribute\ttruth\nbook\talice\t1\nbook\tbob\t{value}\n")
        message = f"labels.tsv:3: truth column must be 0 or 1, got '{value}'"
        with pytest.raises(DataModelError, match=message):
            load_labels_csv(path)


class TestDatasetJson:
    def test_round_trip(self, paper_dataset, tmp_path):
        path = tmp_path / "dataset.json"
        save_dataset_json(paper_dataset, path)
        loaded = load_dataset_json(path)
        assert loaded.name == paper_dataset.name
        assert loaded.claims.num_facts == paper_dataset.claims.num_facts
        assert loaded.claims.num_claims == paper_dataset.claims.num_claims
        assert loaded.labels == paper_dataset.labels
        assert np.array_equal(loaded.claims.claim_obs, paper_dataset.claims.claim_obs)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"name\": \"x\"}")
        with pytest.raises(DataModelError):
            load_dataset_json(path)
