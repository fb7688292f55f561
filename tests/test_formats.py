import csv
import dataclasses
import datetime as dt
import functools
import hashlib
import io
import json
import math
import os
import stat
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import aggregated_table, canonical_table, make_config, rows_of, trace_table
from pssim import formats
from pssim.distributions import pmf_from_counts
from pssim.errors import PsSimError
from pssim.formats import (
    BENCH_HEADER,
    CANONICAL_HEADER,
    EVENTS_HEADER,
    PLOT_HEADER,
    VALIDATION_HEADER,
    load_model,
    model_to_json,
    parse_date,
    parse_timestamp,
    read_canonical,
    read_raw_reports,
    read_trace,
    save_model,
    write_bench_csv,
    write_canonical,
    write_events_csv,
    write_plot_data,
    write_trace,
    write_validation_csv,
    TRACE_HEADER,
)
from pssim.simulator import simulate
from pssim.table import ReportTable
from pssim.types import DAY_BINS, TEMPORAL_BINS, DayBin, Model, TemporalBin, weekday_of
from pssim.validation import AXES, AxisResult, ValidationReport


class TestTimestampParsing:
    def test_z_suffix_and_offsets_normalize_to_utc(self):
        utc = dt.timezone.utc
        assert parse_timestamp("2015-02-23T13:05:00Z") == dt.datetime(
            2015, 2, 23, 13, 5, tzinfo=utc
        )
        assert parse_timestamp("2015-02-23T08:05:00-05:00") == dt.datetime(
            2015, 2, 23, 13, 5, tzinfo=utc
        )

    def test_naive_timestamps_are_taken_as_utc(self):
        stamp = parse_timestamp("2015-02-23T13:05:00")
        assert stamp.tzinfo == dt.timezone.utc
        assert stamp.hour == 13

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_timestamp("not-a-date")

    def test_date_accepts_iso_and_day_first(self):
        assert parse_date("2016-01-09") == dt.date(2016, 1, 9)
        assert parse_date("09/01/2016") == dt.date(2016, 1, 9)
        with pytest.raises(PsSimError):
            parse_date("Jan 9, 2016")


class TestRawIngest:
    def test_reads_clean_file(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "timestamp,sourceId,loc,incidentType,extra\n"
            "2015-02-23T04:00:00Z,u1,Elm Street,Jam,ignored\n"
            "2015-02-23T23:30:00-05:00,u2,Route 9,Accident,ignored\n"
        )
        reports, rejects = read_raw_reports(path)
        assert rejects == {}
        assert len(reports) == 2
        (_, first_time, *_), (second_date, second_time, *_) = rows_of(reports)
        assert first_time is TemporalBin.EM
        # -05:00 offset pushes the second row to 04:30 UTC next day
        assert second_date == dt.date(2015, 2, 24)
        assert second_time is TemporalBin.EM

    def test_bad_rows_counted_by_reason(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "timestamp,sourceId,loc,incidentType\n"
            "not-a-date,u1,Elm Street,Jam\n"
            "2015-02-23T04:00:00Z,,Elm Street,Jam\n"
            "2015-02-23T04:00:00Z,u3,Elm Street,Jam\n"
        )
        reports, rejects = read_raw_reports(path)
        assert len(reports) == 1
        assert rejects == {"bad timestamp": 1, "missing sourceId": 1}

    def test_missing_header_column_is_an_error(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("when,who\n1,2\n")
        with pytest.raises(PsSimError, match="header"):
            read_raw_reports(path)

    def test_column_mapping(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(
            "when,who,street,kind\n2015-02-23T04:00:00Z,u1,Elm Street,Jam\n"
        )
        reports, rejects = read_raw_reports(
            path,
            {"timestamp": "when", "sourceId": "who", "loc": "street",
             "incidentType": "kind"},
        )
        assert rejects == {}
        assert rows_of(reports) == [(dt.date(2015, 2, 23), TemporalBin.EM, "u1", "Elm Street", "Jam")]


class TestCanonicalRoundTrip:
    def test_write_then_read(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "timestamp,sourceId,loc,incidentType\n"
            "2015-02-23T04:00:00Z,u1,Elm Street,Jam\n"
            "2015-02-24T13:00:00Z,u2,Route 9,Hazard\n"
        )
        reports, _ = read_raw_reports(raw)
        out = tmp_path / "canonical.csv"
        write_canonical(reports, out)
        back, rejects = read_canonical(out)
        assert rejects == {}
        assert rows_of(back) == rows_of(reports)

    def test_fields_with_commas_and_quotes_round_trip(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            'timestamp,sourceId,loc,incidentType\n'
            '2015-02-23T04:00:00Z,u1,"Main St, north of 5th",Jam\n'
            '2015-02-23T05:00:00Z,u2,"The ""Loop""",Accident\n'
        )
        reports, rejects = read_raw_reports(raw)
        assert rejects == {}
        assert [loc for _, _, _, loc, _ in rows_of(reports)] == ["Main St, north of 5th", 'The "Loop"']
        out = tmp_path / "canonical.csv"
        write_canonical(reports, out)
        back, _ = read_canonical(out)
        assert rows_of(back) == rows_of(reports)

    def test_bytes_equal_csv_writer_for_table_and_rows(self, tmp_path):
        import csv
        import io

        raw = tmp_path / "raw.csv"
        write_rows(raw, RAW_HEAD, [
            '2015-02-23T04:00:00Z,u1,"Main St, north of 5th",Jam',
            '2015-02-28T23:30:00-05:00,"say ""hi""",Route 9,"Road, closed"',
            '2015-03-01T13:00:00Z,u1,Route 9,Jam',
            '2015-02-23T04:10:00Z,u3,"Main St, north of 5th","Road, closed"',
        ])
        reports, rejects = read_raw_reports(raw)
        assert rejects == {}
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(CANONICAL_HEADER)
        for date, time, *rest in rows_of(reports):
            writer.writerow((date.isoformat(), weekday_of(date).label, time.label, *rest))
        table_path, rows_path = tmp_path / "table.csv", tmp_path / "rows.csv"
        write_canonical(reports, table_path)
        # the rows decoded and encoded again
        write_canonical(canonical_table(rows_of(reports)), rows_path)
        assert table_path.read_bytes() == expected.getvalue().encode()
        assert rows_path.read_bytes() == table_path.read_bytes()

    def test_bad_rows_get_fixed_reject_reasons(self, tmp_path):
        path = tmp_path / "canonical.csv"
        path.write_text(
            "date,day,time,sourceId,loc,incidentType\n"
            "never,Monday,MidDay,u1,A,Jam\n"
            "2015-02-23,Monday,Lunchtime,u2,A,Jam\n"
            "2015-02-23,Monday,MidDay,,A,Jam\n"
            "2015-02-23,Monday,MidDay,u4,A,Jam\n"
        )
        back, rejects = read_canonical(path)
        assert len(back) == 1
        assert rejects == {"bad date": 1, "bad time bin": 1, "missing field": 1}


class TestTraceFiles:
    def test_header_matches_trace_schema_order(self, tmp_path):
        trace = simulate(make_config(seed=3))
        path = tmp_path / "trace.csv"
        write_trace(trace.reports, path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(TRACE_HEADER)

    def test_lf_line_endings(self, tmp_path):
        trace = simulate(make_config(seed=3))
        path = tmp_path / "trace.csv"
        write_trace(trace.reports, path)
        assert b"\r" not in path.read_bytes()

    def test_round_trip(self, tmp_path):
        trace = simulate(make_config(seed=9, pr_lie=0.2))
        path = tmp_path / "trace.csv"
        write_trace(trace.reports, path)
        back, rejects = read_trace(path)
        assert rejects == {}
        assert rows_of(trace.reports) == rows_of(back)

    def test_rows_and_table_write_the_same_bytes(self, tmp_path):
        trace = simulate(make_config(seed=9, pr_lie=0.2))
        table_path, rows_path = tmp_path / "table.csv", tmp_path / "rows.csv"
        write_trace(trace.reports, table_path)
        # the rows decoded and encoded again: one slot per event that has reports
        rows = trace_table(rows_of(trace.reports))
        assert len(rows.event_no) < len(trace.reports.event_no)
        write_trace(rows, rows_path)
        assert rows_path.read_bytes() == table_path.read_bytes()

    def test_events_without_reports_leave_the_bytes_unchanged(self, tmp_path):
        import io

        # few participants and many events: most event slots have no report
        trace = simulate(make_config(n=4, tau=14, lambda_e=12.0, pr_lie=0.3, seed=17))
        table = trace.reports
        assert len(table.event_no) > 20 * len(np.unique(table.event)) > 0
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        writer.writerows(WRITERS["trace"][3](*row) for row in rows_of(table))
        path = tmp_path / "trace.csv"
        write_trace(table, path)
        assert path.read_bytes() == expected.getvalue().encode()

    def test_every_int64_report_number_is_written_back_as_python_writes_it(self, tmp_path):
        numbers = ["0", "-1", "007", "+5", " 42", "-9223372036854775808", "9223372036854775807"]
        path = tmp_path / "in.csv"
        path.write_text(
            ",".join(TRACE_HEADER) + "\n"
            + "".join(f"51,2016-01-09,Saturday,MidDay,{n},UID000858,Accident,Jam\n" for n in numbers)
        )
        table, rejects = read_trace(path)
        assert rejects == {}
        assert table.report_no.tolist() == [0, -1, 7, 5, 42, -(2**63), 2**63 - 1]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        writer.writerows(WRITERS["trace"][3](*row) for row in rows_of(table))
        out = tmp_path / "out.csv"
        write_trace(table, out)
        assert out.read_bytes() == expected.getvalue().encode()

    def test_each_distinct_date_day_and_time_text_is_parsed_once(self, tmp_path, monkeypatch):
        trace = simulate(make_config(n=60, tau=7, lambda_e=6.0, seed=18))
        path = tmp_path / "trace.csv"
        write_trace(trace.reports, path)
        text = path.read_text()
        assert len(text) < formats.BYTE_PATH_MIN_BYTES  # the csv.reader path
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert len({tuple(row[:4]) for row in rows}) > 2 * len({row[1] for row in rows})
        calls = {"date": [], "time": [], "day": []}

        def counted(name, parse):
            def wrapper(text):
                calls[name].append(text)
                return parse(text)

            return wrapper

        monkeypatch.setattr(formats, "parse_date", counted("date", formats.parse_date))
        monkeypatch.setattr(
            formats.TemporalBin, "from_label", counted("time", formats.TemporalBin.from_label)
        )
        monkeypatch.setattr(
            formats.DayBin, "from_label", counted("day", formats.DayBin.from_label)
        )
        (back, rejects), taken = read_by(read_trace, path)
        assert taken == "rows" and rejects == {} and rows_of(back) == rows_of(trace.reports)
        for name, column in (("date", 1), ("day", 2), ("time", 3)):
            assert sorted(calls[name]) == sorted({row[column] for row in rows})

    def test_day_first_dates_accepted(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "EventNo,Date,Day,Time,ReportNo,SourceId,EventReported,EventOccurred\n"
            "51,09/01/2016,Saturday,MidDay,112,UID000858,Accident,Jam\n"
        )
        back, rejects = read_trace(path)
        assert rejects == {}
        ((_, date, *_),) = rows_of(back)
        assert date == dt.date(2016, 1, 9)
        assert weekday_of(date) is DayBin.SATURDAY

    def test_day_date_mismatch_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        # 2016-01-09 is a Saturday; the stated Thursday must be rejected
        path.write_text(
            "EventNo,Date,Day,Time,ReportNo,SourceId,EventReported,EventOccurred\n"
            "51,09/01/2016,Thursday,MidDay,112,UID000858,Accident,Jam\n"
            "51,09/01/2016,Saturday,MidDay,113,UID000859,Jam,Jam\n"
        )
        back, rejects = read_trace(path)
        assert rejects == {"day/date mismatch": 1}
        assert len(back) == 1


# texts that csv.writer quotes, or that are more than one byte in UTF-8
WRITER_TEXTS = ("Straße", "東京", "Main St, north", 'say "hi"', " lead", "Jam")
# numbers of the integer columns, INT64_MIN and INT64_MAX among them
WRITER_NUMBERS = (0, -1, 7, -(2**63), 2**63 - 1, 10, 123456)


def writer_row(kind, i):
    """Row ``i`` of a writer's input, as its encoder in conftest takes it;
    the first few rows use every text."""
    date = dt.date(2015, 2, 23) + dt.timedelta(days=i % 3)
    time = TEMPORAL_BINS[3 * i % 8]
    a, b, c = (WRITER_TEXTS[(i + k) % 6] for k in (0, 3, 2 * i + 1))
    number = WRITER_NUMBERS[i % len(WRITER_NUMBERS)]
    if kind == "trace":
        return i % 3 - 1, date, time, number, a, b, c
    if kind == "canonical":
        return date, time, a, b, c
    return date, time, a, b, max(number, 1), frozenset({c})


# per writer: the function, its header, the encoder of its table, and the
# fields csv.writer writes for one decoded row (see rows_of) of the table
WRITERS = {
    "trace": (
        write_trace,
        TRACE_HEADER,
        trace_table,
        lambda no, date, time, *rest: (
            no, date.isoformat(), weekday_of(date).label, time.label, *rest
        ),
    ),
    "canonical": (
        write_canonical,
        CANONICAL_HEADER,
        canonical_table,
        lambda date, time, *rest: (date.isoformat(), weekday_of(date).label, time.label, *rest),
    ),
    "events": (
        write_events_csv,
        EVENTS_HEADER,
        aggregated_table,
        lambda date, time, loc, incident, support, _: (
            date.isoformat(), time.label, loc, incident, support
        ),
    ),
}


class TestWriters:
    @pytest.mark.parametrize("kind", WRITERS)
    @pytest.mark.parametrize("cut", [-1, 0, 1])
    def test_bytes_equal_csv_writer_across_chunk_cuts(self, tmp_path, monkeypatch, kind, cut):
        monkeypatch.setattr(formats, "CHUNK_ROWS", 4)
        write, header, to_table, fields = WRITERS[kind]
        table = to_table(writer_row(kind, i) for i in range(formats.CHUNK_ROWS + cut))
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        rows = [fields(*row) for row in rows_of(table)]
        writer.writerows(rows)
        assert set(WRITER_TEXTS) <= {field for row in rows for field in row}
        path = tmp_path / "out.csv"
        write(table, path)
        assert path.read_bytes() == expected.getvalue().encode()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            # CR is left out, as the writer quotes it where csv.writer may not,
            # and NUL, which csv.writer does not treat alike in every version
            st.text(
                st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\0"),
                max_size=300,
            ),
            min_size=1,
            max_size=12,
        ),
        st.lists(st.integers(0, 2**16), min_size=1, max_size=40),
    )
    def test_property_bytes_equal_csv_writer_for_any_texts(self, drawn, picks):
        # 4-byte UTF-8, U+FFFF, and texts of very different widths in one part
        texts = [*drawn, "\N{GRINNING FACE}", "\U0010ffff", "\uffff", "w" * 70, "é" * 400]
        write, header, to_table, fields = WRITERS["canonical"]
        date, n = dt.date(2016, 1, 9), len(texts)
        table = to_table(
            (date, TEMPORAL_BINS[i % 8], *(texts[(p + k) % n] for k in (0, 5, 9)))
            for i, p in enumerate([*range(n), *picks])  # every text is used
        )
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(fields(*row) for row in rows_of(table))
        with tempfile.TemporaryDirectory() as scratch, mock.patch.object(formats, "CHUNK_ROWS", 7):
            path = Path(scratch) / "out.csv"
            write(table, path)
            assert path.read_bytes() == expected.getvalue().encode()

    def test_one_wide_text_does_not_widen_every_row(self, tmp_path):
        import tracemalloc

        # 5,000 short sources and one of 100,000 bytes: one slab padded to
        # its width would take 500 MB, and a chunk of 4,096 such rows 400 MB
        sources = [f"u{i}" for i in range(5_000)] + ["w" * 100_000]
        table = canonical_table(
            (dt.date(2016, 1, 9), TEMPORAL_BINS[i % 8], source, "Elm", "Jam")
            for i, source in enumerate(sources * 2)
        )
        path = tmp_path / "canonical.csv"
        tracemalloc.start()
        try:
            write_canonical(table, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6  # measured: 3.9 MB
        rows = (
            f"2016-01-09,Saturday,{TEMPORAL_BINS[i % 8].label},{source},Elm,Jam\n"
            for i, source in enumerate(sources * 2)
        )
        assert path.read_text() == ",".join(CANONICAL_HEADER) + "\n" + "".join(rows)

    @pytest.mark.parametrize("kind", WRITERS)
    def test_empty_input_writes_the_header(self, tmp_path, kind):
        write, header, to_table, _ = WRITERS[kind]
        path = tmp_path / "out.csv"
        write(to_table([]), path)
        assert path.read_bytes() == (",".join(header) + "\n").encode()

    def test_csv_fields_quote_as_csv_writer_does(self):
        texts = ["", "a", "a,b", 'q"', " lead", "trail ", "line\nbreak", "Straße"]
        expected = []
        for text in texts:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow((text, "x"))
            expected.append(buf.getvalue()[: -len(",x\n")])
        # and a CR is quoted too, where csv.writer may leave it bare
        assert formats._csv_fields(texts + ["lone\rcr"]) == expected + ['"lone\rcr"']


def small_model():
    return Model(
        mlog=1.0986,
        sdlog=0.5,
        lambda_overall=5.625,
        lambda_by_loc={"Elm Street": 2.68, "Route 9": 1.75},
        pmf_day=pmf_from_counts({d: i + 1 for i, d in enumerate(DAY_BINS)}),
        pmf_time=pmf_from_counts({b: 1 for b in TEMPORAL_BINS}),
        pmf_ev_type=pmf_from_counts({"Accident": 1, "Jam": 3}),
    )


SMALL_META = {"window_start": "2015-02-23", "window_days": 7, "reports": 315}


class TestModelFile:
    def test_round_trip_is_byte_identical(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model(), SMALL_META, path)
        first = path.read_bytes()
        model, meta = load_model(path)
        assert (model, meta) == (small_model(), SMALL_META)
        save_model(model, meta, path)
        assert path.read_bytes() == first

    def test_loaded_pmfs_are_validated(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model(), SMALL_META, path)
        text = path.read_text().replace("0.125", "0.5")  # denormalize pmf_time
        path.write_text(text)
        with pytest.raises(PsSimError):
            load_model(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-1.75", "0"])
    def test_model_checks_fail_as_one_line_naming_the_file(self, tmp_path, value):
        path = tmp_path / "model.json"
        save_model(small_model(), SMALL_META, path)
        path.write_text(path.read_text().replace('"Route 9": 1.75', f'"Route 9": {value}'))
        with pytest.raises(PsSimError, match="Route 9") as caught:
            load_model(path)
        assert str(caught.value).startswith(f"{path}: ")
        assert "\n" not in str(caught.value)

    def test_version_checked(self, tmp_path):
        path = tmp_path / "model.json"
        text = model_to_json(small_model(), SMALL_META).replace('"version": 1', '"version": 99')
        path.write_text(text)
        with pytest.raises(PsSimError, match="version"):
            load_model(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(PsSimError):
            load_model(path)

    def test_loaded_supports_use_domain_enums(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model(), SMALL_META, path)
        model, _ = load_model(path)
        assert model.pmf_day.support == DAY_BINS
        assert model.pmf_time.support == TEMPORAL_BINS
        assert model.pmf_ev_type.support == ("Accident", "Jam")


TRACE_HEAD = "EventNo,Date,Day,Time,ReportNo,SourceId,EventReported,EventOccurred"
# 2016-01-09 is a Saturday
GOOD_ROW = "51,2016-01-09,Saturday,MidDay,112,UID000858,Accident,Jam"
# (case, row text, reject reason or None when the row is accepted)
TRACE_ROW_CASES = [
    ("well-formed", GOOD_ROW, None),
    ("short row", "51,2016-01-09,Saturday,MidDay,112,UID000858,Accident", "malformed row"),
    ("row cut before Time", "51,2016-01-09", "malformed row"),
    ("extra field", GOOD_ROW + ",surplus", None),
    ("non-integer EventNo", "5x,2016-01-09,Saturday,MidDay,112,UID000858,Accident,Jam", "malformed row"),
    ("non-integer ReportNo", "51,2016-01-09,Saturday,MidDay,1.5,UID000858,Accident,Jam", "malformed row"),
    ("blank ReportNo", "51,2016-01-09,Saturday,MidDay,,UID000858,Accident,Jam", "malformed row"),
    ("ReportNo beyond int64", "51,2016-01-09,Saturday,MidDay,9223372036854775808,UID000858,Accident,Jam", "malformed row"),
    ("EventNo beyond int64", "-9223372036854775809,2016-01-09,Saturday,MidDay,112,UID000858,Accident,Jam", "malformed row"),
    ("bad date", "51,2016-13-09,Saturday,MidDay,112,UID000858,Accident,Jam", "malformed row"),
    ("unknown time bin", "51,2016-01-09,Saturday,Lunchtime,112,UID000858,Accident,Jam", "malformed row"),
    ("unknown Day label", "51,2016-01-09,Caturday,MidDay,112,UID000858,Accident,Jam", "malformed row"),
    ("day/date mismatch", "51,2016-01-09,Thursday,MidDay,112,UID000858,Accident,Jam", "day/date mismatch"),
    ("mismatch checked before EventNo", "5x,09/01/2016,Thursday,MD,112,UID000858,Accident,Jam", "day/date mismatch"),
    ("mismatch checked before blanks", "51,2016-01-09,Thursday,MidDay,112,,,", "day/date mismatch"),
    ("blank SourceId", "51,2016-01-09,Saturday,MidDay,112,,Accident,Jam", "malformed row"),
    ("whitespace SourceId", "51,2016-01-09,Saturday,MidDay,112,  ,Accident,Jam", "malformed row"),
    ("blank EventReported", "51,2016-01-09,Saturday,MidDay,112,UID000858,,Jam", "malformed row"),
    ("blank EventOccurred", "51,2016-01-09,Saturday,MidDay,112,UID000858,Accident,", "malformed row"),
    ("blank Day is not checked", "51,09/01/2016,,MD,112, UID000858 ,Accident,Jam", None),
]


class TestTraceRejects:
    @pytest.mark.parametrize(
        "row, reason", [c[1:] for c in TRACE_ROW_CASES], ids=[c[0] for c in TRACE_ROW_CASES]
    )
    def test_each_row_gets_its_reason(self, tmp_path, row, reason):
        path = tmp_path / "trace.csv"
        path.write_text(f"{TRACE_HEAD}\n{row}\n")
        back, rejects = read_trace(path)
        if reason is None:
            assert rejects == {}
            assert rows_of(back) == [
                (51, dt.date(2016, 1, 9), TemporalBin.MD, 112, "UID000858", "Accident", "Jam")
            ]
        else:
            assert rejects == {reason: 1}
            assert len(back) == 0

    def test_mixed_file_counts(self, tmp_path):
        # every case twice, interleaved with blank lines, which are skipped
        rows = [c[1] for c in TRACE_ROW_CASES] * 2
        path = tmp_path / "trace.csv"
        path.write_text(TRACE_HEAD + "\n" + "\n\n".join(rows) + "\n")
        back, rejects = read_trace(path)
        assert rejects == {"malformed row": 28, "day/date mismatch": 6}
        assert back.report_no.tolist() == [112] * 6

    def test_columns_found_by_header_name(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "Note,EventOccurred,EventReported,SourceId,ReportNo,Time,Day,Date,EventNo\n"
            "x,Jam,Accident,UID000858,112,MidDay,Saturday,2016-01-09,51\n"
            "y,Jam,Accident,UID000858,113,MidDay,Thursday,2016-01-09,51\n"
        )
        back, rejects = read_trace(path)
        assert rejects == {"day/date mismatch": 1}
        assert rows_of(back) == [
            (51, dt.date(2016, 1, 9), TemporalBin.MD, 112, "UID000858", "Accident", "Jam")
        ]

    def test_missing_column_is_an_error(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("EventNo,Date,Day,Time,ReportNo,SourceId,EventReported\n")
        with pytest.raises(PsSimError, match="EventOccurred"):
            read_trace(path)


RAW_HEAD = "timestamp,sourceId,loc,incidentType"
GOOD_RAW = "2015-02-23T04:00:00Z,u1,Elm Street,Jam"
# (case, row text, reject reason or None when the row is accepted)
RAW_ROW_CASES = [
    ("well-formed Z", GOOD_RAW, None),
    ("+00:00 offset", "2015-02-23T04:00:00+00:00,u1,Elm Street,Jam", None),
    ("-05:00 offset", "2015-02-22T23:00:00-05:00,u1,Elm Street,Jam", None),
    ("no offset", "2015-02-23T04:00:00,u1,Elm Street,Jam", None),
    ("whitespace around fields", " 2015-02-23T04:00:00Z , u1 , Elm Street , Jam ", None),
    ("extra field", GOOD_RAW + ",surplus", None),
    ("garbage timestamp", "not-a-time,u1,Elm Street,Jam", "bad timestamp"),
    ("impossible date", "2015-02-30T04:00:00Z,u1,Elm Street,Jam", "bad timestamp"),
    ("bad Z timestamp", "2015-02-23T25:00:00Z,u1,Elm Street,Jam", "bad timestamp"),
    ("bad -05:00 offset", "2015-02-23T04:00:00-25:00,u1,Elm Street,Jam", "bad timestamp"),
    ("blank timestamp", ",u1,Elm Street,Jam", "bad timestamp"),
    ("whitespace timestamp", "   ,u1,Elm Street,Jam", "bad timestamp"),
    ("timestamp checked before fields", "not-a-time,,,", "bad timestamp"),
    ("missing sourceId", "2015-02-23T04:00:00Z,,Elm Street,Jam", "missing sourceId"),
    ("whitespace sourceId", "2015-02-23T04:00:00Z,  ,Elm Street,Jam", "missing sourceId"),
    ("sourceId checked before loc", "2015-02-23T04:00:00Z,,,Jam", "missing sourceId"),
    ("missing loc", "2015-02-23T04:00:00Z,u1,,Jam", "missing loc"),
    ("whitespace loc", "2015-02-23T04:00:00Z,u1,\t,Jam", "missing loc"),
    ("missing incidentType", "2015-02-23T04:00:00Z,u1,Elm Street,", "missing incidentType"),
    ("whitespace incidentType", "2015-02-23T04:00:00Z,u1,Elm Street, ", "missing incidentType"),
    ("row cut after sourceId", "2015-02-23T04:00:00Z,u1", "missing loc"),
    ("row cut after loc", "2015-02-23T04:00:00Z,u1,Elm Street", "missing incidentType"),
    ("only spaces", "   ", "bad timestamp"),
]


def write_rows(path, head, rows):
    path.write_text(head + "\n" + "\n".join(rows) + "\n")


class TestRawRejects:
    @pytest.mark.parametrize(
        "row, reason", [c[1:] for c in RAW_ROW_CASES], ids=[c[0] for c in RAW_ROW_CASES]
    )
    def test_each_row_gets_its_reason(self, tmp_path, row, reason):
        path = tmp_path / "raw.csv"
        write_rows(path, RAW_HEAD, [row])
        back, rejects = read_raw_reports(path)
        if reason is None:
            assert rejects == {}
            assert rows_of(back) == [(dt.date(2015, 2, 23), TemporalBin.EM, "u1", "Elm Street", "Jam")]
        else:
            assert rejects == {reason: 1}
            assert len(back) == 0

    def test_mixed_file_counts(self, tmp_path):
        # every case twice, interleaved with blank lines, which are skipped
        path = tmp_path / "raw.csv"
        path.write_text(RAW_HEAD + "\n" + "\n\n".join([c[1] for c in RAW_ROW_CASES] * 2) + "\n")
        back, rejects = read_raw_reports(path)
        assert rejects == {
            "bad timestamp": 16,
            "missing sourceId": 6,
            "missing loc": 6,
            "missing incidentType": 6,
        }
        assert rows_of(back) == [(dt.date(2015, 2, 23), TemporalBin.EM, "u1", "Elm Street", "Jam")] * 12

    def test_quoted_fields_with_commas(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_rows(path, RAW_HEAD, [
            '2015-02-23T04:00:00Z,"u1, the first","Main St, north of 5th","Jam, heavy"',
            '"2015-02-23T04:00:00Z",u2,"The ""Loop""",",,"',
            '2015-02-23T04:00:00Z,u3,",",',
        ])
        back, rejects = read_raw_reports(path)
        assert rejects == {"missing incidentType": 1}
        assert [row[2:] for row in rows_of(back)] == [
            ("u1, the first", "Main St, north of 5th", "Jam, heavy"),
            ("u2", 'The "Loop"', ",,"),
        ]

    def test_columns_found_by_header_name(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_rows(path, "note,incidentType,loc,sourceId,timestamp", [
            "x,Jam,Elm Street,u1,2015-02-23T04:00:00Z",
            "y,Jam,,u2,2015-02-23T04:00:00Z",
        ])
        back, rejects = read_raw_reports(path)
        assert rejects == {"missing loc": 1}
        assert [row[2:] for row in rows_of(back)] == [
            ("u1", "Elm Street", "Jam")
        ]

    def test_column_remapping_counts_rejects(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_rows(path, "when,who,street,kind,timestamp", [
            "2015-02-23T04:00:00Z,u1,Elm Street,Jam,garbage",
            "garbage,u2,Elm Street,Jam,2015-02-23T04:00:00Z",
            "2015-02-23T04:00:00Z,u3,,Jam,2015-02-23T04:00:00Z",
        ])
        back, rejects = read_raw_reports(
            path, {"timestamp": "when", "sourceId": "who", "loc": "street", "incidentType": "kind"}
        )
        assert rejects == {"bad timestamp": 1, "missing loc": 1}
        assert [source for _, _, source, _, _ in rows_of(back)] == ["u1"]

    def test_missing_remapped_column_is_an_error(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_rows(path, RAW_HEAD, [GOOD_RAW])
        with pytest.raises(PsSimError, match="'when'"):
            read_raw_reports(path, {"timestamp": "when"})

    def test_timestamp_out_of_range_in_utc_is_a_bad_timestamp(self, tmp_path):
        # 00:30 at +01:00 on 0001-01-01 falls before the first UTC datetime
        path = tmp_path / "raw.csv"
        write_rows(path, RAW_HEAD, ["0001-01-01T00:30:00+01:00,u1,Elm Street,Jam", GOOD_RAW])
        back, rejects = read_raw_reports(path)
        assert rejects == {"bad timestamp": 1}
        assert len(back) == 1

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("")
        with pytest.raises(PsSimError, match="missing header row"):
            read_raw_reports(path)


CANON_HEAD = ",".join(CANONICAL_HEADER)
GOOD_CANON = "2015-02-23,Monday,MidDay,u1,Elm Street,Jam"
CANON_ROW_CASES = [
    ("well-formed", GOOD_CANON, None),
    ("day-first date", "23/02/2015,Monday,MidDay,u1,Elm Street,Jam", None),
    ("short time code", "2015-02-23,Monday,MD,u1,Elm Street,Jam", None),
    ("whitespace around fields", " 2015-02-23 ,Monday, MidDay , u1 , Elm Street , Jam ", None),
    ("stated day is ignored", "2015-02-23,Caturday,MidDay,u1,Elm Street,Jam", None),
    ("extra field", GOOD_CANON + ",surplus", None),
    ("garbage date", "never,Monday,MidDay,u1,Elm Street,Jam", "bad date"),
    ("impossible ISO date", "2015-02-30,Monday,MidDay,u1,Elm Street,Jam", "bad date"),
    ("impossible day-first date", "30/02/2015,Monday,MidDay,u1,Elm Street,Jam", "bad date"),
    ("month-first date", "02/23/2015,Monday,MidDay,u1,Elm Street,Jam", "bad date"),
    ("blank date", ",Monday,MidDay,u1,Elm Street,Jam", "bad date"),
    ("date checked before time bin", "never,Monday,Lunchtime,u1,Elm Street,Jam", "bad date"),
    ("unknown time bin", "2015-02-23,Monday,Lunchtime,u1,Elm Street,Jam", "bad time bin"),
    ("blank time bin", "2015-02-23,Monday,,u1,Elm Street,Jam", "bad time bin"),
    ("time bin checked before fields", "2015-02-23,Monday,Lunchtime,,,", "bad time bin"),
    ("missing sourceId", "2015-02-23,Monday,MidDay,,Elm Street,Jam", "missing field"),
    ("missing loc", "2015-02-23,Monday,MidDay,u1,,Jam", "missing field"),
    ("missing incidentType", "2015-02-23,Monday,MidDay,u1,Elm Street,", "missing field"),
    ("whitespace sourceId", "2015-02-23,Monday,MidDay,  ,Elm Street,Jam", "missing field"),
    ("row cut after time", "2015-02-23,Monday,MidDay", "missing field"),
    ("row cut after date", "2015-02-23", "bad time bin"),
    ("only spaces", "   ", "bad date"),
]


class TestCanonicalRejects:
    @pytest.mark.parametrize(
        "row, reason", [c[1:] for c in CANON_ROW_CASES], ids=[c[0] for c in CANON_ROW_CASES]
    )
    def test_each_row_gets_its_reason(self, tmp_path, row, reason):
        path = tmp_path / "canonical.csv"
        write_rows(path, CANON_HEAD, [row])
        back, rejects = read_canonical(path)
        if reason is None:
            assert rejects == {}
            assert rows_of(back) == [(dt.date(2015, 2, 23), TemporalBin.MD, "u1", "Elm Street", "Jam")]
        else:
            assert rejects == {reason: 1}
            assert len(back) == 0

    def test_mixed_file_counts(self, tmp_path):
        path = tmp_path / "canonical.csv"
        path.write_text(CANON_HEAD + "\n" + "\n\n".join([c[1] for c in CANON_ROW_CASES] * 2) + "\n")
        back, rejects = read_canonical(path)
        assert rejects == {"bad date": 14, "bad time bin": 8, "missing field": 10}
        assert rows_of(back) == [(dt.date(2015, 2, 23), TemporalBin.MD, "u1", "Elm Street", "Jam")] * 12

    def test_quoted_fields_with_commas(self, tmp_path):
        path = tmp_path / "canonical.csv"
        write_rows(path, CANON_HEAD, [
            '2015-02-23,Monday,MidDay,"u1, the first","Main St, north of 5th","Jam, heavy"',
            '"2015-02-23","Monday","MidDay",u2,"The ""Loop""",",,"',
            '2015-02-23,Monday,MidDay,u3,",",',
        ])
        back, rejects = read_canonical(path)
        assert rejects == {"missing field": 1}
        assert [row[2:] for row in rows_of(back)] == [
            ("u1, the first", "Main St, north of 5th", "Jam, heavy"),
            ("u2", 'The "Loop"', ",,"),
        ]

    def test_columns_found_by_header_name(self, tmp_path):
        path = tmp_path / "canonical.csv"
        write_rows(path, "incidentType,loc,sourceId,note,time,day,date", [
            "Jam,Elm Street,u1,x,MidDay,Monday,2015-02-23",
            "Jam,Elm Street,u2,y,Lunchtime,Monday,2015-02-23",
        ])
        back, rejects = read_canonical(path)
        assert rejects == {"bad time bin": 1}
        assert rows_of(back) == [(dt.date(2015, 2, 23), TemporalBin.MD, "u1", "Elm Street", "Jam")]

    def test_missing_column_is_an_error(self, tmp_path):
        path = tmp_path / "canonical.csv"
        write_rows(path, "date,day,time,sourceId,loc", ["2015-02-23,Monday,MidDay,u1,A"])
        with pytest.raises(PsSimError, match="incidentType"):
            read_canonical(path)


READERS = {
    "trace": (read_trace, TRACE_HEAD, TRACE_ROW_CASES),
    "raw": (read_raw_reports, RAW_HEAD, RAW_ROW_CASES),
    "canonical": (read_canonical, CANON_HEAD, CANON_ROW_CASES),
}
PARITY_CASES = [
    (kind, row) for kind, (_, _, cases) in READERS.items() for _, row, _ in cases
]
PARITY_IDS = [f"{kind}-{case[0]}" for kind, (_, _, cases) in READERS.items() for case in cases]


def columns(table):
    """Every column (dtype and values) and vocabulary of a table."""
    out = {}
    for field in dataclasses.fields(table):
        value = getattr(table, field.name)
        out[field.name] = (value.dtype.str, value.tolist()) if isinstance(value, np.ndarray) else value
    return out


def read_by(reader, path):
    """``reader(path)`` and the path that read the rows: "sidecar", "bytes"
    or "rows" (csv.reader), or None when no row was read."""
    taken = set()

    def spy(name, function):
        def wrapper(*args, **kwargs):
            taken.add(name)
            return function(*args, **kwargs)

        return wrapper

    with mock.patch.object(
        formats, "_row_blocks", spy("rows", formats._row_blocks)
    ), mock.patch.object(
        formats._Sidecar, "values", spy("sidecar", formats._Sidecar.values)
    ), mock.patch.object(formats._ByteBlock, "__len__", spy("bytes", formats._ByteBlock.__len__)):
        result = reader(path)
    assert len(taken) <= 1, taken
    return result, (taken.pop() if taken else None)


def read_both(tmp_path, kind, body: bytes, head: str | None = None):
    """Read ``body`` under the kind's header (or ``head``) through the byte
    path and through csv.reader, forced by raising BYTE_PATH_MIN_BYTES past
    the file's size; both must give equal tables and rejects.  A sidecar
    left by an earlier write of the path is deleted first."""
    reader, default_head, _ = READERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(f"{head or default_head}\n".encode() + body)
    Path(f"{path}.cols").unlink(missing_ok=True)
    assert formats._byte_path(path)
    (table, rejects), taken = read_by(reader, path)
    assert taken == "bytes"
    with mock.patch.object(formats, "BYTE_PATH_MIN_BYTES", path.stat().st_size + 1):
        assert not formats._byte_path(path)
        (text_table, text_rejects), taken = read_by(reader, path)
        assert taken == "rows"
    assert columns(table) == columns(text_table)
    assert rejects == text_rejects
    return table, rejects


def mixed_body(kind, copies=2, newline="\n"):
    """Every case of the kind's table, ``copies`` times, between blank lines."""
    rows = [case[1] for case in READERS[kind][2]] * copies
    return (newline * 2).join(rows).encode() + newline.encode()


class TestByteAndTextPathsAgree:
    @pytest.fixture(autouse=True)
    def byte_path_for_small_files(self, monkeypatch):
        monkeypatch.setattr(formats, "BYTE_PATH_MIN_BYTES", 0)

    @pytest.mark.parametrize("kind, row", PARITY_CASES, ids=PARITY_IDS)
    def test_each_case(self, tmp_path, kind, row):
        read_both(tmp_path, kind, f"{row}\n".encode())

    @pytest.mark.parametrize(
        "kind, chunk_rows",
        [pytest.param(kind, formats.CHUNK_ROWS, id=kind) for kind in READERS]
        + [pytest.param(kind, 1, id=f"{kind}-chunk_rows=1") for kind in READERS],
    )
    def test_mixed_file(self, tmp_path, monkeypatch, kind, chunk_rows):
        # with one row per chunk, a chunk of a blank line alone does not end the read
        monkeypatch.setattr(formats, "CHUNK_ROWS", chunk_rows)
        table, rejects = read_both(tmp_path, kind, mixed_body(kind))
        assert sum(rejects.values()) + len(table) == 2 * len(READERS[kind][2])

    def test_simulated_trace(self, tmp_path):
        trace = simulate(make_config(seed=9, pr_lie=0.2, n=200))
        path = tmp_path / "trace.csv"
        write_trace(trace.reports, path)
        table, rejects = read_both(tmp_path, "trace", path.read_bytes().partition(b"\n")[2])
        assert rejects == {} and rows_of(table) == rows_of(trace.reports)

    def test_report_numbers_int_decides(self, tmp_path):
        numbers = ["0", "0001", " 112", "112 ", "+7", "-7", "1_000", "٣", "1.5", "", " ",
                   "999999999999999999", "9223372036854775807", "9223372036854775808",
                   "12345678901234567890", "0x10"]
        body = "".join(f"51,2016-01-09,Saturday,MidDay,{n},UID000858,Accident,Jam\n" for n in numbers)
        table, rejects = read_both(tmp_path, "trace", body.encode())
        assert table.report_no.tolist() == [
            0, 1, 112, 112, 7, -7, 1000, 3, 999999999999999999, 9223372036854775807
        ]
        assert rejects == {"malformed row": 6}

    def test_long_and_non_ascii_fields(self, tmp_path):
        # keys over 16 words are looked up by text, in any block
        rows = [
            "51,2016-01-09,Saturday,MidDay,1,UID000858,Accident,Jam",
            "51,2016-01-09,Saturday,MidDay,2," + "U" * 200 + ",Accident,Jam",
            "52,2016-01-09,Saturday,MidDay,3,Straße,Jam,Unfall auf der Brücke",
            "51,2016-01-09,Saturday,MidDay,4," + "U" * 200 + ",Jam,Accident",
            "5" * 150 + ",2016-01-09,Saturday,MidDay,5,UID000858,Accident,Jam",
        ]
        table, rejects = read_both(tmp_path, "trace", ("\n".join(rows) + "\n").encode())
        assert rejects == {"malformed row": 1}
        assert table.sources == ("UID000858", "U" * 200, "Straße")
        assert table.types == ("Accident", "Jam", "Unfall auf der Brücke")

    @pytest.mark.parametrize("kind", READERS)
    @pytest.mark.parametrize("block_bytes", [1, 7, 40, 64])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
    def test_block_cuts(self, tmp_path, monkeypatch, kind, block_bytes, newline):
        # rows straddle block cuts, blank lines fall on them, and the last
        # line has no line end
        body = mixed_body(kind, copies=3, newline=newline)[: -len(newline)]
        whole, whole_rejects = read_both(tmp_path, kind, body)
        monkeypatch.setattr(formats, "BLOCK_BYTES", block_bytes)
        table, rejects = read_both(tmp_path, kind, body)
        assert columns(table) == columns(whole)
        assert rejects == whole_rejects
        assert sum(rejects.values()) + len(table) == 3 * len(READERS[kind][2])

    def test_colliding_key_words_change_nothing(self, tmp_path, monkeypatch):
        # with a zero mixing constant every key sorts by its last word only,
        # so keys that share it collide and split into several groups
        trace = simulate(make_config(seed=11, pr_lie=0.3, n=300, tau=14))
        path = tmp_path / "trace.csv"
        write_trace(trace.reports, path)
        Path(f"{path}.cols").unlink()
        monkeypatch.setattr(formats, "BLOCK_BYTES", 512)
        (table, _), taken = read_by(read_trace, path)
        assert taken == "bytes"
        expected = columns(table)
        monkeypatch.setattr(formats, "_MIX", np.uint64(0))
        assert columns(read_trace(path)[0]) == expected

    def test_csv_reader_takes_quotes_nul_and_lone_cr(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(f"{TRACE_HEAD}\n{GOOD_ROW}\r{GOOD_ROW}\n", newline="")
        assert not formats._byte_path(path)  # csv.reader ends a row at a lone CR
        (table, _), taken = read_by(read_trace, path)
        assert taken == "rows" and len(table) == 2
        path.write_text(f"{TRACE_HEAD}\n{GOOD_ROW}\0\n")
        assert not formats._byte_path(path)
        try:  # csv.reader rejects NUL before Python 3.11
            with open(path, newline="") as handle:
                list(csv.reader(handle))
        except csv.Error:
            with pytest.raises(csv.Error, match="NUL"):
                read_trace(path)
        else:
            assert read_trace(path)[0].types == ("Accident", "Jam\0")

    def test_malformed_utf8_raises_on_both_paths(self, tmp_path):
        with pytest.raises(UnicodeDecodeError):
            read_both(tmp_path, "trace", GOOD_ROW.encode().replace(b"UID", b"\xffID") + b"\n")

    def test_field_size_limit_holds_on_both_paths(self, tmp_path):
        limit = csv.field_size_limit(40)
        try:
            read_both(tmp_path, "trace", GOOD_ROW.replace("UID000858", "U" * 40).encode() + b"\n")
            with pytest.raises(csv.Error, match="field limit"):
                read_both(tmp_path, "trace", GOOD_ROW.replace("UID000858", "U" * 41).encode() + b"\n")
        finally:
            csv.field_size_limit(limit)


def test_small_files_take_the_row_loop(tmp_path):
    trace = simulate(make_config(seed=9, n=2000, tau=14))
    path = tmp_path / "trace.csv"
    write_trace(trace.reports, path)
    assert path.stat().st_size >= formats.BYTE_PATH_MIN_BYTES
    assert formats._byte_path(path)
    assert read_by(read_trace, path)[1] == "sidecar"
    path.write_text(f"{TRACE_HEAD}\n{GOOD_ROW}\n")
    assert not formats._byte_path(path)
    # the sidecar of the large file is left behind, and never looked up
    with mock.patch.object(formats, "_sidecar_path", side_effect=AssertionError):
        (table, _), taken = read_by(read_trace, path)
    assert taken == "rows" and len(table) == 1


def byte_body(kind, min_bytes):
    """Copies of the kind's mixed body, at least ``min_bytes`` long."""
    one = mixed_body(kind, copies=1)
    return one * (min_bytes // len(one) + 1)


# the required names stay the same; an extra last name holds a quoted comma
QUOTED_HEADS = {
    "trace": '"EventNo",Date,"Day",Time,ReportNo,SourceId,EventReported,"EventOccurred","a, b"',
    "raw": '"timestamp",sourceId,"loc",incidentType,"a ""b"", c"',
}


@pytest.mark.parametrize("kind", QUOTED_HEADS)
def test_quoted_header_names_keep_the_byte_path(tmp_path, kind):
    body = byte_body(kind, formats.BYTE_PATH_MIN_BYTES)
    table, rejects = read_both(tmp_path, kind, body, head=QUOTED_HEADS[kind])
    plain, plain_rejects = read_both(tmp_path, kind, body)
    assert columns(table) == columns(plain) and rejects == plain_rejects
    assert len(table) > 0 and rejects


def test_header_quote_that_does_not_close_takes_csv_reader(tmp_path):
    # csv.reader reads the rest of the file into the last header name
    path = tmp_path / "raw.csv"
    path.write_bytes(f'{RAW_HEAD},"note\n'.encode() + byte_body("raw", formats.BYTE_PATH_MIN_BYTES))
    assert not formats._byte_path(path)
    (table, rejects), taken = read_by(read_raw_reports, path)
    assert taken == "rows" and len(table) == 0 and rejects == {}


def stamp_block(stamps) -> formats._ByteBlock:
    """A byte-path block whose rows hold one timestamp and one more field."""
    data = "".join(f"{stamp},x\n" for stamp in stamps).encode()
    buf = np.zeros(len(data) + len(formats._PAD), dtype=np.uint8)
    buf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    block = formats._ByteBlock(buf, len(data), {"timestamp": 0, "x": 1})
    assert len(block) == len(stamps)
    return block


STAMP_CASES = [
    # leap days
    "2000-02-29T12:00:00Z",
    "2016-02-29T12:00:00+00:00",
    "1900-02-29T12:00:00Z",
    "2015-02-29T12:00:00Z",
    "2016-02-30T12:00:00Z",
    # offsets that move the cell across a day, a month and a year
    "2015-02-23T02:59:59Z",
    "2015-02-23T03:00:00Z",
    "2015-02-23T22:00:00-05:00",
    "2016-03-01T01:30:00+02:00",
    "2015-03-31T22:00:00-05:00",
    "2015-12-31T23:59:59-00:01",
    "2016-01-01T00:00:00+00:01",
    "2016-02-28T23:00:00-01:00",
    # offsets at and past their limits
    "2015-02-23T04:00:00-00:00",
    "2015-02-23T04:00:00+23:59",
    "2015-02-23T04:00:00-23:59",
    "2015-02-23T04:00:00+24:00",
    "2015-02-23T04:00:00-24:00",
    "2015-02-23T04:00:00+05:60",
    "2015-02-23T04:00:00+0500",
    "2015-02-23T04:00:00+05",
    # times, months and days out of range
    "2015-02-23T24:00:00Z",
    "2015-02-23T23:60:00Z",
    "2015-02-23T04:00:60Z",
    "2015-00-23T04:00:00Z",
    "2015-13-23T04:00:00Z",
    "2015-04-31T04:00:00Z",
    "2015-04-00T04:00:00Z",
    # other shapes
    "2015-02-23T04:00:00z",
    "2015-02-23T04:00:00.5Z",
    "2015-02-23T04:00:00.123456+01:00",
    "2015-02-23 04:00:00Z",
    "2015-02-23t04:00:00Z",
    "2015-02-23T04:00:00",
    "2015-02-23T04:00Z",
    " 2015-02-23T04:00:00Z",
    "2015-02-23T04:00:00Z ",
    "2015-02-23T04:00:00ZZ",
    "2015-02-23T04:00:00Z+00:00",
    "2015/02/23T04:00:00Z",
    "2015-02-23T04:00:00=05:00",
    # years at datetime's ends, where an offset can overflow
    "0000-01-01T12:00:00Z",
    "0001-01-01T00:30:00+01:00",
    "0001-01-01T23:30:00-01:00",
    "0001-01-01T00:00:00Z",
    "0002-01-01T00:30:00+01:00",
    "9998-12-31T23:30:00-01:00",
    "9999-12-31T23:30:00-01:00",
    "9999-12-31T22:30:00+01:00",
    "9999-12-31T23:59:59Z",
    # non-ASCII digits
    "2015-02-2٣T04:00:00Z",
    "٢٠١٥-02-23T04:00:00Z",
    "2015-02-23T04:00:00+0٥:00",
    # not a timestamp
    "not-a-time",
    "",
    "   ",
    # the rest of the grammar, and shapes one Python version or both reject
    "2015-02-23",
    "2015-02-23T04",
    "2015-02-23T04:00:00.123Z",
    "2015-02-23T04:00:00.1234Z",
    "2015-02-23T04:00:00+05:30:15",
    "2015-02-23T04:00:00-05:30:15.250000",
    "2015-02-23T04:00:00+05:30:15.25",
    "2015-02-23_04:00:00Z",
    "2015-02-23T04:00:00 +05:00",
    "20150223T040000Z",
]

# parse_timestamp of every STAMP_CASES text as a UTC instant, None for a
# reject; literal, so that it holds on every Python version
STAMP_INSTANTS = {
    "2000-02-29T12:00:00Z": dt.datetime(2000, 2, 29, 12, 0, 0),
    "2016-02-29T12:00:00+00:00": dt.datetime(2016, 2, 29, 12, 0, 0),
    "1900-02-29T12:00:00Z": None,
    "2015-02-29T12:00:00Z": None,
    "2016-02-30T12:00:00Z": None,
    "2015-02-23T02:59:59Z": dt.datetime(2015, 2, 23, 2, 59, 59),
    "2015-02-23T03:00:00Z": dt.datetime(2015, 2, 23, 3, 0, 0),
    "2015-02-23T22:00:00-05:00": dt.datetime(2015, 2, 24, 3, 0, 0),
    "2016-03-01T01:30:00+02:00": dt.datetime(2016, 2, 29, 23, 30, 0),
    "2015-03-31T22:00:00-05:00": dt.datetime(2015, 4, 1, 3, 0, 0),
    "2015-12-31T23:59:59-00:01": dt.datetime(2016, 1, 1, 0, 0, 59),
    "2016-01-01T00:00:00+00:01": dt.datetime(2015, 12, 31, 23, 59, 0),
    "2016-02-28T23:00:00-01:00": dt.datetime(2016, 2, 29, 0, 0, 0),
    "2015-02-23T04:00:00-00:00": dt.datetime(2015, 2, 23, 4, 0, 0),
    "2015-02-23T04:00:00+23:59": dt.datetime(2015, 2, 22, 4, 1, 0),
    "2015-02-23T04:00:00-23:59": dt.datetime(2015, 2, 24, 3, 59, 0),
    "2015-02-23T04:00:00+24:00": None,
    "2015-02-23T04:00:00-24:00": None,
    "2015-02-23T04:00:00+05:60": None,
    "2015-02-23T04:00:00+0500": None,
    "2015-02-23T04:00:00+05": None,
    "2015-02-23T24:00:00Z": None,
    "2015-02-23T23:60:00Z": None,
    "2015-02-23T04:00:60Z": None,
    "2015-00-23T04:00:00Z": None,
    "2015-13-23T04:00:00Z": None,
    "2015-04-31T04:00:00Z": None,
    "2015-04-00T04:00:00Z": None,
    "2015-02-23T04:00:00z": dt.datetime(2015, 2, 23, 4, 0, 0),
    "2015-02-23T04:00:00.5Z": None,
    "2015-02-23T04:00:00.123456+01:00": dt.datetime(2015, 2, 23, 3, 0, 0, 123456),
    "2015-02-23 04:00:00Z": dt.datetime(2015, 2, 23, 4, 0, 0),
    "2015-02-23t04:00:00Z": dt.datetime(2015, 2, 23, 4, 0, 0),
    "2015-02-23T04:00:00": dt.datetime(2015, 2, 23, 4, 0, 0),
    "2015-02-23T04:00Z": dt.datetime(2015, 2, 23, 4, 0, 0),
    " 2015-02-23T04:00:00Z": dt.datetime(2015, 2, 23, 4, 0, 0),
    "2015-02-23T04:00:00Z ": dt.datetime(2015, 2, 23, 4, 0, 0),
    "2015-02-23T04:00:00ZZ": None,
    "2015-02-23T04:00:00Z+00:00": None,
    "2015/02/23T04:00:00Z": None,
    "2015-02-23T04:00:00=05:00": None,
    "0000-01-01T12:00:00Z": None,
    "0001-01-01T00:30:00+01:00": None,
    "0001-01-01T23:30:00-01:00": dt.datetime(1, 1, 2, 0, 30, 0),
    "0001-01-01T00:00:00Z": dt.datetime(1, 1, 1, 0, 0, 0),
    "0002-01-01T00:30:00+01:00": dt.datetime(1, 12, 31, 23, 30, 0),
    "9998-12-31T23:30:00-01:00": dt.datetime(9999, 1, 1, 0, 30, 0),
    "9999-12-31T23:30:00-01:00": None,
    "9999-12-31T22:30:00+01:00": dt.datetime(9999, 12, 31, 21, 30, 0),
    "9999-12-31T23:59:59Z": dt.datetime(9999, 12, 31, 23, 59, 59),
    "2015-02-2٣T04:00:00Z": None,
    "٢٠١٥-02-23T04:00:00Z": None,
    "2015-02-23T04:00:00+0٥:00": None,
    "not-a-time": None,
    "": None,
    "   ": None,
    "2015-02-23": dt.datetime(2015, 2, 23, 0, 0, 0),
    "2015-02-23T04": dt.datetime(2015, 2, 23, 4, 0, 0),
    "2015-02-23T04:00:00.123Z": dt.datetime(2015, 2, 23, 4, 0, 0, 123000),
    "2015-02-23T04:00:00.1234Z": None,
    "2015-02-23T04:00:00+05:30:15": dt.datetime(2015, 2, 22, 22, 29, 45),
    "2015-02-23T04:00:00-05:30:15.250000": dt.datetime(2015, 2, 23, 9, 30, 15, 250000),
    "2015-02-23T04:00:00+05:30:15.25": None,
    "2015-02-23_04:00:00Z": None,
    "2015-02-23T04:00:00 +05:00": None,
    "20150223T040000Z": None,
}


def test_timestamp_grammar_table():
    assert list(STAMP_INSTANTS) == STAMP_CASES
    for text, instant in STAMP_INSTANTS.items():
        if instant is None:
            with pytest.raises((ValueError, OverflowError)):
                parse_timestamp(text)
        else:
            stamp = parse_timestamp(text)
            assert stamp.tzinfo is dt.timezone.utc
            assert stamp == instant.replace(tzinfo=dt.timezone.utc), text


class TestStampCells:
    def test_each_text_as_stamp_cell_gives(self):
        cells = stamp_block(STAMP_CASES).stamp_cells("timestamp")
        assert dict(zip(STAMP_CASES, cells.tolist())) == {
            stamp: formats._stamp_cell(stamp) for stamp in STAMP_CASES
        }

    def test_valid_fixed_shapes_never_reach_python(self, monkeypatch):
        valid = [
            s for s in STAMP_CASES
            if len(s) in (20, 25) and s[10] == "T" and s[19] in "Z+-" and s.isascii()
            and 2 <= int(s[:4]) <= 9998 and (s[19] == "Z" or s[-2:] < "60")
            and formats._stamp_cell(s) >= 0
        ]
        assert len(valid) >= 15
        calls = []
        monkeypatch.setattr(formats, "_stamp_cell", lambda text: calls.append(text) or -1)
        cells = stamp_block(valid).stamp_cells("timestamp")
        assert calls == [] and (cells >= 0).all()

    def test_byte_and_text_paths_agree(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "BYTE_PATH_MIN_BYTES", 0)
        body = "".join(f"{stamp},u{i},Elm Street,Jam\n" for i, stamp in enumerate(STAMP_CASES))
        table, rejects = read_both(tmp_path, "raw", body.encode())
        accepted = [s for s in STAMP_CASES if formats._stamp_cell(s) >= 0]
        assert rejects == {"bad timestamp": len(STAMP_CASES) - len(accepted)}
        assert (table.date * 8 + table.time).tolist() == [formats._stamp_cell(s) for s in accepted]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 9999),
                st.integers(1, 12),
                st.integers(1, 31),
                st.integers(0, 23),
                st.integers(0, 59),
                st.integers(0, 59),
                st.one_of(
                    st.just("Z"),
                    st.tuples(st.sampled_from("+-"), st.integers(0, 23), st.integers(0, 59)),
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_random_fixed_shape_stamps(self, parts):
        stamps = []
        for year, month, day, hour, minute, second, offset in parts:
            if offset != "Z":
                offset = "%s%02d:%02d" % offset
            stamps.append(
                f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}{offset}"
            )
        cells = stamp_block(stamps).stamp_cells("timestamp")
        assert cells.tolist() == [formats._stamp_cell(stamp) for stamp in stamps]


# -- the column sidecar of pssim-written traces and canonical files -----------

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# texts csv.writer quotes, spaces that must survive, and non-ASCII texts
QUOTED_TEXTS = ("Road, closed", 'say "hi"', "two\nlines", "Jam")
PLAIN_TEXTS = (" lead", "trail ", "Straße", "東京", "Jam")
BLANK_TEXTS = ("", "   ")  # rows with these are rejected


def sidecar_table(kind, texts, n=11):
    """A trace or canonical table of ``n`` rows that uses every text (the
    blank ones too) as a source and a type, and ReportNo and EventNo at
    int64's ends.  Occurred types first appear before they are reported."""
    texts = list(dict.fromkeys(texts + BLANK_TEXTS))
    dates = dt.date(2016, 1, 9).toordinal() + np.arange(n) % 3
    if kind == "trace":
        event_no = np.array([INT64_MIN, INT64_MAX, 0, -1, 7])
        slots = {(int(event_no[i]), int(dates[i]), i % 8): i for i in range(len(event_no))}
        return ReportTable.from_codes(
            slots,
            np.arange(n) % len(event_no),
            np.resize([INT64_MIN, INT64_MAX, 0, -1, 112, 1], n),
            np.arange(n) % len(texts),
            {text: code for code, text in enumerate(texts)},
            (np.arange(n) + 1) % len(texts),
            np.arange(n) % len(texts),
            {text: code for code, text in enumerate(texts)},
        )
    vocab = {text: code for code, text in enumerate(texts)}
    codes = np.arange(n) % len(texts)
    return formats.CanonicalTable.from_codes(
        dates, np.arange(n) % 8, codes, vocab, (codes + 2) % len(texts), vocab,
        (codes + 1) % len(texts), vocab,
    )


SIDECAR_KINDS = {
    "trace": (write_trace, read_trace),
    "canonical": (write_canonical, read_canonical),
}


def read_every_way(reader, path, sidecar=True):
    """Read a pssim-written CSV from its sidecar (which must be declined
    when ``sidecar`` is false), from its bytes (when the byte path takes
    it) and with csv.reader; all must give equal columns, vocabularies and
    rejects."""
    (table, rejects), taken = read_by(reader, path)
    assert (taken == "sidecar") == sidecar
    cols = Path(f"{path}.cols")
    saved = cols.read_bytes()
    cols.unlink()
    others = []
    if formats._byte_path(path):
        others.append(read_by(reader, path))
        assert others[-1][1] == "bytes"
    with mock.patch.object(formats, "BYTE_PATH_MIN_BYTES", path.stat().st_size + 1):
        others.append(read_by(reader, path))
        assert others[-1][1] == "rows"
    cols.write_bytes(saved)
    for (other, other_rejects), _ in others:
        assert columns(table) == columns(other)
        assert rejects == other_rejects
    return table, rejects, len(others)


def reseal(cols: Path, edit_head=None, edit_payload=None) -> None:
    """Edit a sidecar's JSON line or payload and make its own SHA-256 match
    again, as _write_sidecar computes it."""
    line, _, payload = cols.read_bytes().partition(b"\n")
    head, payload = json.loads(line), bytearray(payload)
    if edit_head:
        edit_head(head)
    if edit_payload:
        edit_payload(head, payload)
    head["sha256"] = "0" * 64
    digest = hashlib.sha256(json.dumps(head).encode() + b"\n" + payload).hexdigest()
    head["sha256"] = digest
    cols.write_bytes(json.dumps(head).encode() + b"\n" + payload)


class TestSidecar:
    @pytest.fixture(autouse=True)
    def sidecars_for_small_files(self, monkeypatch):
        monkeypatch.setattr(formats, "BYTE_PATH_MIN_BYTES", 0)

    @pytest.mark.parametrize("kind", SIDECAR_KINDS)
    @pytest.mark.parametrize("texts", [PLAIN_TEXTS, QUOTED_TEXTS], ids=["plain", "quoted"])
    def test_every_path_reads_the_same(self, tmp_path, kind, texts):
        write, read = SIDECAR_KINDS[kind]
        path = tmp_path / f"{kind}.csv"
        write(sidecar_table(kind, texts), path)
        table, rejects, others = read_every_way(read, path)
        assert others == (2 if texts is PLAIN_TEXTS else 1)
        # stripped, as every string field is read
        assert set(table.sources) == {text.strip() for text in texts}
        assert sum(rejects.values()) > 0 and len(table) > 0
        if kind == "trace":
            assert table.report_no.tolist()[:2] == [INT64_MIN, INT64_MAX]
            assert table.event_no.tolist() == [INT64_MIN, INT64_MAX, 0, -1, 7]
            # the type a row reports is interned before the one it saw
            assert table.types[:2] == (texts[1].strip(), texts[0].strip())

    @pytest.mark.parametrize("kind", SIDECAR_KINDS)
    def test_chunk_cuts_change_nothing(self, tmp_path, monkeypatch, kind):
        write, read = SIDECAR_KINDS[kind]
        path = tmp_path / f"{kind}.csv"
        table = sidecar_table(kind, PLAIN_TEXTS + QUOTED_TEXTS, n=40)
        write(table, path)
        csv_bytes, cols_bytes = path.read_bytes(), Path(f"{path}.cols").read_bytes()
        whole, whole_rejects, _ = read_every_way(read, path)
        # sidecar columns written and the CSV hashed 8 bytes at a time, and the
        # writer's chunks and csv.reader's blocks 3 rows long
        monkeypatch.setattr(formats, "_HASH_BYTES", 8)
        monkeypatch.setattr(formats, "CHUNK_ROWS", 3)
        write(table, path)
        assert path.read_bytes() == csv_bytes
        assert Path(f"{path}.cols").read_bytes() == cols_bytes
        cut, cut_rejects, _ = read_every_way(read, path)
        assert columns(cut) == columns(whole) and cut_rejects == whole_rejects

    def test_codes_that_outgrow_one_byte_are_widened(self, tmp_path, monkeypatch):
        # 1,200 rows in csv.reader's blocks of 100, whose sources and event
        # slots pass 256 in the eleventh block: the codes of the blocks
        # before it are one byte wide
        monkeypatch.setattr(formats, "CHUNK_ROWS", 100)
        date = dt.date(2016, 1, 9)
        path = tmp_path / "trace.csv"
        write_trace(
            trace_table(
                (i // 4, date, TEMPORAL_BINS[0], i, f"S{i // 4}", "Jam", "Hazard")
                for i in range(1200)
            ),
            path,
        )
        table, rejects, _ = read_every_way(read_trace, path)
        assert rejects == {} and len(table.sources) == len(table.event_no) == 300
        assert table.source.dtype == table.event.dtype == np.uint16

    def test_simulated_trace(self, tmp_path):
        trace = simulate(make_config(seed=9, pr_lie=0.2, n=200))
        path = tmp_path / "trace.csv"
        write_trace(trace.reports, path)
        table, rejects, _ = read_every_way(read_trace, path)
        assert rejects == {} and rows_of(table) == rows_of(trace.reports)

    def test_each_text_is_resolved_once_in_first_use_order(self, tmp_path, monkeypatch):
        trace = simulate(make_config(seed=9, pr_lie=0.2, n=200))
        path = tmp_path / "trace.csv"
        write_trace(trace.reports, path)
        resolved = {}  # per lookup's columns: the texts it resolved, in order

        class Spy(formats._Lookup):
            def __init__(self, names, resolve):
                texts = resolved.setdefault(tuple(names), [])
                super().__init__(names, lambda text: texts.append(text) or resolve(text))

        monkeypatch.setattr(formats, "_Lookup", Spy)
        (table, rejects), taken = read_by(read_trace, path)
        assert taken == "sidecar" and rejects == {} and rows_of(table) == rows_of(trace.reports)
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        expected = {
            TRACE_HEADER[:4]: [tuple(row[:4]) for row in rows],
            ("SourceId",): [row[5] for row in rows],
            ("EventReported", "EventOccurred"): [tuple(row[6:]) for row in rows],
        }
        assert resolved == {names: list(dict.fromkeys(texts)) for names, texts in expected.items()}

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(INT64_MIN, INT64_MAX),
                st.text(st.sampled_from('ab ,"\n\r\xe9東'), max_size=4),
                st.text(st.sampled_from("ab ,\xe9"), max_size=3),
                st.text(st.sampled_from('ab "'), max_size=3),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_property_every_path_reads_the_same(self, rows):
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "trace.csv"
            date = dt.date(2016, 1, 9)
            write_trace(
                trace_table(
                    (i % 3, date, TEMPORAL_BINS[i % 8], number, source, a, b)
                    for i, (number, source, a, b) in enumerate(rows)
                ),
                path,
            )
            # the sidecar leaves texts with a CR to the CSV
            cr = any("\r" in text for row in rows for text in row[1:])
            table, rejects, _ = read_every_way(read_trace, path, sidecar=not cr)
        assert len(table) + sum(rejects.values()) == len(rows)

    def test_layout_is_a_json_line_and_raw_columns(self, tmp_path, monkeypatch):
        table = sidecar_table("trace", PLAIN_TEXTS)
        path = tmp_path / "trace.csv"
        replaced, replace = [], os.replace
        monkeypatch.setattr(
            formats.os, "replace", lambda a, b: replaced.append((a, b)) or replace(a, b)
        )
        write_trace(table, path)
        cols = Path(f"{path}.cols")
        assert replaced == [(f"{cols}.{os.getpid()}.tmp", str(cols))]
        line, _, payload = cols.read_bytes().partition(b"\n")
        head = json.loads(line)
        assert head["version"] == formats.SIDECAR_VERSION and head["rows"] == len(table)
        assert head["csv_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert head["header"] == list(TRACE_HEADER)
        columns_ = (table.event, table.report_no, table.source, table.reported, table.occurred)
        assert payload == b"".join(
            np.asarray(column, dtype=part["dtype"]).tobytes()
            for column, part in zip(columns_, head["parts"])
        )
        assert [part.get("decimal", False) for part in head["parts"]] == [0, 1, 0, 0, 0]

    @pytest.mark.parametrize(
        "damage",
        ["csv byte", "truncated", "version", "payload hash", "code out of range", "dtype", "header"],
    )
    def test_a_damaged_sidecar_gives_way_to_the_csv(self, tmp_path, damage):
        path = tmp_path / "trace.csv"
        write_trace(sidecar_table("trace", PLAIN_TEXTS), path)
        cols = Path(f"{path}.cols")
        if damage == "csv byte":  # a ReportNo digit, so the row still parses
            data = path.read_bytes()
            at = data.index(b",112,") + 1
            path.write_bytes(data[:at] + b"9" + data[at + 1 :])
        elif damage == "truncated":
            cols.write_bytes(cols.read_bytes()[:-1])
        elif damage == "version":
            reseal(cols, lambda head: head.update(version=formats.SIDECAR_VERSION + 1))
        elif damage == "payload hash":
            data = bytearray(cols.read_bytes())
            data[-1] ^= 1
            cols.write_bytes(bytes(data))
        elif damage == "code out of range":  # the last occurred code
            reseal(cols, edit_payload=lambda head, payload: payload.__setitem__(
                -1, len(head["parts"][-1]["texts"])
            ))
        elif damage == "dtype":  # the same width, so only the dtype is wrong
            reseal(cols, lambda head: head["parts"][-1].update(dtype="|i1"))
        else:  # a header the parts do not cover
            reseal(cols, lambda head: head["header"].append("extra"))
        (table, rejects), taken = read_by(read_trace, path)
        assert taken == "bytes"
        cols.unlink()
        expected, expected_rejects = read_trace(path)
        assert columns(table) == columns(expected) and rejects == expected_rejects

    @pytest.mark.parametrize("fault", ["temporary file", "move"])
    def test_unwritable_sidecar_leaves_the_csv(self, tmp_path, monkeypatch, fault):
        table = sidecar_table("trace", PLAIN_TEXTS)
        expected = tmp_path / "expected.csv"
        write_trace(table, expected)
        if fault == "move":
            monkeypatch.setattr(formats.os, "replace", mock.Mock(side_effect=PermissionError))
        else:
            monkeypatch.setattr(formats, "_sidecar_path", lambda path: f"{tmp_path}/no/such/dir")
        path = tmp_path / "trace.csv"
        write_trace(table, path)
        assert path.read_bytes() == expected.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["expected.csv", "expected.csv.cols", "trace.csv"]

    def test_unwritable_sidecar_lets_the_command_succeed(self, tmp_path, monkeypatch):
        from click.testing import CliRunner

        from pssim.cli import main

        monkeypatch.setattr(formats.os, "replace", mock.Mock(side_effect=PermissionError))
        out = tmp_path / "trace.csv"
        result = CliRunner().invoke(main, ["simulate", "--n", "20", "--tau", "7", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.stat().st_size > 0 and not Path(f"{out}.cols").exists()

    def test_field_size_limit_still_raises(self, tmp_path):
        path = tmp_path / "trace.csv"
        for long in ("U" * 40, "U" * 41):
            write_trace(sidecar_table("trace", PLAIN_TEXTS + (long,)), path)
            limit = csv.field_size_limit(40)
            try:
                if len(long) == 40:
                    assert read_by(read_trace, path)[1] == "sidecar"
                else:
                    with pytest.raises(csv.Error, match="field limit"):
                        read_trace(path)
                    # a changed CSV without the long field: its sidecar is not used
                    path.write_bytes(path.read_bytes().replace(long.encode(), b"U" * 40))
                    assert read_by(read_trace, path)[1] == "bytes"
            finally:
                csv.field_size_limit(limit)

    def test_grouped_keys_read_the_same(self, tmp_path, monkeypatch):
        # lookups over more code combinations group each block's keys by sorting
        path = tmp_path / "trace.csv"
        write_trace(sidecar_table("trace", PLAIN_TEXTS + QUOTED_TEXTS, n=40), path)
        expected, expected_rejects, _ = read_every_way(read_trace, path)
        monkeypatch.setattr(formats, "_DENSE_KEYS", 0)
        monkeypatch.setattr(formats, "CHUNK_ROWS", 7)
        table, rejects, _ = read_every_way(read_trace, path)
        assert columns(table) == columns(expected) and rejects == expected_rejects

    def test_any_layout_of_parts_reads_the_same(self, tmp_path):
        # parts over several columns, and EventOccurred as a decimal part that lookups use
        path = tmp_path / "trace.csv"
        codes = np.arange(12)
        formats._write_csv(
            path,
            TRACE_HEADER,
            len(codes),
            (
                formats._Texts(["51,2016-01-09,Saturday,", "52,2016-01-10,Sunday,"], codes % 2),
                formats._Texts(["MidDay,", "Lunchtime,", "Night,"], codes % 3),
                formats._Decimal(codes * 7, b","),
                formats._Texts(["u1,Jam,", '"a, b",Jam,', " ,Jam,"], codes % 3),
                formats._Decimal(codes - 3, b"\n"),
            ),
            sidecar=True,
        )
        table, rejects, _ = read_every_way(read_trace, path)
        assert len(table) > 0 and rejects["malformed row"] > 0
        read = functools.partial(
            read_raw_reports,
            column_map={
                "timestamp": "EventNo", "sourceId": "SourceId", "loc": "Time", "incidentType": "EventOccurred"
            },
        )
        stamp_cell = {"51": -1, "52": 8 * dt.date(2016, 1, 10).toordinal() + 3}.__getitem__
        with mock.patch.object(formats, "_stamp_cell", stamp_cell):
            table, rejects, _ = read_every_way(read, path)
        assert len(table) > 0 and rejects

    def test_raw_read_of_a_canonical_file_uses_its_sidecar(self, tmp_path):
        path = tmp_path / "canonical.csv"
        write_canonical(sidecar_table("canonical", PLAIN_TEXTS), path)
        read = functools.partial(read_raw_reports, column_map={"timestamp": "date"})
        table, rejects, _ = read_every_way(read, path)
        assert len(table) > 0 and rejects


def test_small_files_get_no_sidecar(tmp_path):
    trace = simulate(make_config(seed=9, n=50, tau=7))
    path = tmp_path / "trace.csv"
    with mock.patch.object(formats, "_sidecar_path", side_effect=AssertionError):
        write_trace(trace.reports, path)
        assert path.stat().st_size < formats.BYTE_PATH_MIN_BYTES
        assert read_by(read_trace, path)[1] == "rows"
    assert [p.name for p in tmp_path.iterdir()] == ["trace.csv"]


def test_write_to_a_device_gets_no_sidecar(monkeypatch):
    monkeypatch.setattr(formats, "BYTE_PATH_MIN_BYTES", 0)
    with mock.patch.object(formats, "_write_sidecar", side_effect=AssertionError):
        write_trace(simulate(make_config(seed=9, n=50, tau=7)).reports, Path(os.devnull))


READ_BY = {"bytes": formats._ByteBlock, "sidecar": formats._Sidecar, "rows": formats._RowBlock}


@pytest.mark.parametrize("kind", ["bytes", "sidecar", "rows"])
def test_rows_outside_keep_get_malformed(tmp_path, monkeypatch, kind):
    """A row outside ``keep`` gets _MALFORMED even when its text is known,
    from an earlier call or from a kept row of the same call."""
    path = tmp_path / "trace.csv"
    rows = [GOOD_ROW.replace("UID000858", source) for source in ("a", "b", "a", "c")]
    path.write_text(TRACE_HEAD + "\n" + "\n".join(rows) + "\n")
    with mock.patch.object(formats, "BYTE_PATH_MIN_BYTES", 0):
        if kind == "sidecar":
            write_trace(read_trace(path)[0], path)
        elif kind == "rows":
            monkeypatch.setattr(formats, "_byte_path", lambda path: False)
        with formats._read(path, TRACE_HEADER) as blocks:
            block, = blocks
            assert isinstance(block, READ_BY[kind])

            def values(lookup, keep=None):
                """Each row's value, from the value table and keys block.values gives."""
                table, key = block.values(lookup, keep)
                return (table if key is None else table[key]).tolist()

            values_of = {"a": 5, "b": 7, "c": 9}
            lookup = formats._Lookup(("SourceId",), values_of.__getitem__)
            assert values(lookup) == [5, 7, 5, 9]
            keep = np.array([True, False, False, False])
            assert values(lookup, keep) == [5, -1, -1, -1]
            fresh = formats._Lookup(("SourceId",), values_of.__getitem__)
            keep = np.array([False, True, False, True])
            assert values(fresh, keep) == [-1, 7, -1, 9]
            assert values(fresh, ~keep) == [5, -1, 5, -1]


def validation_reports(folds):
    """Fold reports with made-up scores, a NaN correlation among them."""

    def scores(k):
        return AxisResult(math.nan if k == 1 else 1 / (k + 1), k / 7, 10 * k, 3 * k + 1, {}, {})

    return [
        ValidationReport(fold, {axis: scores(3 * fold + j) for j, axis in enumerate(AXES)})
        for fold in range(folds)
    ]


def validation_rows(reports):
    return [
        (report.fold, axis, s.correlation, s.rmse, s.real_n, s.sim_n)
        for report in reports
        for axis in AXES
        for s in [report.axis(axis)]
    ]


# per text writer: the function, its header, a maker of an input of n
# entries, and the rows csv.writer writes for that input
TEXT_WRITERS = {
    "validation": (write_validation_csv, VALIDATION_HEADER, validation_reports, validation_rows),
    "bench": (write_bench_csv, BENCH_HEADER, lambda n: [(100 * i, 10 + i, i / 3) for i in range(n)], list),
    "plot": (
        write_plot_data,
        PLOT_HEADER,
        lambda n: [("acf", WRITER_TEXTS[i % 6], WRITER_TEXTS[i % 5], 1 / (i + 1)) for i in range(n)],
        list,
    ),
}


@pytest.mark.parametrize("kind", TEXT_WRITERS)
def test_text_writer_bytes_equal_csv_writer(tmp_path, kind):
    write, header, make, fields_of = TEXT_WRITERS[kind]
    data = make(7)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(fields_of(data))
    path = tmp_path / "out.csv"
    write(data, path)
    assert path.read_bytes() == expected.getvalue().encode()


OUTPUT_KINDS = (*WRITERS, *TEXT_WRITERS, "model", "ingest_meta")


def write_output(kind, path, big):
    """Write a long (``big``) or a short output of one kind to ``path``, and
    return the file written."""
    n = 3000 if big else 20
    if kind == "trace":
        config = make_config(seed=3, n=2000, tau=14) if big else make_config(seed=4, n=50, tau=7)
        write_trace(simulate(config).reports, path)
    elif kind in WRITERS:
        write, _, to_table, _ = WRITERS[kind]
        write(to_table(writer_row(kind, i) for i in range(n)), path)
    elif kind in TEXT_WRITERS:
        write, _, make, _ = TEXT_WRITERS[kind]
        write(make(n), path)
    elif kind == "model":
        save_model(small_model(), {"rows": list(range(n))}, path)
    else:
        formats.write_ingest_meta(path, {"rejects": {f"reason {i}": i for i in range(n)}})
        return Path(f"{path}.meta.json")
    return path


class TestOverwrite:
    """Outputs are written over from their start and cut to length."""

    @pytest.mark.parametrize("kind", OUTPUT_KINDS)
    def test_rewrite_equals_a_fresh_write(self, tmp_path, kind):
        out = write_output(kind, tmp_path / "out", big=True)
        old_size = out.stat().st_size
        assert write_output(kind, tmp_path / "out", big=False) == out
        fresh = write_output(kind, tmp_path / "fresh", big=False)
        assert out.stat().st_size < old_size
        assert out.read_bytes() == fresh.read_bytes()

    def test_no_output_is_opened_with_o_trunc(self, tmp_path):
        """On ext4, a truncating open (O_TRUNC) of an existing file frees
        its blocks at open, which is slow where the filesystem is mounted
        with discard, and makes its close start writeback (auto_da_alloc)."""
        outputs = {write_output(kind, tmp_path / kind, big=True) for kind in OUTPUT_KINDS}
        with mock.patch.object(formats.os, "open", wraps=os.open) as spy:
            for kind in OUTPUT_KINDS:
                write_output(kind, tmp_path / kind, big=False)
        assert outputs <= {Path(call.args[0]) for call in spy.call_args_list}
        assert not any(call.args[1] & os.O_TRUNC for call in spy.call_args_list)

    def test_a_failed_write_leaves_a_prefix_of_the_new_bytes(self, tmp_path, monkeypatch):
        path = write_output("trace", tmp_path / "out", big=True)
        fresh = write_output("trace", tmp_path / "fresh", big=False).read_bytes()
        decimal, calls = formats._decimal, []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("second chunk")
            return decimal(*args)

        monkeypatch.setattr(formats, "CHUNK_ROWS", 100)
        monkeypatch.setattr(formats, "_decimal", fail_second)
        with pytest.raises(RuntimeError, match="second chunk"):
            write_output("trace", path, big=False)
        # the header and the first chunk, and nothing of the old file
        assert path.read_bytes() == b"".join(fresh.splitlines(keepends=True)[:101])

    def test_a_failed_text_write_leaves_the_rows_written(self, tmp_path):
        path = write_output("plot", tmp_path / "out", big=True)

        def rows():
            yield "acf", "Elm", 1, 0.5
            raise RuntimeError("second row")

        with pytest.raises(RuntimeError, match="second row"):
            write_plot_data(rows(), path)
        assert path.read_bytes() == b"plot,series,x,y\nacf,Elm,1,0.5\n"

    def test_the_descriptor_is_closed_when_open_fails(self, tmp_path, monkeypatch):
        fds = []

        def os_open(*args, _open=os.open):
            fds.append(_open(*args))
            return fds[-1]

        monkeypatch.setattr(formats.os, "open", os_open)
        monkeypatch.setattr(formats, "open", mock.Mock(side_effect=MemoryError), raising=False)
        with pytest.raises(MemoryError):
            write_output("bench", tmp_path / "out", big=False)
        assert len(fds) == 1
        with pytest.raises(OSError):
            os.fstat(fds[0])

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_new_file_gets_the_mode_of_open_w(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            outputs = [write_output(kind, tmp_path / kind, big=False) for kind in OUTPUT_KINDS]
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
        assert [stat.S_IMODE(out.stat().st_mode) for out in outputs] == [mode] * len(outputs)

    @pytest.mark.parametrize("kind", [*TEXT_WRITERS, "model"])
    def test_text_writers_write_to_devnull(self, kind):
        write_output(kind, Path(os.devnull), big=False)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_a_fifo_gets_every_byte_and_is_not_cut(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_output("bench", fifo, big=False)
        reader.join(timeout=60)
        assert got == [write_output("bench", tmp_path / "fresh", big=False).read_bytes()]


def test_a_large_trace_rewritten_in_place_is_read_from_its_new_sidecar(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace(simulate(make_config(seed=3, n=2000, tau=14)).reports, path)
    write_trace(simulate(make_config(seed=5, n=1500, tau=14)).reports, path)
    assert path.stat().st_size >= formats.BYTE_PATH_MIN_BYTES
    (table, rejects), taken = read_by(read_trace, path)
    assert taken == "sidecar"
    Path(f"{path}.cols").unlink()
    (plain, plain_rejects), taken = read_by(read_trace, path)
    assert taken == "bytes"
    assert columns(table) == columns(plain)
    assert rejects == plain_rejects


def test_a_large_trace_rewritten_small_is_read_by_csv_reader(tmp_path):
    path, fresh = tmp_path / "trace.csv", tmp_path / "fresh.csv"
    write_trace(simulate(make_config(seed=3, n=2000, tau=14)).reports, path)
    old_sidecar = Path(f"{path}.cols").read_bytes()
    small = simulate(make_config(seed=4, n=50, tau=7)).reports
    write_trace(small, path)
    write_trace(small, fresh)
    assert path.stat().st_size < formats.BYTE_PATH_MIN_BYTES
    assert Path(f"{path}.cols").read_bytes() == old_sidecar  # still next to it
    (table, rejects), taken = read_by(read_trace, path)
    assert taken == "rows"
    (expected, expected_rejects), _ = read_by(read_trace, fresh)
    assert columns(table) == columns(expected)
    assert rejects == expected_rejects
