import csv
import dataclasses
import datetime as dt
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config
from pssim import formats
from pssim.distributions import pmf_from_counts
from pssim.errors import PsSimError
from pssim.formats import (
    CANONICAL_HEADER,
    EVENTS_HEADER,
    ModelFile,
    load_model,
    model_to_json,
    parse_date,
    parse_timestamp,
    read_canonical,
    read_raw_reports,
    read_trace,
    save_model,
    write_canonical,
    write_events_csv,
    write_trace,
    TRACE_HEADER,
)
from pssim.simulator import simulate
from pssim.table import AggregatedEventTable, ReportTable, report_columns
from pssim.types import (
    DAY_BINS,
    TEMPORAL_BINS,
    AggregatedEvent,
    DayBin,
    EventKey,
    IngestedReport,
    Report,
    TemporalBin,
    weekday_of,
)


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
        assert reports[0].time is TemporalBin.EM
        # -05:00 offset pushes the second row to 04:30 UTC next day
        assert reports[1].date == dt.date(2015, 2, 24)
        assert reports[1].time is TemporalBin.EM

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
        assert reports[0].source_id == "u1"


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
        assert back == reports

    def test_fields_with_commas_and_quotes_round_trip(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            'timestamp,sourceId,loc,incidentType\n'
            '2015-02-23T04:00:00Z,u1,"Main St, north of 5th",Jam\n'
            '2015-02-23T05:00:00Z,u2,"The ""Loop""",Accident\n'
        )
        reports, rejects = read_raw_reports(raw)
        assert rejects == {}
        assert reports[0].loc == "Main St, north of 5th"
        assert reports[1].loc == 'The "Loop"'
        out = tmp_path / "canonical.csv"
        write_canonical(reports, out)
        back, _ = read_canonical(out)
        assert back == reports

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
        for r in reports:
            writer.writerow(
                (r.date.isoformat(), r.day.label, r.time.label, r.source_id, r.loc, r.incident_type)
            )
        table_path, rows_path = tmp_path / "table.csv", tmp_path / "rows.csv"
        write_canonical(reports, table_path)
        write_canonical(iter(list(reports)), rows_path)
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
        assert list(trace.reports) == back

    def test_rows_and_table_write_the_same_bytes(self, tmp_path):
        trace = simulate(make_config(seed=9, pr_lie=0.2))
        table_path, rows_path = tmp_path / "table.csv", tmp_path / "rows.csv"
        write_trace(trace.reports, table_path)
        write_trace(iter(list(trace.reports)), rows_path)
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
        for r in table:
            writer.writerow(
                (r.event_no, r.date.isoformat(), r.day.label, r.time.label,
                 r.report_no, r.source_id, r.event_reported, r.event_occurred)
            )
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
        writer.writerows(WRITERS["trace"][3](r) for r in table)
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
        back, rejects = read_trace(path)
        assert rejects == {} and back == trace.reports
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
        assert back[0].date == dt.date(2016, 1, 9)
        assert back[0].day is DayBin.SATURDAY

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
    """Row ``i`` of a writer's input; the first few rows use every text."""
    date = dt.date(2015, 2, 23) + dt.timedelta(days=i % 3)
    time = TEMPORAL_BINS[3 * i % 8]
    a, b, c = (WRITER_TEXTS[(i + k) % 6] for k in (0, 3, 2 * i + 1))
    number = WRITER_NUMBERS[i % len(WRITER_NUMBERS)]
    if kind == "trace":
        return Report(i % 3 - 1, date, weekday_of(date), time, number, a, b, c)
    if kind == "canonical":
        return IngestedReport(date, weekday_of(date), time, a, b, c)
    return AggregatedEvent(EventKey(date, time, a, b), max(number, 1), frozenset({c}))


# per writer: the function, its header, the table of some rows, and the
# fields csv.writer writes for one row
WRITERS = {
    "trace": (
        write_trace,
        TRACE_HEADER,
        ReportTable.from_rows,
        lambda r: (r.event_no, r.date.isoformat(), r.day.label, r.time.label, r.report_no,
                   r.source_id, r.event_reported, r.event_occurred),
    ),
    "canonical": (
        write_canonical,
        CANONICAL_HEADER,
        lambda rows: report_columns(rows)[0],
        lambda r: (r.date.isoformat(), r.day.label, r.time.label, r.source_id, r.loc,
                   r.incident_type),
    ),
    "events": (
        write_events_csv,
        EVENTS_HEADER,
        AggregatedEventTable.from_rows,
        lambda e: (e.key.date.isoformat(), e.key.day_time.label, e.key.loc,
                   e.key.incident_type, e.support_count),
    ),
}


class TestWriters:
    @pytest.mark.parametrize("kind", WRITERS)
    @pytest.mark.parametrize("cut", [-1, 0, 1])
    def test_bytes_equal_csv_writer_across_chunk_cuts(self, tmp_path, monkeypatch, kind, cut):
        monkeypatch.setattr(formats, "CHUNK_ROWS", 4)
        write, header, to_table, fields = WRITERS[kind]
        rows = [writer_row(kind, i) for i in range(formats.CHUNK_ROWS + cut)]
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(fields, rows))
        expected = expected.getvalue().encode()
        assert set(WRITER_TEXTS) <= {field for row in rows for field in fields(row)}
        table_path, rows_path = tmp_path / "table.csv", tmp_path / "rows.csv"
        write(to_table(rows), table_path)
        write(iter(rows), rows_path)
        assert table_path.read_bytes() == expected
        assert rows_path.read_bytes() == expected

    @pytest.mark.parametrize("kind", WRITERS)
    def test_empty_input_writes_the_header(self, tmp_path, kind):
        write, header, to_table, _ = WRITERS[kind]
        path = tmp_path / "out.csv"
        write(iter([]), path)
        assert path.read_bytes() == (",".join(header) + "\n").encode()

    def test_csv_fields_quote_as_csv_writer_does(self):
        texts = ["", "a", "a,b", 'q"', " lead", "trail ", "line\nbreak", "lone\rcr", "Straße"]
        expected = []
        for text in texts:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow((text, "x"))
            expected.append(buf.getvalue()[: -len(",x\n")])
        assert formats._csv_fields(texts) == expected


def small_model():
    return ModelFile(
        mlog=1.0986,
        sdlog=0.5,
        lambda_overall=5.625,
        lambda_by_loc={"Elm Street": 2.68, "Route 9": 1.75},
        pmf_day=pmf_from_counts({d: i + 1 for i, d in enumerate(DAY_BINS)}),
        pmf_time=pmf_from_counts({b: 1 for b in TEMPORAL_BINS}),
        pmf_ev_type=pmf_from_counts({"Accident": 1, "Jam": 3}),
        meta={"window_start": "2015-02-23", "window_days": 7, "reports": 315},
    )


class TestModelFile:
    def test_round_trip_is_byte_identical(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model(), path)
        first = path.read_bytes()
        save_model(load_model(path), path)
        assert path.read_bytes() == first

    def test_loaded_pmfs_are_validated(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model(), path)
        text = path.read_text().replace("0.125", "0.5")  # denormalize pmf_time
        path.write_text(text)
        with pytest.raises(PsSimError):
            load_model(path)

    def test_version_checked(self, tmp_path):
        path = tmp_path / "model.json"
        text = model_to_json(small_model()).replace('"version": 1', '"version": 99')
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
        save_model(small_model(), path)
        model = load_model(path)
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
            assert len(back) == 1
            got = back[0]
            assert (got.event_no, got.date, got.day, got.time) == (
                51, dt.date(2016, 1, 9), DayBin.SATURDAY, TemporalBin.MD
            )
            assert (got.report_no, got.source_id) == (112, "UID000858")
            assert (got.event_reported, got.event_occurred) == ("Accident", "Jam")
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
        assert len(back) == 6
        assert [r.report_no for r in back] == [112] * 6

    def test_columns_found_by_header_name(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "Note,EventOccurred,EventReported,SourceId,ReportNo,Time,Day,Date,EventNo\n"
            "x,Jam,Accident,UID000858,112,MidDay,Saturday,2016-01-09,51\n"
            "y,Jam,Accident,UID000858,113,MidDay,Thursday,2016-01-09,51\n"
        )
        back, rejects = read_trace(path)
        assert rejects == {"day/date mismatch": 1}
        assert [(r.event_no, r.report_no, r.event_reported) for r in back] == [
            (51, 112, "Accident")
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
            assert len(back) == 1
            got = back[0]
            assert (got.date, got.day, got.time) == (
                dt.date(2015, 2, 23), DayBin.MONDAY, TemporalBin.EM
            )
            assert (got.source_id, got.loc, got.incident_type) == ("u1", "Elm Street", "Jam")
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
        assert len(back) == 12
        assert {(r.date, r.time, r.source_id, r.loc, r.incident_type) for r in back} == {
            (dt.date(2015, 2, 23), TemporalBin.EM, "u1", "Elm Street", "Jam")
        }

    def test_quoted_fields_with_commas(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_rows(path, RAW_HEAD, [
            '2015-02-23T04:00:00Z,"u1, the first","Main St, north of 5th","Jam, heavy"',
            '"2015-02-23T04:00:00Z",u2,"The ""Loop""",",,"',
            '2015-02-23T04:00:00Z,u3,",",',
        ])
        back, rejects = read_raw_reports(path)
        assert rejects == {"missing incidentType": 1}
        assert [(r.source_id, r.loc, r.incident_type) for r in back] == [
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
        assert [(r.source_id, r.loc, r.incident_type) for r in back] == [
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
        assert [r.source_id for r in back] == ["u1"]

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
            assert len(back) == 1
            got = back[0]
            assert (got.date, got.day, got.time) == (
                dt.date(2015, 2, 23), DayBin.MONDAY, TemporalBin.MD
            )
            assert (got.source_id, got.loc, got.incident_type) == ("u1", "Elm Street", "Jam")
        else:
            assert rejects == {reason: 1}
            assert len(back) == 0

    def test_mixed_file_counts(self, tmp_path):
        path = tmp_path / "canonical.csv"
        path.write_text(CANON_HEAD + "\n" + "\n\n".join([c[1] for c in CANON_ROW_CASES] * 2) + "\n")
        back, rejects = read_canonical(path)
        assert rejects == {"bad date": 14, "bad time bin": 8, "missing field": 10}
        assert len(back) == 12
        assert {(r.date, r.time, r.source_id, r.loc, r.incident_type) for r in back} == {
            (dt.date(2015, 2, 23), TemporalBin.MD, "u1", "Elm Street", "Jam")
        }

    def test_quoted_fields_with_commas(self, tmp_path):
        path = tmp_path / "canonical.csv"
        write_rows(path, CANON_HEAD, [
            '2015-02-23,Monday,MidDay,"u1, the first","Main St, north of 5th","Jam, heavy"',
            '"2015-02-23","Monday","MidDay",u2,"The ""Loop""",",,"',
            '2015-02-23,Monday,MidDay,u3,",",',
        ])
        back, rejects = read_canonical(path)
        assert rejects == {"missing field": 1}
        assert [(r.source_id, r.loc, r.incident_type) for r in back] == [
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
        assert [(r.date, r.time, r.source_id) for r in back] == [
            (dt.date(2015, 2, 23), TemporalBin.MD, "u1")
        ]

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


def read_both(tmp_path, kind, body: bytes, head: str | None = None):
    """Read ``body`` under the kind's header (or ``head``) through the byte
    path and through csv.reader, forced by raising BYTE_PATH_MIN_BYTES past
    the file's size; both must give equal tables and rejects."""
    reader, default_head, _ = READERS[kind]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(f"{head or default_head}\n".encode() + body)
    assert formats._byte_path(path)
    table, rejects = reader(path)
    with mock.patch.object(formats, "BYTE_PATH_MIN_BYTES", path.stat().st_size + 1):
        assert not formats._byte_path(path)
        text_table, text_rejects = reader(path)
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

    @pytest.mark.parametrize("kind", READERS)
    def test_mixed_file(self, tmp_path, kind):
        table, rejects = read_both(tmp_path, kind, mixed_body(kind))
        assert sum(rejects.values()) + len(table) == 2 * len(READERS[kind][2])

    def test_simulated_trace(self, tmp_path):
        trace = simulate(make_config(seed=9, pr_lie=0.2, n=200))
        path = tmp_path / "trace.csv"
        write_trace(trace.reports, path)
        table, rejects = read_both(tmp_path, "trace", path.read_bytes().partition(b"\n")[2])
        assert rejects == {} and table == trace.reports

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
        monkeypatch.setattr(formats, "BLOCK_BYTES", 512)
        expected = columns(read_trace(path)[0])
        monkeypatch.setattr(formats, "_MIX", np.uint64(0))
        assert columns(read_trace(path)[0]) == expected

    def test_csv_reader_takes_quotes_nul_and_lone_cr(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(f"{TRACE_HEAD}\n{GOOD_ROW}\r{GOOD_ROW}\n", newline="")
        assert not formats._byte_path(path)  # csv.reader ends a row at a lone CR
        assert len(read_trace(path)[0]) == 2
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
    path.write_text(f"{TRACE_HEAD}\n{GOOD_ROW}\n")
    assert not formats._byte_path(path)


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
    table, rejects = read_raw_reports(path)
    assert len(table) == 0 and rejects == {}


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
]


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
