import numpy as np
import pytest
from hypothesis import given, strategies as st

from c2lab.model import (
    FEATURE_LEN,
    MAX_RECORD_SIZE,
    PAD_VALUE,
    Dataset,
    Direction,
    FeatureVector,
    FlowTrace,
    Label,
    LabeledSample,
    Provenance,
    RecordEvent,
    check_int,
    evasion_rate,
    features_from_trace,
)


def _trace(sizes, conn_id="t0"):
    records = tuple(
        RecordEvent(0.1 * i, Direction.PAYLOAD_TO_FRAMEWORK if i % 2 == 0 else Direction.FRAMEWORK_TO_PAYLOAD, s)
        for i, s in enumerate(sizes)
    )
    return FlowTrace(conn_id, records)


def test_short_flow_pads_to_twenty():
    fv = features_from_trace(_trace([288, 704, 288, 624]))
    assert fv.values[:4] == (288.0, 704.0, 288.0, 624.0)
    assert fv.values[4:] == (PAD_VALUE,) * 16


def test_single_record_flow():
    fv = features_from_trace(_trace([304]))
    assert fv.values[0] == 304.0
    assert fv.values[1:] == (PAD_VALUE,) * 19
    assert fv.n_records == 1


def test_long_flow_truncates():
    fv = features_from_trace(_trace(list(range(100, 100 + 25))))
    assert len(fv.values) == FEATURE_LEN
    assert fv.values == tuple(float(100 + i) for i in range(20))
    assert fv.n_records == 20


def test_empty_flow_has_no_features():
    with pytest.raises(ValueError):
        features_from_trace(FlowTrace("e", ()))


def test_padding_must_be_suffix():
    with pytest.raises(ValueError):
        FeatureVector((100.0, PAD_VALUE, 100.0) + (PAD_VALUE,) * 17)


def test_rejects_out_of_range_values():
    with pytest.raises(ValueError):
        FeatureVector((0.5,) + (PAD_VALUE,) * 19)
    with pytest.raises(ValueError):
        FeatureVector((float(MAX_RECORD_SIZE + 1),) + (PAD_VALUE,) * 19)
    with pytest.raises(ValueError):
        FeatureVector((104.5,) + (PAD_VALUE,) * 19)


@given(st.lists(st.integers(min_value=1, max_value=MAX_RECORD_SIZE), min_size=1, max_size=60))
def test_from_sizes_roundtrip(sizes):
    fv = FeatureVector.from_sizes(sizes)
    assert len(fv.values) == FEATURE_LEN
    assert [int(v) for v in fv.values if v != PAD_VALUE] == sizes[:FEATURE_LEN]
    assert fv.n_records == min(len(sizes), FEATURE_LEN)


def test_record_event_bounds():
    # a trace checks its records' sizes, and the error names the flow
    first = RecordEvent(0.0, Direction.PAYLOAD_TO_FRAMEWORK, 300)
    for size in (0, MAX_RECORD_SIZE + 1):
        bad = RecordEvent(1.0, Direction.FRAMEWORK_TO_PAYLOAD, size)
        with pytest.raises(ValueError, match=rf"^flow c2-4-9: record size {size} outside \[1, {MAX_RECORD_SIZE}\]$"):
            FlowTrace("c2-4-9", (first, bad))
    edge = FlowTrace("c2-4-9", (first, RecordEvent(1.0, Direction.FRAMEWORK_TO_PAYLOAD, MAX_RECORD_SIZE)))
    assert features_from_trace(edge).values[:2] == (300.0, float(MAX_RECORD_SIZE))


def test_record_event_is_the_record_tuple():
    rec = RecordEvent(1.5, Direction.FRAMEWORK_TO_PAYLOAD, 704)
    assert rec == (1.5, Direction.FRAMEWORK_TO_PAYLOAD, 704)
    timestamp, direction, size = rec
    assert (timestamp, direction, size) == (rec.timestamp, rec.direction, rec.size)


def test_flow_trace_checks_timestamps():
    out_of_order = (
        RecordEvent(2.0, Direction.PAYLOAD_TO_FRAMEWORK, 100),
        RecordEvent(1.0, Direction.FRAMEWORK_TO_PAYLOAD, 100),
    )
    with pytest.raises(ValueError, match="not monotonic"):
        FlowTrace("x", out_of_order)


def _sample(sizes, label, provenance=Provenance.REGULAR):
    return LabeledSample(FeatureVector.from_sizes(sizes), label, provenance)


def test_evasion_rate_counts_missed_c2():
    samples = [_sample([300 + i], Label.C2) for i in range(5)]
    preds = [Label.NON_C2, Label.C2, Label.NON_C2, Label.NON_C2, Label.C2]
    assert evasion_rate(samples, preds) == pytest.approx(3 / 5)


def test_evasion_rate_rejects_mixed_labels():
    samples = [_sample([300], Label.C2), _sample([400], Label.NON_C2, Provenance.WEB)]
    with pytest.raises(ValueError):
        evasion_rate(samples, [Label.C2, Label.C2])
    with pytest.raises(ValueError):
        evasion_rate([], [])
    with pytest.raises(ValueError):
        evasion_rate([samples[0]], [Label.C2, Label.C2])


def test_dataset_csv_roundtrip(tmp_path):
    ds = Dataset(
        [
            _sample([288, 704, 288, 624], Label.C2),
            _sample([1500] * 20, Label.NON_C2, Provenance.WEB),
            _sample([16408], Label.C2, Provenance.STUFF_RAND),
        ],
        seed=99,
    )
    path = tmp_path / "ds.csv"
    ds.to_csv(path)
    loaded = Dataset.from_csv(path, seed=99)
    assert loaded.samples == ds.samples
    assert len(loaded) == 3
    assert [s.label for s in loaded.samples].count(Label.C2) == 2
    assert [s.label for s in loaded.samples].count(Label.NON_C2) == 1


def test_dataset_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        Dataset.from_csv(path)


@pytest.mark.parametrize(
    "column, value, fragment",
    [
        (0, "abc", "could not convert"),
        (1, "nan", "outside"),
        (2, "16409", "outside"),
        (3, "0", "outside"),
        (4, "300.5", "non-integral"),
        (FEATURE_LEN, "benign", "unknown label"),
        (FEATURE_LEN + 1, "stuff99", "Provenance"),
        (None, None, f"expected {FEATURE_LEN + 2} columns"),
    ],
    ids=["non-numeric", "nan", "too large", "zero", "fractional", "label", "provenance", "short row"],
)
def test_dataset_csv_row_errors_name_file_and_line(tmp_path, column, value, fragment):
    path = tmp_path / "ds.csv"
    Dataset([_sample([288, 704, 288, 624, 288], Label.C2)] * 3, 0).to_csv(path)
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    if column is None:
        row = row[:-1]
    else:
        row[column] = value
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=fragment) as info:
        Dataset.from_csv(path)
    assert str(info.value).startswith(f"{path}:3: ")


@pytest.mark.parametrize("label, provenance", [("c2", "web"), ("web", "regular"), ("web", "advTwoSide")])
def test_dataset_csv_rejects_a_label_contradicting_its_provenance(tmp_path, label, provenance):
    path = tmp_path / "ds.csv"
    Dataset([_sample([288, 704], Label.C2), _sample([300, 1500], Label.NON_C2, Provenance.WEB)], 0).to_csv(path)
    lines = path.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:FEATURE_LEN] + [label, provenance])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        Dataset.from_csv(path)
    assert str(info.value) == f"{path}:3: label {label!r} contradicts provenance {provenance!r}"


@pytest.mark.parametrize("value, low, high", [(True, 0, None), (2.0, 0, None), ("3", 0, None), (-1, 0, None), (5, 1, 4)])
def test_check_int_rejects_and_names_the_field(value, low, high):
    with pytest.raises(ValueError, match=r"^sim\.x must be an integer (>=|in) "):
        check_int("sim.x", value, low, high)


def test_check_int_accepts_any_integral_within_bounds():
    assert check_int("x", 0, 0) == 0
    assert check_int("x", np.int64(4), 1, 4) == 4
