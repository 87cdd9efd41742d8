"""Core domain types shared across the traffic lab.

Flows are TCP connections carrying TLS application-data records. A flow
becomes a fixed-length feature vector (first record sizes, padded or
truncated) which the detector consumes. Labeled feature vectors are bundled
into datasets that round-trip through CSV.
"""

from __future__ import annotations

import csv
import enum
import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

FEATURE_LEN = 20
PAD_VALUE = -1.0

# Largest TLS record length field accepted anywhere (2^14 plaintext plus
# expansion allowance), also used as the normalization scale.
MAX_RECORD_SIZE = 16408


def check_int(name: str, value, low: int, high: int | None = None):
    """value, if it is an integer (not a bool) in [low, high]; else a ValueError naming name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return value


def report_bytes(report: dict) -> bytes:
    """Canonical JSON serialization of reports, manifests and plan libraries, and the determinism checks."""
    return (json.dumps(report, sort_keys=True, indent=1) + "\n").encode()


def write_rows(path: str | Path, header: list[str], rows) -> None:
    """A CSV file of a header row then an iterable of rows, in a directory made if missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class Direction(enum.Enum):
    """Which endpoint produced a record."""

    PAYLOAD_TO_FRAMEWORK = "payload_to_framework"
    FRAMEWORK_TO_PAYLOAD = "framework_to_payload"


class Label(enum.Enum):
    C2 = "c2"
    NON_C2 = "web"


class Provenance(enum.Enum):
    """How a sample was produced."""

    REGULAR = "regular"
    STUFF50 = "stuff50"
    STUFF_RAND = "stuffRand"
    FIXED3_REQ = "fixed3Req"
    RAND_REQ = "randReq"
    ADV_FRAMEWORK = "advFramework"
    ADV_PAYLOAD = "advPayload"
    ADV_TWO_SIDE = "advTwoSide"
    WEB = "web"


def label_for(provenance: Provenance) -> Label:
    """The one label a sample of this provenance can carry: web flows are NON_C2, all others C2."""
    return Label.NON_C2 if provenance is Provenance.WEB else Label.C2


class RecordEvent(NamedTuple):
    """One TLS application-data record of a connection, as its (time, direction, size) tuple.

    Attributes:
        timestamp: Seconds, relative to an arbitrary capture epoch.
        direction: Endpoint that sent the record.
        size: TLS record length field in bytes (header excluded).
    """

    timestamp: float
    direction: Direction
    size: int


@dataclass(frozen=True)
class FlowTrace:
    """All application-data records of one TCP connection, in time order."""

    connection_id: str
    records: tuple[RecordEvent, ...]

    def __post_init__(self) -> None:
        prev = None
        for timestamp, _direction, size in self.records:
            if not 1 <= size <= MAX_RECORD_SIZE:
                raise ValueError(f"flow {self.connection_id}: record size {size} outside [1, {MAX_RECORD_SIZE}]")
            if prev is not None and timestamp < prev:
                raise ValueError(f"flow {self.connection_id}: record timestamps not monotonic")
            prev = timestamp


@dataclass(frozen=True)
class FeatureVector:
    """First FEATURE_LEN record sizes of a flow, padded with PAD_VALUE."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != FEATURE_LEN:
            raise ValueError(f"expected {FEATURE_LEN} values, got {len(self.values)}")
        seen_pad = False
        for v in self.values:
            if v == PAD_VALUE:
                seen_pad = True
                continue
            if seen_pad:
                raise ValueError("padding must form a suffix")
            if not 1 <= v <= MAX_RECORD_SIZE:  # also rejects nan
                raise ValueError(f"feature value {v} outside [1, {MAX_RECORD_SIZE}]")
            if v != int(v):
                raise ValueError(f"non-integral record size {v}")

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "FeatureVector":
        vals = [float(s) for s in sizes[:FEATURE_LEN]]
        vals.extend([PAD_VALUE] * (FEATURE_LEN - len(vals)))
        return cls(tuple(vals))

    @property
    def n_records(self) -> int:
        return sum(1 for v in self.values if v != PAD_VALUE)


def features_from_trace(trace: FlowTrace) -> FeatureVector:
    """Build the feature vector for one flow.

    Records beyond FEATURE_LEN are dropped; shorter flows are padded.
    A flow without application-data records has no feature representation.
    """
    if not trace.records:
        raise ValueError(f"flow {trace.connection_id} has no application-data records")
    return FeatureVector.from_sizes([rec.size for rec in trace.records[:FEATURE_LEN]])


@dataclass(frozen=True)
class LabeledSample:
    features: FeatureVector
    label: Label
    provenance: Provenance


@dataclass
class Dataset:
    """An ordered collection of labeled samples plus the seed that built it."""

    samples: list[LabeledSample]
    seed: int

    def __len__(self) -> int:
        return len(self.samples)

    def to_csv(self, path: str | Path) -> None:
        rows = ([*map(_format_feature, s.features.values), s.label.value, s.provenance.value] for s in self.samples)
        write_rows(path, csv_header(), rows)

    @classmethod
    def from_csv(cls, path: str | Path, seed: int = 0) -> "Dataset":
        samples: list[LabeledSample] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != csv_header():
                raise ValueError(f"unexpected CSV header in {path}")
            for lineno, row in enumerate(reader, start=2):
                try:
                    if len(row) != FEATURE_LEN + 2:
                        raise ValueError(f"expected {FEATURE_LEN + 2} columns")
                    values = tuple(float(v) for v in row[:FEATURE_LEN])
                    label = _label_from_str(row[FEATURE_LEN])
                    provenance = Provenance(row[FEATURE_LEN + 1])
                    if label is not label_for(provenance):
                        raise ValueError(f"label {label.value!r} contradicts provenance {provenance.value!r}")
                    samples.append(LabeledSample(FeatureVector(values), label, provenance))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        return cls(samples, seed)


def csv_header() -> list[str]:
    return [f"f{i}" for i in range(FEATURE_LEN)] + ["label", "provenance"]


def _format_feature(v: float) -> str:
    # Sizes are integral by construction; keep the file free of float noise.
    if v != int(v):
        raise ValueError(f"non-integral feature {v}")
    return str(int(v))


def _label_from_str(s: str) -> Label:
    for label in Label:
        if label.value == s:
            return label
    raise ValueError(f"unknown label {s!r}")


def evasion_rate(samples: Sequence[LabeledSample] | Dataset, predictions: Sequence[Label]) -> float:
    """Fraction of true-C2 samples the detector called NON_C2.

    The sample set must be C2-only; mixing in benign samples would make the
    ratio meaningless.
    """
    if isinstance(samples, Dataset):
        samples = samples.samples
    if len(samples) != len(predictions):
        raise ValueError(f"{len(samples)} samples vs {len(predictions)} predictions")
    if not samples:
        raise ValueError("empty sample set")
    for s in samples:
        if s.label is not Label.C2:
            raise ValueError("evasion rate is defined over C2 samples only")
    missed = sum(1 for p in predictions if p is Label.NON_C2)
    return missed / len(samples)
