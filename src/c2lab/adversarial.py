"""Gradient-driven record-size perturbation and stuffing plans.

The fast gradient sign method moves every feature one epsilon step in the
direction that increases the detector's loss. Raw FGSM output is not
realizable traffic, so it is projected: padding entries stay padding, sizes
snap to the block-cipher grid, and everything is clamped to what a record
can actually carry. A realizable vector then becomes a per-connection
stuffing plan: target sizes for whichever side (framework, payload, or both)
is allowed to stuff.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .detector import DetectorParams, input_gradient, normalize
from .model import FEATURE_LEN, Direction, FeatureVector, Label, MAX_RECORD_SIZE, PAD_VALUE, check_int, report_bytes
from .sizing import TlsSizeModel


class StuffSide(enum.Enum):
    """Which endpoint is permitted to stuff its messages."""

    FRAMEWORK_ONLY = "framework_only"
    PAYLOAD_ONLY = "payload_only"
    TWO_SIDE = "two_side"

    def covers(self, direction: Direction) -> bool:
        if self is StuffSide.TWO_SIDE:
            return True
        if self is StuffSide.FRAMEWORK_ONLY:
            return direction is Direction.FRAMEWORK_TO_PAYLOAD
        return direction is Direction.PAYLOAD_TO_FRAMEWORK


@dataclass(frozen=True)
class FgsmConfig:
    epsilon: float = 0.05
    size_model: TlsSizeModel = field(default_factory=TlsSizeModel)
    # Stuffing only adds bytes: a target below the smallest message the
    # protocol ever sends at that position is silently overshot on the wire.
    # (request_floor, response_floor) clamps crafted targets to sizes the
    # even (client) and odd (server) positions can actually realize.
    position_floors: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        if self.position_floors is not None and len(self.position_floors) != 2:
            raise ValueError("position_floors must be (request_floor, response_floor)")

    @property
    def grid_cap(self) -> int:
        # largest grid point a record may advertise
        return (MAX_RECORD_SIZE // self.size_model.block_len) * self.size_model.block_len


# Sign matrices kept by _gradient_signs; a report sweep needs two at a time.
_SIGN_CACHE_SIZE = 4
_sign_cache: OrderedDict[bytes, np.ndarray] = OrderedDict()


def _gradient_signs(params: DetectorParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Read-only np.sign of the input gradient of raw rows x under labels y.

    Neither epsilon nor a side mask enters the gradient, so the builds of one
    sweep share it. Entries are keyed on content: training updates parameters
    in place, so an identity key could return a stale detector's signs. An
    exact row set keys each entry, and a hit returns the very array a cold
    call computed.
    """
    arrays = (*params.weights, *params.biases, x, y)
    digest = hashlib.sha256(repr((params.norm_scale, [(a.shape, a.dtype.str) for a in arrays])).encode())
    for a in arrays:
        digest.update(np.ascontiguousarray(a))
    key = digest.digest()
    signs = _sign_cache.get(key)
    if signs is not None:
        _sign_cache.move_to_end(key)
        return signs
    signs = np.sign(np.atleast_2d(input_gradient(params, normalize(x, params.norm_scale), y)))
    signs.flags.writeable = False
    _sign_cache[key] = signs
    if len(_sign_cache) > _SIGN_CACHE_SIZE:
        _sign_cache.popitem(last=False)
    return signs


def fgsm_raw(
    params: DetectorParams,
    x_raw: np.ndarray,
    y: np.ndarray | int,
    epsilon: float,
    respect_padding: bool = True,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Unprojected FGSM step in raw size units: x + eps*scale*sign(grad).

    Entries with exactly zero gradient are untouched, as are padding entries
    when respect_padding is set. A mask of per-feature flags restricts the
    step to the coordinates an attacker actually controls; masked-out entries
    keep their original value. Output is float and generally off-grid.
    """
    x = np.atleast_2d(np.asarray(x_raw, dtype=np.float64))
    y_arr = np.atleast_1d(np.asarray(y, dtype=np.int64))
    signs = _gradient_signs(params, x, y_arr).copy()
    if respect_padding:
        signs[x == PAD_VALUE] = 0.0
    if mask is not None:
        signs = signs * np.atleast_2d(np.asarray(mask, dtype=np.float64))
    adv = x + epsilon * params.norm_scale * signs
    adv[signs == 0.0] = x[signs == 0.0]
    return adv if np.ndim(x_raw) > 1 else adv[0]


def fgsm_batch(
    params: DetectorParams,
    x_raw: np.ndarray,
    y: np.ndarray,
    config: FgsmConfig,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """FGSM over raw feature rows, projected to realizable record sizes."""
    x = np.atleast_2d(np.asarray(x_raw, dtype=np.float64))
    if config.epsilon == 0.0:
        return x.copy()
    adv = np.atleast_2d(fgsm_raw(params, x, y, config.epsilon, mask=mask))
    moved = adv != x
    snapped = config.size_model.snap(adv)
    floor = np.full(x.shape[1], float(config.size_model.min_framed_size()))
    if config.position_floors is not None:
        req_floor, resp_floor = config.position_floors
        floor[0::2] = np.maximum(floor[0::2], req_floor)
        floor[1::2] = np.maximum(floor[1::2], resp_floor)
    snapped = np.clip(snapped, floor, config.grid_cap)
    out = np.where(moved, snapped, x)
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class PlanTarget:
    position: int
    direction: Direction
    size: int

    def __post_init__(self) -> None:
        if not _is_int(self.position):
            raise ValueError(f"position must be an int, got {self.position!r}")
        if not _is_int(self.size):
            raise ValueError(f"size must be an int, got {self.size!r}")
        if self.position < 0:
            raise ValueError("negative plan position")
        if self.size < 1:
            raise ValueError("plan target size must be positive")


@dataclass(frozen=True)
class StuffingPlan:
    """Record-size targets for one connection.

    n_records fixes how many records the connection carries; targets cover
    the subset of positions the stuffing side controls. first_size_next_conn
    is the payload target that must be handed across the connection boundary
    with the closing response. profile, when present, records the full
    crafted size vector the plan came from (one entry per record, covered or
    not) so a scheduler can match queued traffic to the plan shape.
    """

    n_records: int
    targets: tuple[PlanTarget, ...]
    first_size_next_conn: int | None = None
    source_id: str = ""
    profile: tuple[int, ...] = ()
    # target size (or None) per record position, derived from targets
    _by_position: tuple[int | None, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        if not _is_int(self.n_records):
            raise ValueError(f"n_records must be an int, got {self.n_records!r}")
        if self.n_records < 1:
            raise ValueError("n_records must be at least 1")
        if self.first_size_next_conn is not None and not _is_int(self.first_size_next_conn):
            raise ValueError(f"first_size_next_conn must be an int or null, got {self.first_size_next_conn!r}")
        if not all(_is_int(v) for v in self.profile):
            raise ValueError("profile entries must be ints")
        if self.profile and len(self.profile) != self.n_records:
            raise ValueError("profile length must match n_records")
        by_position: list[int | None] = [None] * self.n_records
        prev = -1
        for t in self.targets:
            if t.position <= prev:
                raise ValueError("targets: positions must be strictly increasing")
            if t.position >= self.n_records:
                raise ValueError("targets: position beyond n_records")
            prev = t.position
            by_position[t.position] = t.size
        object.__setattr__(self, "_by_position", tuple(by_position))

    @property
    def n_exchanges(self) -> int:
        return math.ceil(self.n_records / 2)

    def target_at(self, position: int) -> int | None:
        if 0 <= position < self.n_records:
            return self._by_position[position]
        return None


def alternating_directions(n: int) -> tuple[Direction, ...]:
    """Request/response alternation: the client (payload) speaks on even positions."""
    first = Direction.PAYLOAD_TO_FRAMEWORK
    return tuple(first if i % 2 == 0 else first.flipped() for i in range(n))


def plan_from_adversarial(x_star: FeatureVector, side: StuffSide, source_id: str = "") -> StuffingPlan:
    """Turn a realizable adversarial vector into a stuffing plan.

    The vector's non-padding length fixes the connection's record count;
    positions the given side does not control carry no target.
    """
    n = x_star.n_records
    if n == 0:
        raise ValueError("adversarial vector has no records")
    dirs = alternating_directions(n)
    targets = tuple(
        PlanTarget(i, dirs[i], int(x_star.values[i]))
        for i in range(n)
        if side.covers(dirs[i])
    )
    profile = tuple(int(x_star.values[i]) for i in range(n))
    return StuffingPlan(n_records=n, targets=targets, source_id=source_id, profile=profile)


def stuff_amount(target_size: int, content_size: int) -> int:
    """Filler bytes needed to lift a message to its target record size.

    Content already past the target gets no filler; stuffing can only grow
    a record.
    """
    if target_size < 0 or content_size < 0:
        raise ValueError("sizes must be non-negative")
    return max(0, target_size - content_size)


def sample_plan(library: Sequence[StuffingPlan], rng: np.random.Generator) -> StuffingPlan:
    if not library:
        raise ValueError("empty plan library")
    return library[int(rng.integers(len(library)))]


def chain_plans(plans: Sequence[StuffingPlan]) -> list[StuffingPlan]:
    """Fill each plan's carry-over size from its successor's target at
    position 0, its first request (None when that position has no target)."""
    from dataclasses import replace

    chained = []
    for i, plan in enumerate(plans):
        nxt = plans[i + 1].target_at(0) if i + 1 < len(plans) else None
        chained.append(replace(plan, first_size_next_conn=nxt))
    return chained


def build_plan_library(
    params: DetectorParams,
    samples: Sequence,
    side: StuffSide,
    config: FgsmConfig,
    source_tag: str = "",
    min_exchanges: int = 2,
) -> list[StuffingPlan]:
    """FGSM every C2 sample and compile the results into stuffing plans.

    The gradient step is masked to the record positions the chosen side
    controls, so the crafted vector is exactly what the wire can realize.
    Flows shorter than min_exchanges request/response rounds are skipped:
    a connection carrying a single exchange is the very fingerprint request
    coalescing removes, and no stuffing rescues it.
    """
    feats = [
        s.features
        for s in samples
        if s.label is Label.C2 and s.features.n_records >= 2 * min_exchanges
    ]
    if not feats:
        raise ValueError(
            f"no C2 flows with at least {min_exchanges} exchanges "
            f"({2 * min_exchanges} records) to build plans from"
        )
    dirs = alternating_directions(len(feats[0].values))
    mask = np.array([side.covers(d) for d in dirs], dtype=np.float64)
    x = np.array([fv.values for fv in feats], dtype=np.float64)
    y = np.zeros(len(x), dtype=np.int64)  # true class: C2
    adv = fgsm_batch(params, x, y, config, mask=mask)
    plans = []
    for i, row in enumerate(adv):
        fv = FeatureVector(tuple(row))
        plans.append(plan_from_adversarial(fv, side, source_id=f"{source_tag}[{i}]"))
    return plans


def save_plan_library(path: str | Path, plans: Sequence[StuffingPlan], meta: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "version": 1,
        "meta": meta,
        "plans": [
            {
                "n_records": p.n_records,
                "targets": [[t.position, t.direction.value, t.size] for t in p.targets],
                "first_size_next_conn": p.first_size_next_conn,
                "source_id": p.source_id,
                "profile": list(p.profile),
            }
            for p in plans
        ],
    }
    path.write_bytes(report_bytes(doc))


def _plan_from_entry(entry) -> StuffingPlan:
    """One saved plan; errors name the offending field.

    Bounds follow what build_plan_library can produce: one record per
    feature position, sizes no larger than a record can carry.
    """
    if not isinstance(entry, dict):
        raise ValueError("must be a JSON object")
    for key in ("n_records", "targets", "first_size_next_conn"):
        if key not in entry:
            raise ValueError(f"missing field {key!r}")
    n_records = check_int("n_records", entry["n_records"], 1, FEATURE_LEN)
    targets = entry["targets"]
    if not isinstance(targets, list):
        raise ValueError("targets must be a list")
    parsed = []
    for j, item in enumerate(targets):
        if not isinstance(item, list) or len(item) != 3:
            raise ValueError(f"targets[{j}] must be [position, direction, size]")
        pos, direction, size = item
        try:
            direction = Direction(direction)
        except ValueError:
            raise ValueError(f"targets[{j}].direction {direction!r} unknown") from None
        pos = check_int(f"targets[{j}].position", pos, 0, n_records - 1)
        # target_at reads the position only: requests are even, responses odd
        if direction is not alternating_directions(pos + 1)[pos]:
            raise ValueError(f"targets[{j}].direction {direction.value!r} does not match position {pos}")
        parsed.append(PlanTarget(pos, direction, check_int(f"targets[{j}].size", size, 1, MAX_RECORD_SIZE)))
    next_size = entry["first_size_next_conn"]
    if next_size is not None:
        check_int("first_size_next_conn", next_size, 1, MAX_RECORD_SIZE)
    profile = entry.get("profile", [])
    if not isinstance(profile, list):
        raise ValueError("profile must be a list")
    for j, value in enumerate(profile):
        check_int(f"profile[{j}]", value, 0, MAX_RECORD_SIZE)
    source_id = entry.get("source_id", "")
    if not isinstance(source_id, str):
        raise ValueError("source_id must be a string")
    return StuffingPlan(
        n_records=n_records,
        targets=tuple(parsed),
        first_size_next_conn=next_size,
        source_id=source_id,
        profile=tuple(profile),
    )


def load_plan_library(path: str | Path) -> tuple[list[StuffingPlan], dict]:
    """Read a library written by save_plan_library.

    A malformed file raises ValueError naming the path, the plan index and
    the field.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValueError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: plan library must be a JSON object")
    if doc.get("version") != 1:
        raise ValueError(f"{path}: unsupported plan library version")
    entries = doc.get("plans")
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: plans must be a non-empty list")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: meta must be a JSON object")
    plans = []
    for i, entry in enumerate(entries):
        try:
            plans.append(_plan_from_entry(entry))
        except ValueError as exc:
            raise ValueError(f"{path}: plans[{i}]: {exc}") from None
    return plans, meta
