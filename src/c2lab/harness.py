"""End-to-end experiment orchestration.

Three stages: a baseline detector against naive reshaping, a reshaping-aware
detector against gradient-guided stuffing, and wire-cost accounting of the
winning configuration. Every stage draws its randomness from named
substreams of one master seed, and every reported number can be recomputed
from the files the run leaves behind. The first two stages share nothing,
so run_full_experiment runs them side by side in worker processes.
"""

from __future__ import annotations

import gc
import math
import os
import sys
import zlib
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from . import adversarial as adv
from . import detector as det
from .adversarial import FgsmConfig, StuffSide
from .model import (
    Dataset, Label, LabeledSample, Provenance, check_int, evasion_rate, features_from_trace, label_for, report_bytes, write_rows
)
from .sim import (
    NAIVE_MODES,
    Adversarial,
    GeneratedFlows,
    Mode,
    SimConfig,
    WebConfig,
    conn_shape,
    generate_c2_traces,
    generate_web_traces,
    interactive_script,
    simulate_session,
    substream,
)


def seed_for(master: int, name: str) -> int:
    return (master * 1_000_003 + zlib.crc32(name.encode())) % (2**31 - 1)


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int = 7
    n_train: int = 6000  # per class, baseline detector
    n_test: int = 1500  # per class, held-out accuracy
    n_eval: int = 2000  # per reshaping mode
    n_aware_regular: int = 3000
    n_aware_randreq: int = 3000
    n_adv_eval: int = 1500  # per stuffing side per epsilon
    # Larger steps keep gaining evasion but cost wire bytes roughly linearly;
    # past 0.05 the stuffing outruns what connection coalescing saves.
    epsilon_sweep: tuple[float, ...] = (0.01, 0.03, 0.05)
    overhead_runs: int = 20
    sim: SimConfig = field(default_factory=SimConfig)
    web: WebConfig = field(default_factory=WebConfig)
    train: det.TrainConfig = field(default_factory=det.TrainConfig)

    def __post_init__(self) -> None:
        for name in ("n_train", "n_test", "n_eval", "n_aware_regular", "n_aware_randreq", "n_adv_eval", "overhead_runs"):
            # zero overhead runs skips that stage
            check_int(name, getattr(self, name), 0 if name == "overhead_runs" else 1)
        if not self.epsilon_sweep:
            raise ValueError("epsilon_sweep must not be empty")
        for i, eps in enumerate(self.epsilon_sweep):
            if not (math.isfinite(eps) and eps > 0):
                raise ValueError(f"epsilon_sweep[{i}] must be finite and > 0, got {eps!r}")
            if eps in self.epsilon_sweep[:i]:
                raise ValueError(f"epsilon_sweep[{i}] repeats {eps!r}")

    def to_dict(self) -> dict:
        """The config as a JSON-ready document that from_dict reads back unchanged."""
        return _section_to_dict(self, "")

    @classmethod
    def from_dict(cls, doc) -> "ExperimentConfig":
        """The defaults overridden by a config document; a bad key raises ValueError naming its path."""
        return _section_from_dict(cls(), doc, "")

    def scaled(self, factor: float) -> "ExperimentConfig":
        """Shrink every dataset size for quick runs; structure unchanged."""

        def s(n: int, floor: int = 40) -> int:
            return max(floor, int(n * factor))

        return replace(
            self,
            n_train=s(self.n_train, 200),
            n_test=s(self.n_test, 80),
            n_eval=s(self.n_eval, 80),
            n_aware_regular=s(self.n_aware_regular, 100),
            n_aware_randreq=s(self.n_aware_randreq, 100),
            n_adv_eval=s(self.n_adv_eval, 80),
            overhead_runs=max(3, int(self.overhead_runs * factor)),
        )


# Fields a run derives rather than reads: each stage sets its datasets' traffic
# mode and seed and its detector's training seed.
NOT_CONFIG_KEYS = frozenset({"sim.mode", "sim.seed", "train.seed"})
# Nested sections whose keys sit directly in the parent's section.
_INLINE_SECTIONS = frozenset({"sim.size_model"})


def _config_fields(section, prefix: str):
    """(key path, field name, value) for each field of a section that is a config key."""
    for f in fields(section):
        path = prefix + f.name
        if path not in NOT_CONFIG_KEYS:
            yield path, f.name, getattr(section, f.name)


def _section_to_dict(section, prefix: str) -> dict:
    doc = {}
    for path, name, value in _config_fields(section, prefix):
        if path in _INLINE_SECTIONS:
            doc.update(_section_to_dict(value, prefix))
        elif is_dataclass(value):
            doc[name] = _section_to_dict(value, path + ".")
        else:
            doc[name] = list(value) if isinstance(value, tuple) else value
    return doc


def _section_from_dict(section, doc, prefix: str):
    if not isinstance(doc, dict):
        raise ValueError(f"{prefix[:-1] or 'config'} must be an object, got {type(doc).__name__}")
    rest = dict(doc)
    changes = {}
    for path, name, value in _config_fields(section, prefix):
        if path in _INLINE_SECTIONS:
            inline = {n for _, n, _ in _config_fields(value, prefix)} & rest.keys()
            changes[name] = _section_from_dict(value, {k: rest.pop(k) for k in inline}, prefix)
        elif name in rest:
            raw = rest.pop(name)
            changes[name] = _section_from_dict(value, raw, path + ".") if is_dataclass(value) else _leaf(value, raw, path)
    if rest:
        raise ValueError(f"{prefix}{next(iter(rest))}: unknown config key")
    try:
        return replace(section, **changes)
    except ValueError as exc:  # range checks name the field; add the section
        raise ValueError(f"{prefix}{exc}") from None


def _leaf(default, value, path: str):
    """A JSON value checked against the type of the field's default."""
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ValueError(f"{path}: expected a list, got {value!r}")
        return tuple(_leaf(default[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    kind, types = ("a finite number", (int, float)) if isinstance(default, float) else ("an integer", int)
    if isinstance(value, bool) or not isinstance(value, types) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{path}: expected {kind}, got {value!r}")
    return type(default)(value)


MODE_PROVENANCES = NAIVE_MODES

ADV_PROVENANCE = {
    StuffSide.FRAMEWORK_ONLY: Provenance.ADV_FRAMEWORK,
    StuffSide.PAYLOAD_ONLY: Provenance.ADV_PAYLOAD,
    StuffSide.TWO_SIDE: Provenance.ADV_TWO_SIDE,
}


def attack_config(ec: ExperimentConfig, epsilon: float) -> FgsmConfig:
    """FGSM projection bounds implied by the beacon's smallest messages.

    A crafted target below the bare poll or ack is unrealizable: stuffing
    only grows records, so the wire would overshoot it every time.
    """
    frame = ec.sim.size_model.framed_size
    req_floor = frame(min(ec.sim.get_base, ec.sim.post_base) - ec.sim.url_jitter)
    resp_floor = frame(ec.sim.response_base - ec.sim.response_jitter)
    return FgsmConfig(
        epsilon=epsilon,
        size_model=ec.sim.size_model,
        position_floors=(req_floor, resp_floor),
    )


def mode_for(provenance: Provenance, library: tuple = ()) -> Mode:
    """The traffic mode whose flows carry a C2 provenance: naive ones are their own mode."""
    if provenance in NAIVE_MODES:
        return provenance
    for side, prov in ADV_PROVENANCE.items():
        if prov is provenance:
            return Adversarial(side, tuple(library))
    raise ValueError(f"no traffic mode for provenance {provenance}")


def write_predictions(path: str | Path, ds: Dataset, predictions: list[Label]) -> None:
    """One index,provenance,label,predicted row per sample."""
    rows = ([i, s.provenance.value, s.label.value, pred.value] for i, (s, pred) in enumerate(zip(ds.samples, predictions)))
    write_rows(path, ["index", "provenance", "label", "predicted"], rows)


class Artifacts:
    """Collects the run's files; a None root disables persistence."""

    def __init__(self, root: str | Path | None):
        self.root = Path(root) if root is not None else None
        self.files: list[str] = []
        self.notes: list[str] = []

    def save(self, rel: str, write) -> None:
        """write(path) the file at rel under the root, listed in the manifest; nothing without a root."""
        if self.root is None:
            return
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        self.files.append(rel)
        write(path)

    def write_manifest(self) -> None:
        if self.root is None:
            return
        manifest = {"files": sorted(self.files), "notes": sorted(self.notes)}
        (self.root / "manifest.json").write_bytes(report_bytes(manifest))


# ---------------------------------------------------------------------------
# dataset construction

def build_dataset(
    provenance: Provenance,
    n: int,
    ec: ExperimentConfig,
    stage: str,
    library: tuple = (),
) -> tuple[Dataset, GeneratedFlows]:
    """Labeled flows of one provenance, seeded by (master, stage, provenance)."""
    seed = seed_for(ec.master_seed, f"{stage}-{provenance.value}")
    if provenance is Provenance.WEB:
        flows = generate_web_traces(n, seed, ec.web)
    else:
        cfg = replace(ec.sim, mode=mode_for(provenance, library), seed=seed)
        flows = generate_c2_traces(n, cfg)
    label = label_for(provenance)
    samples = [LabeledSample(features_from_trace(t), label, provenance) for t in flows.traces]
    return Dataset(samples, seed), flows


def _train_stage(
    ec: ExperimentConfig, artifacts: Artifacts, stage: str, parts: tuple, detector_name: str
) -> tuple[det.DetectorParams, list[dict], Dataset, Dataset]:
    """Build, split and save one detector's datasets, then train and save it.

    parts holds (provenance, n_fit, n_held) per dataset, in order: each is
    built for the stage, its first n_fit samples go to training and the rest
    to the held-out test set. Returns params, history, train and test sets.
    """
    built = [(build_dataset(provenance, n_fit + n_held, ec, stage)[0], n_fit) for provenance, n_fit, n_held in parts]
    seed = built[0][0].seed
    train_ds = Dataset([s for ds, n_fit in built for s in ds.samples[:n_fit]], seed)
    test_ds = Dataset([s for ds, n_fit in built for s in ds.samples[n_fit:]], seed)
    artifacts.save(f"datasets/{stage}_train.csv", train_ds.to_csv)
    artifacts.save(f"datasets/{stage}_test.csv", test_ds.to_csv)
    params, history = det.train(train_ds, replace(ec.train, seed=seed_for(ec.master_seed, f"{stage}-train")))
    artifacts.save(f"{detector_name}.bin", params.save)
    return params, history, train_ds, test_ds


def _evaluate_evasion(
    params: det.DetectorParams, ds: Dataset, artifacts: Artifacts, name: str
) -> dict:
    predictions = det.predict(params, [s.features for s in ds.samples])
    artifacts.save(f"predictions/{name}.csv", lambda path: write_predictions(path, ds, predictions))
    rate = evasion_rate(ds, predictions)
    return {
        "n": len(ds),
        "missed": int(round(rate * len(ds))),
        "evasion_rate": rate,
    }


# ---------------------------------------------------------------------------
# stage 1: baseline detector vs naive reshaping

def run_threat_model_1(ec: ExperimentConfig, artifacts: Artifacts) -> dict:
    parts = ((Provenance.REGULAR, ec.n_train, ec.n_test), (Provenance.WEB, ec.n_train, ec.n_test))
    params, history, train_ds, test_ds = _train_stage(ec, artifacts, "tm1", parts, "detector_baseline")
    acc = det.accuracy(params, test_ds)

    evasion = {}
    for prov in MODE_PROVENANCES:
        eval_ds, _ = build_dataset(prov, ec.n_eval, ec, "tm1-eval")
        artifacts.save(f"datasets/eval_{prov.value}.csv", eval_ds.to_csv)
        evasion[prov.value] = _evaluate_evasion(params, eval_ds, artifacts, f"tm1_{prov.value}")

    report = {
        "baseline_accuracy": acc,
        "train_size": len(train_ds),
        "test_size": len(test_ds),
        "epochs_trained": len(history),
        "history": history,
        "evasion": evasion,
    }
    return report


# ---------------------------------------------------------------------------
# stage 2: aware detector vs gradient-guided stuffing

def craft_libraries(
    ec: ExperimentConfig, params: det.DetectorParams, attack_samples: list, epsilon: float
) -> dict[StuffSide, list]:
    """One epsilon's stuffing plan library for each side."""
    crafted = {
        side: adv.build_plan_library(
            params,
            attack_samples,
            side,
            attack_config(ec, epsilon),
            source_tag=Provenance.RAND_REQ.value,
            # The framework decides connection splits, so it can refuse to
            # isolate one exchange per connection.  A payload-only implant
            # cannot: it follows whatever flow shapes the unmodified
            # framework emits, single-exchange stragglers included.
            min_exchanges=1 if side is StuffSide.PAYLOAD_ONLY else 2,
        )
        for side in StuffSide
    }
    # Stuffing both directions subsumes stuffing one: the two-side
    # operator may also schedule response-only plans when queued
    # transfers would blow through a crafted request size.
    crafted[StuffSide.TWO_SIDE] = crafted[StuffSide.TWO_SIDE] + crafted[StuffSide.FRAMEWORK_ONLY]
    return crafted


def run_threat_model_2(ec: ExperimentConfig, artifacts: Artifacts) -> tuple[dict, list]:
    """The aware detector's report, and the two-side plan library at the best epsilon."""
    test_reg = max(1, ec.n_test // 2)
    parts = (
        (Provenance.REGULAR, ec.n_aware_regular, test_reg),
        (Provenance.RAND_REQ, ec.n_aware_randreq, test_reg),
        (Provenance.WEB, ec.n_aware_regular + ec.n_aware_randreq, 2 * test_reg),
    )
    params, history, train_ds, test_ds = _train_stage(ec, artifacts, "tm2", parts, "detector_aware")
    acc = det.accuracy(params, test_ds)

    rr_eval, _ = build_dataset(Provenance.RAND_REQ, ec.n_eval, ec, "tm2-eval")
    artifacts.save("datasets/eval_randreq_aware.csv", rr_eval.to_csv)
    rr_result = _evaluate_evasion(params, rr_eval, artifacts, "tm2_randreq")

    attack_samples = [s for s in train_ds.samples if s.provenance is Provenance.RAND_REQ]
    sweep: dict[str, dict] = {}
    libraries: dict[float, dict[StuffSide, list]] = {}
    adv_datasets: dict[float, dict[StuffSide, Dataset]] = {}
    for eps in ec.epsilon_sweep:
        libraries[eps] = crafted = craft_libraries(ec, params, attack_samples, eps)
        adv_datasets[eps] = {}
        sweep[f"{eps}"] = {}
        for side in StuffSide:
            prov = ADV_PROVENANCE[side]
            adv_ds, flows = build_dataset(prov, ec.n_adv_eval, ec, f"tm2-eps{eps}", library=tuple(crafted[side]))
            adv_datasets[eps][side] = adv_ds
            entry = _evaluate_evasion(params, adv_ds, artifacts, f"tm2_{prov.value}_eps{eps}")
            entry["missing_next_size"] = flows.missing_next_size
            sweep[f"{eps}"][side.value] = entry

    best_eps = max(
        ec.epsilon_sweep,
        key=lambda e: sweep[f"{e}"][StuffSide.FRAMEWORK_ONLY.value]["evasion_rate"],
    )
    for side in StuffSide:
        prov = ADV_PROVENANCE[side]
        artifacts.save(f"datasets/eval_{prov.value}.csv", adv_datasets[best_eps][side].to_csv)
        meta = {"epsilon": best_eps, "side": side.value, "source": Provenance.RAND_REQ.value}
        artifacts.save(
            f"plans/{side.value}_eps{best_eps}.json",
            lambda path: adv.save_plan_library(path, libraries[best_eps][side], meta),
        )

    report = {
        "aware_accuracy": acc,
        "train_size": len(train_ds),
        "epochs_trained": len(history),
        "randreq_vs_aware": rr_result,
        "sweep": sweep,
        "best_epsilon": best_eps,
        "best": sweep[f"{best_eps}"],
    }
    return report, libraries[best_eps][StuffSide.TWO_SIDE]


# ---------------------------------------------------------------------------
# stage 3: wire cost of the winning configuration

def run_overhead(
    ec: ExperimentConfig,
    two_side_library: list,
    artifacts: Artifacts,
) -> dict | None:
    if ec.overhead_runs <= 0:
        artifacts.notes.append("overhead stage skipped: zero runs configured")
        return None
    runs = []
    # built once: constructing the mode indexes the whole library
    modes = {"regular": Provenance.REGULAR, "adversarial": Adversarial(StuffSide.TWO_SIDE, tuple(two_side_library))}
    cdf_pool: dict[str, list[float]] = {f"conn_{kind}_{name}": [] for kind in ("appdata", "gap") for name in modes}
    for run_idx in range(ec.overhead_runs):
        run_seed = seed_for(ec.master_seed, f"overhead-{run_idx}")
        script = interactive_script(substream(run_seed, "overhead-script"))
        run = {"run": run_idx}
        for name, mode in modes.items():
            cfg = replace(ec.sim, mode=mode, seed=run_seed)
            result = simulate_session(script, cfg, session_index=0)
            appdata = [sum(r[2] for r in records) for records in result.conns]
            shapes = [conn_shape(records, cfg) for records in result.conns]
            run[f"appdata_bytes_{name}"] = int(sum(appdata))
            run[f"wire_bytes_{name}"] = int(sum(shape.wire_bytes for shape in shapes))
            run[f"connections_{name}"] = len(shapes)
            run[f"runtime_{name}"] = result.runtime
            run[f"exchanges_{name}"] = result.n_exchanges()
            cdf_pool[f"conn_appdata_{name}"].extend(appdata)
            cdf_pool[f"conn_gap_{name}"].extend(round(b.open_ts - a.open_ts, 6) for a, b in zip(shapes, shapes[1:]))
        runs.append(run)

    header = sorted(runs[0])
    means = {key: float(np.mean([r[key] for r in runs])) for key in header}
    summary = {
        "runs": ec.overhead_runs,
        "appdata_ratio": means["appdata_bytes_adversarial"] / means["appdata_bytes_regular"],
        "wire_bytes_lower": means["wire_bytes_adversarial"] < means["wire_bytes_regular"],
        "connection_ratio": means["connections_regular"] / means["connections_adversarial"],
        "runtime_max_abs_delta": max(abs(r["runtime_regular"] - r["runtime_adversarial"]) for r in runs),
        **{f"{key}_mean": means[key] for key in header if key.startswith(("appdata_bytes_", "wire_bytes_", "connections_"))},
    }

    artifacts.save("overhead/runs.csv", lambda path: write_rows(path, header, ([r[k] for k in header] for r in runs)))
    for name, values in cdf_pool.items():
        values = sorted(values)
        rows = [[v, (i + 1) / len(values)] for i, v in enumerate(values)]
        artifacts.save(f"overhead/cdf_{name}.csv", lambda path: write_rows(path, ["value", "cumulative_fraction"], rows))
    return {"per_run": runs, "summary": summary}


# ---------------------------------------------------------------------------
# whole experiment

# Each stage trains its own detector from its own seed substreams and shares
# no state with the other, so the two run side by side in worker processes. A
# worker gets one BLAS thread: OpenBLAS threads spin-wait between matmuls and
# would take the core the other stage trains on.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _stage_workers() -> int:
    """One worker per threat-model stage, and no more than the cores this process may use."""
    return min(2, len(os.sched_getaffinity(0)))


def _threat_model_1_task(ec: ExperimentConfig, out_dir: str | Path | None) -> tuple[Artifacts, dict]:
    artifacts = Artifacts(out_dir)
    return artifacts, run_threat_model_1(ec, artifacts)


def _threat_model_2_task(ec: ExperimentConfig, out_dir: str | Path | None) -> tuple[Artifacts, dict, list]:
    artifacts = Artifacts(out_dir)
    return artifacts, *run_threat_model_2(ec, artifacts)


def _run_threat_models(ec: ExperimentConfig, out_dir: str | Path | None) -> tuple[tuple, tuple]:
    """Both threat-model stages on a spawn-context pool; the workers are gone on return.

    A stage's exception is re-raised here with its type and message. A worker
    that dies, say out of memory, raises BrokenProcessPool instead of hanging.
    The pool starts multiprocessing's resource tracker process unless one is
    already running; one started here is stopped before returning.
    """
    # imported here: multiprocessing would add to every command's start-up
    from multiprocessing import resource_tracker

    # Python 3.11 has no public call that stops the tracker
    tracker = resource_tracker._resource_tracker
    owns_tracker = tracker._fd is None
    try:
        return _run_on_pool(ec, out_dir)
    finally:
        if owns_tracker:
            # The pool's semaphores unregister themselves when collected; a
            # tracker stopped before that warns of leaked semaphores.
            gc.collect()
            tracker._stop()


def _run_on_pool(ec: ExperimentConfig, out_dir: str | Path | None) -> tuple[tuple, tuple]:
    """The two stage tasks on a spawn-context pool, shut down before returning."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    saved = {key: os.environ.get(key) for key in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    pool = ProcessPoolExecutor(_stage_workers(), mp_context=multiprocessing.get_context("spawn"))
    try:
        try:
            # a spawn-context pool starts its workers as tasks arrive
            futures = [pool.submit(task, ec, out_dir) for task in (_threat_model_1_task, _threat_model_2_task)]
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        for future in as_completed(futures):
            future.result()  # the first stage to fail stops the other
        tm1, tm2 = (future.result() for future in futures)
    except BaseException:
        # the executor has no public way to stop a running task before Python 3.14
        for process in list(pool._processes.values()):
            process.terminate()
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return tm1, tm2


def run_full_experiment(ec: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    artifacts = Artifacts(out_dir)
    (tm1_artifacts, tm1), (tm2_artifacts, tm2, two_side_library) = _run_threat_models(ec, out_dir)
    for stage in (tm1_artifacts, tm2_artifacts):
        artifacts.files += stage.files
        artifacts.notes += stage.notes
    overhead = run_overhead(ec, two_side_library, artifacts)

    report = {"config": ec.to_dict(), "threat_model_1": tm1, "threat_model_2": tm2}
    if overhead is not None:
        report["overhead"] = overhead
    artifacts.save("report.json", lambda path: path.write_bytes(report_bytes(report)))
    artifacts.write_manifest()
    return report
