"""Command line front end.

Subcommands mirror the pipeline stages: generate labeled flows, extract
features from captures, train a detector, derive stuffing plans, evaluate,
measure wire cost, or run the whole experiment and write a report.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import adversarial as adv
from . import detector as det
from .adversarial import StuffSide
from .extract import traces_from_pcap
from .harness import (
    ADV_PROVENANCE,
    Artifacts,
    ExperimentConfig,
    attack_config,
    build_dataset,
    run_full_experiment,
    run_overhead,
    write_predictions,
)
from .model import Dataset, Label, LabeledSample, Provenance, check_int, evasion_rate, features_from_trace, label_for


def _load_experiment(args) -> ExperimentConfig:
    ec = ExperimentConfig()
    if args.config:
        with open(args.config) as fh:
            try:
                ec = ExperimentConfig.from_dict(json.load(fh))
            except ValueError as exc:  # bad JSON, bad UTF-8 or a rejected key
                raise ValueError(f"{args.config}: {exc}") from None
    if args.seed is not None:
        ec = replace(ec, master_seed=args.seed)
    return ec


def _read_dataset(path) -> Dataset:
    """A dataset CSV that holds at least one sample."""
    ds = Dataset.from_csv(path)
    if not ds.samples:
        raise ValueError(f"{path}: holds no samples")
    return ds


def _cmd_gen(args) -> int:
    check_int("--n", args.n, 1)
    ec = _load_experiment(args)
    provenance = Provenance(args.mode)
    library = ()
    if provenance in ADV_PROVENANCE.values():
        if not args.plans:
            raise ValueError("adversarial modes need --plans")
        library, _meta = adv.load_plan_library(args.plans)
        library = tuple(library)
    ds, _flows = build_dataset(provenance, args.n, ec, stage="cli", library=library)
    ds.to_csv(args.out)
    print(f"wrote {len(ds)} {provenance.value} samples to {args.out}")
    return 0


def _cmd_extract(args) -> int:
    provenance = Provenance(args.provenance)
    label = label_for(provenance)
    if args.label not in (None, label.value):
        raise ValueError(f"--label {args.label} contradicts --provenance {provenance.value}")
    traces, counters = traces_from_pcap(args.pcap)
    samples = [LabeledSample(features_from_trace(t), label, provenance) for t in traces]
    Dataset(samples, 0).to_csv(args.out)
    print(f"extracted {len(samples)} flows from {args.pcap}")
    for key, value in sorted(counters.to_dict().items()):
        print(f"  {key}: {value}")
    return 0


def _cmd_train(args) -> int:
    ec = _load_experiment(args)
    parts = [_read_dataset(p) for p in args.data]
    merged = Dataset([s for d in parts for s in d.samples], ec.master_seed)
    params, history = det.train(merged, replace(ec.train, seed=ec.master_seed))
    params.save(args.out)
    last = history[-1]
    print(
        f"trained on {len(merged)} samples, {len(history)} epochs, "
        f"val accuracy {last['val_accuracy']:.4f}"
    )
    return 0


def _cmd_attack(args) -> int:
    check_int("--min-exchanges", args.min_exchanges, 1)
    ec = _load_experiment(args)
    params = det.DetectorParams.load(args.model)
    ds = _read_dataset(args.data)
    side = StuffSide(args.side)
    lib = adv.build_plan_library(
        params,
        [s for s in ds.samples if s.label is Label.C2],
        side,
        attack_config(ec, args.epsilon),
        source_tag="cli",
        min_exchanges=args.min_exchanges,
    )
    adv.save_plan_library(args.out, lib, {"epsilon": args.epsilon, "side": side.value})
    print(f"wrote {len(lib)} plans to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    params = det.DetectorParams.load(args.model)
    ds = _read_dataset(args.data)
    predictions = det.predict(params, [s.features for s in ds.samples])
    if args.out:
        write_predictions(args.out, ds, predictions)
    correct = sum(1 for s, p in zip(ds.samples, predictions) if s.label is p)
    print(f"accuracy: {correct / len(ds):.4f} ({correct}/{len(ds)})")
    c2_only = [(s, p) for s, p in zip(ds.samples, predictions) if s.label is Label.C2]
    if c2_only:
        rate = evasion_rate([s for s, _ in c2_only], [p for _, p in c2_only])
        print(f"evasion rate over {len(c2_only)} C2 samples: {rate:.4f}")
    return 0


def _cmd_overhead(args) -> int:
    ec = _load_experiment(args)
    if args.runs is not None:
        ec = replace(ec, overhead_runs=check_int("--runs", args.runs, 0))
    library, _meta = adv.load_plan_library(args.plans)
    artifacts = Artifacts(args.out)
    result = run_overhead(ec, library, artifacts)
    artifacts.write_manifest()
    if result is None:
        print("no overhead runs configured")
        return 1
    for key, value in sorted(result["summary"].items()):
        print(f"{key}: {value}")
    return 0


def _cmd_report(args) -> int:
    ec = _load_experiment(args)
    if args.scale == "small":
        ec = ec.scaled(0.1)
    elif args.scale == "tiny":
        ec = ec.scaled(0.02)
    report = run_full_experiment(ec, args.out)
    tm1 = report["threat_model_1"]
    tm2 = report["threat_model_2"]
    print(f"baseline accuracy: {tm1['baseline_accuracy']:.4f}")
    for mode, entry in sorted(tm1["evasion"].items()):
        print(f"evasion[{mode}]: {entry['evasion_rate']:.4f}")
    print(f"aware accuracy: {tm2['aware_accuracy']:.4f}")
    print(f"best epsilon: {tm2['best_epsilon']}")
    for side, entry in sorted(tm2["best"].items()):
        print(f"evasion[{side}] at best epsilon: {entry['evasion_rate']:.4f}")
    if "overhead" in report:
        summary = report["overhead"]["summary"]
        print(f"appdata ratio: {summary['appdata_ratio']:.2f}")
        print(f"wire bytes lower: {summary['wire_bytes_lower']}")
        print(f"connection ratio: {summary['connection_ratio']:.2f}")
    if args.out:
        print(f"report written to {Path(args.out) / 'report.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="c2lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the master seed and config file of the subcommands that build an ExperimentConfig
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--seed", type=int, default=None)
    experiment.add_argument("--config", default=None)

    p = sub.add_parser("gen", parents=[experiment], help="generate a labeled flow dataset")
    p.add_argument("--mode", required=True, choices=[pr.value for pr in Provenance])
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.add_argument("--plans", default=None, help="plan library for adversarial modes")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("extract", help="extract flow features from a capture")
    p.add_argument("--pcap", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--label", default=None, choices=[l.value for l in Label],
                   help="defaults to the provenance's label: web for web, c2 for the rest")
    p.add_argument("--provenance", default=Provenance.REGULAR.value, choices=[pr.value for pr in Provenance])
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", parents=[experiment], help="train a detector on CSV datasets")
    p.add_argument("--data", required=True, nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("attack", parents=[experiment], help="build stuffing plans against a detector")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--side", default=StuffSide.TWO_SIDE.value, choices=[s.value for s in StuffSide])
    p.add_argument("--min-exchanges", type=int, default=2, dest="min_exchanges",
                   help="skip source flows shorter than this many request/response rounds")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("eval", help="score a dataset with a trained detector")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("overhead", parents=[experiment], help="compare wire cost of regular vs adversarial runs")
    p.add_argument("--plans", required=True)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_overhead)

    p = sub.add_parser("report", parents=[experiment], help="run the full experiment and write a report")
    p.add_argument("--out", default=None)
    p.add_argument("--scale", default="full", choices=["full", "small", "tiny"])
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; a malformed or missing input exits 2 with one line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"c2lab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
