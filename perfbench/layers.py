"""Per-layer instrumentation of c2lab, installed from outside the package.

Every wrapper replaces a function under the name its caller looks it up by:
``harness`` calls ``det.train`` and ``adv.build_plan_library`` through the
module, but imports ``generate_c2_traces`` and ``features_from_trace`` by
name; ``sim`` imports ``payload_step``, ``framework_step``, ``sample_plan``,
``chain_plans`` and ``build_frame`` by name; ``extract`` imports
``parse_frame`` and ``read_packets`` by name. Patching the defining module
alone would miss those calls.

``PER_LAYER`` is the list of per-layer metrics, in the order and with the
units BENCHMARK.json declares.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

from spans import Patches, Recorder, Span, self_times

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("detector.train_s", "s"),
    ("detector.train_steps", "count"),
    ("detector.train_epochs", "count"),
    ("detector.train_step_ms", "ms"),
    ("detector.forward_calls", "count"),
    ("detector.forward_rows_per_s", "1/s"),
    ("detector.input_gradient_s", "s"),
    ("detector.input_gradient_rows", "count"),
    ("harness.tm1_s", "s"),
    ("harness.tm2_s", "s"),
    ("harness.overhead_s", "s"),
    ("harness.build_dataset_calls", "count"),
    ("harness.build_dataset_s", "s"),
    ("harness.artifact_bytes", "bytes"),
    ("harness.self_s", "s"),
    ("cli.self_s", "s"),
    ("adversarial.fgsm_batch_s", "s"),
    ("adversarial.fgsm_rows", "count"),
    ("adversarial.build_plan_library_s", "s"),
    ("adversarial.plans_built", "count"),
    ("adversarial.sample_plan_calls", "count"),
    ("adversarial.plan_draw_yield", "ratio"),
    ("sim.c2_traces_s", "s"),
    ("sim.c2_flows", "count"),
    ("sim.sessions", "count"),
    ("sim.web_traces_s", "s"),
    ("sim.web_flows", "count"),
    ("sim.adv_flows_s", "s"),
    ("sim.adv_flows", "count"),
    ("sim.missing_next_size", "count"),
    ("protocol.payload_step_calls", "count"),
    ("protocol.framework_step_calls", "count"),
    ("protocol.step_s", "s"),
    ("protocol.target_overshoots", "count"),
    ("sim.emit_pcap_s", "s"),
    ("sim.frames_emitted", "count"),
    ("sim.bytes_emitted", "bytes"),
    ("wire.build_frame_calls", "count"),
    ("wire.parse_frame_calls", "count"),
    ("wire.read_packets_s", "s"),
    ("wire.frames_read", "count"),
    ("extract.traces_from_pcap_s", "s"),
    ("extract.read_pcap_s", "s"),
    ("extract.reassemble_s", "s"),
    ("extract.parse_tls_records_s", "s"),
    ("extract.frames_per_s", "1/s"),
    ("extract.anomalies", "count"),
    ("model.features_from_trace_calls", "count"),
    ("model.csv_write_s", "s"),
    ("model.csv_read_s", "s"),
    ("model.csv_rows", "count"),
    ("sizing.framed_size_calls", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def install(rec: Recorder) -> Patches:
    """Wrap every instrumented call site; restore() on the result undoes it."""
    from c2lab import adversarial, cli, detector, extract, harness, model, sim, sizing, wire
    from c2lab.adversarial import StuffSide
    from c2lab.protocol import HeaderKind

    p = Patches()
    spanned, counted = rec.spanned, rec.counted

    # cli / harness
    p.set(cli, "main", spanned("cli.main", cli.main))
    p.set(cli, "run_full_experiment", spanned("harness.run_full_experiment", cli.run_full_experiment))
    for attr, name in (
        ("run_threat_model_1", "harness.tm1"),
        ("run_threat_model_2", "harness.tm2"),
        ("run_overhead", "harness.overhead"),
        ("build_dataset", "harness.build_dataset"),
    ):
        p.set(harness, attr, spanned(name, getattr(harness, attr)))

    # detector
    def after_train(result, args, kwargs):
        dataset = args[0]
        config = (args[1] if len(args) > 1 else kwargs.get("config")) or detector.TrainConfig()
        _params, history = result
        # train_arrays' split: the validation slice is held out of every epoch
        n_fit = len(dataset) - max(1, int(len(dataset) * config.val_fraction))
        rec.add("detector.train_epochs", len(history))
        rec.add("detector.train_steps", len(history) * math.ceil(n_fit / config.batch_size))

    p.set(detector, "train", spanned("detector.train", detector.train, after_train))
    p.set(
        detector,
        "forward",
        spanned(
            "detector.forward",
            detector.forward,
            lambda r, a, k: rec.add("detector.forward_rows", len(np.atleast_2d(r))),
        ),
    )
    p.set(
        adversarial,
        "input_gradient",
        spanned(
            "detector.input_gradient",
            adversarial.input_gradient,
            lambda r, a, k: rec.add("detector.input_gradient_rows", len(np.atleast_2d(r))),
        ),
    )

    # adversarial
    p.set(
        adversarial,
        "fgsm_batch",
        spanned("adversarial.fgsm_batch", adversarial.fgsm_batch, lambda r, a, k: rec.add("adversarial.fgsm_rows", len(r))),
    )
    p.set(
        adversarial,
        "build_plan_library",
        spanned(
            "adversarial.build_plan_library",
            adversarial.build_plan_library,
            lambda r, a, k: rec.add("adversarial.plans_built", len(r)),
        ),
    )
    p.set(sim, "sample_plan", counted("adversarial.sample_plan_calls", sim.sample_plan))
    chain_plans = sim.chain_plans

    def counted_chain(plans):
        rec.add("sim.conns_scheduled", len(plans))
        return chain_plans(plans)

    p.set(sim, "chain_plans", counted_chain)

    # sim: flow generation, split by whether the mode runs the stuffing protocol
    generate_c2 = harness.generate_c2_traces

    def traced_c2(n_flows, cfg, *args, **kwargs):
        adversarial_mode = isinstance(cfg.mode, sim.Adversarial)
        prefix = "sim.adv_flows" if adversarial_mode else "sim.c2_traces"
        with rec.span(prefix):
            flows = generate_c2(n_flows, cfg, *args, **kwargs)
        rec.add("sim.adv_flows" if adversarial_mode else "sim.c2_flows", len(flows.traces))
        rec.add("sim.sessions", flows.sessions)
        rec.add("sim.missing_next_size", flows.missing_next_size)
        return flows

    p.set(harness, "generate_c2_traces", traced_c2)
    p.set(
        harness,
        "generate_web_traces",
        spanned("sim.web_traces", harness.generate_web_traces, lambda r, a, k: rec.add("sim.web_flows", len(r.traces))),
    )

    # protocol: one step per message, so counted and timed rather than spanned
    payload_step, framework_step = sim.payload_step, sim.framework_step

    def traced_payload_step(state, received, content_plaintext, size_model=None):
        t = perf_counter()
        action = payload_step(state, received, content_plaintext, size_model)
        counts = rec.counts
        counts["protocol.step_s"] += perf_counter() - t
        counts["protocol.payload_step_calls"] += 1
        if received is None:
            target = state.pending_next_size
        else:
            target = next((int(h.value) for h in received if h.kind is HeaderKind.NEXT_SIZE), None)
        if target is not None and action.realized_size > target:
            counts["protocol.target_overshoots"] += 1
        return action

    def traced_framework_step(state, content_plaintext, codec=None, size_model=None):
        t = perf_counter()
        reply = framework_step(state, content_plaintext, codec, size_model)
        counts = rec.counts
        counts["protocol.step_s"] += perf_counter() - t
        counts["protocol.framework_step_calls"] += 1
        if state.side in (StuffSide.FRAMEWORK_ONLY, StuffSide.TWO_SIDE):
            target = state.plan.target_at(2 * state.exchange_index + 1)
            if target is not None and reply.realized_size > target:
                counts["protocol.target_overshoots"] += 1
        return reply

    p.set(sim, "payload_step", traced_payload_step)
    p.set(sim, "framework_step", traced_framework_step)

    # pcap write path
    p.set(sim, "emit_pcap", spanned("sim.emit_pcap", sim.emit_pcap))
    p.set(sim, "build_frame", counted("wire.build_frame_calls", sim.build_frame))
    p.set(wire.PcapWriter, "write_packet", counted("sim.frames_emitted", wire.PcapWriter.write_packet))

    # pcap read path
    def after_extract(result, args, kwargs):
        _traces, counters = result
        rec.add("extract.frames_total", counters.frames_total)
        rec.add("extract.anomalies", sum(v for k, v in counters.to_dict().items() if k != "frames_total"))

    p.set(extract, "traces_from_pcap", spanned("extract.traces_from_pcap", extract.traces_from_pcap, after_extract))
    p.set(extract, "read_pcap", spanned("extract.read_pcap", extract.read_pcap))
    p.set(extract, "reassemble", spanned("extract.reassemble", extract.reassemble))
    p.set(extract, "parse_tls_records", spanned("extract.parse_tls_records", extract.parse_tls_records))
    p.set(extract, "parse_frame", counted("wire.parse_frame_calls", extract.parse_frame))
    p.set(extract, "read_packets", rec.timed_iter("wire.read_packets_s", "wire.frames_read", extract.read_packets))

    # model / sizing
    for owner in (harness, model):
        p.set(owner, "features_from_trace", counted("model.features_from_trace_calls", owner.features_from_trace))
    p.set(
        model.Dataset,
        "to_csv",
        spanned("model.csv_write", model.Dataset.to_csv, lambda r, a, k: rec.add("model.csv_rows", len(a[0]))),
    )
    p.set(model.Dataset, "from_csv", classmethod(spanned("model.csv_read", vars(model.Dataset)["from_csv"].__func__)))
    p.set(sizing.TlsSizeModel, "framed_size", counted("sizing.framed_size_calls", sizing.TlsSizeModel.framed_size))
    return p


def pass_metrics(spans: list[Span], selfs: list[float], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer values of one traced pass; spans and selfs are that pass's only."""
    total: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    self_by_layer: defaultdict[str, float] = defaultdict(float)
    for s, own in zip(spans, selfs):
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        self_by_layer[s.name.split(".", 1)[0]] += own
    c = defaultdict(float, counts)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "detector.train_s": total["detector.train"],
        "detector.train_steps": c["detector.train_steps"],
        "detector.train_epochs": c["detector.train_epochs"],
        "detector.train_step_ms": ratio(1000 * total["detector.train"], c["detector.train_steps"]),
        "detector.forward_calls": calls["detector.forward"],
        "detector.forward_rows_per_s": ratio(c["detector.forward_rows"], total["detector.forward"]),
        "detector.input_gradient_s": total["detector.input_gradient"],
        "detector.input_gradient_rows": c["detector.input_gradient_rows"],
        "harness.tm1_s": total["harness.tm1"],
        "harness.tm2_s": total["harness.tm2"],
        "harness.overhead_s": total["harness.overhead"],
        "harness.build_dataset_calls": calls["harness.build_dataset"],
        "harness.build_dataset_s": total["harness.build_dataset"],
        "harness.artifact_bytes": c["harness.artifact_bytes"],
        "harness.self_s": self_by_layer["harness"],
        "cli.self_s": self_by_layer["cli"],
        "adversarial.fgsm_batch_s": total["adversarial.fgsm_batch"],
        "adversarial.fgsm_rows": c["adversarial.fgsm_rows"],
        "adversarial.build_plan_library_s": total["adversarial.build_plan_library"],
        "adversarial.plans_built": c["adversarial.plans_built"],
        "adversarial.sample_plan_calls": c["adversarial.sample_plan_calls"],
        "adversarial.plan_draw_yield": ratio(c["sim.conns_scheduled"], c["adversarial.sample_plan_calls"]),
        "sim.c2_traces_s": total["sim.c2_traces"],
        "sim.c2_flows": c["sim.c2_flows"],
        "sim.sessions": c["sim.sessions"],
        "sim.web_traces_s": total["sim.web_traces"],
        "sim.web_flows": c["sim.web_flows"],
        "sim.adv_flows_s": total["sim.adv_flows"],
        "sim.adv_flows": c["sim.adv_flows"],
        "sim.missing_next_size": c["sim.missing_next_size"],
        "protocol.payload_step_calls": c["protocol.payload_step_calls"],
        "protocol.framework_step_calls": c["protocol.framework_step_calls"],
        "protocol.step_s": c["protocol.step_s"],
        "protocol.target_overshoots": c["protocol.target_overshoots"],
        "sim.emit_pcap_s": total["sim.emit_pcap"],
        "sim.frames_emitted": c["sim.frames_emitted"],
        "sim.bytes_emitted": c["sim.bytes_emitted"],
        "wire.build_frame_calls": c["wire.build_frame_calls"],
        "wire.parse_frame_calls": c["wire.parse_frame_calls"],
        "wire.read_packets_s": c["wire.read_packets_s"],
        "wire.frames_read": c["wire.frames_read"],
        "extract.traces_from_pcap_s": total["extract.traces_from_pcap"],
        "extract.read_pcap_s": total["extract.read_pcap"],
        "extract.reassemble_s": total["extract.reassemble"],
        "extract.parse_tls_records_s": total["extract.parse_tls_records"],
        "extract.frames_per_s": ratio(c["extract.frames_total"], total["extract.traces_from_pcap"]),
        "extract.anomalies": c["extract.anomalies"],
        "model.features_from_trace_calls": c["model.features_from_trace_calls"],
        "model.csv_write_s": total["model.csv_write"],
        "model.csv_read_s": total["model.csv_read"],
        "model.csv_rows": c["model.csv_rows"],
        "sizing.framed_size_calls": c["sizing.framed_size_calls"],
    }


def layer_metrics(rec: Recorder, pass_counts: dict[str, dict[str, float]], overhead_ratio: float) -> dict[str, float]:
    """Median over the traced passes of every per-layer metric."""
    selfs = self_times(rec.spans)
    by_pass: defaultdict[str, tuple[list[Span], list[float]]] = defaultdict(lambda: ([], []))
    for s, own in zip(rec.spans, selfs):
        by_pass[s.pass_id][0].append(s)
        by_pass[s.pass_id][1].append(own)
    per_pass = [pass_metrics(*by_pass[pid], counts) for pid, counts in pass_counts.items()]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out["trace.overhead_ratio"] = overhead_ratio
    return out
