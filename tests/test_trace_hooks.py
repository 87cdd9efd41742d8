"""perfbench's traced passes patch package functions by name; a rename must fail here.

perfbench/run.py --trace 1 wraps c2lab functions under the names their
callers look them up by. These tests install those hooks, run the program
under them and take them off again, so renaming or moving a patched name, or
changing a call shape a hook relies on, breaks the suite rather than only a
traced benchmark run.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import c2lab
from c2lab import cli, extract, harness, sim
from c2lab.adversarial import StuffingPlan
from c2lab.model import Provenance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    return layers, spans


def _module_attrs():
    """Identity snapshot of every c2lab module's namespace.

    Every module is imported first: install imports the ones not yet loaded,
    which would otherwise add modules, and package attributes, after the snapshot.
    """
    for info in pkgutil.iter_modules(c2lab.__path__):
        importlib.import_module(f"c2lab.{info.name}")
    mods = [m for name, m in sys.modules.items() if name == "c2lab" or name.startswith("c2lab.")]
    return {(m.__name__, k): id(v) for m in mods for k, v in vars(m).items()}


def test_trace_hooks_install_and_restore_exactly(layers):
    layers, spans = layers
    before = _module_attrs()
    patches = layers.install(spans.Recorder())
    saved = list(patches._saved)
    assert saved, "install patched nothing"
    try:
        for owner, attr, original in saved:
            assert vars(owner)[attr] is not original, f"{owner!r}.{attr} was not wrapped"
    finally:
        patches.restore()
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} was not restored"
    assert _module_attrs() == before


def _toy_library():
    """Two-side plans of 2, 4 and 6 records targeting 640-byte requests and 480-byte responses."""
    sizes = (640, 480)
    return tuple(
        StuffingPlan(targets=tuple(sizes[i % 2] for i in range(n)), profile=tuple(sizes[i % 2] for i in range(n)))
        for n in (2, 4, 6)
    )


def test_trace_hooks_count_inside_a_real_run(layers, tmp_path):
    """Every hooked layer runs under the hooks, and a report still runs its stage workers with them installed."""
    layers, spans = layers
    rec = spans.Recorder()
    patches = layers.install(rec)
    try:
        ec = harness.ExperimentConfig(master_seed=5)
        adv_ds, _ = harness.build_dataset(Provenance.ADV_TWO_SIDE, 6, ec, "hooks", library=_toy_library())
        web_ds, web_flows = harness.build_dataset(Provenance.WEB, 6, ec, "hooks")
        pcap = tmp_path / "hooks.pcap"
        sim.emit_pcap(pcap, web_flows.conn_records, ec.sim, seed=1)
        traces, _counters = extract.traces_from_pcap(pcap)
        rc = cli.main(["report", "--scale", "tiny", "--seed", "7"])
    finally:
        patches.restore()
    assert rc == 0
    assert len(adv_ds) == len(web_ds) == len(traces) == 6
    counts = rec.counts
    assert counts["protocol.framework_step_calls"] > 0
    assert counts["protocol.payload_step_calls"] > 0
    assert counts["wire.build_frame_calls"] == counts["wire.parse_frame_calls"] > 0
    for owner, attr, original in patches._saved:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} was not restored"
