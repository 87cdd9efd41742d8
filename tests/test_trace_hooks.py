"""perfbench's traced passes patch package functions by name; a rename must fail here.

perfbench/run.py --trace 1 wraps c2lab functions under the names their
callers look them up by. These tests install those hooks and take them off
again, so renaming or moving a patched name breaks the suite rather than
only a traced benchmark run.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import c2lab

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
