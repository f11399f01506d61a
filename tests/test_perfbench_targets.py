"""The benchmark's layer map must name live functions.

``perfbench/launcher.py`` traces a run (``--trace 1``) by wrapping each
``(module, attribute)`` in its ``TARGETS`` table at the name its callers
bind.  A refactor that moves or renames one of them would only surface as
a crash of the traced benchmark, so this test resolves every entry the way
``SpanRecorder.install`` does -- without installing anything.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

LAUNCHER = Path(__file__).resolve().parents[1] / "perfbench" / "launcher.py"


def _load_launcher():
    spec = importlib.util.spec_from_file_location("perfbench_launcher",
                                                  LAUNCHER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_launcher().TARGETS


def test_targets_not_empty():
    assert len(TARGETS) > 0


@pytest.mark.parametrize(
    "module_name, attr",
    [(module_name, attr) for module_name, attr, _, _ in TARGETS],
    ids=[f"{module_name}:{attr}" for module_name, attr, _, _ in TARGETS],
)
def test_target_resolves_to_callable(module_name, attr):
    module = importlib.import_module(module_name)
    owner, _, leaf = attr.rpartition(".")
    if owner:
        cls = getattr(module, owner)
        # install() patches the class's own attribute, not an inherited one.
        assert leaf in cls.__dict__, f"{owner} does not define {leaf}"
        raw = cls.__dict__[leaf]
        target = raw.__func__ if isinstance(raw, classmethod) else raw
    else:
        target = getattr(module, leaf)
    assert callable(target)
