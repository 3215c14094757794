"""Every span target of the benchmark's tracer still resolves.

``perfbench/tracer.py`` wraps program functions by name: ``install()``
imports each ``(module, qualname)`` and rebinds ``owner.__dict__[attr]``.
A rename or a move into a base class breaks a traced benchmark run, so
each pin is checked here against the program as it stands.  The tracer
file is only read, never imported into ``sys.modules``.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("span,layer,module_name,qualname", TARGETS,
                         ids=[target[0] for target in TARGETS])
def test_target_resolves_in_its_owner(span, layer, module_name, qualname):
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert attr in vars(owner), (
        f"{span}: {qualname} is not defined in {owner!r} itself")
    raw = vars(owner)[attr]
    assert callable(getattr(raw, "__func__", raw)), f"{span}: not callable"
