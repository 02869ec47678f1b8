"""The public surface of `tropcheck` is the README's "Public API" list."""

import importlib
import inspect
import re
from pathlib import Path

import tropcheck

README = Path(__file__).resolve().parent.parent / "README.md"


def _documented():
    """{module: names} from the README's "Public API" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    groups = {}
    for item in re.findall(r"^- `(tropcheck\.\w+)`: (.*?)(?=^\S|\Z)", section, re.M | re.S):
        module, body = item
        groups[module] = re.findall(r"`(\w+)`", body)
    return groups


def test_exports_are_the_documented_names():
    exported = {
        name
        for name in dir(tropcheck)
        if not name.startswith("_") and not inspect.ismodule(getattr(tropcheck, name))
    }
    groups = _documented()
    listed = [name for names in groups.values() for name in names]
    assert len(listed) == len(set(listed))
    assert set(listed) == exported
    for module, names in groups.items():
        source = importlib.import_module(module)
        for name in names:
            assert getattr(source, name) is getattr(tropcheck, name), (module, name)


def test_dropped_names_still_import_from_their_modules():
    from tropcheck.cells import argmin_profile, covector_dimension, realize_profile
    from tropcheck.semiring import tadd, tmul
    from tropcheck.svgplot import projectivise

    for fn in (argmin_profile, covector_dimension, realize_profile, tadd, tmul, projectivise):
        assert callable(fn)
        assert not hasattr(tropcheck, fn.__name__)
