"""Checks of README.md against the package it describes."""

import functools
import importlib
import os
import pkgutil
import re

import psaddle

README = os.path.join(os.path.dirname(__file__), "..", "README.md")
# a backticked CamelCase identifier, with an optional dotted attribute path
_CAMEL_NAME = re.compile(r"`([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+(?:\.\w+)*)`")


def _resolves(owner, path):
    try:
        functools.reduce(getattr, path, owner)
    except AttributeError:
        return False
    return True


def test_library_layout_names_resolve():
    # every backticked CamelCase name in "## Library layout" is an attribute
    # of some psaddle module, and so is the dotted path after it
    with open(README) as fh:
        text = fh.read()
    section = re.split(r"\n## ", text.split("\n## Library layout\n", 1)[1], maxsplit=1)[0]
    names = set(_CAMEL_NAME.findall(section))
    assert len(names) >= 10
    modules = [importlib.import_module(f"psaddle.{info.name}")
               for info in pkgutil.iter_modules(psaddle.__path__) if not info.name.startswith("_")]
    stale = [name for name in sorted(names)
             if not any(_resolves(module, name.split(".")) for module in modules)]
    assert stale == []
