"""The traced benchmark run wraps namelink callables by name; a renamed or
deleted one is skipped there and its per-layer metrics silently read zero.
This pins every name it lists to a callable that still exists."""

import ast
import importlib
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"

# (module, callable) pairs removed from namelink before the benchmark's hook
# list caught up; none at present
KNOWN_GONE: set[tuple[str, str]] = set()


def wraps():
    """The (module, callable, span) triples of ``WRAPS``, read without
    importing the benchmark."""
    for node in ast.parse(LAYERS.read_text("utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPS in {LAYERS}")


HOOKS = [w for w in wraps() if w[:2] not in KNOWN_GONE]


@pytest.mark.parametrize("module_name, attr, span", HOOKS, ids=[span for _, _, span in HOOKS])
def test_wrapped_callable_exists(module_name, attr, span):
    owner = importlib.import_module(f"namelink.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"namelink.{module_name}.{attr} no longer exists; {span} would read zero"
    assert callable(owner)


def test_known_gone_hooks_still_listed_and_gone():
    """Drop an entry from KNOWN_GONE once the hook list no longer names it."""
    listed = {w[:2] for w in wraps()}
    for module_name, attr in KNOWN_GONE:
        assert (module_name, attr) in listed
        assert not hasattr(importlib.import_module(f"namelink.{module_name}"), attr)
