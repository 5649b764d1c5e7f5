"""The traced benchmark run wraps namelink callables by name; a renamed or
deleted one is skipped there and its per-layer metrics silently read zero.
This pins every name it lists to a callable that still exists, and every
other namelink name the benchmark scripts read, which would break the run."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"

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


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def namelink_chains() -> list[str]:
    """Every ``namelink.<module>.<attr>…`` chain the benchmark scripts read,
    also through a name bound to a module (``predict = namelink.predict``);
    a chain that only prefixes a longer one is left out."""
    chains = set()
    for script in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(script.read_text("utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                value = dotted(node.value)
                if value and value.startswith("namelink.") and value.count(".") == 1:
                    aliases[node.targets[0].id] = value
        for node in ast.walk(tree):
            chain = dotted(node) if isinstance(node, ast.Attribute) else None
            if chain is None:
                continue
            root, _, rest = chain.partition(".")
            chain = f"{aliases[root]}.{rest}" if root in aliases else chain
            if chain.startswith("namelink.") and chain.count(".") >= 2:
                chains.add(chain)
    return sorted(c for c in chains if not any(other.startswith(c + ".") for other in chains))


CHAINS = namelink_chains()


def test_chains_found():
    """The scan sees the benchmark's reads, direct and through an alias."""
    assert "namelink.records.AuthorMention.from_raw" in CHAINS
    assert "namelink.predict.RouteKind.AMBIGUOUS" in CHAINS


@pytest.mark.parametrize("chain", CHAINS)
def test_benchmark_reads_name_that_exists(chain):
    _, module_name, *attrs = chain.split(".")
    owner = importlib.import_module(f"namelink.{module_name}")
    for part in attrs:
        assert hasattr(owner, part), f"{chain} no longer exists; the benchmark reads it"
        owner = getattr(owner, part)
