"""Checks on the library source itself."""

import ast
from pathlib import Path

import stabset


def test_no_assert_statements():
    # `python -O` strips assert statements, so every check on a result raises
    found = []
    for path in sorted(Path(stabset.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_trace_targets_exist(monkeypatch):
    # the benchmark's tracer rebinds these names under --trace 1, which no
    # tier-1 test runs; a deleted or renamed one stops it with a KeyError
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import stages

    missing = [name for name, owner, attr, *_ in stages.TRACE_TARGETS if attr not in vars(owner)]
    assert missing == []
