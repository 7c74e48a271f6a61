"""Every function the benchmark's tracer wraps still exists.

``bench/spans.py`` wraps each ``(module, attribute)`` of its ``WRAPPED``
table when run with ``--trace 1`` and fails on the first missing one. The
table is read from the source, so the test imports nothing from ``bench/``
and writes nothing there.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def wrapped_targets():
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("bench/spans.py defines no WRAPPED table")


def test_every_wrapped_attribute_resolves():
    targets = wrapped_targets()
    assert targets
    for home, attr in targets:
        owner = importlib.import_module(f"denguewatch.{home}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            assert attr in vars(owner), f"{home}.{cls_name}.{attr}"
        assert callable(getattr(owner, attr, None)), f"{home}.{attr}"
