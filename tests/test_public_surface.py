"""Every public name in ``src/fermiconv`` has a caller outside the tests.

A public top-level function or class, or a public method or property of
such a class, must be referenced (as an AST ``Name`` or ``Attribute``)
somewhere in ``src/`` outside its own definition and outside
``__init__.py``, or in ``bench/*.py`` (the string names in
``bench/tracing.py``'s ``TRACED`` count), or be on the allow-list below
with its reason. A name only the tests reach belongs beside the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fermiconv"
BENCH = ROOT / "bench"

ALLOWED = {
    # writes the circuit format that `fermiconv count` reads
    "circuits.serialize_circuit",
    # writes the matrix format that `fermiconv basis --matrix` reads
    "basis.write_basis_matrix",
    # named in the README; the sl2fq cost claim will call it
    "conversion.sl2fq_gate_count",
    # the reference validator in tests/validate_reference.py uses it
    "circuits.RegisterLayout.with_reg",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(node: ast.AST) -> Counter:
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def _public_definitions():
    """(module.qualified name, bare name, defining node) of each public def."""
    for path in sorted(SRC.glob("*.py")):
        if path.name.startswith("_"):
            continue
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{member.name}", member.name, member


def _traced_names() -> Counter:
    names = Counter()
    for node in _parse(BENCH / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names[sub.value] += 1
    return names


def _unreached() -> set[str]:
    src_refs = Counter()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            src_refs += _references(_parse(path))
    bench_refs = _traced_names()
    for path in BENCH.glob("*.py"):
        bench_refs += _references(_parse(path))
    return {
        qualname
        for qualname, name, node in _public_definitions()
        if src_refs[name] <= _references(node)[name] and not bench_refs[name]
    }


def test_every_public_name_has_a_caller_outside_the_tests():
    unreached = _unreached()
    missing = sorted(unreached - ALLOWED)
    assert not missing, "reached only from tests (move beside them or delete): " + ", ".join(missing)
    # an entry that gained a caller, or whose name is gone, leaves the list
    assert not ALLOWED - unreached, sorted(ALLOWED - unreached)
