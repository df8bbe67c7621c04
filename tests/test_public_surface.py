"""Every public name in ``src/fermiconv`` has a caller outside the tests.

A public top-level function or class must be referenced (as an AST
``Name`` or ``Attribute``), and a public method or property of such a
class read as an attribute (``obj.name``), somewhere in ``src/`` outside
its own definition and outside ``__init__.py``, or in ``bench/*.py`` (the
string names in ``bench/tracing.py``'s ``TRACED`` count), or be on the
allow-list below with its reason. A bare local variable never reaches a
method of the same name. A name only the tests reach belongs beside the
tests.
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
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(node: ast.AST) -> tuple[Counter, Counter]:
    """(names and attributes, attribute reads only) referenced under node."""
    refs, reads = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
            if isinstance(sub.ctx, ast.Load):
                reads[sub.attr] += 1
    return refs, reads


def _public_definitions():
    """(module.qualified name, bare name, defining node, is a member) of each
    public def."""
    for path in sorted(SRC.glob("*.py")):
        if path.name.startswith("_"):
            continue
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, node, False
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{member.name}", member.name, member, True


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
    src_refs, src_reads = Counter(), Counter()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            refs, reads = _references(_parse(path))
            src_refs += refs
            src_reads += reads
    traced = _traced_names()
    bench_refs, bench_reads = traced.copy(), traced.copy()
    for path in BENCH.glob("*.py"):
        refs, reads = _references(_parse(path))
        bench_refs += refs
        bench_reads += reads
    unreached = set()
    for qualname, name, node, member in _public_definitions():
        refs, reads = _references(node)
        # a member counts only where it is read as an attribute
        src, bench, own = (src_reads, bench_reads, reads) if member else (src_refs, bench_refs, refs)
        if src[name] <= own[name] and not bench[name]:
            unreached.add(qualname)
    return unreached


def test_every_public_name_has_a_caller_outside_the_tests():
    unreached = _unreached()
    missing = sorted(unreached - ALLOWED)
    assert not missing, "reached only from tests (move beside them or delete): " + ", ".join(missing)
    # an entry that gained a caller, or whose name is gone, leaves the list
    assert not ALLOWED - unreached, sorted(ALLOWED - unreached)
