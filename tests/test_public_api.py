"""Every public name earns its place.

A name exported by polarq or polarq.circuits must be reached by the
package's own modules, a script, a benchmark workload or an acceptance test
of a paper claim.  Reach is read from the syntax tree (names, attributes and
from-imports), so a mention in a comment or docstring does not count.
"""

import ast
from pathlib import Path

import polarq
import polarq.circuits

ROOT = Path(__file__).resolve().parents[1]

# public names nothing above reaches, each with the role that keeps it
ALLOWED = {
    "circuit_from_text": "parses the .circuit files that compile-diagonal writes",
}


def _reaching_files() -> list[Path]:
    package = (ROOT / "src" / "polarq").rglob("*.py")
    files = [p for p in package if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "bench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return files


def _reached_names() -> set[str]:
    names = set()
    for path in _reaching_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_reached_or_has_a_role():
    public = set(polarq.__all__) | set(polarq.circuits.__all__)
    unreached = public - _reached_names() - {"__version__", "circuits"}
    # an allowed name that something reaches, or that is no longer public,
    # is a stale entry
    assert unreached == set(ALLOWED)
