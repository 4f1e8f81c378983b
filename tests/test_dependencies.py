"""Every third-party package ``src/repro`` imports is declared, and every
declared one is imported.

A package imported by the library but missing from ``pyproject.toml``'s
``[project].dependencies`` installs fine and then fails at import time; one
missing from ``requirements-ci.txt`` stops CI's tier-1 at collection.  A
declared package nothing imports is an install every user pays for nothing.
Both lists are read as text: ``tomllib`` is Python 3.11+, and CI also runs
3.10.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _name(requirement: str) -> str:
    """The normalised distribution name of a requirement string."""
    name = re.match(r"\s*([A-Za-z0-9][A-Za-z0-9._-]*)", requirement).group(1)
    return re.sub(r"[-_.]+", "-", name).lower()


def project_dependencies(text: str) -> set[str]:
    """``[project].dependencies`` of a ``pyproject.toml``'s text."""
    section = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    array = re.search(r"^dependencies\s*=\s*\[(.*?)\]", section, re.M | re.S).group(1)
    return {_name(req) for req in re.findall(r"""["']([^"']+)["']""", array)}


def requirements(text: str) -> set[str]:
    """The packages of a pip requirements file's text."""
    lines = (line.partition("#")[0].strip() for line in text.splitlines())
    return {_name(line) for line in lines if line}


def third_party_imports() -> dict[str, list[str]]:
    """Top-level package of every import in ``src/repro`` that is neither
    ``repro`` nor the standard library, with the files that import it."""
    found: dict[str, list[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.partition(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(_name(top), []).append(str(path.relative_to(ROOT)))
    return found


def test_parsers_read_the_declared_lists():
    assert project_dependencies(
        '[project]\nname = "x"\ndependencies = [\n  "numpy>=1.24",\n  \'Net_X; python_version>"3"\',\n]\n'
        '[project.optional-dependencies]\ntest = ["pytest"]\n'
    ) == {"numpy", "net-x"}
    assert requirements("# comment\nnumpy>=1\n\npytest  # runner\n") == {"numpy", "pytest"}


def test_every_third_party_import_is_declared():
    imported = third_party_imports()
    assert "numpy" in imported
    declared = {
        "pyproject.toml": project_dependencies((ROOT / "pyproject.toml").read_text()),
        "requirements-ci.txt": requirements((ROOT / "requirements-ci.txt").read_text()),
    }
    for where, names in declared.items():
        missing = {pkg: files for pkg, files in imported.items() if pkg not in names}
        assert not missing, f"imported by src/repro but not declared in {where}: {missing}"


def test_every_declared_dependency_is_imported():
    imported = third_party_imports()
    declared = project_dependencies((ROOT / "pyproject.toml").read_text())
    unused = sorted(declared - set(imported))
    assert not unused, f"declared in pyproject.toml but imported nowhere in src/repro: {unused}"
