"""Documentation hygiene: every public item carries a docstring, and every
``from repro… import …`` line in README.md and docs/*.md runs."""

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro


def _walk_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        out.append(info.name)
    return sorted(out)


ALL_MODULES = _walk_modules()


class TestDocstrings:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and module.__doc__.strip(), (
            f"module {module_name} lacks a docstring"
        )

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_public_classes_and_functions_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue  # re-exported from elsewhere
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
        assert not undocumented, (
            f"{module_name}: public items without docstrings: {undocumented}"
        )

    def test_package_count_sanity(self):
        # The library keeps growing; this guards against the walker
        # silently finding nothing (e.g. a broken import path).
        assert len(ALL_MODULES) >= 50


DOCS = pathlib.Path(repro.__file__).parents[2]


def _doc_imports():
    """Each ``from repro… import …`` statement of README.md and docs/*.md,
    with a parenthesized one's continuation lines, by file and line."""
    out = []
    for path in [DOCS / "README.md", *sorted((DOCS / "docs").glob("*.md"))]:
        lines = path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, 1):
            if line.lstrip().startswith("from repro") and " import " in line:
                statement = [line.strip()]
                while "(" in statement[0] and not statement[-1].endswith(")"):
                    statement.append(lines[number - 1 + len(statement)].strip())
                out.append(pytest.param(" ".join(statement), id=f"{path.name}:{number}"))
    return out


@pytest.mark.parametrize("statement", _doc_imports())
def test_doc_import_runs(statement):
    exec(statement, {})


def test_docs_hold_imports():
    assert len(_doc_imports()) >= 10
