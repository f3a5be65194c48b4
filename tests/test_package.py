"""The package surface: export lists and the README's library sketch."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import matstrata

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_resolves():
    for info in pkgutil.iter_modules(matstrata.__path__, "matstrata."):
        if info.name == "matstrata.__main__":
            continue  # running it starts the CLI
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ names missing {name!r}"


def library_sketch():
    """The python block under the README's "Library sketch" heading."""
    text = README.read_text()
    section = text[text.index("## Library sketch") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_sketch_values():
    """Run the sketch line by line; each line with a ``# value`` comment must
    be an expression whose repr starts that comment (a comma may follow)."""
    namespace = {}
    checked = 0
    for line in library_sketch().splitlines():
        code, _, comment = line.partition("  # ")
        if not comment:
            exec(line, namespace)
            continue
        ast.parse(code.strip(), mode="eval")  # a commented line is an expression
        value = repr(eval(code.strip(), namespace))
        comment = comment.strip()
        assert comment == value or comment.startswith(value + ","), (code, value, comment)
        checked += 1
    assert checked >= 9
