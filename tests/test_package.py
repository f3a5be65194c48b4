"""The package surface: export lists and the README's library sketch."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
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


def test_commutant_imports_without_the_oracle():
    """The oracle imports the stabiliser check, not the other way round,
    and the check takes no rank decisions.  A fresh interpreter registers
    the package without running its ``__init__``, which imports every
    module, then imports the commutant module alone."""
    code = (
        "import sys, types\n"
        "package = types.ModuleType('matstrata')\n"
        f"package.__path__ = {list(matstrata.__path__)!r}\n"
        "sys.modules['matstrata'] = package\n"
        "import matstrata.commutant\n"
        "print(sorted(name for name in sys.modules if name.startswith('matstrata')))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded = ast.literal_eval(run.stdout)
    assert "matstrata.commutant" in loaded
    assert "matstrata.tangent_oracle" not in loaded, loaded
    assert "matstrata.ranktools" not in loaded, loaded


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
