"""The public surface: package exports and the README's library example."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import alkspace

README = Path(__file__).resolve().parents[1] / "README.md"


def _fresh_interpreter(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_star_import_resolves_every_export():
    # in a new interpreter, so that every name goes through the lazy lookup
    code = (
        "import sys\n"
        "from alkspace import *\n"
        "import alkspace\n"
        "print(sorted(n for n in alkspace.__all__ if globals().get(n) is not getattr("
        "sys.modules[getattr(alkspace, n).__module__], n)))\n"
    )
    assert _fresh_interpreter(code) == ["[]"]
    assert alkspace.__all__ == sorted(alkspace.__all__)
    assert len(set(alkspace.__all__)) == len(alkspace.__all__)


def test_every_export_is_the_object_its_module_defines():
    for name in alkspace.__all__:
        obj = getattr(alkspace, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("alkspace."), name
        assert getattr(module, name) is obj, name
    assert set(alkspace.__all__) <= set(dir(alkspace))
    assert alkspace.ConfigError is alkspace.pipeline.ConfigError is alkspace.errors.ConfigError


def test_an_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        alkspace.no_such_name  # noqa: B018 - the lookup is the test
    assert not hasattr(alkspace, "_no_such_private")


def test_a_bare_import_loads_no_submodule():
    code = "import sys, alkspace\nprint(sorted(m for m in sys.modules if m.startswith('alkspace.')))\n"
    assert _fresh_interpreter(code) == ["[]"]


def test_enumerate_with_bounds_loads_no_numpy_and_no_kernel_module():
    heavy = ["numpy", "alkspace.pipeline", "alkspace.mgk", "alkspace.gpr",
             "alkspace.active_learning", "alkspace.thermo"]
    code = (
        "import sys\n"
        "from alkspace.cli import main\n"
        "assert main(['enumerate', '4', '8', '--count']) == 0\n"
        f"print(sorted(set({heavy!r}) & set(sys.modules)))\n"
    )
    assert _fresh_interpreter(code) == ["37", "[]"]


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    config = {
        "chemical_space": {"min_carbons": 4, "max_carbons": 8},
        "kernel": {"lambda": 0.2},
        "active_learning": {"thresholds": [0.5, 0.4]},
        "evaluation": {"n_test": 20, "control_seeds": [0]},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["kernel"].shape == (37, 37)
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["1", "2"]



def _writes_an_artifact(call: ast.Call) -> bool:
    name = ast.unparse(call.func)
    if name in ("open", "io.open"):
        modes = [*call.args[1:2], *(k.value for k in call.keywords if k.arg == "mode")]
        return any(
            not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes
        )
    return (
        name in ("os.open", "csv.writer", "csv.DictWriter", "json.dump")
        or name.endswith((".write_text", ".write_bytes"))
        or (name == "json.dumps" and any(k.arg == "indent" for k in call.keywords))
    )


def test_only_the_codec_module_writes_artifact_files():
    """Outside ``_atomic.py`` no module opens a file for writing, writes
    CSV, or formats indented JSON; the compact ``json.dumps`` of the
    config-section hashes is a hash input, not an artifact."""
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"
        for path in sorted(Path(alkspace.__file__).parent.glob("*.py"))
        if path.name != "_atomic.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _writes_an_artifact(node)
    ]
    assert found == []
