"""README's "Library" section runs as written, and the package namespace
holds only names that section documents."""

import ast
import re
import types
from pathlib import Path

import spinweave

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section() -> tuple[str, str]:
    """(python block, surrounding prose) of README's "Library" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    return blocks[0], section.replace(blocks[0], "")


def test_library_block_runs_verbatim(tmp_path, monkeypatch):
    block, _ = library_section()
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["c"].shape == (6, 73)
    assert namespace["table"].grid("C_exact").shape == (6, 73)
    assert 0.0 <= namespace["c_fn"] <= 4.0


def test_package_namespace_is_the_documented_names():
    block, prose = library_section()
    imported = {alias.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "spinweave"
                for alias in node.names}
    mentioned = set(re.findall(r"`(\w+)", prose))
    public = {name for name, value in vars(spinweave).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= imported | mentioned, sorted(public - imported - mentioned)
    assert "__version__" in mentioned
