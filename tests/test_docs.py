"""The README's code examples run as written, and the package binds the
names it exports."""

import re
from pathlib import Path

from click.testing import CliRunner

from conftest import SAMPLE_CSV
from pssim.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block(section: str) -> str:
    """The first ```python block under the README heading ``section``."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", body, re.DOTALL).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    runner = CliRunner()
    canon = tmp_path / "canonical.csv"
    for args in (
        ["ingest", str(SAMPLE_CSV), "--out", str(canon)],
        ["fit", str(canon), "--out", str(tmp_path / "model.json")],
    ):
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, result.output
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    exec(compile(python_block("Library use"), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 3 and all(word.isdigit() for word in printed)


def test_star_import_binds_every_exported_name():
    import pssim

    namespace = {}
    exec("from pssim import *", namespace)
    del namespace["__builtins__"]
    assert len(set(pssim.__all__)) == len(pssim.__all__)
    assert set(namespace) == set(pssim.__all__)
    assert all(namespace[name] is getattr(pssim, name) for name in pssim.__all__)
