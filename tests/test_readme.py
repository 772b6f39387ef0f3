"""The README's examples run as documented: the shown command output byte for byte, the library snippet with its asserts."""

import re
from pathlib import Path

from spectral_walks.cli import run

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(text, lang):
    """The bodies of the ```lang blocks in text, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def test_command_example_prints_its_bytes(capsys):
    shown = [b for b in fenced(README, "text") if b.startswith("$ spectral-walks tree encode --word 101\n")]
    assert len(shown) == 1
    command, expected = shown[0].split("\n", 1)
    assert run(command.split()[2:]) == 0
    assert capsys.readouterr().out == expected


def test_library_snippet_runs(monkeypatch, capsys):
    section = README.split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    (snippet,) = fenced(section, "python")
    assert snippet.count("assert ") == 2
    monkeypatch.chdir(ROOT)  # the snippet loads examples_data/cycle4.json by a relative path
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 3  # one r_function line per eigenvalue
