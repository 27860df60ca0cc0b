"""The README's example session, run through the command line's main."""

import shlex
from pathlib import Path

from anglestruct.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def example_session():
    """(tetra.json text, [(argv, expected stdout line)]) from the README's
    ``Example session`` block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("Example session:", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    assert lines[0] == "$ cat tetra.json"
    start = next(i for i in range(1, len(lines)) if lines[i].startswith("$ "))
    commands = []
    for i in range(start, len(lines), 2):
        argv = shlex.split(lines[i].removeprefix("$ "))
        assert argv[0] == "anglestruct"
        commands.append((argv[1:], lines[i + 1]))
    return "\n".join(lines[1:start]) + "\n", commands


def test_readme_example_session(tmp_path, capsys):
    tetra, commands = example_session()
    (tmp_path / "tetra.json").write_text(tetra)
    assert [argv[0] for argv, _ in commands] == ["check", "check", "construct"]
    for argv, expected in commands:
        main([str(tmp_path / a) if a == "tetra.json" else a for a in argv])
        out = capsys.readouterr().out
        if "..." in expected:
            # an elided line: the output starts with the text before "..."
            assert out.startswith(expected.split("...", 1)[0]), argv
        else:
            assert out == expected + "\n", argv


def test_readme_library_example(capsys):
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    assert capsys.readouterr().out == "Verdict.FEASIBLE\n"


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone fails here
    exec("from anglestruct import *", {})


def test_format_instance_example(tmp_path, capsys):
    # the instance file of docs/format.md loads: its structure verifies and
    # its D, 7/10 on every edge of the tetrahedron, is spherically feasible
    text = (README.parent / "docs" / "format.md").read_text(encoding="utf-8")
    block = text.split("## Instance file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "instance.json"
    path.write_text(block)
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == '{"ok": true, "mismatched_edges": [], "class_ok": true}\n'
    assert main(["check", str(path), "--geometry", "spherical", "--invariant", "edge"]) == 0
    report = '{"verdict": "feasible", "theorem": "T1", "quantifier_range": "nonempty-subsets"}\n'
    assert capsys.readouterr().out == report
