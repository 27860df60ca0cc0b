import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "demo_sweep.py"


def test_demo_sweep_runs(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("demo_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["demo_sweep.py", "--trials", "3", "--faces", "4"])
    assert module.main() == 0
    assert "0 disagreements" in capsys.readouterr().out
