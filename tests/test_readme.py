"""The Python example under "Library use" in README.md runs as printed."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README} (Library use)", "exec"), {})
    printed = capsys.readouterr().out.split()
    # the energy, 2h and L2 errors, each finite and positive
    assert len(printed) == 3
    assert all(0.0 < float(v) < float("inf") for v in printed)
