import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def readme_block(heading, language):
    """The first fenced block of that language under a "## heading" of README.md."""
    section = (ROOT / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start(capsys):
    block = readme_block("Library quick start", "python")
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["((3, 1),)", "-1"]
    # each print carries its output as the start of its comment
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    assert len(comments) == len(printed)
    for comment, out in zip(comments, printed):
        assert comment == out or comment.startswith(out + ","), (comment, out)


def test_readme_command_line(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli = f"{shlex.quote(sys.executable)} -m pointedcat.cli "
    lines = readme_block("Command line", "sh").splitlines()
    assert sum(line.startswith("pointedcat ") for line in lines) == 6
    for line in lines:
        command = cli + line[len("pointedcat "):] if line.startswith("pointedcat ") else line
        result = subprocess.run(command, shell=True, env=env, cwd=tmp_path,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, (line, result.stderr)
        if line.startswith("pointedcat link "):
            assert result.stdout == "-1\n"
