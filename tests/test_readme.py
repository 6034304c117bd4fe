import os
import re
import shlex
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def readme_blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def test_python_examples_run():
    # Every ```python block in the README runs as written against the
    # current public API, each in a fresh namespace.
    blocks = readme_blocks("python")
    assert blocks, "README.md has no python examples"
    for number, source in enumerate(blocks, start=1):
        exec(compile(source, f"README.md python block {number}", "exec"), {})


def test_cli_examples_run(tmp_path):
    # Every command in a ```sh block that starts with ``driftwatch`` runs as
    # written (pipes and a trailing ``> file`` included), exits 0 and writes
    # output, so a renamed or removed flag breaks this test, not the docs.
    commands = [
        line
        for block in readme_blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("driftwatch ")
    ]
    assert commands, "README.md has no driftwatch examples"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for command in commands:
        command, _, target = command.partition(">")
        stages = command.split("|")
        data = None
        for number, stage in enumerate(stages, start=1):
            program, *args = shlex.split(stage)
            assert program == "driftwatch", command
            to_file = bool(target) and number == len(stages)
            with open(tmp_path / target.strip(), "w") if to_file else nullcontext() as sink:
                result = subprocess.run(
                    [sys.executable, "-m", "driftwatch.cli", *args],
                    input=data,
                    stdout=sink if to_file else subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    cwd=tmp_path,
                    env=env,
                    timeout=120,
                )
            assert result.returncode == 0, f"{stage.strip()}: {result.stderr}"
            data = result.stdout
        if target:
            assert (tmp_path / target.strip()).stat().st_size > 0, command
        else:
            assert data, command
