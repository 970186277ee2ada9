"""Each narrative script under demos/, README's synthetic end-to-end run
and README's library sketch runs to completion in a fresh interpreter, so a
rename in the package cannot silently break one."""

import os
import pathlib
import shlex
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


def test_all_seven_demos_found():
    assert len(DEMOS) == 7


def _run(args, cwd):
    """Run ``python args`` in ``cwd`` with the package's ``src`` first on
    the path; it must exit 0 and print something."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    _run([str(demo)], tmp_path)


def _readme_block(heading, language):
    """The first ``language`` code block after ``heading`` in README."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(heading + "\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_synthetic_run_end_to_end(tmp_path):
    # each line runs as ``python -m kinescan.cli``, in order, in one directory
    lines = _readme_block("### Synthetic run end to end", "sh").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("kinescan ")]
    assert [c[1] for c in commands] == ["gen-synthetic", "gen-synthetic", "infer", "eval"]
    for command in commands:
        _run(["-m", "kinescan.cli", *command[1:]], tmp_path)


def test_readme_library_sketch_runs(tmp_path):
    _run(["-c", _readme_block("## Library sketch", "python")], tmp_path)
