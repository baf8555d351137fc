import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from feedsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    """Run a Python process that imports feedsim from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs_clean(tmp_path, demo):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_library_example_matches_repro(tmp_path):
    # The README's library pipeline must run the experiment bare `repro` runs.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    start = library.index("```python\n") + len("```python\n")
    code = library[start:library.index("```", start)]
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert main(["repro", "--out", str(tmp_path / "out")]) == 0
    totals = json.loads((tmp_path / "out" / "totals.json").read_text())
    assert float(proc.stdout.split()[-1]) == totals["inconsistency_rate"]
