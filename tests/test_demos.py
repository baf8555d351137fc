import json
import os
import re
import subprocess
import sys
from fnmatch import fnmatch
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


README = (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def bare_repro(tmp_path_factory):
    """The output directory of bare `repro`."""
    out = tmp_path_factory.mktemp("bare_repro") / "out"
    assert main(["repro", "--out", str(out)]) == 0
    return out


def test_readme_library_example_matches_repro(tmp_path, bare_repro):
    # The README's library pipeline must run the experiment bare `repro` runs.
    library = README[README.index("\n## Library\n"):]
    start = library.index("```python\n") + len("```python\n")
    code = library[start:library.index("```", start)]
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    totals = json.loads((bare_repro / "totals.json").read_text())
    assert float(proc.stdout.split()[-1]) == totals["inconsistency_rate"]


def test_readme_files_table_names_every_repro_file(bare_repro):
    start = README.index("Files written to the output directory:")
    table = README[start:README.index("\n## Library\n")]
    named = [name for row in table.splitlines() if row.startswith("| `")
             for name in re.findall(r"`([^`]+)`", row.split(" | ")[0])]
    unnamed = [path.name for path in sorted(bare_repro.iterdir())
               if not any(fnmatch(path.name, name) for name in named)]
    assert unnamed == []
