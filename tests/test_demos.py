"""Each narrative script in demos/ runs to the end without a traceback and
prints the text that ``tests/golden/demo_<name>.txt`` holds."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
GOLDEN = os.path.join(ROOT, "tests", "golden")


@pytest.mark.parametrize("name", sorted(
    n for n in os.listdir(DEMOS) if n.endswith(".py")))
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")]
                                       if p])
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    with open(os.path.join(GOLDEN, "demo_" + name[:-3] + ".txt"),
              encoding="utf-8") as fh:
        assert proc.stdout == fh.read()
