"""One pass of each benchmark workload runs clean against the library.

perfbench/passes.py calls the public API by name and keyword, and turns
an exception into a failed operation rather than a failed run.  Running
a pass here makes an API change that breaks one of those calls fail the
tests too.  The child writes no bytecode, so perfbench/ is left as it is.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("kind", ["exact", "integrals"])
def test_one_benchmark_pass_has_no_failed_operation(kind):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "passes.py"), kind, "1", "0"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    ops = json.loads(proc.stdout)["ops"]
    assert ops
    assert [(op["name"], op["errors"]) for op in ops if op["errors"]] == []
