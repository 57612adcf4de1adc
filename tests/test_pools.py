"""The benchmark's job pools against the engine: every recorded job still
prints what the pool expects, so a stdout drift the benchmark would count
as a failed job fails here first."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_pools_match_the_engine():
    # the checker runs each pool's jobs in process against this checkout's
    # sources; its cache files go to the git-ignored bench/out/, removed on exit
    proc = subprocess.run([sys.executable, "bench/record.py", "--check"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = re.findall(r"^(\w+): \d+ slots, (\d+) problems$", proc.stdout, re.MULTILINE)
    assert summary == [(pool, "0") for pool in ("solve", "paths", "moments", "mc", "baseline")], \
        proc.stdout
