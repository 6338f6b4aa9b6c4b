import os
import subprocess
import sys
from pathlib import Path

import groupkit

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_selftest_passes():
    # the benchmark replays extension_instances, check_direct_extension and
    # property_suite(instances=); its selftest checks their digests and work
    # counts against bench/reference.json, one short pass per workload
    path = [str(Path(groupkit.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("selftest passed")
