"""No state is shared between calls: the fingerprint's cheap groups give the
same digests twice in one process and once in a fresh one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import fingerprint


def test_cheap_groups_repeat_in_process_and_in_a_fresh_one():
    tests = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")) if p))
    code = "import json, fingerprint; print(json.dumps(fingerprint.fingerprint(fingerprint.CHEAP)))"
    fresh = subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = fingerprint.fingerprint(fingerprint.CHEAP)
    second = fingerprint.fingerprint(fingerprint.CHEAP)
    out, err = fresh.communicate(timeout=300)
    assert fresh.returncode == 0, err
    assert list(first) == list(fingerprint.CHEAP)
    assert first == second == json.loads(out)
