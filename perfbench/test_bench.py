"""The benchmark's short mode: a slice of every workload, all checks on."""
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_short_mode_is_correct():
    done = subprocess.run([sys.executable, str(RUN), "--short"],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == ["open-games", "ci-advise"]
    for line in lines:
        result = json.loads(line.split(": ", 1)[1])
        assert result["correct"] and result["attempted"] >= 1
