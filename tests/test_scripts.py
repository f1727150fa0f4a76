"""Smoke tests: every script in ``scripts/`` runs at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import okada

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(okada.__file__).resolve().parents[1])


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_aperiodicity_profile():
    done = run_script("aperiodicity_profile.py", "--max", "5")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["rank", f"{n}:"] for n in range(6)
    ]
    assert [line.split()[2] for line in lines] == [f"max={k}" for k in (1, 1, 1, 1, 2, 2)]


@pytest.mark.parametrize(
    "name, rank",
    [
        ("aperiodicity_profile.py", "-3"),
        ("aperiodicity_profile.py", "9"),
    ],
)
def test_scripts_refuse_a_rank_out_of_range(name, rank):
    done = run_script(name, "--max", rank)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "--max" in done.stderr


def test_scripts_accept_rank_zero():
    assert run_script("aperiodicity_profile.py", "--max", "0").stdout == "rank 0: max=1  k=1:1\n"
