"""The scripts under scripts/: argument checks and a small end-to-end run."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from planarcert.cli import EXIT_ACCEPT, main

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_attack_campaign_runs_and_accepts_nothing():
    done = _run_script("attack_campaign.py", "5")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("total accepting runs: 0")


@pytest.mark.parametrize("args", [("0",), ("x",), ("5", "y"), ("5", "1", "extra")])
def test_attack_campaign_bad_arguments_exit_64(args):
    done = _run_script("attack_campaign.py", *args)
    assert done.returncode == 64
    assert done.stderr.startswith("usage: attack_campaign.py")
    assert "Traceback" not in done.stderr


def test_build_corpus_files_prove_and_verify(tmp_path):
    done = _run_script("build_corpus.py", str(tmp_path / "corpus"))
    assert done.returncode == 0, done.stderr
    graph = tmp_path / "corpus" / "wheel-16.txt"
    assert f"wrote {graph} " in done.stdout
    certs = tmp_path / "wheel-16.certs"
    assert main(["prove", str(graph), "--out", str(certs)]) == EXIT_ACCEPT
    assert main(["verify", str(graph), str(certs)]) == EXIT_ACCEPT
