"""``tools/identity.py`` cleans up after a SIGTERM: its running command is
killed, its temporary directory with REV's tree is removed, and no git
worktree is left registered."""

import importlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def test_sigterm_kills_the_command_and_leaves_nothing(monkeypatch, tmp_path):
    if shutil.which("git") is None or git("rev-parse", "--verify", "HEAD").returncode:
        pytest.skip("not a git checkout")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    identity = importlib.import_module("identity")
    worktrees = git("worktree", "list", "--porcelain").stdout
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    trees = []

    def run_matrix(tree, run, threads):
        # the command SIGTERMs this process, then waits to be killed
        trees.append(tree)
        subprocess.run([sys.executable, "-c",
                        "import os, pathlib, signal, sys, time\n"
                        "pathlib.Path(sys.argv[1]).write_text(str(os.getpid()))\n"
                        "os.kill(os.getppid(), signal.SIGTERM)\n"
                        "time.sleep(60)\n", str(tmp_path / "child.pid")])
        return 0.0, []

    def unhandled(signum, frame):
        raise AssertionError("identity.main installed no SIGTERM handler")

    monkeypatch.setattr(identity, "run_matrix", run_matrix)
    previous = signal.signal(signal.SIGTERM, unhandled)
    try:
        with pytest.raises(SystemExit) as stopped:
            identity.main(["--against", "HEAD"])
        assert signal.getsignal(signal.SIGTERM) is unhandled
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert stopped.value.code == 128 + signal.SIGTERM == 143
    assert len(trees) == 1 and trees[0].parent.parent == temp
    assert list(temp.iterdir()) == []
    with pytest.raises(ProcessLookupError):
        os.kill(int((tmp_path / "child.pid").read_text()), 0)
    assert git("worktree", "list", "--porcelain").stdout == worktrees
