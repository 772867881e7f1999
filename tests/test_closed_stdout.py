"""A reader that closes the output early ends a CLI quietly.

``python -m repro.ac ... | head -1`` must end with status 141
(128 + SIGPIPE, what a shell reports for a process that SIGPIPE ended)
and nothing on stderr: neither a configuration error nor an exception
ignored at exit.  Here the reader is gone before the CLI writes, so the
pipe breaks for certain: on the final flush when stdout is
block-buffered, on the first print when it is line-buffered.
"""

import io
import os
import subprocess
import sys

import pytest

AC = ["--template", "rc_mesh", "--param", "rows=3", "--param", "cols=3",
      "--points", "40"]
PSS = ["--template", "rtd_relaxation_oscillator", "--period-guess",
       "6.3e-10", "--steps", "200", "--rows", "200"]


def _closed_pipe(buffering: int):
    read, write = os.pipe()
    os.close(read)
    return os.fdopen(write, "w", buffering=buffering)


@pytest.mark.parametrize("buffering", [-1, 1], ids=["buffered", "lines"])
@pytest.mark.parametrize("command", ["ac", "pss"])
def test_closed_stdout_ends_the_run_with_141(monkeypatch, command,
                                             buffering):
    if command == "ac":
        from repro.ac.cli import main
        argv = AC
    else:
        from repro.pss.cli import main
        argv = PSS
    stdout, stderr = _closed_pipe(buffering), io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    try:
        assert main(argv) == 141
    finally:
        stdout.close()
    assert stderr.getvalue() == ""


def test_closed_stdout_of_a_process():
    """The interpreter's own flush at exit stays quiet too."""
    stdout = _closed_pipe(-1)
    with stdout:
        done = subprocess.run([sys.executable, "-m", "repro.ac", *AC],
                              stdout=stdout, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONUNBUFFERED": ""},
                              timeout=120)
    assert done.returncode == 141
    assert done.stderr == b""


def test_other_broken_pipes_stay_errors(capsys):
    """A broken pipe that is not stdout's (a daemon socket) is still a
    configuration error."""
    from repro.runtime.cli import config_error

    assert config_error(BrokenPipeError(32, "Broken pipe")) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
