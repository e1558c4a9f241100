import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from unipcount import cli


def run_cli(argv):
    """Run the CLI in-process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def cli_runner():
    return run_cli


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports the same unipcount as
    this process, installed or not."""
    import unipcount

    src = str(Path(unipcount.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
