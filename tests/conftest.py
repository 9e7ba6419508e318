"""Shared helpers for the test suite.

Provides runners for the command-line tool -- in process through
:func:`harmap.cli.main`, and in a fresh ``python -m harmap`` subprocess for the
few tests of the module entry point itself -- and a JSON-schema validation
helper bound to the schema files shipped inside the package.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import harmap
from harmap import cli

SCHEMA_DIR = Path(harmap.__file__).resolve().parent / "schemas"

#: ``default_lattice`` arguments of ``verify-bounds`` without flags: the
#: defaults of ``--alphas``, ``--zetas``, ``--zeta-rel`` and ``--ns``
CLI_LATTICE = ((0.0, 0.25, 0.5, 0.75), (0.0, 0.3), (0.99,), (1, 2, 3))


def run_cli(*args):
    """Run ``harmap <args>`` in process: :func:`harmap.cli.main` with stdout
    and stderr captured and ``SystemExit`` (argparse's exits) caught.  Returns
    what :func:`run_module` returns, with the same ``returncode``, ``stdout``
    and ``stderr``."""
    argv = [str(a) for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def run_module(*args, timeout=180):
    """Run ``python -m harmap <args>`` in a fresh subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "harmap", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def load_schema(name):
    with open(SCHEMA_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def validate_payload(payload, schema_name):
    """Validate ``payload`` against a shipped schema; raises on mismatch."""
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(payload, load_schema(schema_name))
    return payload


@pytest.fixture
def schema_check():
    return validate_payload
