"""Committed CLI goldens: literal stdout, stderr and exit code of fixed commands.

Each record of `goldens/cli.json` holds an argv and what `cli_dispatch`
printed and returned for it, run in a directory holding the input files of
`goldens/` (so paths in the report are relative and digests are stable).
Only commands that take no `log`/`exp` and draw no random numbers are
recorded, so the bytes do not depend on the platform's libm.

To re-record after a deliberate change of output, edit the argv lists in
`cli.json` if needed and run `PYTHONPATH=src python tests/test_goldens.py`.
"""

import io
import json
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sideinfo.cli import cli_dispatch

GOLDENS = Path(__file__).parent / "goldens"
RECORDS = GOLDENS / "cli.json"


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_dispatch(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _inputs(dest: Path) -> None:
    for path in GOLDENS.iterdir():
        if path != RECORDS:
            shutil.copy(path, dest / path.name)


@pytest.mark.parametrize("record", json.loads(RECORDS.read_text()), ids=lambda r: " ".join(r["argv"]))
def test_cli_golden(record, tmp_path, monkeypatch):
    _inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SIDEINFO_SEED", raising=False)
    assert run_case(record["argv"]) == record


if __name__ == "__main__":
    os.environ.pop("SIDEINFO_SEED", None)
    argvs = [r["argv"] for r in json.loads(RECORDS.read_text())]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _inputs(Path(tmp))
        os.chdir(tmp)
        records = [run_case(argv) for argv in argvs]
        os.chdir(home)
    RECORDS.write_text(json.dumps(records, indent=1) + "\n")
