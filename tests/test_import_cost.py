"""Each command loads only the library modules its handler uses.

Every case runs a fresh interpreter that imports artifact.cli_reports,
calls main(argv) and prints the modules that appeared since it started,
so modules the interpreter itself loads at start-up do not count.  The
cases cover every command and all six modules of the package between
them, and none of them may load dataclasses or inspect.  A command that
reads an artifact runs after the build that writes it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import sys
before = set(sys.modules)
from artifact import cli_reports
argv = sys.argv[1:]
try:
    code = cli_reports.main(argv) if argv else 0
except SystemExit as exc:
    code = exc.code
print(code, *sorted(set(sys.modules) - before))
"""

BASE = {"artifact", "artifact.cli_reports"}
BUILD = ["bracket", "build", "--parity", "even", "--k", "2", "--Q", "1,-1,2",
         "--P", "3,1,0,0,2"]
FAMILY = ["bracket", "family", "--parity", "even", "--k", "2"]
FORGE = {"bracket_forge", "curve_ring", "exact_core"}
VERIFY = FORGE | {"poisson_verify"}


def loaded(argv, cwd):
    """(exit code, modules the child loaded) of one command in a fresh interpreter."""
    env = dict(os.environ)
    env.pop("ARTIFACT_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]]
                                                      if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), set(modules)


@pytest.mark.parametrize("argv, code, library", [
    ([], 0, set()),
    (["bracket", "build", "--parity", "even"], 2, set()),
    (["helix", "--range=-2..2"], 0, {"helix_k0"}),
    (["helix", "solve", "--d", "7", "--r", "3"], 0, {"helix_k0"}),
    (["szego", "check", "--parity", "even", "--Q", "0,0,0", "--P", "1,0,0,0,1"], 0,
     {"curve_ring", "exact_core"}),
    (["szego", "check", "--parity", "even", "--k", "0"], 2, {"curve_ring", "exact_core"}),
    (BUILD, 0, FORGE),
    (["bracket", "build", "--parity", "even", "--k", "0"], 2, FORGE),
    (FAMILY, 0, FORGE),
    (["verify", "linearity", "--parity", "even", "--k", "2", "--samples", "1"], 0, FORGE),
    (["verify", "jacobi", "--in", "tensor.json"], 0, VERIFY),
    (["verify", "compat", "--family", "family.json"], 0, VERIFY),
    (["verify", "independence", "--family", "family.json"], 0, VERIFY),
    (["rank", "scan", "--in", "tensor.json", "--samples", "2"], 0, VERIFY),
], ids=["bare-import", "usage-error", "helix", "helix-solve", "szego-check", "szego-k0",
        "bracket-build", "build-k0", "bracket-family", "verify-linearity", "verify-jacobi",
        "verify-compat", "verify-independence", "rank-scan"])
def test_command_loads_only_its_modules(tmp_path, argv, code, library):
    for flag, build in (("--in", BUILD), ("--family", FAMILY)):
        if flag in argv:
            assert loaded(build, tmp_path)[0] == 0
    got_code, modules = loaded(argv, tmp_path)
    assert got_code == code
    assert {m for m in modules if m.split(".")[0] == "artifact"} == (
        BASE | {f"artifact.{name}" for name in library})
    assert not modules & {"dataclasses", "inspect"}
