"""Correctness checks on the output of one CLI command.

A command fails on a wrong exit code, a traceback, a wrong verdict, a
byte mismatch against a golden transcript, a digest mismatch against the
reference recorded from the seed commit, or a timeout.  The `elapsed:`
stderr line is timing data and is never compared.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

from workloads import GOLDEN_ARTIFACTS, GOLDEN_STDOUT, Command


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected_generic_rank(dim: int) -> int:
    """Generic Poisson rank: d - 2 in even dimension d, d - 1 in odd."""
    return dim - 2 if dim % 2 == 0 else dim - 1


def _helix_solution_holds(d: int, r: int, sol: dict) -> bool:
    """Re-derive the ladder witness: r = 2m - 1 and d = (2k - 1 - n) r + sign."""
    return (r == 2 * sol["m"] - 1 and sol["n"] == d % 2
            and d == (2 * sol["k"] - 1 - sol["n"]) * r + sol["sign"])


def _verdicts(cmd: Command, report: dict, cwd: Path) -> List[str]:
    """Semantic checks on a `--json` report, by subcommand."""
    verb = cmd.argv[:2]
    if verb[0] == "helix" and verb[1] != "solve":
        verb = ("helix",)
    data = report.get("data", {})
    problems = []
    allowed = {"recorded"} if verb == ("rank", "scan") else {"pass"}
    for check in report.get("checks", []):
        if check.get("status") not in allowed:
            problems.append(f"check {check.get('name')} is {check.get('status')}")
    if verb == ("verify", "compat"):
        if not data.get("pairs") or data.get("passed") != data.get("pairs"):
            problems.append(f"compat passed {data.get('passed')} of {data.get('pairs')}")
    elif verb == ("verify", "independence"):
        if data.get("rank") != 9:
            problems.append(f"independence rank {data.get('rank')}, expected 9")
    elif verb == ("bracket", "family"):
        if data.get("members") != 9:
            problems.append(f"family has {data.get('members')} members")
    elif verb == ("rank", "scan"):
        tensor = cwd / cmd.argv[cmd.argv.index("--in") + 1]
        want = expected_generic_rank(json.loads(tensor.read_text(encoding="utf-8"))["n"])
        if data.get("generic_rank") != want:
            problems.append(f"generic rank {data.get('generic_rank')}, expected {want}")
    elif verb == ("szego", "check"):
        diagonal = Fraction(data.get("diagonal", "0"))
        at_inf = [Fraction(v) for v in data.get("at_infinity", [])]
        if diagonal != 1 or at_inf != [Fraction(1, 2)] * 2:
            problems.append(f"residues {data.get('diagonal')} {data.get('at_infinity')}")
    elif verb == ("helix",):
        lo, hi = (int(v) for v in cmd.argv[1].split("=", 1)[1].split(".."))
        if [row["n"] for row in data.get("rows", [])] != list(range(lo, hi + 1)):
            problems.append("helix rows do not cover the range")
    elif verb == ("helix", "solve"):
        d, r = int(cmd.argv[3]), int(cmd.argv[5])
        sol = data.get("solution_fields")
        if (data.get("d"), data.get("r")) != (d, r):
            problems.append("helix solve echoes the wrong (d, r)")
        elif ((d - 1) % r == 0 or (d + 1) % r == 0) != (sol is not None):
            problems.append(f"helix solve witness presence wrong: {sol}")
        elif sol is not None and not _helix_solution_holds(d, r, sol):
            problems.append(f"helix solve witness does not solve ({d}, {r}): {sol}")
    return problems


def check_command(cmd: Command, code: int, stdout: str, stderr: str, cwd: Path,
                  reference: Dict[str, str], golden_dir: Path) -> List[str]:
    """Every reason the command's outcome is wrong; empty when it is right."""
    problems: List[str] = []
    if code != cmd.expect_code:
        problems.append(f"exit code {code}, expected {cmd.expect_code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if code != 0 or problems:
        return problems
    golden = GOLDEN_STDOUT.get(cmd.argv)
    if golden is not None:
        if stdout.encode() != (golden_dir / golden).read_bytes():
            problems.append(f"stdout differs from golden {golden}")
        for rel, name in GOLDEN_ARTIFACTS[cmd.argv].items():
            path = cwd / rel
            if not path.is_file() or path.read_bytes() != (golden_dir / name).read_bytes():
                problems.append(f"{rel} differs from golden {name}")
    if "--json" in cmd.argv:
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return problems + ["stdout is not a JSON report"]
        problems += _verdicts(cmd, report, cwd)
    for rel, key in cmd.artifacts.items():
        path = cwd / rel
        if key not in reference:
            problems.append(f"no reference digest for {key}")
        elif not path.is_file():
            problems.append(f"artifact {rel} missing")
        elif digest(path) != reference[key]:
            problems.append(f"artifact {rel} digest differs from the reference")
    return problems
