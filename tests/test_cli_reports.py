"""End-to-end command-line runs compared against golden transcripts.

Each test changes into a fresh temporary directory, invokes main() with a
fixed argument list, and compares stdout and any written artifacts against
files under tests/golden.  Set UPDATE_GOLDENS=1 to regenerate the files.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from io import StringIO
from itertools import combinations, count
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import bracket_forge, poisson_verify
from artifact.bracket_forge import BracketTensor, FamilyBasis, build_family
from artifact.cli_reports import build_parser, main
from artifact.helix_k0 import helix_class

from chart_route import chart_witness, descend_to_chart, jacobiator
from test_helix_k0 import seed_combination

GOLDEN = Path(__file__).parent / "golden"

BUILD_EVEN = ["bracket", "build", "--parity", "even", "--k", "2",
              "--Q", "0,0,0", "--P", "a0-only"]
BUILD_ODD_ZERO = ["bracket", "build", "--parity", "odd", "--k", "1",
                  "--Q", "0,0,0", "--P", "0,0,0,0", "--c", "0"]
FAMILY_ODD = ["bracket", "family", "--parity", "odd", "--k", "1"]


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def check_golden(name, text):
    path = GOLDEN / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
        return
    assert path.exists(), f"golden file {name} missing; run with UPDATE_GOLDENS=1"
    assert text == path.read_text(), f"output drifted from golden {name}"


def test_bracket_build_json_transcript(tmp_path, monkeypatch, capsys):
    """Machine-readable build output and the tensor artifact are frozen."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(BUILD_EVEN + ["--json"], capsys)
    assert code == 0
    check_golden("build_even_k2.stdout.json", out)
    check_golden("tensor_even_k2.json", Path("tensor.json").read_text())


def test_bracket_build_human_transcript(tmp_path, monkeypatch, capsys):
    """Human mode prints dimension, nonzero count, and the artifact path."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(BUILD_EVEN, capsys)
    assert code == 0
    assert "elapsed" in err
    check_golden("build_even_k2.stdout.txt", out)


def test_bracket_build_requires_k(tmp_path, monkeypatch, capsys):
    """Missing --k is an argparse usage error with exit code 2."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["bracket", "build", "--parity", "even"])
    assert info.value.code == 2


def test_bracket_build_rejects_overlong_coeffs(tmp_path, monkeypatch, capsys):
    """Degree bounds are validated before any construction work."""
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["bracket", "build", "--parity", "even", "--k", "2",
                            "--P", "1,2,3,4,5,6"], capsys)
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("parity,option,value,allowed", [
    ("even", "--Q", "1,2,3,0", 3), ("odd", "--Q", "1,2,3,0", 3),
    ("even", "--P", "1,0,0,0,0,0", 5), ("odd", "--P", "1,0,0,0,0", 4)])
def test_bracket_build_refuses_zero_tails(tmp_path, monkeypatch, capsys, parity, option,
                                          value, allowed):
    """CurveModel is the one reader of the coefficient lists: a list one
    entry longer than its parity allows is refused even when that entry is
    zero, exit 2 with the count on stderr, no stdout and no artifact."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ARTIFACT_OUT_DIR", raising=False)
    code, out, err = run_cli(["bracket", "build", "--parity", parity, "--k", "2",
                              f"{option}={value}"], capsys)
    assert code == 2 and out == ""
    where = f" in the {parity} parity" if option == "--P" else ""
    assert err == (f"config error: deg {option[-1]} must be at most {allowed - 1}{where}: "
                   f"got {allowed + 1} coefficients, at most {allowed} allowed\n")
    assert not list(tmp_path.iterdir())


def test_bracket_build_rejects_exponent_coeffs(tmp_path, monkeypatch, capsys):
    """Coefficients are integers or p/q: an exponent is a configuration
    error that writes no artifact."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["bracket", "build", "--parity", "even", "--k", "2",
                              "--Q", "1e3"], capsys)
    assert code == 2
    assert out == "" and "--Q: cannot read '1e3' as a rational" in err
    assert not list(tmp_path.iterdir())


def test_bracket_build_zero_curve_is_family_constant(tmp_path, monkeypatch, capsys):
    """The zero-coefficient curve reproduces the family's constant member."""
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(BUILD_ODD_ZERO, capsys)
    assert code == 0
    written = BracketTensor.from_json(json.loads(Path("tensor.json").read_text()))
    assert written == build_family("odd", 1).tensors[0]


def test_bracket_build_flip_sign(tmp_path, monkeypatch, capsys):
    """The sign-convention flag negates every coefficient."""
    monkeypatch.chdir(tmp_path)
    run_cli(BUILD_EVEN + ["--out", "plain.json"], capsys)
    run_cli(BUILD_EVEN + ["--out", "flipped.json", "--flip-sign"], capsys)
    plain = BracketTensor.from_json(json.loads(Path("plain.json").read_text()))
    flipped = BracketTensor.from_json(json.loads(Path("flipped.json").read_text()))
    assert flipped == plain.scale(-1)


def test_bracket_build_rejection_exits_one(tmp_path, monkeypatch, capsys):
    """A build whose even assembly leaves the section space (D doubled, as
    in test_strict_mode_rejects_doubled_derivation) exits 1 with "build
    rejected:" on stderr, no traceback and no artifact."""
    monkeypatch.chdir(tmp_path)
    closed_form = bracket_forge._derivation_image

    def doubled_image(slot, curve, c):
        return {s: 2 * val for s, val in closed_form(slot, curve, c).items()}

    monkeypatch.setattr(bracket_forge, "_derivation_image", doubled_image)
    code, out, err = run_cli(["bracket", "build", "--parity", "even", "--k", "2",
                              "--Q", "1,-1,2", "--P", "3,1,0,0,2"], capsys)
    assert code == 1
    assert err.startswith("build rejected: pair (1, t^2)")
    assert "Traceback" not in err and out == ""
    assert not Path("tensor.json").exists()


def test_bracket_family_json_transcript(tmp_path, monkeypatch, capsys):
    """Family build emits member count, labels, and a loadable artifact."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(FAMILY_ODD + ["--json"], capsys)
    assert code == 0
    check_golden("family_odd_k1.stdout.json", out)
    check_golden("family_odd_k1.json", Path("family.json").read_text())


def test_verify_jacobi_pass(tmp_path, monkeypatch, capsys):
    """A built tensor passes the chart Jacobi certification."""
    monkeypatch.chdir(tmp_path)
    run_cli(BUILD_EVEN, capsys)
    code, out, _ = run_cli(["verify", "jacobi", "--in", "tensor.json", "--json"],
                           capsys)
    assert code == 0
    check_golden("verify_jacobi.stdout.json", out)


def test_verify_jacobi_flags_corruption(tmp_path, monkeypatch, capsys):
    """A bumped coefficient breaks Jacobi and exits nonzero with a witness."""
    monkeypatch.chdir(tmp_path)
    run_cli(BUILD_EVEN, capsys)
    data = json.loads(Path("tensor.json").read_text())
    entry = data["pi"][0]["q"][0]
    entry["val"] = "1/1"
    Path("bad.json").write_text(json.dumps(data))
    code, out, _ = run_cli(["verify", "jacobi", "--in", "bad.json", "--json"],
                           capsys)
    assert code == 1
    report = json.loads(out)
    assert report["checks"][0]["status"] == "fail"
    assert set(report["checks"][0]["witness"]) == {"chart", "triple", "obstruction"}


def test_verify_jacobi_fails_without_witness(tmp_path, monkeypatch, capsys):
    """A nonzero Jacobiator whose 0-components cancel exits 1 in both
    output modes, with no traceback, though no chart-0 witness exists."""
    monkeypatch.chdir(tmp_path)
    run_cli(BUILD_EVEN, capsys)
    m = 2 * 8 ** 0 + 8 ** 1
    jac = {(0, 1, 2): {m + 8 ** 2: 1}, (0, 1, 3): {m + 8 ** 3: 1}}
    monkeypatch.setattr(poisson_verify, "_integer_jacobiator",
                        lambda forms, support: iter(jac.items()))
    code, out, _ = run_cli(["verify", "jacobi", "--in", "tensor.json"], capsys)
    assert code == 1 and "jacobi: fail" in out
    code, out, _ = run_cli(["verify", "jacobi", "--in", "tensor.json", "--json"], capsys)
    assert code == 1 and json.loads(out)["checks"] == [{"name": "jacobi", "status": "fail"}]


def test_verify_jacobi_missing_artifact(tmp_path, monkeypatch, capsys):
    """A nonexistent input file is a configuration error."""
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["verify", "jacobi", "--in", "nope.json"], capsys)
    assert code == 2
    assert "not found" in err


def test_verify_jacobi_malformed_artifact(tmp_path, monkeypatch, capsys):
    """Unparseable JSON is reported as a configuration error."""
    monkeypatch.chdir(tmp_path)
    Path("broken.json").write_text("{not json")
    code, _, err = run_cli(["verify", "jacobi", "--in", "broken.json"], capsys)
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("argv, kind", [(["verify", "jacobi", "--in"], "tensor"),
                                        (["verify", "independence", "--family"], "family")],
                         ids=["tensor", "family"])
def test_non_utf8_artifact_is_not_valid_json(tmp_path, monkeypatch, capsys, argv, kind):
    """A file that does not decode as UTF-8 is reported as not valid JSON,
    naming the artifact and its path, not as a bare codec error."""
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(argv + ["bad.json"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: {kind} artifact is not valid JSON: bad.json (")
    assert "Traceback" not in err


def test_verify_jacobi_empty_artifact_is_quick(tmp_path, monkeypatch, capsys):
    """The certificate walks only indices with a nonzero row, so the empty
    tensor at k = 100 passes at once instead of walking C(200, 3) triples."""
    monkeypatch.chdir(tmp_path)
    Path("empty.json").write_text(json.dumps({"parity": "even", "k": 100, "n": 200, "pi": []}))
    start = time.perf_counter()
    code, out, _ = run_cli(["verify", "jacobi", "--in", "empty.json"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert "jacobi: pass" in out


LIMITED_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1500 * 10**6, 1500 * 10**6))
from artifact.cli_reports import main
sys.exit(main(sys.argv[1:]))
"""


def _run_child(tmp_path, args):
    """python args in tmp_path with this checkout's src on the path."""
    env = dict(os.environ)
    env.pop("ARTIFACT_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).parent.parent / "src")]
                                        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", [["verify", "jacobi", "--in", "huge.json"],
                                  ["rank", "scan", "--in", "huge.json", "--samples", "1"]],
                         ids=["verify-jacobi", "rank-scan"])
def test_huge_empty_artifact_runs_in_bounded_memory(tmp_path, argv):
    """Memory follows the stored terms, not n^2: on the 52-byte empty
    artifact at k = 20000, in a child limited to 1.5 GB of address space,
    the lift and the point rank allocate nothing n x n and exit 0."""
    artifact = json.dumps({"parity": "even", "k": 20000, "n": 40000, "pi": []})
    assert len(artifact) == 52
    (tmp_path / "huge.json").write_text(artifact)
    start = time.perf_counter()
    proc = _run_child(tmp_path, ["-c", LIMITED_CHILD, *argv])
    assert time.perf_counter() - start < 10
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr


def test_out_of_memory_is_a_config_error(tmp_path):
    """A build at k = 10^8 runs out of a 1.5 GB address space: main exits
    2 with one line on stderr and no traceback."""
    proc = _run_child(tmp_path, ["-c", LIMITED_CHILD, "bracket", "build", "--parity", "even",
                                 "--k", "100000000"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "config error: out of memory\n"


@pytest.mark.parametrize("argv", [["verify", "jacobi", "--in", "deep.json"],
                                  ["verify", "compat", "--family", "deep.json"],
                                  ["verify", "independence", "--family", "deep.json"],
                                  ["rank", "scan", "--in", "deep.json"]],
                         ids=["verify-jacobi", "verify-compat", "verify-independence",
                              "rank-scan"])
def test_deeply_nested_artifact_is_a_config_error(tmp_path, argv):
    """100000 nested brackets exceed the JSON reader's recursion limit:
    every command that loads an artifact exits 2, with no traceback."""
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    proc = _run_child(tmp_path, ["-m", "artifact.cli_reports", *argv])
    assert proc.returncode == 2, proc.stderr
    assert "config error:" in proc.stderr and "Traceback" not in proc.stderr


def test_verify_compat_full_sweep(tmp_path, monkeypatch, capsys):
    """All 36 family pairs pass the sum-Jacobi test."""
    monkeypatch.chdir(tmp_path)
    run_cli(FAMILY_ODD, capsys)
    code, out, _ = run_cli(["verify", "compat", "--family", "family.json",
                            "--jobs", "2", "--json"], capsys)
    assert code == 0
    check_golden("verify_compat.stdout.json", out)


def test_verify_compat_schedule_independent(tmp_path, monkeypatch, capsys):
    """Worker count changes the digest knob but never the results."""
    monkeypatch.chdir(tmp_path)
    run_cli(FAMILY_ODD, capsys)
    _, out1, _ = run_cli(["verify", "compat", "--family", "family.json",
                          "--jobs", "1", "--json"], capsys)
    _, out4, _ = run_cli(["verify", "compat", "--family", "family.json",
                          "--jobs", "4", "--json"], capsys)
    r1, r4 = json.loads(out1), json.loads(out4)
    assert r1["data"] == r4["data"]
    assert r1["checks"] == r4["checks"]


def test_verify_compat_names_failing_pair(tmp_path, monkeypatch, capsys):
    """A bumped member coefficient fails the sweep with a pair and a witness."""
    monkeypatch.chdir(tmp_path)
    run_cli(["bracket", "family", "--parity", "even", "--k", "2"], capsys)
    data = json.loads(Path("family.json").read_text())
    data["basis"][1]["pi"][0]["q"][0]["val"] = "7"
    Path("bad.json").write_text(json.dumps(data))
    code, out, _ = run_cli(["verify", "compat", "--family", "bad.json", "--json"],
                           capsys)
    assert code == 1
    report = json.loads(out)
    check = report["checks"][0]
    assert check["status"] == "fail"
    assert 1 in check["witness"]["pair"]
    witness = check["witness"]["witness"]
    assert set(witness) == {"chart", "triple", "obstruction"}
    assert witness["chart"] == 0
    assert report["data"]["passed"] < report["data"]["pairs"]


def test_verify_compat_builds_one_witness(tmp_path, monkeypatch, capsys):
    """Every failing pair is counted, but only the first one gets a witness."""
    monkeypatch.chdir(tmp_path)
    run_cli(["bracket", "family", "--parity", "even", "--k", "2"], capsys)
    data = json.loads(Path("family.json").read_text())
    data["basis"][1]["pi"][0]["q"][0]["val"] = "7"
    Path("bad.json").write_text(json.dumps(data))
    members = FamilyBasis.from_json(data).tensors
    failing = [(i, j) for i, j in combinations(range(9), 2)
               if any(not J.is_zero for m in range(members[i].n)
                      for J in jacobiator(descend_to_chart(members[i] + members[j], m)).values())]
    assert len(failing) >= 2
    calls = []
    original = poisson_verify.jacobi_check
    monkeypatch.setattr(poisson_verify, "jacobi_check",
                        lambda T: calls.append(T) or original(T))
    code, out, _ = run_cli(["verify", "compat", "--family", "bad.json", "--json"],
                           capsys)
    assert code == 1
    report = json.loads(out)
    assert report["data"]["passed"] == 36 - len(failing)
    assert report["checks"][0]["witness"]["pair"] == list(failing[0])
    assert report["checks"][0]["witness"]["witness"]["chart"] == 0
    assert len(calls) == 1


def _entry(witness):
    return list(witness["triple"]), witness["obstruction"]


def test_cli_witness_is_first_chart_entry(tmp_path, monkeypatch, capsys):
    """verify jacobi and verify compat report the first nonzero chart-0
    Jacobiator entry of the chart route, triple and obstruction."""
    monkeypatch.chdir(tmp_path)
    run_cli(["bracket", "build", "--parity", "even", "--k", "3",
             "--Q", "1,-2,3", "--P", "2,1,-1,3,1"], capsys)
    data = json.loads(Path("tensor.json").read_text())
    entry = data["pi"][2]["q"][1]
    entry["val"] = str(Fraction(entry["val"]) + Fraction(1, 3))
    Path("bad.json").write_text(json.dumps(data))
    code, out, _ = run_cli(["verify", "jacobi", "--in", "bad.json", "--json"], capsys)
    assert code == 1
    witness = json.loads(out)["checks"][0]["witness"]
    assert _entry(witness) == _entry(chart_witness(BracketTensor.from_json(data)))

    run_cli(["bracket", "family", "--parity", "even", "--k", "2"], capsys)
    data = json.loads(Path("family.json").read_text())
    data["basis"][1]["pi"][0]["q"][0]["val"] = "7/2"
    Path("bad.json").write_text(json.dumps(data))
    code, out, _ = run_cli(["verify", "compat", "--family", "bad.json", "--json"], capsys)
    assert code == 1
    witness = json.loads(out)["checks"][0]["witness"]
    i, j = witness["pair"]
    members = FamilyBasis.from_json(data).tensors
    assert _entry(witness["witness"]) == _entry(chart_witness(members[i] + members[j]))


def _corrupt_pair(entry):
    entry["a"], entry["b"] = entry["b"], entry["a"]


@pytest.mark.parametrize("corrupt, reason", [
    (lambda pi: pi.append({"a": 2, "b": 99, "q": [{"u": 0, "v": 0, "val": "1"}]}),
     "pair (2, 99) is not 0 <= a < b < 4"),
    (lambda pi: _corrupt_pair(pi[-1]), "pair (3, 2) is not 0 <= a < b < 4"),
    (lambda pi: pi[0]["q"][0].update(val="1/0"), "cannot read '1/0' as an integer or p/q"),
    (lambda pi: pi[0]["q"][0].update(v=50),
     "pair (0, 1): monomial (0, 50) is not 0 <= u <= v < 4"),
    (lambda pi: pi[0]["q"][0].update(val=0.5), "cannot read 0.5 as an integer or p/q"),
    (lambda pi: pi.append(dict(pi[0])), "pair (0, 1) listed twice"),
    (lambda pi: pi[0]["q"][0].update(val="1e3"), "cannot read '1e3' as an integer or p/q"),
    (lambda pi: pi[0]["q"].extend([{"u": 0, "v": 0, "val": "1"}] * 2),
     "pair (0, 1): monomial (0, 0) listed twice"),
], ids=["pair-out-of-range", "pair-reversed", "zero-denominator",
        "monomial-out-of-range", "float-coefficient", "pair-twice", "exponent-coefficient",
        "monomial-twice"])
def test_verify_jacobi_rejects_corrupt_tensor(tmp_path, monkeypatch, capsys, corrupt, reason):
    """Entries the certifier cannot read exit 2 naming the entry, with no
    traceback."""
    monkeypatch.chdir(tmp_path)
    run_cli(BUILD_EVEN, capsys)
    data = json.loads(Path("tensor.json").read_text())
    corrupt(data["pi"])
    Path("bad.json").write_text(json.dumps(data))
    for argv in (["verify", "jacobi", "--in", "bad.json"],
                 ["rank", "scan", "--in", "bad.json", "--samples", "2"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err == f"config error: tensor artifact malformed: bad.json ({reason})\n"
        assert "pass" not in out


def test_verify_rejects_mixed_shape_family(tmp_path, monkeypatch, capsys):
    """Family members must share the family's (parity, k, n)."""
    monkeypatch.chdir(tmp_path)
    run_cli(FAMILY_ODD, capsys)
    run_cli(BUILD_EVEN, capsys)
    data = json.loads(Path("family.json").read_text())
    data["basis"][3] = json.loads(Path("tensor.json").read_text())
    Path("mixed.json").write_text(json.dumps(data))
    truncated = json.loads(Path("family.json").read_text())
    del truncated["basis"][8], truncated["labels"][8]
    Path("short.json").write_text(json.dumps(truncated))
    for name in ("mixed.json", "short.json"):
        for sub in ("compat", "independence"):
            code, out, err = run_cli(["verify", sub, "--family", name], capsys)
            assert code == 2
            assert "family artifact malformed" in err and "Traceback" not in err
            assert "pass" not in out


@pytest.mark.parametrize("field, value", [
    ("k", True),
    ("labels", "abcdefghi"),
    ("labels", list(range(1, 10))),
], ids=["k-bool", "labels-string", "labels-ints"])
def test_verify_rejects_family_header_types(tmp_path, monkeypatch, capsys, field, value):
    """A family whose k is not an integer, or whose labels are not a list
    of strings, exits 2 with no traceback."""
    monkeypatch.chdir(tmp_path)
    run_cli(FAMILY_ODD, capsys)
    data = json.loads(Path("family.json").read_text())
    data[field] = value
    Path("bad.json").write_text(json.dumps(data))
    code, out, err = run_cli(["verify", "independence", "--family", "bad.json"], capsys)
    assert code == 2
    assert "family artifact malformed" in err and "Traceback" not in err
    assert "pass" not in out


@pytest.mark.parametrize("corrupt, what", [
    (lambda data: data.update(pi=""), "pi"),
    (lambda data: data.update(pi={}), "pi"),
    (lambda data: data["pi"][0].update(q=""), "q"),
    (lambda data: data["pi"][0].update(q={}), "q"),
    (lambda data: data.update(basis=dict(zip(data["labels"], data["basis"]))), "basis"),
], ids=["pi-string", "pi-object", "q-string", "q-object", "basis-object"])
def test_verify_rejects_non_list_entries(tmp_path, monkeypatch, capsys, corrupt, what):
    """pi, every q and basis must be JSON lists: a string or an object is
    not read as empty but exits 2 naming the field, with no traceback."""
    monkeypatch.chdir(tmp_path)
    if what == "basis":
        run_cli(FAMILY_ODD, capsys)
        source, kind = "family.json", "family"
        commands = (["verify", "compat", "--family", "bad.json"],
                    ["verify", "independence", "--family", "bad.json"])
    else:
        run_cli(BUILD_EVEN, capsys)
        source, kind = "tensor.json", "tensor"
        commands = (["verify", "jacobi", "--in", "bad.json"],
                    ["rank", "scan", "--in", "bad.json", "--samples", "2"])
    data = json.loads(Path(source).read_text())
    corrupt(data)
    Path("bad.json").write_text(json.dumps(data))
    for argv in commands:
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert f"{kind} artifact malformed" in err and "Traceback" not in err
        assert f"{what} is a " in err and "not a list" in err
        assert "pass" not in out


def _first_member_twice(data):
    data["basis"][1] = data["basis"][0]


@pytest.mark.parametrize("key, corrupt", [
    ("pi", lambda data: data["pi"][0]["q"][0].update(val="1/1")),
    ("basis", _first_member_twice),
    ("val", lambda data: data["pi"][0]["q"][0].update(val="1/1")),
], ids=["pi-in-tensor", "basis-in-family", "val-in-q-entry"])
def test_repeated_key_is_a_config_error(tmp_path, monkeypatch, capsys, key, corrupt):
    """A JSON reader keeps the last of two equal keys, so an artifact whose
    first copy is corrupted and whose last is valid would pass unread.  Such
    an artifact exits 2 naming the key, with no traceback, while the
    corrupted copy alone fails its check."""
    monkeypatch.chdir(tmp_path)
    if key == "basis":
        run_cli(FAMILY_ODD, capsys)
        source = "family.json"
        commands = (["verify", "independence", "--family", "bad.json"],
                    ["verify", "compat", "--family", "bad.json"])
    else:
        run_cli(BUILD_EVEN, capsys)
        source = "tensor.json"
        commands = (["verify", "jacobi", "--in", "bad.json"],
                    ["rank", "scan", "--in", "bad.json", "--samples", "2"])
    text = Path(source).read_text()
    data = json.loads(text)
    corrupt(data)
    Path("bad.json").write_text(json.dumps(data))
    assert run_cli(commands[0], capsys)[0] == 1
    first = '"1/1"' if key == "val" else json.dumps(data[key])
    Path("bad.json").write_text(text.replace(f'"{key}": ', f'"{key}": {first}, "{key}": ', 1))
    for argv in commands:
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert f"repeats the key '{key}'" in err and "Traceback" not in err
        assert "pass" not in out


def _json_paths(value, path=()):
    """The path of every node below the root of a JSON tree."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


# Each artifact kind: its valid golden instance and the commands that
# read it.  No replacement is an integer above 64, so no
# mutated artifact asks for work in proportion to a large k or n.
MUTATED = {
    "tensor": ("tensor_even_k2.json", (["verify", "jacobi", "--in"],
                                       ["rank", "scan", "--samples", "2", "--in"])),
    "family": ("family_odd_k1.json", (["verify", "compat", "--family"],
                                      ["verify", "independence", "--family"])),
}
REPLACEMENTS = (None, True, "x", "", -1, 0, 3, 1.5, [], {}, "1/0", "9" * 5000)


@st.composite
def mutated_artifacts(draw):
    """(kind, artifact) with one node of a valid artifact deleted, replaced
    or wrapped in a list."""
    kind = draw(st.sampled_from(sorted(MUTATED)))
    data = json.loads((GOLDEN / MUTATED[kind][0]).read_text())
    *head, last = draw(st.sampled_from(list(_json_paths(data))))
    parent = reduce(lambda node, key: node[key], head, data)
    how = draw(st.sampled_from(["delete", "wrap", "replace"]))
    if how == "delete":
        del parent[last]
    elif how == "wrap":
        parent[last] = [parent[last]]
    else:
        parent[last] = draw(st.sampled_from(REPLACEMENTS))
    return kind, data


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=mutated_artifacts())
def test_mutated_artifact_exits_with_a_documented_code(case):
    """Every command that reads an artifact, given a valid one with one
    node deleted, replaced or wrapped, exits 0, 1 or 2 and raises nothing."""
    kind, data = case
    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "artifact.json")
        Path(source).write_text(json.dumps(data))
        for argv in MUTATED[kind][1]:
            argv = argv + [source, "--json"] + (["--out", os.path.join(tmp, "hist.csv")]
                                                if argv[0] == "rank" else [])
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv


@pytest.mark.parametrize("k, n", [(0, 0), (-1, -2)], ids=["k0", "k-1"])
def test_artifacts_below_level_one_are_rejected(tmp_path, monkeypatch, capsys, k, n):
    """A tensor or family artifact with k < 1 is malformed even when n
    matches 2k: the loaders raise, and every command reading it exits 2
    with nothing on stdout.  The loaders are asserted first, since a rank
    scan that accepted such a tensor would draw empty points forever."""
    tensor = {"parity": "even", "k": k, "n": n, "pi": []}
    family = {"parity": "even", "k": k, "basis": [tensor] * 9,
              "labels": [f"m{i}" for i in range(9)]}
    with pytest.raises(ValueError):
        BracketTensor.from_json(tensor)
    with pytest.raises(ValueError):
        FamilyBasis.from_json(family)
    monkeypatch.chdir(tmp_path)
    Path("tensor.json").write_text(json.dumps(tensor))
    Path("family.json").write_text(json.dumps(family))
    for argv, kind in ((["verify", "jacobi", "--in", "tensor.json"], "tensor"),
                       (["rank", "scan", "--in", "tensor.json", "--samples", "2"], "tensor"),
                       (["verify", "compat", "--family", "family.json"], "family"),
                       (["verify", "independence", "--family", "family.json"], "family")):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert f"{kind} artifact malformed" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["bracket", "build", "--parity", "even", "--k", "0"],
    ["bracket", "family", "--parity", "odd", "--k", "-1"],
    ["verify", "linearity", "--parity", "odd", "--k", "0"],
    ["szego", "check", "--parity", "even", "--k", "0"],
], ids=["build", "family", "linearity", "szego"])
def test_curve_commands_reject_k_below_one(tmp_path, monkeypatch, capsys, argv):
    """k < 1 is a configuration error (exit 2) that writes no artifact."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and "config error: k must be a positive integer" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("c", ["5", "1/0"])
@pytest.mark.parametrize("argv", [
    ["bracket", "build", "--parity", "even", "--k", "2"],
    ["szego", "check", "--parity", "even", "--P", "1,0,0,0,1"],
    ["verify", "linearity", "--parity", "even", "--k", "1", "--samples", "1"],
], ids=["build", "szego", "linearity"])
def test_even_parity_rejects_pole_parameter(tmp_path, monkeypatch, capsys, argv, c):
    """The even parity has no pole parameter: a nonzero or unreadable --c
    exits 2 with no traceback and no artifact instead of being ignored,
    while --c 0 runs exactly as no --c does, config digest included."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv + ["--c", c], capsys)
    assert code == 2
    assert out == "" and err.startswith("config error: ") and "Traceback" not in err
    if c == "5":
        assert "the even parity has no pole parameter c" in err
    assert not list(tmp_path.iterdir())
    code, out, _ = run_cli(argv + ["--c", "0", "--json"], capsys)
    assert code == 0
    assert run_cli(argv + ["--json"], capsys)[1] == out


def test_verify_independence_full_rank(tmp_path, monkeypatch, capsys):
    """The nine-member basis has rank nine over the rationals."""
    monkeypatch.chdir(tmp_path)
    run_cli(FAMILY_ODD, capsys)
    code, out, _ = run_cli(["verify", "independence", "--family", "family.json",
                            "--json"], capsys)
    assert code == 0
    check_golden("verify_independence.stdout.json", out)


def test_verify_independence_flags_degenerate_family(tmp_path, monkeypatch, capsys):
    """The two-coordinate even family collapses and the check fails."""
    monkeypatch.chdir(tmp_path)
    run_cli(["bracket", "family", "--parity", "even", "--k", "1"], capsys)
    code, out, _ = run_cli(["verify", "independence", "--family", "family.json",
                            "--json"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["data"]["rank"] == 0
    assert report["checks"][0]["status"] == "fail"


def test_verify_linearity_transcript(tmp_path, monkeypatch, capsys):
    """Seeded cross-difference sweep passes and matches the golden report."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["verify", "linearity", "--parity", "even", "--k", "2",
                            "--samples", "2", "--seed", "7", "--json"], capsys)
    assert code == 0
    check_golden("verify_linearity.stdout.json", out)


def test_verify_linearity_odd_with_offset(tmp_path, monkeypatch, capsys):
    """The odd-parity sweep at a moved base point also passes."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["verify", "linearity", "--parity", "odd", "--k", "1",
                            "--c", "2", "--samples", "2", "--json"], capsys)
    assert code == 0
    assert json.loads(out)["checks"][0]["status"] == "pass"


def test_verify_linearity_reports_the_failing_sample(tmp_path, monkeypatch, capsys):
    """A build that doubles every tensor with Q_0 != 0 is not affine: the
    sweep exits 1 and names the first failing sample's two curves, in
    both output modes."""
    real = bracket_forge.build_tensor

    def doubled(model):
        tensor = real(model)
        return tensor.scale(2) if model.Q[0] != 0 else tensor

    monkeypatch.setattr(bracket_forge, "build_tensor", doubled)
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "linearity", "--parity", "even", "--k", "2", "--samples", "3",
            "--seed", "7"]
    witness = {"sample": 0, "Q": [-1, -2, 0], "P": [2, -3, -3, 3, 1],
               "Q'": [-3, -1, 1], "P'": [-3, 1, -2, -3, -3]}
    code, out, _ = run_cli(argv + ["--json"], capsys)
    assert code == 1
    assert json.loads(out)["checks"] == [
        {"name": "affine linearity", "status": "fail", "witness": witness}]
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    assert f"affine linearity: fail  [{witness}]\n" in out


def test_rank_scan_transcript(tmp_path, monkeypatch, capsys):
    """Rank scan writes the histogram CSV and a frozen JSON report."""
    monkeypatch.chdir(tmp_path)
    run_cli(BUILD_EVEN, capsys)
    code, out, _ = run_cli(["rank", "scan", "--in", "tensor.json",
                            "--samples", "12", "--seed", "42", "--json"], capsys)
    assert code == 0
    check_golden("rank_scan.stdout.json", out)
    check_golden("rank_hist.csv", Path("rank_hist.csv").read_text())


@pytest.mark.parametrize("argv", [
    ["rank", "scan", "--in", "tensor.json", "--samples", "0"],
    ["verify", "linearity", "--parity", "even", "--k", "2", "--samples", "0"],
], ids=["rank-scan", "linearity"])
def test_sample_count_below_one_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    """Zero samples exits 2 with no report, no traceback and no file
    written: rank_scan bounds its own samples, linearity checks its loop."""
    monkeypatch.chdir(tmp_path)
    run_cli(BUILD_EVEN, capsys)
    before = sorted(tmp_path.iterdir())
    code, out, err = run_cli(argv + ["--json"], capsys)
    assert code == 2
    assert out == "" and err.startswith("config error: ") and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


def test_szego_check_even_transcript(tmp_path, monkeypatch, capsys):
    """Quartic even curve certifies residues 1 and (1/2, 1/2)."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["szego", "check", "--parity", "even",
                            "--Q", "0,0,0", "--P", "1,0,0,0,1", "--json"], capsys)
    assert code == 0
    check_golden("szego_even.stdout.json", out)


def test_szego_check_odd_transcript(tmp_path, monkeypatch, capsys):
    """Odd curve with quartic branch polynomial certifies the same residues."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["szego", "check", "--parity", "odd", "--c", "0",
                            "--Q", "0,0,0", "--P", "1,0,1,2", "--json"], capsys)
    assert code == 0
    check_golden("szego_odd.stdout.json", out)


def test_szego_check_degenerate_curve_fails(tmp_path, monkeypatch, capsys):
    """A curve without two points over infinity fails the certification."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["szego", "check", "--parity", "even",
                            "--P", "3,0,0,0,0", "--json"], capsys)
    assert code == 1
    assert json.loads(out)["checks"][0]["status"] == "fail"


def test_szego_check_internal_error_is_not_a_check(tmp_path, monkeypatch, capsys):
    """Only DegenerateDivisor is a failed certificate: any other ValueError
    from the certificate is a config error, exit 2, with no check line."""
    from artifact import curve_ring

    def broken(model):
        raise ValueError("internal slip")

    monkeypatch.setattr(curve_ring, "verify_szego_residues", broken)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["szego", "check", "--parity", "even",
                              "--P", "1,0,0,0,1", "--json"], capsys)
    assert code == 2
    assert "config error" in err and "internal slip" in err
    assert out == ""


def test_helix_table_transcript(tmp_path, monkeypatch, capsys):
    """The class table over a symmetric window matches the golden text."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["helix", "--range=-5..5"], capsys)
    assert code == 0
    check_golden("helix_table.stdout.txt", out)


def test_helix_table_json_and_artifact(tmp_path, monkeypatch, capsys):
    """JSON mode returns the rows and --out writes them to a file."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["helix", "--range=-3..3", "--json",
                            "--out", "helix.json"], capsys)
    assert code == 0
    check_golden("helix_rows.stdout.json", out)
    rows = json.loads(Path("helix.json").read_text())["rows"]
    assert rows[0] == {"n": -3, "rank": 13, "chi": 15}


def test_helix_bad_range(tmp_path, monkeypatch, capsys):
    """A malformed range string is a configuration error naming it."""
    monkeypatch.chdir(tmp_path)
    for span, reason in (("5..-5", "empty range '5..-5'"),
                         ("5", "range must look like -5..5, got '5'"),
                         ("a..b", "range bounds must be integers, got 'a..b'")):
        code, out, err = run_cli(["helix", f"--range={span}"], capsys)
        assert code == 2 and out == ""
        assert err == f"config error: {reason}\n"


def test_helix_rows_are_the_seed_combination(tmp_path, monkeypatch, capsys):
    """Each row of the table is the seed combination f(2n) E_1 - f(2n-2) E_0
    over a window well past the goldens' -5..5."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["helix", "--range=-300..300", "--json"], capsys)
    assert code == 0
    rows = json.loads(out)["data"]["rows"]
    assert rows == [dict(zip(("n", "rank", "chi"), (n, *seed_combination(n))))
                    for n in range(-300, 301)]


def test_helix_range_past_the_print_limit(tmp_path, monkeypatch, capsys):
    """A --range that reaches a class with more digits than an integer may
    print is refused, fast and before any row, on either side of 0; the
    class just below that edge prints."""
    monkeypatch.chdir(tmp_path)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        started = time.perf_counter()
        code, out, err = run_cli(["helix", "--range=0..12000"], capsys)
        assert time.perf_counter() - started < 5
        assert code == 2 and out == ""
        assert err == ("config error: --range reaches n=12000, whose class has more than "
                       "4300 digits, the most an integer may print\n")
        sys.set_int_max_str_digits(640)
        for sign in (1, -1):
            edge = sign * next(n for n in count(1) if any(
                abs(v) >= 10 ** 640 for v in helix_class(sign * n)))
            below = edge - sign
            assert run_cli(["helix", f"--range={below}..{below}", "--json"], capsys)[0] == 0
            code, _, err = run_cli(["helix", f"--range={min(0, edge)}..{max(0, edge)}"], capsys)
            assert code == 2 and f"--range reaches n={edge}," in err
    finally:
        sys.set_int_max_str_digits(limit)


def test_helix_solve_transcript(tmp_path, monkeypatch, capsys):
    """Solver witness for (7, 3) matches the golden report."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["helix", "solve", "--d", "7", "--r", "3", "--json"],
                           capsys)
    assert code == 0
    check_golden("helix_solve.stdout.json", out)


def test_helix_solve_no_witness(tmp_path, monkeypatch, capsys):
    """Degrees off the +-1 residues report no solution but still exit 0."""
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["helix", "solve", "--d", "12", "--r", "3", "--json"],
                           capsys)
    assert code == 0
    report = json.loads(out)
    assert report["data"]["solution_fields"] is None


def test_helix_solve_invalid_rank(tmp_path, monkeypatch, capsys):
    """Even rank input is rejected as a configuration error."""
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(["helix", "solve", "--d", "9", "--r", "4"], capsys)
    assert code == 2
    assert "config error" in err


def _commands():
    """{command words: parser} of each parser a command line can end on:
    every leaf, and helix with its optional subcommand."""
    commands = {}

    def walk(parser, path):
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs or not subs[0].required:
            commands[path] = parser
        for action in subs:
            for name, sub in action.choices.items():
                walk(sub, path + (name,))

    walk(build_parser(), ())
    return commands


def test_every_command_names_its_handler():
    """Each parser a command line can end on sets its own callable run
    default, which main calls."""
    handlers = {path: parser.get_default("run") for path, parser in _commands().items()}
    assert ("helix",) in handlers and ("helix", "solve") in handlers
    assert len(handlers) == 10
    assert all(callable(run) for run in handlers.values()), handlers
    assert len(set(handlers.values())) == len(handlers)


# The rest of a passing command line for each command, run beside the
# golden tensor and family artifacts.
COMMAND_TAILS = {
    ("bracket", "build"): ["--parity", "even", "--k", "1"],
    ("bracket", "family"): ["--parity", "odd", "--k", "1"],
    ("verify", "jacobi"): ["--in", "tensor.json"],
    ("verify", "compat"): ["--family", "family.json"],
    ("verify", "independence"): ["--family", "family.json"],
    ("verify", "linearity"): ["--parity", "even", "--k", "1", "--samples", "1"],
    ("rank", "scan"): ["--in", "tensor.json", "--samples", "1"],
    ("szego", "check"): ["--parity", "even"],
    ("helix",): ["--range=0..1"],
    ("helix", "solve"): ["--d", "7", "--r", "3"],
}


def test_out_only_where_an_artifact_is_written(tmp_path, monkeypatch, capsys):
    """A command that offers --out writes the file it names; every other
    command refuses --out as a usage error and writes nothing."""
    monkeypatch.chdir(tmp_path)
    Path("tensor.json").write_text((GOLDEN / "tensor_even_k2.json").read_text())
    Path("family.json").write_text((GOLDEN / "family_odd_k1.json").read_text())
    commands = _commands()
    assert set(commands) == set(COMMAND_TAILS)
    for path, parser in commands.items():
        argv = [*path, *COMMAND_TAILS[path], "--out", "named.out"]
        if any("--out" in action.option_strings for action in parser._actions):
            assert run_cli(argv, capsys)[0] == 0, path
            assert Path("named.out").exists(), path
            Path("named.out").unlink()
        else:
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2, path
            assert "unrecognized arguments: --out" in capsys.readouterr().err
            assert not Path("named.out").exists(), path


def test_helix_solve_refuses_the_table_options(tmp_path, monkeypatch, capsys):
    """--range and --out before solve belong to the table: solve exits 2,
    names the option and writes nothing.  A --json there is honoured."""
    monkeypatch.chdir(tmp_path)
    for option in ("--range", "--out"):
        code, out, err = run_cli(["helix", f"{option}=1..2", "solve", "--d", "7", "--r", "3"],
                                 capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: {option} applies to the helix table, not to helix solve\n"
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run_cli(["helix", "--json", "solve", "--d", "7", "--r", "3"], capsys)
    assert code == 0
    check_golden("helix_solve.stdout.json", out)


def test_env_var_output_directory(tmp_path, monkeypatch, capsys):
    """Relative artifact paths, the default name and a relative --out, land
    inside the directory named by the env var; an absolute --out is kept."""
    outdir = tmp_path / "artifacts"
    outdir.mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ARTIFACT_OUT_DIR", str(outdir))
    code, _, _ = run_cli(BUILD_EVEN, capsys)
    assert code == 0
    assert (outdir / "tensor.json").exists()
    code, out, _ = run_cli(BUILD_EVEN + ["--out", "named.json"], capsys)
    assert code == 0 and out.endswith(f"wrote {outdir / 'named.json'}\n")
    assert (outdir / "named.json").exists() and not (tmp_path / "named.json").exists()
    absolute = tmp_path / "absolute.json"
    code, out, _ = run_cli(BUILD_EVEN + ["--out", str(absolute)], capsys)
    assert code == 0 and out.endswith(f"wrote {absolute}\n")
    assert absolute.exists() and not (outdir / "absolute.json").exists()


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", [
    BUILD_EVEN,
    FAMILY_ODD,
    ["rank", "scan", "--in", "tensor.json"],
    ["helix", "--range=-1..1"],
], ids=["build", "family", "rank-scan", "helix"])
def test_unwritable_out_is_an_io_error(tmp_path, monkeypatch, capsys, argv, mode):
    """--out naming a directory exits 2 with one io error line, no
    traceback, and nothing on stdout: every writer writes before it prints."""
    monkeypatch.chdir(tmp_path)
    run_cli(BUILD_EVEN, capsys)
    Path("taken").mkdir()
    code, out, err = run_cli(argv + ["--out", "taken"] + mode, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("io error: ") and "Traceback" not in err


def test_rank_scan_csv_lists_ranks_in_ascending_order(tmp_path, monkeypatch, capsys):
    """On x_0^2 d_1 ^ d_2, of rank 0 exactly on x_0 = 0, 3000 seeded points
    give two ranks, and the CSV lists them in ascending order."""
    monkeypatch.chdir(tmp_path)
    square = BracketTensor("even", 2, 4, {(1, 2): {(0, 0): 1}})
    Path("square.json").write_text(json.dumps(square.to_json()))
    code, _, _ = run_cli(["rank", "scan", "--in", "square.json",
                          "--samples", "3000", "--seed", "0"], capsys)
    assert code == 0
    assert Path("rank_hist.csv").read_text() == "rank,count\n0,1\n2,2999\n"


def test_artifacts_byte_identical_across_reruns(tmp_path, monkeypatch, capsys):
    """Same config twice produces byte-identical artifacts and stdout."""
    monkeypatch.chdir(tmp_path)
    _, out1, _ = run_cli(BUILD_EVEN + ["--json", "--out", "a.json"], capsys)
    first = Path("a.json").read_bytes()
    _, out2, _ = run_cli(BUILD_EVEN + ["--json", "--out", "a.json"], capsys)
    assert Path("a.json").read_bytes() == first
    assert out1 == out2


# Option variants the goldens do not cover, with the config_digest each
# has printed since the run record was a NamedTuple.  In this order every
# artifact is written before a command reads it.
DIGEST_MATRIX = [
    (BUILD_EVEN + ["--a0", "5", "--json"], "0154196466cd"),
    (BUILD_EVEN + ["--flip-sign", "--out", "flipped.json", "--json"], "297209f61a03"),
    (["bracket", "build", "--parity", "odd", "--k", "1", "--c=-3/2", "--Q=1", "--P=0,1,2,3",
      "--json"], "af1859a76c58"),
    (["bracket", "build", "--parity", "even", "--k", "2", "--Q=1/2,-2", "--P=1",
      "--out", "rational.json", "--json"], "f275d6e59926"),
    (FAMILY_ODD + ["--out", "f.json", "--json"], "1986ee4290db"),
    (["verify", "jacobi", "--in", "flipped.json", "--json"], "cc9df864121b"),
    (["verify", "compat", "--family", "f.json", "--jobs", "0", "--json"], "85675db35209"),
    (["verify", "compat", "--family", "f.json", "--jobs", "3", "--json"], "387176b38c1e"),
    (["verify", "independence", "--family", "f.json", "--json"], "237b1400d80a"),
    (["verify", "linearity", "--parity", "even", "--k", "2", "--c", "0", "--samples", "1",
      "--json"], "e56caedbeb8f"),
    (["verify", "linearity", "--parity", "odd", "--k", "1", "--c", "1/2", "--samples", "1",
      "--seed", "3", "--json"], "bcf9f0e4edeb"),
    (["rank", "scan", "--in", "tensor.json", "--samples", "3", "--json"], "95b3da2d5a15"),
    (["rank", "scan", "--in", "tensor.json", "--samples", "3", "--seed", "5", "--out", "r.csv",
      "--json"], "cbc2790a797d"),
    (["szego", "check", "--parity", "even", "--k", "4", "--Q", "1,-2,3", "--P", "2,1,-1,3,1",
      "--json"], "4f4e6f70d24e"),
    (["szego", "check", "--parity", "odd", "--c", "1", "--Q", "1,-2,3", "--P", "2,1,-1,3",
      "--json"], "daef4aaa0f9d"),
    (["helix", "--range=-2..2", "--out", "h.json", "--json"], "9bae29ad6a7c"),
    (["helix", "--json", "solve", "--d", "7", "--r", "3"], "a16074a45b82"),
    (["helix", "solve", "--d", "7", "--r", "3", "--json"], "a16074a45b82"),
]


def test_config_digest_across_options(tmp_path, monkeypatch, capsys):
    """Each option variant keeps its pinned config_digest; rank scan
    with and without --out, helix solve with --json on either side."""
    monkeypatch.chdir(tmp_path)
    for argv, digest in DIGEST_MATRIX:
        code, out, _ = run_cli(argv, capsys)
        assert code == 0, argv
        assert json.loads(out)["config_digest"] == digest, argv


def test_empty_coefficients_read_as_zero(tmp_path, monkeypatch, capsys):
    """--Q= is the zero polynomial: the same tensor and config_digest as --Q=0."""
    monkeypatch.chdir(tmp_path)
    runs = []
    for q in ("--Q=", "--Q=0"):
        code, out, _ = run_cli(["bracket", "build", "--parity", "even", "--k", "1", q, "--P=1",
                                "--out", "e.json", "--json"], capsys)
        assert code == 0
        runs.append((json.loads(out)["config_digest"], Path("e.json").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == "5f37accfc35c"
