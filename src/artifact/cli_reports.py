"""Command-line driver: builds, verification sweeps, flat artifacts.

Subcommands mirror the library seams.  `bracket build` and `bracket
family` wrap the tensor constructors, `verify` wraps the Jacobi,
compatibility and independence certificates, `rank scan` and `szego
check` wrap the samplers, and `helix` wraps the integer-lattice
bookkeeping.  Output is deterministic for a fixed config: orderings are
sorted, the seed is explicit, and no timing data enters any payload.
Elapsed time is written to stderr only.

Exit codes: 0 all checks pass, 1 a normative check failed or a build was
rejected, 2 usage or configuration error.

Each handler imports the library modules it uses in its own body, so a
command loads only those: a usage error loads none, `helix` only
helix_k0, `szego check` only curve_ring and exact_core.  Since the
lookup happens at call time, a wrapper installed on a library function
before the call is the one the handler runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

ENV_OUT_DIR = "ARTIFACT_OUT_DIR"


class ConfigError(ValueError):
    """Invalid command-line configuration."""


class JobConfig(NamedTuple):
    """Validated parameters of one run, hashable into a digest."""

    command: str
    parity: Optional[str] = None
    k: Optional[int] = None
    q: Optional[Tuple[Fraction, ...]] = None
    p: Optional[Tuple[Fraction, ...]] = None
    c: Optional[Fraction] = None
    seed: int = 42
    samples: Optional[int] = None
    out: Optional[str] = None
    flip_sign: bool = False
    jobs: int = 0
    source: Optional[str] = None
    span: Optional[Tuple[int, int]] = None
    degree: Optional[int] = None
    rank: Optional[int] = None

    def digest(self) -> str:
        record = {key: _digest_value(value) for key, value in self._asdict().items()
                  if value is not None}
        blob = json.dumps(record, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def _digest_value(value):
    """Rationals as "p/q" strings, tuples as lists, anything else as is."""
    if isinstance(value, tuple):
        return [_digest_value(v) for v in value]
    if isinstance(value, Fraction):
        from .exact_core import rat_str
        return rat_str(value)
    return value


class RunReport:
    """Per-run outcome; the JSON payload carries no timing data."""

    def __init__(self, command: str, config_digest: str) -> None:
        self.command = command
        self.config_digest = config_digest
        self.checks: List[dict] = []
        self.artifacts: List[str] = []
        self.data: Dict[str, object] = {}

    def add_check(self, name: str, status: str, witness=None) -> None:
        entry: Dict[str, object] = {"name": name, "status": status}
        if witness is not None:
            entry["witness"] = witness
        self.checks.append(entry)

    @property
    def ok(self) -> bool:
        return all(check["status"] != "fail" for check in self.checks)

    def to_json(self) -> dict:
        payload: Dict[str, object] = {
            "command": self.command,
            "config_digest": self.config_digest,
            "checks": self.checks,
            "artifacts": self.artifacts,
        }
        if self.data:
            payload["data"] = self.data
        return payload


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what}: cannot read {text!r} as a rational") from exc


def _parse_coeffs(text: str, a0: Fraction, limit: int, what: str) -> Tuple[Fraction, ...]:
    """Ascending coefficient list, or the constant-curve shorthand."""
    if text.strip() == "a0-only":
        return (a0,)
    if not text.strip():
        return (Fraction(0),)
    coeffs = tuple(_parse_rational(tok, what) for tok in text.split(","))
    if len(coeffs) > limit:
        raise ConfigError(f"{what}: got {len(coeffs)} coefficients, at most {limit} allowed")
    return coeffs


def _pole_parameter(args) -> Optional[Fraction]:
    """--c for the odd parity; the even parity has none, so a nonzero --c
    is a configuration error there and the config records None."""
    c = _parse_rational(args.c, "--c")
    if args.parity == "odd":
        return c
    if c:
        raise ConfigError("the even parity has no pole parameter c")
    return None


def _curve_config(args, command: str) -> JobConfig:
    from .curve_ring import P_LEN, Q_LEN
    a0 = _parse_rational(args.a0, "--a0")
    q = _parse_coeffs(args.Q, a0, Q_LEN, "--Q")
    p = _parse_coeffs(args.P, a0, P_LEN[args.parity], "--P")
    return JobConfig(command=command, parity=args.parity, k=args.k, q=q, p=p,
                     c=_pole_parameter(args), out=getattr(args, "out", None),
                     flip_sign=getattr(args, "flip_sign", False))


def _resolve_out(path: Optional[str], default_name: str) -> str:
    chosen = path if path is not None else default_name
    base = os.environ.get(ENV_OUT_DIR, "")
    if base and not os.path.isabs(chosen):
        chosen = os.path.join(base, chosen)
    return chosen


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_lines(path: str, lines: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {path} ({exc})") from exc


def _load_artifact(path: str, cls, what: str):
    """cls.from_json of the JSON file at path; ConfigError naming `what`
    (tensor or family) if it is missing, not JSON or malformed."""
    data = _load_json(path, f"{what} artifact")
    try:
        return cls.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{what} artifact malformed: {path} ({exc})") from exc


def _finish(report: RunReport, args) -> int:
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        for key, value in report.data.items():
            print(f"{key}: {value}")
        for check in report.checks:
            suffix = f"  [{check['witness']}]" if check["status"] == "fail" else ""
            print(f"{check['name']}: {check['status']}{suffix}")
        for path in report.artifacts:
            print(f"wrote {path}")
    return 0 if report.ok else 1


def _run_bracket_build(args) -> int:
    from .bracket_forge import build_tensor
    from .curve_ring import CurveModel
    cfg = _curve_config(args, "bracket build")
    tensor = build_tensor(CurveModel(cfg.parity, cfg.k, cfg.q, cfg.p, c=cfg.c))
    if cfg.flip_sign:
        flipped = tensor.scale(-1)
        flipped.provenance = dict(tensor.provenance, sign="flipped")
        tensor = flipped
    path = _resolve_out(cfg.out, "tensor.json")
    _write_json(path, tensor.to_json())
    report = RunReport("bracket build", cfg.digest())
    report.artifacts.append(path)
    report.data["dimension"] = tensor.n
    report.data["nonzero coefficients"] = sum(len(f) for f in tensor.pi.values())
    return _finish(report, args)


def _run_bracket_family(args) -> int:
    from .bracket_forge import build_family
    cfg = JobConfig(command="bracket family", parity=args.parity, k=args.k,
                    out=args.out)
    family = build_family(args.parity, args.k)
    path = _resolve_out(cfg.out, "family.json")
    _write_json(path, family.to_json())
    report = RunReport("bracket family", cfg.digest())
    report.artifacts.append(path)
    report.data["members"] = len(family.tensors)
    report.data["dimension"] = family.tensors[0].n
    report.data["labels"] = ",".join(family.labels)
    return _finish(report, args)


def _run_verify_jacobi(args) -> int:
    from .bracket_forge import BracketTensor
    from .poisson_verify import jacobi_check
    cfg = JobConfig(command="verify jacobi", source=args.source)
    tensor = _load_artifact(args.source, BracketTensor, "tensor")
    verdict = jacobi_check(tensor)
    report = RunReport("verify jacobi", cfg.digest())
    report.data["dimension"] = tensor.n
    report.data["charts"] = tensor.n
    report.add_check("jacobi", "pass" if verdict["holds"] else "fail",
                     verdict["witness"])
    return _finish(report, args)


def _run_verify_compat(args) -> int:
    from .bracket_forge import FamilyBasis
    from .poisson_verify import compatibility_check, schouten_certificate
    cfg = JobConfig(command="verify compat", source=args.family, jobs=args.jobs)
    family = _load_artifact(args.family, FamilyBasis, "family")
    members = family.tensors
    pairs = list(combinations(range(len(members)), 2))
    failures = [(i, j) for i, j in pairs
                if not schouten_certificate(members[i] + members[j])]
    witness = None
    if failures:
        i, j = failures[0]
        witness = {"pair": [i, j],
                   "witness": compatibility_check(members[i], members[j])["witness"]}
    report = RunReport("verify compat", cfg.digest())
    report.data["pairs"] = len(pairs)
    report.data["passed"] = len(pairs) - len(failures)
    report.add_check("compatibility", "fail" if failures else "pass", witness)
    return _finish(report, args)


def _run_verify_independence(args) -> int:
    from .bracket_forge import FamilyBasis
    from .poisson_verify import independence_rank
    cfg = JobConfig(command="verify independence", source=args.family)
    family = _load_artifact(args.family, FamilyBasis, "family")
    rank = independence_rank(family)
    report = RunReport("verify independence", cfg.digest())
    report.data["members"] = len(family.tensors)
    report.data["rank"] = rank
    full = rank == len(family.tensors)
    report.add_check("independence", "pass" if full else "fail",
                     None if full else {"rank": rank})
    return _finish(report, args)


def _run_verify_linearity(args) -> int:
    from .bracket_forge import build_tensor
    from .curve_ring import P_LEN, Q_LEN, CurveModel
    if args.samples < 1:
        raise ConfigError("samples must be positive")
    c = _pole_parameter(args)
    cfg = JobConfig(command="verify linearity", parity=args.parity, k=args.k,
                    c=c, seed=args.seed, samples=args.samples)
    rng = random.Random(args.seed)
    p_len = P_LEN[args.parity]

    def tensor(q, p):
        return build_tensor(CurveModel(args.parity, args.k, q, p, c=c))

    def draw() -> Tuple[List[int], List[int]]:
        return ([rng.randrange(-3, 4) for _ in range(Q_LEN)],
                [rng.randrange(-3, 4) for _ in range(p_len)])

    base = tensor([0] * Q_LEN, [0] * p_len)
    failed = None
    for index in range(args.samples):
        q1, p1 = draw()
        q2, p2 = draw()
        summed = [a + b for a, b in zip(q1, q2)], [a + b for a, b in zip(p1, p2)]
        cross = tensor(*summed) - tensor(q1, p1) - tensor(q2, p2) + base
        if not cross.is_zero:
            failed = {"sample": index, "Q": q1, "P": p1, "Q'": q2, "P'": p2}
            break
    report = RunReport("verify linearity", cfg.digest())
    report.data["samples"] = args.samples
    report.add_check("affine linearity", "fail" if failed else "pass", failed)
    return _finish(report, args)


def _run_rank_scan(args) -> int:
    from .bracket_forge import BracketTensor
    from .poisson_verify import rank_scan
    if args.samples < 1:
        raise ConfigError("samples must be positive")
    cfg = JobConfig(command="rank scan", source=args.source, seed=args.seed,
                    samples=args.samples, out=args.out)
    tensor = _load_artifact(args.source, BracketTensor, "tensor")
    scan = rank_scan(tensor, args.samples, args.seed)
    path = _resolve_out(cfg.out, "rank_hist.csv")
    _write_lines(path, scan.csv_rows())
    report = RunReport("rank scan", cfg.digest())
    report.artifacts.append(path)
    report.data["samples"] = args.samples
    report.data["histogram"] = {str(r): c for r, c in sorted(scan.histogram.items())}
    report.data["generic_rank"] = scan.generic_rank
    report.data["pencil_drops"] = scan.pencil_drops
    report.add_check("deep rank drops", "recorded",
                     {"flagged": len(scan.flagged)})
    return _finish(report, args)


def _run_szego_check(args) -> int:
    from .curve_ring import CurveModel, verify_szego_residues
    from .exact_core import rat_str
    cfg = _curve_config(args, "szego check")
    model = CurveModel(cfg.parity, cfg.k, cfg.q, cfg.p, c=cfg.c)
    report = RunReport("szego check", cfg.digest())
    try:
        cert = verify_szego_residues(model)
    except (ValueError, ArithmeticError) as exc:
        report.add_check("szego residues", "fail", str(exc))
        return _finish(report, args)
    report.data["diagonal"] = rat_str(cert.diagonal)
    report.data["at_infinity"] = [rat_str(v) for v in cert.at_infinity]
    report.add_check("szego residues", "pass")
    return _finish(report, args)


def _parse_span(text: str) -> Tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise ConfigError(f"range must look like -5..5, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"range bounds must be integers, got {text!r}") from exc
    if lo > hi:
        raise ConfigError(f"empty range {text!r}")
    return lo, hi


def _run_helix_table(args) -> int:
    from .helix_k0 import helix_class
    span = _parse_span(args.range)
    cfg = JobConfig(command="helix", span=span, out=args.out)
    rows = []
    for n in range(span[0], span[1] + 1):
        cls = helix_class(n)
        rows.append({"n": n, "rank": cls.rank, "chi": cls.chi})
    report = RunReport("helix", cfg.digest())
    if args.out is not None:
        path = _resolve_out(args.out, "helix.json")
        _write_json(path, {"rows": rows})
        report.artifacts.append(path)
    if args.json:
        report.data["rows"] = rows
        return _finish(report, args)
    header = f"{'n':>4} {'rank':>10} {'chi':>10}"
    print(header)
    for row in rows:
        print(f"{row['n']:>4} {row['rank']:>10} {row['chi']:>10}")
    for path in report.artifacts:
        print(f"wrote {path}")
    return 0


def _run_helix_solve(args) -> int:
    from .helix_k0 import solve_biham_params
    cfg = JobConfig(command="helix solve", degree=args.d, rank=args.r)
    try:
        solution = solve_biham_params(args.d, args.r)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = RunReport("helix solve", cfg.digest())
    report.data["d"] = args.d
    report.data["r"] = args.r
    if solution is None:
        report.data["solution"] = "none (d is not +-1 mod r)"
    else:
        report.data["solution"] = (f"m={solution['m']} k={solution['k']} "
                                   f"sign={'+' if solution['sign'] > 0 else '-'} "
                                   f"n={solution['n']}")
    if args.json:
        report.data["solution_fields"] = solution
    return _finish(report, args)


def _add_curve_options(parser: argparse.ArgumentParser, k_required: bool = True) -> None:
    parser.add_argument("--parity", required=True, choices=("even", "odd"))
    parser.add_argument("--k", required=k_required, type=int, default=2,
                        help="half-degree parameter of the section space")
    parser.add_argument("--Q", default="0",
                        help="ascending rational coefficients, comma separated")
    parser.add_argument("--P", default="0",
                        help="ascending rational coefficients, or a0-only")
    parser.add_argument("--c", default="0",
                        help="translation parameter of the odd model")
    parser.add_argument("--a0", default="1",
                        help="value used by the a0-only shorthand")


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None,
                        help=f"artifact path (directory via ${ENV_OUT_DIR})")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="exact genus-one bracket construction and certification")
    commands = parser.add_subparsers(dest="command", required=True)

    bracket = commands.add_parser("bracket", help="construct tensors and families")
    bracket_sub = bracket.add_subparsers(dest="subcommand", required=True)
    build_p = bracket_sub.add_parser("build", help="build one bracket tensor")
    _add_curve_options(build_p)
    build_p.add_argument("--flip-sign", action="store_true",
                         help="negate the global sign convention")
    _add_output_options(build_p)
    family_p = bracket_sub.add_parser("family", help="build the nine-member family")
    family_p.add_argument("--parity", required=True, choices=("even", "odd"))
    family_p.add_argument("--k", required=True, type=int)
    _add_output_options(family_p)

    verify = commands.add_parser("verify", help="certify stored artifacts")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    jacobi_p = verify_sub.add_parser("jacobi", help="projective Jacobi identity")
    jacobi_p.add_argument("--in", dest="source", required=True,
                          help="tensor artifact to check")
    _add_output_options(jacobi_p)
    compat_p = verify_sub.add_parser("compat", help="pairwise compatibility sweep")
    compat_p.add_argument("--family", required=True, help="family artifact")
    compat_p.add_argument("--jobs", type=int, default=0,
                          help="accepted for config compatibility and recorded "
                               "in the config digest; the sweep is sequential")
    _add_output_options(compat_p)
    indep_p = verify_sub.add_parser("independence", help="family rank over Q")
    indep_p.add_argument("--family", required=True, help="family artifact")
    _add_output_options(indep_p)
    linear_p = verify_sub.add_parser("linearity", help="cross-difference sweep")
    linear_p.add_argument("--parity", required=True, choices=("even", "odd"))
    linear_p.add_argument("--k", required=True, type=int)
    linear_p.add_argument("--c", default="0")
    linear_p.add_argument("--samples", type=int, default=5)
    linear_p.add_argument("--seed", type=int, default=42)
    _add_output_options(linear_p)

    rank = commands.add_parser("rank", help="pointwise rank surveys")
    rank_sub = rank.add_subparsers(dest="subcommand", required=True)
    scan_p = rank_sub.add_parser("scan", help="seeded random rank histogram")
    scan_p.add_argument("--in", dest="source", required=True,
                        help="tensor artifact to scan")
    scan_p.add_argument("--samples", type=int, default=50)
    scan_p.add_argument("--seed", type=int, default=42)
    _add_output_options(scan_p)

    szego = commands.add_parser("szego", help="kernel normalization checks")
    szego_sub = szego.add_subparsers(dest="subcommand", required=True)
    check_p = szego_sub.add_parser("check", help="residue certification")
    _add_curve_options(check_p, k_required=False)
    _add_output_options(check_p)

    helix = commands.add_parser("helix", help="exceptional-class tables")
    helix.add_argument("--range", default="-5..5",
                       help="inclusive n range, for example -5..5")
    _add_output_options(helix)
    helix_sub = helix.add_subparsers(dest="subcommand")
    solve_p = helix_sub.add_parser("solve", help="ladder parameter witness")
    solve_p.add_argument("--d", required=True, type=int, help="degree")
    solve_p.add_argument("--r", required=True, type=int, help="rank, odd")
    _add_output_options(solve_p)

    return parser


_HANDLERS = {
    ("bracket", "build"): _run_bracket_build,
    ("bracket", "family"): _run_bracket_family,
    ("verify", "jacobi"): _run_verify_jacobi,
    ("verify", "compat"): _run_verify_compat,
    ("verify", "independence"): _run_verify_independence,
    ("verify", "linearity"): _run_verify_linearity,
    ("rank", "scan"): _run_rank_scan,
    ("szego", "check"): _run_szego_check,
    ("helix", None): _run_helix_table,
    ("helix", "solve"): _run_helix_solve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[(args.command, getattr(args, "subcommand", None))]
    started = time.perf_counter()
    try:
        code = handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        from .bracket_forge import TensorNotInSectionSpace
        if isinstance(exc, TensorNotInSectionSpace):
            print(f"build rejected: {exc}", file=sys.stderr)
            return 1
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
