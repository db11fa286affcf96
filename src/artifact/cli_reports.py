"""Command-line driver: builds, verification sweeps, flat artifacts.

Subcommands mirror the library seams.  `bracket build` and `bracket
family` wrap the tensor constructors, `verify` wraps the Jacobi,
compatibility and independence certificates, `rank scan` and `szego
check` wrap the samplers, and `helix` wraps the integer-lattice
bookkeeping.  Output is deterministic for a fixed config: orderings are
sorted, the seed is explicit, and no timing data enters any payload.
Elapsed time is written to stderr only.

Exit codes: 0 all checks pass, 1 a normative check failed or a build was
rejected, 2 usage or configuration error, running out of memory included.

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
from typing import List, Optional, Sequence, Tuple

ENV_OUT_DIR = "ARTIFACT_OUT_DIR"


def _digest(record: dict) -> str:
    """First 12 hex digits of the SHA-256 of a run's record as sorted JSON,
    None values dropped and rationals written "p/q".  Every record carries
    seed, jobs and flip_sign, at these defaults unless it sets them."""
    def rational(value):
        from .exact_core import rat_str
        return rat_str(value)

    record = {key: value for key, value in
              {"seed": 42, "jobs": 0, "flip_sign": False, **record}.items() if value is not None}
    blob = json.dumps(record, sort_keys=True, default=rational).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _parse_rational(text: str, what: str) -> Fraction:
    from .exact_core import rat
    try:
        return rat(text)
    except ValueError as exc:
        raise ValueError(f"{what}: cannot read {text!r} as a rational") from exc


def _parse_coeffs(text: str, a0: Fraction, what: str) -> Tuple[Fraction, ...]:
    """Ascending coefficient list, or the constant-curve shorthand; its
    length is CurveModel's to check."""
    if text.strip() == "a0-only":
        return (a0,)
    if not text.strip():
        return (Fraction(0),)
    return tuple(_parse_rational(tok, what) for tok in text.split(","))


def _curve(args, command: str):
    """The run's record and the CurveModel of the curve options; the record
    holds the model's c, None in the even parity, which rejects a nonzero --c."""
    from .curve_ring import CurveModel
    a0 = _parse_rational(args.a0, "--a0")
    record = {"command": command, "parity": args.parity, "k": args.k,
              "q": _parse_coeffs(args.Q, a0, "--Q"), "p": _parse_coeffs(args.P, a0, "--P")}
    model = CurveModel(args.parity, args.k, record["q"], record["p"],
                       c=_parse_rational(args.c, "--c"))
    return dict(record, c=model.c), model


def _write(out: Optional[str], default_name: str, lines: Sequence[str]) -> str:
    """Write lines, newline-terminated, to --out or default_name, joined to
    $ARTIFACT_OUT_DIR (an absolute path stays as given); return the path."""
    path = os.path.join(os.environ.get(ENV_OUT_DIR, ""), default_name if out is None else out)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _load_artifact(path: str, cls, what: str):
    """cls.from_json of the JSON file at path; ValueError naming `what`
    (tensor or family) if it is missing, not JSON or malformed, or repeats
    a key in one object (the reader would keep only the last)."""
    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            from collections import Counter
            counts = Counter(key for key, _ in pairs)
            repeated = next(key for key, count in counts.items() if count > 1)
            raise ValueError(f"{what} artifact repeats the key {repeated!r}: {path}")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except FileNotFoundError as exc:
        raise ValueError(f"{what} artifact not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{what} artifact is not valid JSON: {path} ({exc})") from exc
    try:
        return cls.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{what} artifact malformed: {path} ({exc})") from exc


def _check(name: str, status: str, witness=None) -> dict:
    """One check entry; it has a witness key only when a witness is given."""
    entry = {"name": name, "status": status}
    if witness is not None:
        entry["witness"] = witness
    return entry


def _finish(record: dict, args, data: dict, checks: Sequence[dict] = (),
            artifacts: Sequence[str] = ()) -> int:
    """Print the report of the run that record describes, which carries no
    timing data, and return its exit code: 1 if a check failed, else 0."""
    if args.json:
        payload = {"command": record["command"], "config_digest": _digest(record),
                   "checks": checks, "artifacts": artifacts}
        if data:
            payload["data"] = data
        print(json.dumps(payload, indent=2))
    else:
        for key, value in data.items():
            print(f"{key}: {value}")
        for check in checks:
            suffix = f"  [{check.get('witness')}]" if check["status"] == "fail" else ""
            print(f"{check['name']}: {check['status']}{suffix}")
        for path in artifacts:
            print(f"wrote {path}")
    return 1 if any(check["status"] == "fail" for check in checks) else 0


def _run_bracket_build(args) -> int:
    from .bracket_forge import TensorNotInSectionSpace, build_tensor
    record, model = _curve(args, "bracket build")
    record.update(out=args.out, flip_sign=args.flip_sign)
    try:
        tensor = build_tensor(model)
    except TensorNotInSectionSpace as exc:
        print(f"build rejected: {exc}", file=sys.stderr)
        return 1
    if args.flip_sign:
        flipped = tensor.scale(-1)
        flipped.provenance = dict(tensor.provenance, sign="flipped")
        tensor = flipped
    path = _write(args.out, "tensor.json", [json.dumps(tensor.to_json(), indent=2)])
    data = {"dimension": tensor.n,
            "nonzero coefficients": sum(len(f) for f in tensor.pi.values())}
    return _finish(record, args, data, artifacts=[path])


def _run_bracket_family(args) -> int:
    from .bracket_forge import build_family
    record = {"command": "bracket family", "parity": args.parity, "k": args.k,
              "out": args.out}
    family = build_family(args.parity, args.k)
    path = _write(args.out, "family.json", [json.dumps(family.to_json(), indent=2)])
    data = {"members": len(family.tensors), "dimension": family.tensors[0].n,
            "labels": ",".join(family.labels)}
    return _finish(record, args, data, artifacts=[path])


def _run_verify_jacobi(args) -> int:
    from .bracket_forge import BracketTensor
    from .poisson_verify import jacobi_check
    record = {"command": "verify jacobi", "source": args.source}
    tensor = _load_artifact(args.source, BracketTensor, "tensor")
    verdict = jacobi_check(tensor)
    check = _check("jacobi", "pass" if verdict["holds"] else "fail", verdict["witness"])
    return _finish(record, args, {"dimension": tensor.n, "charts": tensor.n}, [check])


def _run_verify_compat(args) -> int:
    from .bracket_forge import FamilyBasis
    from .poisson_verify import jacobi_check, schouten_certificate
    record = {"command": "verify compat", "source": args.family, "jobs": args.jobs}
    family = _load_artifact(args.family, FamilyBasis, "family")
    members = family.tensors
    pairs = list(combinations(range(len(members)), 2))
    failures = [(i, j) for i, j in pairs
                if not schouten_certificate(members[i] + members[j])]
    witness = None
    if failures:
        i, j = failures[0]
        witness = {"pair": [i, j],
                   "witness": jacobi_check(members[i] + members[j])["witness"]}
    data = {"pairs": len(pairs), "passed": len(pairs) - len(failures)}
    check = _check("compatibility", "fail" if failures else "pass", witness)
    return _finish(record, args, data, [check])


def _run_verify_independence(args) -> int:
    from .bracket_forge import FamilyBasis
    from .poisson_verify import independence_rank
    record = {"command": "verify independence", "source": args.family}
    family = _load_artifact(args.family, FamilyBasis, "family")
    rank = independence_rank(family)
    full = rank == len(family.tensors)
    check = _check("independence", "pass" if full else "fail",
                   None if full else {"rank": rank})
    return _finish(record, args, {"members": len(family.tensors), "rank": rank}, [check])


def _run_verify_linearity(args) -> int:
    from .bracket_forge import build_tensor
    from .curve_ring import CurveModel
    if args.samples < 1:
        raise ValueError("samples must be positive")
    zero = CurveModel(args.parity, args.k, 0, 0, c=_parse_rational(args.c, "--c"))
    record = {"command": "verify linearity", "parity": args.parity, "k": args.k,
              "c": zero.c, "seed": args.seed, "samples": args.samples}
    rng = random.Random(args.seed)

    def tensor(q, p):
        return build_tensor(CurveModel(args.parity, args.k, q, p, c=zero.c))

    def draw() -> Tuple[List[int], List[int]]:
        return ([rng.randrange(-3, 4) for _ in zero.Q],
                [rng.randrange(-3, 4) for _ in zero.P])

    base = build_tensor(zero)
    failed = None
    for index in range(args.samples):
        q1, p1 = draw()
        q2, p2 = draw()
        summed = [a + b for a, b in zip(q1, q2)], [a + b for a, b in zip(p1, p2)]
        if tensor(*summed) + base != tensor(q1, p1) + tensor(q2, p2):
            failed = {"sample": index, "Q": q1, "P": p1, "Q'": q2, "P'": p2}
            break
    check = _check("affine linearity", "fail" if failed else "pass", failed)
    return _finish(record, args, {"samples": args.samples}, [check])


def _run_rank_scan(args) -> int:
    from .bracket_forge import BracketTensor
    from .poisson_verify import rank_scan
    record = {"command": "rank scan", "source": args.source, "seed": args.seed,
              "samples": args.samples, "out": args.out}
    tensor = _load_artifact(args.source, BracketTensor, "tensor")
    scan = rank_scan(tensor, args.samples, args.seed)
    path = _write(args.out, "rank_hist.csv", ["rank,count"] + [
        f"{r},{c}" for r, c in sorted(scan.histogram.items())])
    data = {"samples": args.samples,
            "histogram": {str(r): c for r, c in sorted(scan.histogram.items())},
            "generic_rank": scan.generic_rank,
            "pencil_drops": scan.pencil_drops}
    check = _check("deep rank drops", "recorded", {"flagged": scan.flagged})
    return _finish(record, args, data, [check], [path])


def _run_szego_check(args) -> int:
    from .curve_ring import DegenerateDivisor, verify_szego_residues
    from .exact_core import rat_str
    record, model = _curve(args, "szego check")
    try:
        cert = verify_szego_residues(model)
    except DegenerateDivisor as exc:
        return _finish(record, args, {}, [_check("szego residues", "fail", str(exc))])
    data = {"diagonal": rat_str(cert.diagonal),
            "at_infinity": [rat_str(v) for v in cert.at_infinity]}
    return _finish(record, args, data, [_check("szego residues", "pass")])


def _parse_span(text: str) -> Tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise ValueError(f"range must look like -5..5, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValueError(f"range bounds must be integers, got {text!r}") from exc
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return lo, hi


def _run_helix_table(args) -> int:
    from .helix_k0 import helix_class
    span = _parse_span("-5..5" if args.range is None else args.range)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    for n in span if limit else ():
        # Class fields grow with |n| on each side of 0, and |chi| >= 2^(|n| - 1),
        # which has more than limit digits once |n| > 4 limit.
        if abs(n) > 4 * limit or max(map(abs, helix_class(n))) >= 10 ** limit:
            raise ValueError(f"--range reaches n={n}, whose class has more than "
                             f"{limit} digits, the most an integer may print")
    record = {"command": "helix", "span": span, "out": args.out}
    rows = []
    for n in range(span[0], span[1] + 1):
        cls = helix_class(n)
        rows.append({"n": n, "rank": cls.rank, "chi": cls.chi})
    artifacts = [] if args.out is None else [
        _write(args.out, "helix.json", [json.dumps({"rows": rows}, indent=2)])]
    if not args.json:
        print(f"{'n':>4} {'rank':>10} {'chi':>10}")
        for row in rows:
            print(f"{row['n']:>4} {row['rank']:>10} {row['chi']:>10}")
    return _finish(record, args, {"rows": rows} if args.json else {}, artifacts=artifacts)


def _run_helix_solve(args) -> int:
    from .helix_k0 import solve_biham_params
    for option, value in (("--range", args.range), ("--out", args.out)):
        if value is not None:
            raise ValueError(f"{option} applies to the helix table, not to helix solve")
    record = {"command": "helix solve", "degree": args.d, "rank": args.r}
    solution = solve_biham_params(args.d, args.r)
    if solution is None:
        text = "none (d is not +-1 mod r)"
    else:
        text = (f"m={solution['m']} k={solution['k']} "
                f"sign={'+' if solution['sign'] > 0 else '-'} n={solution['n']}")
    data = {"d": args.d, "r": args.r, "solution": text}
    if args.json:
        data["solution_fields"] = solution
    return _finish(record, args, data)


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


def _add_output_options(parser: argparse.ArgumentParser, writes: bool = False) -> None:
    """--json, and --out for a command that writes an artifact."""
    if writes:
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
    _add_output_options(build_p, writes=True)
    build_p.set_defaults(run=_run_bracket_build)
    family_p = bracket_sub.add_parser("family", help="build the nine-member family")
    family_p.add_argument("--parity", required=True, choices=("even", "odd"))
    family_p.add_argument("--k", required=True, type=int)
    _add_output_options(family_p, writes=True)
    family_p.set_defaults(run=_run_bracket_family)

    verify = commands.add_parser("verify", help="certify stored artifacts")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    jacobi_p = verify_sub.add_parser("jacobi", help="projective Jacobi identity")
    jacobi_p.add_argument("--in", dest="source", required=True,
                          help="tensor artifact to check")
    _add_output_options(jacobi_p)
    jacobi_p.set_defaults(run=_run_verify_jacobi)
    compat_p = verify_sub.add_parser("compat", help="pairwise compatibility sweep")
    compat_p.add_argument("--family", required=True, help="family artifact")
    compat_p.add_argument("--jobs", type=int, default=0,
                          help="accepted for config compatibility and recorded "
                               "in the config digest; the sweep is sequential")
    _add_output_options(compat_p)
    compat_p.set_defaults(run=_run_verify_compat)
    indep_p = verify_sub.add_parser("independence", help="family rank over Q")
    indep_p.add_argument("--family", required=True, help="family artifact")
    _add_output_options(indep_p)
    indep_p.set_defaults(run=_run_verify_independence)
    linear_p = verify_sub.add_parser("linearity", help="cross-difference sweep")
    linear_p.add_argument("--parity", required=True, choices=("even", "odd"))
    linear_p.add_argument("--k", required=True, type=int)
    linear_p.add_argument("--c", default="0")
    linear_p.add_argument("--samples", type=int, default=5)
    linear_p.add_argument("--seed", type=int, default=42)
    _add_output_options(linear_p)
    linear_p.set_defaults(run=_run_verify_linearity)

    rank = commands.add_parser("rank", help="pointwise rank surveys")
    rank_sub = rank.add_subparsers(dest="subcommand", required=True)
    scan_p = rank_sub.add_parser("scan", help="seeded random rank histogram")
    scan_p.add_argument("--in", dest="source", required=True,
                        help="tensor artifact to scan")
    scan_p.add_argument("--samples", type=int, default=50)
    scan_p.add_argument("--seed", type=int, default=42)
    _add_output_options(scan_p, writes=True)
    scan_p.set_defaults(run=_run_rank_scan)

    szego = commands.add_parser("szego", help="kernel normalization checks")
    szego_sub = szego.add_subparsers(dest="subcommand", required=True)
    check_p = szego_sub.add_parser("check", help="residue certification")
    _add_curve_options(check_p, k_required=False)
    _add_output_options(check_p)
    check_p.set_defaults(run=_run_szego_check)

    helix = commands.add_parser("helix", help="exceptional-class tables")
    helix.add_argument("--range", default=None,
                       help="inclusive n range (default -5..5)")
    _add_output_options(helix, writes=True)
    helix.set_defaults(run=_run_helix_table)
    helix_sub = helix.add_subparsers()
    solve_p = helix_sub.add_parser("solve", help="ladder parameter witness")
    solve_p.add_argument("--d", required=True, type=int, help="degree")
    solve_p.add_argument("--r", required=True, type=int, help="rank, odd")
    # Unset unless given here, so a --json before solve is kept.
    solve_p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                         help="machine-readable report on stdout")
    solve_p.set_defaults(run=_run_helix_solve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.run(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("config error: out of memory", file=sys.stderr)
        return 2
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
