"""Seeded inputs and the fixed command list of each benchmark workload.

The program under test only ever sees the generated argv.  Curves come
from fixed pools (one per parity, k, coefficient height and kind); the
run seed picks which pool entries a run uses.  Pools keep the input
space finite, so every artifact a run can produce has a digest in
`reference.json`, recorded once from the seed commit.

Why each workload exists:

- family_certify: the ROADMAP pipeline `bracket family` -> `verify
  compat --jobs 2` -> `verify independence` for the even and odd k=3
  families, plus `bracket build` + `verify jacobi` on one dense seeded
  even k=4 curve.  Chart descent and the Jacobiator in poisson_verify do
  most of the work; the family members are sparse unit directions and
  the seeded curve is dense, so both sparsity patterns are covered.
  `--jobs 2` matches a 2-core box and keeps the GIL-bound thread pool
  visible.
- curve_sweep: `bracket build` -> `szego check` -> `rank scan --samples
  20` on seeded curves of both parities at k = 4 and 5, a quarter of them
  with non-integer coefficients.  No Jacobi runs: the cost is assembly in
  bracket_forge, curve_ring and exact_core (including the cold odd shift
  forms every odd build pays) and pointwise rank elimination, which uses
  poisson_verify differently from the symbolic Jacobi.
- cli_session: over a hundred short commands at k <= 2, the exact argv
  of every golden transcript, a few usage errors, families at k = 1, 2,
  and `helix` / `helix solve`.  Interpreter start and import dominate, so
  this catches a change that adds per-process or per-load cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

POOL_SIZE = 12

FAMILY_K = 3
FAMILY_JOBS = 2
# cli_session families; even k=1 is the zero family, of rank 0.
SESSION_FAMILIES = (("odd", 1), ("even", 2), ("odd", 2))
DENSE_HEIGHT = 9
SWEEP_HEIGHT = 5
SWEEP_SAMPLES = 20
SESSION_HEIGHT = 3
SESSION_SAMPLES = 6
SESSION_CURVES_PER_CLASS = 9

# (parity, k, rational) slots of one curve_sweep pass: 3 of 12 curves
# carry non-integer coefficients.
SWEEP_SLOTS = (
    ("even", 4, False), ("even", 4, False), ("even", 4, True),
    ("even", 5, False), ("even", 5, False), ("even", 5, True),
    ("odd", 4, False), ("odd", 4, False), ("odd", 4, True),
    ("odd", 5, False), ("odd", 5, False), ("odd", 5, False),
)


@dataclass(frozen=True)
class Curve:
    """Curve data `(parity, k, c, Q, P)` as ascending coefficient lists."""

    parity: str
    k: int
    Q: Tuple[Fraction, ...]
    P: Tuple[Fraction, ...]
    c: Optional[Fraction] = None
    rejected: int = 0

    @property
    def is_integral(self) -> bool:
        values = self.Q + self.P + ((self.c,) if self.c is not None else ())
        return all(v.denominator == 1 for v in values)

    def curve_args(self) -> List[str]:
        # `--Q=-1,2` form: argparse would read a bare "-1,2" as an option.
        args = ["--parity", self.parity,
                "--Q=" + ",".join(map(str, self.Q)),
                "--P=" + ",".join(map(str, self.P))]
        if self.c is not None:
            args.append(f"--c={self.c}")
        return args

    def build_argv(self, out: str) -> List[str]:
        return (["bracket", "build", "--k", str(self.k)] + self.curve_args()
                + ["--out", out, "--json"])

    @property
    def key(self) -> str:
        """Reference key of the tensor artifact this curve builds."""
        return "tensor " + " ".join(["--k", str(self.k)] + self.curve_args())


def r_quartic_coeff(parity: str, Q: Tuple[Fraction, ...], P: Tuple[Fraction, ...]) -> Fraction:
    """t^4 coefficient of R = P + Q^2/4 (even) or (t + c) P + Q^2/4 (odd)."""
    top = P[4] if parity == "even" else P[3]
    return top + Q[2] * Q[2] / 4


def _coeff(rng: random.Random, height: int, rational: bool) -> Fraction:
    num = rng.choice([v for v in range(-height, height + 1) if v])
    if not rational:
        return Fraction(num)
    return Fraction(num, rng.randint(2, height))


def draw_curve(rng: random.Random, parity: str, k: int, height: int,
               rational: bool) -> Curve:
    """One dense curve: every coefficient nonzero, |numerator| <= height.

    A curve whose R has a vanishing t^4 coefficient has no two points over
    infinity and `szego check` rightly fails on it, so it is redrawn; the
    redraws are counted on the returned curve.
    """
    p_len = 5 if parity == "even" else 4
    rejected = 0
    while True:
        Q = tuple(_coeff(rng, height, rational) for _ in range(3))
        P = tuple(_coeff(rng, height, rational) for _ in range(p_len))
        c = _coeff(rng, height, rational) if parity == "odd" else None
        if r_quartic_coeff(parity, Q, P):
            return Curve(parity, k, Q, P, c, rejected)
        rejected += 1


def pool_name(parity: str, k: int, height: int, rational: bool) -> str:
    return f"{parity}/{k}/{height}/{'rat' if rational else 'int'}"


def curve_pool(parity: str, k: int, height: int, rational: bool) -> List[Curve]:
    name = pool_name(parity, k, height, rational)
    return [draw_curve(random.Random(f"{name}/{i}"), parity, k, height, rational)
            for i in range(POOL_SIZE)]


def all_pools() -> Dict[str, List[Curve]]:
    """Every pool any workload draws from, keyed by pool_name."""
    specs = [("even", 4, DENSE_HEIGHT, False)]
    specs += sorted({(p, k, SWEEP_HEIGHT, r) for p, k, r in SWEEP_SLOTS})
    specs += [(p, k, SESSION_HEIGHT, False) for p in ("even", "odd") for k in (1, 2)]
    return {pool_name(*spec): curve_pool(*spec) for spec in specs}


@dataclass
class Command:
    """One CLI invocation and what a correct run of it looks like.

    `cwd` is a subdirectory of the run directory.  `artifacts` maps a
    path relative to `cwd` to the reference key of its expected digest.
    """

    argv: Tuple[str, ...]
    cwd: str = "."
    expect_code: int = 0
    artifacts: Dict[str, str] = field(default_factory=dict)


@dataclass
class Plan:
    """The fixed command list of one pass plus a record of its inputs."""

    commands: List[Command]
    curves: List[Curve]

    @property
    def inputs(self) -> Dict[str, object]:
        return {
            "curves": len(self.curves),
            "non_integer_curves": sum(not c.is_integral for c in self.curves),
            "rejected_vanishing_t4": sum(c.rejected for c in self.curves),
            "commands": len(self.commands),
        }


def family_key(parity: str, k: int) -> str:
    return f"family --parity {parity} --k {k}"


def rank_key(curve: Curve, samples: int, seed: int) -> str:
    return f"rank {curve.key} --samples {samples} --seed {seed}"


def scan_seed(curve: Curve) -> int:
    """Rank-scan seed tied to the curve, so its CSV has a reference digest."""
    return sum(abs(v.numerator) + v.denominator for v in curve.Q + curve.P) % 1000


def _rank_command(curve: Curve, tensor: str, samples: int, out: str) -> Command:
    seed = scan_seed(curve)
    return Command(("rank", "scan", "--in", tensor, "--samples", str(samples),
                    "--seed", str(seed), "--out", out, "--json"),
                   artifacts={out: rank_key(curve, samples, seed)})


def _build_command(curve: Curve, out: str) -> Command:
    return Command(tuple(curve.build_argv(out)), artifacts={out: curve.key})


def _family_command(parity: str, k: int, out: str) -> Command:
    return Command(("bracket", "family", "--parity", parity, "--k", str(k), "--out", out,
                    "--json"), artifacts={out: family_key(parity, k)})


def _szego_command(curve: Curve) -> Command:
    return Command(tuple(["szego", "check"] + curve.curve_args() + ["--json"]))


def family_certify(seed: int) -> Plan:
    rng = random.Random(seed)
    commands: List[Command] = []
    for parity in ("even", "odd"):
        fam = f"family_{parity}{FAMILY_K}.json"
        commands.append(_family_command(parity, FAMILY_K, fam))
        commands.append(Command(("verify", "compat", "--family", fam, "--jobs",
                                 str(FAMILY_JOBS), "--json")))
        commands.append(Command(("verify", "independence", "--family", fam, "--json")))
    dense = rng.choice(all_pools()[pool_name("even", 4, DENSE_HEIGHT, False)])
    commands.append(_build_command(dense, "dense.json"))
    commands.append(Command(("verify", "jacobi", "--in", "dense.json", "--json")))
    return Plan(commands, [dense])


def curve_sweep(seed: int) -> Plan:
    rng = random.Random(seed)
    pools = all_pools()
    picked: Dict[str, List[Curve]] = {}
    curves: List[Curve] = []
    for parity, k, rational in SWEEP_SLOTS:
        name = pool_name(parity, k, SWEEP_HEIGHT, rational)
        if name not in picked:
            count = sum(slot == (parity, k, rational) for slot in SWEEP_SLOTS)
            picked[name] = rng.sample(pools[name], count)
        curves.append(picked[name].pop())
    commands: List[Command] = []
    for i, curve in enumerate(curves):
        tensor = f"sweep{i}.json"
        commands.append(_build_command(curve, tensor))
        commands.append(_szego_command(curve))
        commands.append(_rank_command(curve, tensor, SWEEP_SAMPLES, f"rank{i}.csv"))
    return Plan(commands, curves)


# Golden transcripts: argv -> stdout golden, plus artifacts compared with
# a golden file.  Each group runs in its own directory because the goldens
# name default output paths.
GOLDEN_BUILD = ("bracket", "build", "--parity", "even", "--k", "2",
                "--Q", "0,0,0", "--P", "a0-only")
GOLDEN_FAMILY = ("bracket", "family", "--parity", "odd", "--k", "1")
GOLDEN_GROUPS: List[Tuple[str, List[Tuple[Tuple[str, ...], str, Dict[str, str]]]]] = [
    ("g_build_json", [
        (GOLDEN_BUILD + ("--json",), "build_even_k2.stdout.json",
         {"tensor.json": "tensor_even_k2.json"}),
    ]),
    ("g_build_txt", [
        (GOLDEN_BUILD, "build_even_k2.stdout.txt", {"tensor.json": "tensor_even_k2.json"}),
        (("verify", "jacobi", "--in", "tensor.json", "--json"),
         "verify_jacobi.stdout.json", {}),
        (("rank", "scan", "--in", "tensor.json", "--samples", "12", "--seed", "42",
          "--json"), "rank_scan.stdout.json", {"rank_hist.csv": "rank_hist.csv"}),
    ]),
    ("g_family", [
        (GOLDEN_FAMILY + ("--json",), "family_odd_k1.stdout.json",
         {"family.json": "family_odd_k1.json"}),
        (("verify", "compat", "--family", "family.json", "--jobs", "2", "--json"),
         "verify_compat.stdout.json", {}),
        (("verify", "independence", "--family", "family.json", "--json"),
         "verify_independence.stdout.json", {}),
    ]),
    ("g_misc", [
        (("verify", "linearity", "--parity", "even", "--k", "2", "--samples", "2",
          "--seed", "7", "--json"), "verify_linearity.stdout.json", {}),
        (("szego", "check", "--parity", "even", "--Q", "0,0,0", "--P", "1,0,0,0,1",
          "--json"), "szego_even.stdout.json", {}),
        (("szego", "check", "--parity", "odd", "--c", "0", "--Q", "0,0,0", "--P",
          "1,0,1,2", "--json"), "szego_odd.stdout.json", {}),
        (("helix", "--range=-5..5"), "helix_table.stdout.txt", {}),
        (("helix", "--range=-3..3", "--json", "--out", "helix.json"),
         "helix_rows.stdout.json", {}),
        (("helix", "solve", "--d", "7", "--r", "3", "--json"), "helix_solve.stdout.json", {}),
    ]),
]

GOLDEN_STDOUT: Dict[Tuple[str, ...], str] = {
    argv: stdout for _, group in GOLDEN_GROUPS for argv, stdout, _ in group}
GOLDEN_ARTIFACTS: Dict[Tuple[str, ...], Dict[str, str]] = {
    argv: files for _, group in GOLDEN_GROUPS for argv, _, files in group}

# Usage errors whose exit code 2 is already the documented behaviour.
USAGE_ERRORS = (
    ("bracket", "build", "--parity", "even", "--k", "0"),
    ("bracket", "build", "--parity", "even", "--k", "2", "--P", "1,2,3,4,5,6"),
    ("helix", "--range=5..1"),
    ("helix", "solve", "--d", "9", "--r", "4"),
    ("verify", "jacobi", "--in", "missing.json"),
)


def cli_session(seed: int) -> Plan:
    rng = random.Random(seed)
    pools = all_pools()
    commands: List[Command] = []
    for cwd, group in GOLDEN_GROUPS:
        commands.extend(Command(argv, cwd) for argv, _, _ in group)
    commands.extend(Command(argv, expect_code=2) for argv in USAGE_ERRORS)
    for parity, k in SESSION_FAMILIES:
        fam = f"family_{parity}{k}.json"
        commands.append(_family_command(parity, k, fam))
        commands.append(Command(("verify", "independence", "--family", fam, "--json")))
    curves: List[Curve] = []
    for parity in ("even", "odd"):
        for k in (1, 2):
            curves += rng.sample(pools[pool_name(parity, k, SESSION_HEIGHT, False)],
                                 SESSION_CURVES_PER_CLASS)
    rng.shuffle(curves)
    for i, curve in enumerate(curves):
        tensor = f"t{i}.json"
        commands.append(_build_command(curve, tensor))
        if i % 2:
            commands.append(_rank_command(curve, tensor, SESSION_SAMPLES, f"r{i}.csv"))
        else:
            commands.append(Command(("verify", "jacobi", "--in", tensor, "--json")))
    for curve in curves[:4]:
        commands.append(_szego_command(curve))
    for _ in range(2):
        commands.append(Command(("verify", "linearity", "--parity", "odd", "--k", "1",
                                 f"--c={rng.randint(-3, 3)}", "--samples", "2",
                                 "--seed", str(rng.randrange(1000)), "--json")))
    for _ in range(3):
        lo = rng.randint(-12, 0)
        commands.append(Command(("helix", f"--range={lo}..{lo + rng.randint(0, 12)}",
                                 "--json")))
    for _ in range(4):
        r = rng.choice((1, 3, 5, 7, 9))
        commands.append(Command(("helix", "solve", "--d", str(rng.randint(r + 1, 60)),
                                 "--r", str(r), "--json")))
    return Plan(commands, curves)


PLANS = {"family_certify": family_certify, "curve_sweep": curve_sweep,
         "cli_session": cli_session}
