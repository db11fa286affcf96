"""Record `reference.json`: the digest of every artifact a workload can write.

    python3 benchmarks/record_reference.py

Run it from the root of a checkout of the commit whose outputs are the
reference.  It builds every curve of every input pool, the families the
workloads use and the rank-scan CSVs, each through the CLI, and stores
the SHA-256 of each file under the key the workloads look up.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

from run import REFERENCE, ROOT, SCRATCH, child_env, run_record, spawn
from checker import digest
from workloads import (FAMILY_K, SESSION_FAMILIES, SESSION_HEIGHT, SESSION_SAMPLES,
                       SWEEP_HEIGHT, SWEEP_SAMPLES, all_pools, family_key, rank_key, scan_seed)

FAMILIES = [("even", FAMILY_K), ("odd", FAMILY_K), *SESSION_FAMILIES]

RANK_SAMPLES = {SWEEP_HEIGHT: SWEEP_SAMPLES, SESSION_HEIGHT: SESSION_SAMPLES}


def _cli(argv: List[str], cwd: Path) -> None:
    code = spawn([sys.executable, "-m", "artifact.cli_reports", *argv], cwd, child_env(),
                 cwd / "out.txt", cwd / "err.txt", 600.0)[1]
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}: {(cwd / 'err.txt').read_text()}")


def _task(job: Tuple) -> Dict[str, str]:
    work = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if job[0] == "family":
            _, parity, k = job
            _cli(["bracket", "family", "--parity", parity, "--k", str(k), "--out", "f.json"], work)
            return {family_key(parity, k): digest(work / "f.json")}
        _, curve, samples = job
        _cli(curve.build_argv("t.json"), work)
        out = {curve.key: digest(work / "t.json")}
        if samples:
            seed = scan_seed(curve)
            _cli(["rank", "scan", "--in", "t.json", "--samples", str(samples), "--seed",
                  str(seed), "--out", "r.csv"], work)
            out[rank_key(curve, samples, seed)] = digest(work / "r.csv")
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    jobs: List[Tuple] = [("family", p, k) for p, k in FAMILIES]
    for name, pool in all_pools().items():
        height = int(name.split("/")[2])
        jobs += [("curve", curve, RANK_SAMPLES.get(height)) for curve in pool]
    digests: Dict[str, str] = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for part in pool.map(_task, jobs):
            digests.update(part)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    record = run_record()
    REFERENCE.write_text(json.dumps({"recorded_from": record["commit"] or record["src_sha256"],
                                     "digests": dict(sorted(digests.items()))},
                                    indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
