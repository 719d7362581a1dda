"""Run one ctckit benchmark workload in a fresh, pinned process.

    python3 perfbench/run.py --workload train_ctc --seed 0 --seconds 15 --trace 0

Workloads: train_ctc, train_cr_ctc, train_sr_ctc_long, eval_decode (see
perfbench/README.md). Run it from the repository root. The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics;
--trace 1 reports per-layer metrics in place of end-to-end ones.

This launcher imports nothing heavy. It starts ``worker.py`` in a child
process whose environment pins every BLAS/OpenMP pool to one thread, since
numpy reads those variables once, at import. The program under test is
imported from ``src/`` of the same checkout, never from site-packages.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

# A run must end within 180 s; leave the child a margin to be killed in.
CHILD_TIMEOUT_S = 170

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def main() -> int:
    bench = Path(__file__).resolve().parent
    src = bench.parent / "src"
    if not (src / "ctckit" / "__init__.py").is_file():
        print(f"run.py: no ctckit sources at {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(bench / "worker.py"), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, env=env, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: worker exceeded {CHILD_TIMEOUT_S} s and was killed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
