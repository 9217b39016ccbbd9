#!/usr/bin/env python3
"""SHA-256 of every file the benchmark workloads write, for parity checks.

For each seed and each workload of ``perfbench/workloads.py``, runs the
workload's set-ups (each in a fresh directory, as the benchmark does) and
one iteration, then prints one ``path sha256`` line per file written,
sorted, with paths relative to a temporary root. Two checkouts give the
same bits when their outputs ``diff`` clean. The package and the
workloads are imported from this checkout's ``src/`` and ``perfbench/``.

Run:
    python3 scripts/hash_outputs.py --seeds 1,2,3 > hashes.txt
"""

import os

# one BLAS thread, as the benchmark pins it, before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402


def run_workload(workload, root):
    """Set-ups in ``root/setup<rep>``, then one iteration in ``root/iterate``."""
    for rep in range(workload.setup_reps):
        work_dir = root / f"setup{rep}"
        work_dir.mkdir(parents=True)
        workload.setup(rep, str(work_dir))
    workload.check(workload.iterate(str(root / "iterate")))


def digests(root):
    """``(path relative to root, sha256)`` of every file under ``root``, sorted."""
    return sorted(
        (path.relative_to(root).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
        for path in root.rglob("*") if path.is_file()
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1", help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for seed in seeds:
            for name, cls in WORKLOADS.items():
                # the CLI verbs print progress; keep stdout for the hashes
                with contextlib.redirect_stdout(io.StringIO()):
                    run_workload(cls(seed, toy=False), root / name / f"seed{seed}")
        for path, digest in digests(root):
            print(path, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
