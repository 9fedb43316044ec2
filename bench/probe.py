"""One set-up sample, run in a fresh interpreter by ``run.py``.

Times, from this script's first statement, the import of sympy, the import
of torusdep (with its CLI module) and the building of one workload's
inputs, and prints them as one JSON line. Usage:

    python3 bench/probe.py --workload points --seed 1
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH.parent / "src"), str(_BENCH)]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    t0 = time.perf_counter()
    import sympy  # noqa: F401

    t1 = time.perf_counter()
    import torusdep  # noqa: F401
    import torusdep.cli  # noqa: F401

    t2 = time.perf_counter()
    import workloads

    workloads.build(args.workload, args.seed)
    t3 = time.perf_counter()
    print(
        json.dumps(
            {
                "import_sympy_s": t1 - t0,
                "import_torusdep_s": t2 - t1,
                "build_s": t3 - t2,
                "setup_s": t3 - _T0,
            }
        )
    )


if __name__ == "__main__":
    main()
