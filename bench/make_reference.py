"""Regenerate ``reference.json``: the output digests every later run is
compared against. Run it only at a commit whose outputs are trusted:

    python3 bench/make_reference.py [workload ...]

For each workload it runs one pass on the default seed, requires every
exact check to pass, and records each operation's digest prefix and the
digest of the whole pass. Workloads not named keep their entries.
"""
import json
import sys

import run

sys.path[:0] = [str(run.SRC)]
import workloads  # noqa: E402


def main(names) -> int:
    data = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {"workloads": {}}
    for name in names or workloads.WORKLOADS:
        seed = workloads.DEFAULT_SEED
        ops = workloads.build(name, seed)
        judge = run.Judge(ops, reference=None)
        digests = judge(run.run_pass(ops)[1])
        if judge.failed:
            print(f"{name}: {judge.failed} of {judge.attempted} outputs fail their checks", file=sys.stderr)
            return 1
        data["workloads"][name] = {
            "seed": seed,
            "digest": run.combined_digest(digests),
            "ops": [d[: run.OP_DIGEST_CHARS] for d in digests],
        }
        print(f"{name}: {len(ops)} operations, digest {data['workloads'][name]['digest']}")
    run.REFERENCE.write_text(json.dumps(data, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
