"""Record each suite's verdict and report digest at the default seed.

    python3 bench/record_expected.py

Runs one cycle of every workload at run.DEFAULT_SEED and writes
bench/expected.json, which run.py compares against. Re-record only when a
change to the program is meant to move report bytes or verdicts, and say
which in the change's description.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads on import)


def main() -> int:
    cli = run.set_up()
    work_dir = run.OUT_DIR / "record"
    work_dir.mkdir(parents=True, exist_ok=True)
    reports = {}
    for workload in run.WORKLOADS:
        cycle = run.run_cycle(cli, workload, run.DEFAULT_SEED, work_dir)
        for (suite, trials), r in zip(run.WORKLOADS[workload][1], cycle.runs):
            if r.report is None:
                raise SystemExit(f"{suite} wrote no report (exit code {r.exit_code})")
            reports[suite] = {"trials": trials, "pass": r.payload["pass"],
                              "sha256": hashlib.sha256(r.report).hexdigest()}
            (work_dir / f"{suite}.json").unlink()
    work_dir.rmdir()
    run.EXPECTED.write_text(json.dumps({"seed": run.DEFAULT_SEED, "reports": reports},
                                       indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
