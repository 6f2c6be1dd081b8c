"""Write the reference report of each workload to perfbench/reference/.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once at operation seed 0, through the same child
process as the benchmark, and stores the report without ``runtime_ms``.
Regenerate only when a change is meant to alter the reports, and say so.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(names) -> int:
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="ref-", dir=run.OUT))
    try:
        for name in names or sorted(run.WORKLOADS):
            out = tmp / ("%s.json" % name)
            res = run.spawn(tmp, name, run.cli_args(name, 0, out))
            report = json.loads(out.read_text())
            if res["exit"] != 0 or report["failures"] != 0:
                sys.stderr.write("%s: exit %d, failures %r\n"
                                 % (name, res["exit"], report["failures"]))
                return 1
            for rec in report["records"]:
                del rec["runtime_ms"]
            dest = run.HERE / "reference" / ("%s.json" % name)
            dest.parent.mkdir(exist_ok=True)
            dest.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
            print("wrote %s" % dest.relative_to(run.ROOT))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
