"""Rewrite reproduce_snapshot.json from this checkout's source.

    python3 perfbench/snapshot.py

The reproduce workload checks every call against this snapshot: the
tables the CLI writes, its "(m/n rows match)" counts, the erratum record,
and how many of the closed forms match the general route. Regenerate it
only on purpose, when the reference data or a documented erratum changes.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
from contextlib import redirect_stdout

import run
import workloads


def main() -> int:
    cli = run.import_cli()
    reproduce = sys.modules["svetlichny.reproduce"]
    out_dir = os.path.join(run.RUN_DIR, "snapshot")
    erratum = os.path.join(out_dir, "erratum.json")
    shutil.rmtree(out_dir, ignore_errors=True)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["reproduce", "--table", "all", "--out", out_dir, "--erratum", erratum])
    stdout = out.getvalue()
    if code != 0:
        print(f"reproduce exited with {code!r}", file=sys.stderr)
        return 1
    checks = [check for family in sorted(reproduce.TABLES)
              for check in reproduce.reproduce_closed_forms(family)]
    with open(erratum, encoding="utf-8") as handle:
        entries = json.load(handle)
    snapshot = {
        "match_counts": workloads.match_counts(stdout),
        "closed_forms_total": len(checks),
        "closed_forms_match": sum(c.status == reproduce.STATUS_MATCH for c in checks),
        "tables": workloads.read_tables(out_dir),
        "erratum": entries,
    }
    shutil.rmtree(out_dir, ignore_errors=True)
    with open(workloads.SNAPSHOT, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=1)
        handle.write("\n")
    print(f"wrote {workloads.SNAPSHOT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
