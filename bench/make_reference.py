"""Write the stored reference outputs under bench/reference/ from the current program.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are known to be right: the gate
compares every later run with these files. ``bands.csv`` is not stored; the
gate checks it against its own oracle. Long CSV files keep about 500 rows
(``gate.reference_rows``) and their total row count.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import run
from workloads import CLI_COLD, SCENARIOS


def main() -> int:
    run.require_source()
    shutil.rmtree(gate.REFERENCE, ignore_errors=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for command, stem in CLI_COLD:
            if command == "bands":
                continue
            out = Path(tmp) / stem
            _, rc = run.run_in_process([command, "--scenario", str(SCENARIOS / f"{stem}.json"),
                                        "--out", str(out)])
            if rc != 0:
                print(f"{stem}: exit {rc}", file=sys.stderr)
                return 1
            ref = gate.REFERENCE / stem
            ref.mkdir(parents=True)
            for path in sorted(out.iterdir()):
                target = ref / f"{path.name}.ref.json"
                if path.suffix == ".csv":
                    comment, columns, rows = gate.read_csv(path)
                    index = gate.reference_rows(rows.shape[0])
                    target.write_text(json.dumps({
                        "comment": comment, "columns": columns, "rows": rows.shape[0],
                        "index": index, "data": rows[index].tolist()}) + "\n")
                else:
                    shutil.copyfile(path, target)
                print(f"wrote {target.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
