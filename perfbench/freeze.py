"""Regenerate reference.json: run every catalog entry once and freeze its outputs.

    python3 perfbench/freeze.py

Run from the root of a checkout at the commit whose outputs become the
reference. Residue bounds and finiteness are checked while freezing; an
entry that fails them stops the run, so nothing unchecked is frozen.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    root = os.getcwd()
    run.import_package(root)
    from kgcavity import bogoliubov

    import check

    entries = {}
    ops = [op for name in sorted(workloads.CATALOGS) for op in workloads.CATALOGS[name]
           if op.expect == "ok"]
    with run.Runner(root, reference=None) as runner:
        for k, op in enumerate(ops):
            outcome = runner.run(k, op)
            bogoliubov.clear_memo()   # one process, bounded memory
            if outcome["status"] != "ok":
                print(f"{op.key}: {outcome['errors']}", file=sys.__stderr__)
                return 1
            entries[op.key] = outcome["tables"]
    doc = {"commit": run.git_commit(root), "entries": entries}
    with open(check.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"froze {len(entries)} catalog entries into {check.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
