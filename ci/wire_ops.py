#!/usr/bin/env python3
"""Fail when the cluster worker's op set and docs/CLUSTER.md's wire table drift.

    python3 ci/wire_ops.py

Run from the repo root.  The code side is every "cluster-..." string
literal in lib/cluster/worker.ml (the worker dispatches on exactly these);
the doc side is the op column of the wire-protocol table.  Any op on one
side only is reported and the exit status is 1.
"""

import re
import sys

code = set(re.findall(r'"(cluster-[a-z-]+)"',
                      open("lib/cluster/worker.ml", encoding="utf-8").read()))
doc = set(re.findall(r'^\| `(cluster-[a-z-]+)` \|',
                     open("docs/CLUSTER.md", encoding="utf-8").read(), re.M))
if not code or not doc:
    sys.exit(f"wire ops: nothing found (code {sorted(code)}, doc {sorted(doc)})")
for op in sorted(code - doc):
    print(f"wire ops: {op} is dispatched by worker.ml but not in docs/CLUSTER.md",
          file=sys.stderr)
for op in sorted(doc - code):
    print(f"wire ops: {op} is in docs/CLUSTER.md but not dispatched by worker.ml",
          file=sys.stderr)
if code != doc:
    sys.exit(1)
print(f"wire ops: {len(code)} ops, code and docs agree")
