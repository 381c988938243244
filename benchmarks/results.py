"""The consolidated ``BENCH_RESULTS`` document the gated benches feed.

When the ``BENCH_RESULTS`` environment variable names a file, each gate
merges its measurements into that JSON document under its own section
(CI uploads it as the ``BENCH_results.json`` artifact); unset, nothing
is written.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def record_result(section: str, payload: dict) -> None:
    """Merge one gate's measurements into $BENCH_RESULTS (if set)."""
    target = os.environ.get("BENCH_RESULTS")
    if not target:
        return
    path = Path(target)
    results = {}
    if path.exists():
        results = json.loads(path.read_text(encoding="utf-8"))
    results[section] = payload
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
