"""Recompute the output digests the benchmark checks against.

    python3 bench/pin.py [analytics] [cli] [walk_short]

Run from the root of a checkout of the commit whose outputs are the
reference; rewrites those workloads' entries in ``bench/pins.json``.
Only re-pin when an output change is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def pin_variants(module, work) -> dict:
    """{variant: digests} of one operation on each of the module's VARIANTS inputs."""
    pins = {}
    for variant in range(module.VARIANTS):
        state = module.setup(run.ROOT, work / str(variant), variant, run.NullTracer())
        pins[str(variant)] = module.digests(state, module.op(state, 0, run.NullTracer()))
    return pins


if __name__ == "__main__":
    names = sys.argv[1:] or ["analytics", "cli", "walk_short"]
    path = run.BENCH_DIR / "pins.json"
    pins = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    workloads = run._workloads()
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"pin-{name}-", dir=run.ROOT / ".bench_work"))
        try:
            module = workloads[name]
            if hasattr(module, "pin"):
                pins[name] = module.pin(run.ROOT, work)
            else:
                pins[name] = pin_variants(module, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"pinned {name}", file=sys.stderr)
