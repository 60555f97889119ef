"""One benchmark job, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/job.py '<json spec>'

The host-speed sampler (``hostspeed.py``) starts before anything of the
program is imported, so its samples cover the job's whole set-up,
``import fermicode`` included; ``stages.run`` then does the work. The last
line of standard output is one JSON object; a job that raises exits nonzero
without one, and run.py counts it as failed.
"""

from __future__ import annotations

import json
import sys

import hostspeed


def main() -> int:
    spec = json.loads(sys.argv[1])
    # Traced jobs sample only between stages: a timer sample would land inside the spans.
    sampler = hostspeed.Sampler(spec["spawn_chunks"], timer=not spec["traced"]).start()
    try:
        import stages  # imported while the sampler runs, so set-up time is sampled

        result = stages.run(spec, sampler)
    finally:
        sampler.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
