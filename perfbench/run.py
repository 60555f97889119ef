"""Pipeline benchmark for fermicode: one workload, timed end to end or traced.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each job is one fresh interpreter
(``perfbench/job.py``) that does what ``fermicode transform --verify`` does,
so every job starts cold. Jobs run one after another, never in parallel,
until ``--seconds`` is used up (at least ``MIN_JOBS`` of them); each job gets
its own ``PYTHONHASHSEED``. Just before each job this process times
``SPAWN_CHUNKS`` calibration chunks (``hostspeed.py``), which, with the
job's own samples, give the host's speed during the job's set-up. Every
job is checked: verification status and deviation, output sizes against
``expected.json``, the serialized bytes against the recorded sha256 for
seed 0, and identical bytes across all jobs of the run (so across hash
seeds).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, each
the median over the run's jobs. The times are normalized for the host's
speed (``hostspeed.py``); the medians of the wall times are printed as
``raw_<metric>`` as well. ``--trace 1`` alternates untraced and traced jobs
and reports the per-layer metrics from the traced ones, as medians;
``trace.overhead_s`` is the median traced minus the median untraced
(normalized) pipeline time. Each metric is printed on its own line with its
unit; the last line is one JSON object.
Raw job records go to ``perfbench/out/``. The exit code is 1 when any job
failed, 2 on a usage or set-up error.

``--smoke`` runs tiny instances of the workloads and ``--corrupt`` flips the
sign of one coefficient of each transformed operator (in a copy); both exist
for ``test_perfbench.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Code spec and basis are given exactly as on the fermicode command line.
WORKLOADS = {
    "hubbard_segment": {
        "model": "hubbard",
        "size": {"rows": 2, "cols": 5},
        "code": "segment:2:2+segment:2:2",
        "basis": "1-10:2;11-20:2",
        "smoke": {
            "size": {"rows": 1, "cols": 3},
            "code": "segment:1:1+segment:1:1",
            "basis": "1-3:1;4-6:1",
        },
    },
    "molecular_bk": {
        "model": "molecular",
        "size": {"orbitals": 7},
        "code": "bravyi_kitaev:14",
        "basis": "1-7:2;8-14:2",
        "smoke": {"size": {"orbitals": 2}, "code": "bravyi_kitaev:4", "basis": "1-2:1;3-4:1"},
    },
    "addressing_k2": {
        "model": "two_particle",
        "size": {"modes": 8},
        "code": "binary_addressing_k2:3",
        "basis": "1-8:2",
        "smoke": {"size": {"modes": 4}, "code": "binary_addressing_k2:2", "basis": "1-4:2"},
    },
}

DEFAULT_SEED = 0  # the seed whose serialized output sha256 is recorded
MIN_JOBS = 3  # per kind of job (untraced, traced) in a run
JOB_TIMEOUT_S = 150
MAX_DEVIATION = 1e-9
SPAWN_CHUNKS = 3


def run_job(spec: dict, hash_seed: int) -> dict:
    """One job in a fresh interpreter; a crash or timeout becomes an error record."""
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hash_seed),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    chunks = [hostspeed.chunk() for _ in range(SPAWN_CHUNKS)]
    spec = dict(spec, spawn_chunks=chunks, spawned=time.monotonic())
    cmd = [sys.executable, str(BENCH / "job.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"job exceeded {JOB_TIMEOUT_S} s", "wall_s": JOB_TIMEOUT_S}
    wall = time.monotonic() - spec["spawned"]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": tail[0], "wall_s": wall}
    record = json.loads(lines[-1])
    record.update(wall_s=wall, traced=spec["traced"], hash_seed=hash_seed)
    return record


def problems(job: dict, expected: dict, seed: int) -> list[str]:
    """Why a job's output is wrong; empty when it passes every check."""
    if "error" in job:
        return [job["error"]]
    found = []
    if job["status"] != "pass":
        found.append(f"verification status {job['status']}")
    if not job["max_deviation"] <= MAX_DEVIATION:
        found.append(f"max deviation {job['max_deviation']:.3g}")
    for key in ("qubits", "pauli_terms", "gates"):
        if job[key] != expected[key]:
            found.append(f"{key} {job[key]} != recorded {expected[key]}")
    if seed == DEFAULT_SEED and job["sha256"] != expected["sha256"]:
        found.append("serialized output differs from the recorded sha256")
    return found


def median(values):
    """Middle value as measured (the lower one of an even count)."""
    return statistics.median_low(values)


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end_metrics(jobs: list[dict], units: dict) -> dict:
    done = [j for j in jobs if "error" not in j]
    if not done:
        return {}
    return {name: median(j[name] for j in done) for name in units}


def per_layer_metrics(jobs: list[dict]) -> dict:
    done = [j for j in jobs if "error" not in j]
    traced = [j for j in done if j["traced"]]
    plain = [j for j in done if not j["traced"]]
    if not traced or not plain:
        return {}
    out = {name: median(j["layers"][name] for j in traced) for name in traced[0]["layers"]}
    pooled = [us for j in traced for us in j["term_us"]] or [0.0]
    out["transform.term_us.p50"] = percentile(pooled, 0.5)
    out["transform.term_us.p90"] = percentile(pooled, 0.9)
    out["trace.overhead_s"] = median(j["pipeline_s"] for j in traced) - median(
        j["pipeline_s"] for j in plain
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instances")
    parser.add_argument("--corrupt", action="store_true", help="flip one coefficient")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fermicode" / "__init__.py").is_file():
        print(f"perfbench: no fermicode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_list = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_list}
    key = ("smoke:" if args.smoke else "") + args.workload
    expected = json.loads((BENCH / "expected.json").read_text())[key]

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    spec = {
        "model": workload["model"],
        "seed": args.seed,
        "size": workload["size"],
        "code": workload["code"],
        "basis": workload["basis"],
        "corrupt": args.corrupt,
        "trace_out": str(OUT / f"{stem}-spans.json"),
    }
    if args.smoke:
        spec.update(workload["smoke"])

    kinds = (False, True) if args.trace else (False,)
    start = time.monotonic()
    jobs: list[dict] = []
    while True:
        traced = kinds[len(jobs) % len(kinds)]
        jobs.append(run_job(dict(spec, traced=traced), hash_seed=len(jobs) + 1))
        elapsed = time.monotonic() - start
        next_wall = max(j["wall_s"] for j in jobs[-len(kinds):])
        if len(jobs) >= MIN_JOBS * len(kinds) and elapsed + next_wall > args.seconds:
            break

    found = [problems(j, expected, args.seed) for j in jobs]
    digests = {j["sha256"] for j in jobs if "sha256" in j}
    if len(digests) > 1:
        for f in found:
            f.append(f"serialized bytes differ across hash seeds: {len(digests)} digests")
    failed = sum(1 for f in found if f)

    if args.trace:
        metrics = per_layer_metrics(jobs)
    else:
        metrics = end_to_end_metrics(jobs, units)
    missing = [name for name in units if name not in metrics]

    ok_job = next((j for j in jobs if "error" not in j), {})
    env = {
        "python": platform.python_version(),
        "numpy": ok_job.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": env,
        "failed_share": failed / len(jobs),
        "metrics": metrics,
        "jobs": [{k: v for k, v in j.items() if k != "term_us"} for j in jobs],
    }
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"jobs {len(jobs)} ({sum(j.get('traced', False) for j in jobs)} traced)")
    print(f"env python {env['python']} numpy {env['numpy']} nproc {env['nproc']}")
    for f in found:
        for problem in f:
            print(f"FAILED job: {problem}")
    done = [j for j in jobs if "error" not in j]
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} {metrics[name]:.6g} {unit}")
            if "raw_" + name in done[0]:
                print(f"raw_{name} {median(j['raw_' + name] for j in done):.6g} {unit}")
    print(f"failed_share {failed / len(jobs):.6g} ({failed}/{len(jobs)} jobs)")
    if args.trace and metrics:
        traced = [j for j in jobs if j.get("traced") and "error" not in j]
        selfs = {n: median(j["self_s"].get(n, 0.0) for j in traced) for n in traced[0]["self_s"]}
        for name, value in sorted(selfs.items(), key=lambda kv: -kv[1])[:6]:
            print(f"self_time {name} {value:.6g} s")
    if missing and not failed:
        print(f"perfbench: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
