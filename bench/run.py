"""propval benchmark: one run of one workload, printed as one JSON line.

Run from the root of a checkout (the directory that holds ``src/propval``):

    python3 bench/run.py --workload irr_portfolio --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics: the timed run happens in a
fresh worker process, and set-up time is the median over that worker and
SETUP_PROBES more fresh processes that only set up. ``--trace 1`` runs the
traced worker and reports the per-layer metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("irr_portfolio", "appraisal_batch", "cli_cold")
SETUP_PROBES = 6
WORKER = Path(__file__).resolve().parent / "worker.py"
DEADLINE_S = 170.0  # a run must end within 180 s
STARTED = time.monotonic()


def worker(env: dict, *argv: str, quiet: bool = False) -> dict:
    """Run worker.py in a fresh process; its last stdout line is the result.
    A quiet worker's stderr is shown only if it fails."""
    spawned = time.monotonic()
    # its own process group, so a timeout also stops a CLI call it is waiting on
    with subprocess.Popen(
        [sys.executable, str(WORKER), *argv, "--spawned-at", repr(spawned)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if quiet else None,
        start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, DEADLINE_S - (spawned - STARTED)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit("bench: worker timed out")
    if proc.returncode != 0:
        if quiet:
            sys.stderr.write(stderr.decode(errors="replace"))
        raise SystemExit(f"bench: worker failed with exit code {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = Path.cwd() / "src"
    if not (src / "propval" / "__init__.py").is_file():
        print(f"bench: no propval sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    if args.trace:
        result = worker(env, *common, "--seconds", str(args.seconds), "--trace")
    else:
        setups = [worker(env, *common, "--setup-only", quiet=True)["setup_s"] for _ in range(SETUP_PROBES)]
        result = worker(env, *common, "--seconds", str(args.seconds))
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
    missing = set(units) ^ set(result["metrics"])
    if missing:
        print(f"bench: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
