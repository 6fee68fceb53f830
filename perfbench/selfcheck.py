"""Tiny-scale self-check of the benchmark.

Runs every workload of ``BENCHMARK.json`` at a few slots and a few
hundred requests, untraced and traced, and checks that each run's last
stdout line is a correct result carrying every named metric in its unit.
Then it pins the digests one run printed and checks that the same run
passes against them, and that a wrong pinned digest fails it.

Run from the repository root: ``python3 perfbench/selfcheck.py``
(about a minute).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import TINY  # noqa: E402

SEED = 3


def bench_run(workload: str, trace: int, pins: Path | None = None) -> tuple[dict, dict]:
    """The result object and the printed digests of one tiny run."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "2", "--trace", str(trace), "--tiny",
    ]
    if pins is not None:
        command += ["--pins", str(pins)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    digests = next(
        json.loads(line.removeprefix("digests ")) for line in lines if line.startswith("digests ")
    )
    return json.loads(lines[-1]), digests


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    digests = {}
    for spec in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{spec['name']} --trace {trace}"
            result, digests[spec["name"]] = bench_run(spec["name"], trace)
            wanted = {metric["name"]: metric["unit"] for metric in bench[section]}
            got = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{name}: metrics {sorted(set(got) ^ set(wanted))} or units differ")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name}: not a correct run: {result}")
            print(f"ok {name}: {result['attempted']} attempted")

    pins = ROOT / ".perfbench" / "selfcheck-pins.json"
    pins.parent.mkdir(exist_ok=True)
    study = {key: digests["study"][key] for key in ("world", "dataset", "report", "responses")}
    scale = {"seed": SEED, **{key: TINY[key] for key in ("days", "blocks_per_day", "requests")}}
    try:
        pins.write_text(json.dumps({**scale, "digests": {"study": study}}))
        result, _ = bench_run("study", 0, pins)
        if not result["correct"]:
            problems.append(f"the run failed against its own pinned digests: {result}")
        pins.write_text(json.dumps({**scale, "digests": {"study": {**study, "world": "0" * 64}}}))
        result, _ = bench_run("study", 0, pins)
        if result["correct"] or result["failed"] < 1:
            problems.append("a wrong pinned world digest did not fail the run")
    finally:
        pins.unlink(missing_ok=True)
    print("ok pinned digests: a right pin passes, a wrong pin fails")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
