"""What ``python -m repro serve`` loads when its artifact is on disk.

A server on a saved artifact only unpickles a dataset, indexes it and
answers requests: it must neither simulate nor import the graph and
sparse-matrix libraries (networkx, scipy) that building worlds or older
clustering code pulled in.  Nor does it import the process-sharded
runner (``repro.perf.sharding``) or ``multiprocessing``: the worker pool
forks with ``os.fork``.  The test saves a tiny collected dataset,
boots the CLI on it under ``-X importtime``, requests every static route
and one bidtrace page, and reads the server's stderr.
"""

from __future__ import annotations

import os
import pathlib
import select
import subprocess
import sys
import urllib.request

from repro.datasets import collect_study_dataset
from repro.perf.artifacts import save_study_artifact
from repro.serve.service import STATIC_ROUTES
from repro.simulation import SimulationConfig, build_world

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
PAYLOADS_PATH = "/relay/v1/data/bidtraces/proposer_payload_delivered"
DEADLINE = 60.0


def _module(line: str) -> str:
    """The module an ``import time:`` line reports (its last column)."""
    return line.rsplit("|", 1)[1].strip()


def test_server_on_a_saved_artifact_imports_neither_networkx_nor_scipy(tmp_path):
    config = SimulationConfig(
        seed=7, num_days=1, blocks_per_day=4, num_validators=20
    )
    save_study_artifact(
        config, collect_study_dataset(build_world(config).run()), tmp_path
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, "-X", "importtime", "-m", "repro", "serve",
        "--workers", "1", "--port", "0", "--artifact-dir", str(tmp_path),
        "--seed", "7", "--days", "1", "--blocks-per-day", "4",
        "--validators", "20",
    ]
    stderr_path = tmp_path / "stderr.txt"
    with open(stderr_path, "w") as stderr:
        proc = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True
        )
        try:
            readable, _, _ = select.select([proc.stdout], [], [], DEADLINE)
            line = proc.stdout.readline().strip() if readable else ""
            assert line.startswith("READY "), f"no READY line, got {line!r}"
            url = line.split()[1]
            for route in sorted(STATIC_ROUTES) + [f"{PAYLOADS_PATH}?limit=2"]:
                with urllib.request.urlopen(url + route, timeout=10) as reply:
                    assert reply.status == 200, route
                    assert reply.read()
            proc.terminate()
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()

    lines = stderr_path.read_text().splitlines()
    assert not [line for line in lines if "simulating" in line]
    assert any(line.startswith("loaded artifact") for line in lines)
    imported = [
        _module(line) for line in lines if line.startswith("import time:")
    ]
    assert "repro.serve.http" in imported
    assert not [
        name
        for name in imported
        if name.split(".")[0] in ("networkx", "scipy", "multiprocessing")
        or name == "repro.perf.sharding"
    ]
