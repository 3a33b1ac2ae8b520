"""Shared pieces of the benchmark: deployment set-up, statistics and
the timed closed loop every workload runs in.

Nothing here reaches inside the program: deployments are built through
``repro.core``, load goes through ``repro.client.MoiraClient``, and the
only program state read directly is raw table rows (for the output
checks) and counters the program already exposes.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import threading
import time

from repro.core import AthenaDeployment, DeploymentConfig
from repro.client.lib import MoiraClient
import repro.core.deployment as _deployment_module

# Administrators the workloads authenticate as; each is put on the
# moira-admins capability list at set-up, like a site's own operators.
ADMIN_PASSWORD = "perfbench"
USER_PASSWORD = "pw"


class SetupClock:
    """Times the parts of one deployment build from the outside.

    ``load_population`` is looked up by ``AthenaDeployment.__init__``
    as a module global, so swapping that name for a timing shim splits
    the build into the population load and everything else.
    """

    def __init__(self):
        self.load_population_s = 0.0
        self._orig = _deployment_module.load_population

    def __enter__(self):
        orig = self._orig

        def timed_load(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.load_population_s += time.perf_counter() - t0

        _deployment_module.load_population = timed_load
        return self

    def __exit__(self, *exc):
        _deployment_module.load_population = self._orig
        return False


def build_deployment(workdir: str, *, cdc: bool = False):
    """The default deployment at the 10k-user design point, with its
    WAL in a fresh on-disk directory.  Returns (deployment, parts)."""
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    config = DeploymentConfig(wal_path=os.path.join(workdir, "wal"),
                              cdc=cdc)
    with SetupClock() as clock:
        t0 = time.perf_counter()
        dep = AthenaDeployment(config)
        total = time.perf_counter() - t0
    parts = {"workload.load_population_s": clock.load_population_s,
             "core.deploy_rest_s": total - clock.load_population_s}
    return dep, parts


def teardown_deployment(dep) -> None:
    """Stop the deployment's threads and close its WAL."""
    dep.server.shutdown()
    if dep.cdc is not None:
        dep.cdc.close()
    if dep.journal is not None:
        dep.journal.close()


def add_admin(dep, login: str, uid: int):
    """A staff account with a Kerberos principal on moira-admins;
    returns its credentials."""
    dep.direct_client().query("add_user", login, str(uid), "/bin/csh",
                              "Bench", "Operator", "", "1", f"PB{uid}",
                              "STAFF")
    dep.kdc.add_principal(login, ADMIN_PASSWORD)
    dep.make_admin(login)
    return dep.kdc.kinit(login, ADMIN_PASSWORD)


def user_credentials(dep, login: str):
    """Credentials for an ordinary user (principal made on first use)."""
    if not dep.kdc.principal_exists(login):
        dep.kdc.add_principal(login, USER_PASSWORD)
    return dep.kdc.kinit(login, USER_PASSWORD)


def inproc_client(dep, creds, client_name: str) -> MoiraClient:
    """An authenticated in-process client (inline dispatch)."""
    client = MoiraClient(dispatcher=dep.server, kdc=dep.kdc,
                         credentials=creds, clock=dep.clock)
    return client.connect().auth(client_name)


# -- statistics ---------------------------------------------------------------


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcWatch:
    """Collector pauses and gen-2 collections, via ``gc.callbacks``."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = None
        self._lock = threading.Lock()

    def _callback(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            with self._lock:
                self.pause_s += time.perf_counter() - self._start
                if info.get("generation") == 2:
                    self.gen2 += 1
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)
        return False


class Phase:
    """Result of one timed phase: latencies, counts, CPU and wall."""

    def __init__(self, latencies, attempted, failed, wall_s, cpu_s,
                 gc_watch):
        self.latencies = sorted(latencies)
        self.attempted = attempted
        self.failed = failed
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.gc_pause_s = gc_watch.pause_s
        self.gc_gen2 = gc_watch.gen2

    def end_to_end(self, tail_pct: float, setup_s: float) -> dict:
        done = len(self.latencies)
        return {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (done / self.wall_s, "1/s"),
            "p50_ms": (percentile(self.latencies, 50) * 1e3, "ms"),
            "tail_ms": (percentile(self.latencies, tail_pct) * 1e3, "ms"),
            "cpu_ms_per_op": (self.cpu_s / max(1, done) * 1e3, "ms"),
            "rss_mb": (peak_rss_mb(), "MB"),
        }


def timed_phase(run) -> Phase:
    """Run ``run() -> (latencies, attempted, failed)`` under the wall
    clock, the process CPU clock and the collector watch."""
    with GcWatch() as watch:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        latencies, attempted, failed = run()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    return Phase(latencies, attempted, failed, wall, cpu, watch)
