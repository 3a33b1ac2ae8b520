"""``propagation``: one writer, each mutation followed to the hosts.

A ``cdc=True`` deployment is converged once during set-up (a simulated
day of cron).  Then one client, authenticated over TCP
(``TcpServerTransport`` in front of the default worker pool), loops:

1. commit a mutation through the server;
2. pump the CDC extractor (``AthenaDeployment.pump_cdc``);
3. ask the managed service for the value just written — pumping again
   (up to ``MAX_PUMPS`` times) until it answers with it;
4. go on to the next mutation.

One operation is one mutation, from its commit until its hosts serve
it.  A round of nine mutations touches every managed service: a shell
changed and later restored (Hesiod), a mailing-list member added and
later removed (mail hub), an NFS quota set and later restored (NFS), a
member added to and later removed from a Zephyr class's transmit ACL
list (Zephyr), and ``register_user``, which dirties every service and
is served by Hesiod and NFS.  The round's make-up is a choice, not a
measured mix: it puts every managed service on the path each round.

The check of each operation is the managed service's own answer
(``HesiodServer.getpwnam``, ``MailHub.resolve``,
``NFSServer.quota_for``/``locker_exists``, ``ZephyrServer.authorized``).
After the timed phase a simulated cron day (``run_hours(24)``) must
push nothing to any host: CDC already converged everything.
"""

from __future__ import annotations

import gc
import random
import time

from repro.client.lib import MoiraClient
from repro.errors import MoiraError
from repro.protocol.transport import TcpServerTransport

from common import add_admin, build_deployment, teardown_deployment

ADMIN = "pbprop"
ADMIN_UID = 90020
MAX_PUMPS = 5
# at least this many rounds per run, so the tail percentile always has
# ten samples beyond it (9 mutations per round)
MIN_ROUNDS = 6
SETUP_CONVERGE_HOURS = 25
SHELLS = ("/bin/csh", "/bin/sh", "/usr/athena/tcsh", "/bin/ksh")
QUOTAS = (350, 400, 450, 500)


class Propagation:
    name = "propagation"
    tail_pct = 80

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.dep = None
        self.transport = None
        self.client = None
        self.problems: list = []

    # -- set-up ----------------------------------------------------------

    def setup(self) -> dict:
        self.problems = []
        self.dep, parts = build_deployment(self.workdir, cdc=True)
        t0 = time.perf_counter()
        self.dep.run_hours(SETUP_CONVERGE_HOURS)
        parts["dcm.setup_converge_s"] = time.perf_counter() - t0
        creds = add_admin(self.dep, ADMIN, ADMIN_UID)
        self.transport = TcpServerTransport(self.dep.server).start()
        self.client = MoiraClient(
            tcp_address=self.transport.address, kdc=self.dep.kdc,
            credentials=creds, clock=self.dep.clock)
        self.client.connect().auth("propagation")
        self.dep.pump_cdc()     # absorb the admin's own set-up writes
        self._plan()
        return parts

    def _plan(self) -> None:
        """Key pools from the raw rows; the draws come from the seed."""
        db = self.dep.db
        self.rng = random.Random(self.seed)
        users = db.table("users").rows
        self.by_login = {r["login"]: r for r in users}
        active = sorted(r["login"] for r in users if r["status"] == 1
                        and r["potype"] == "POP")
        self.active = active
        self.unregistered = sorted(r["uid"] for r in users
                                   if r["status"] == 0)
        lists = {r["list_id"]: r["name"] for r in db.table("list").rows}
        zephyr_lists = {lists[r["xmt_id"]]: r["class"]
                        for r in db.table("zephyr").rows
                        if r["xmt_type"] == "LIST"}
        self.zephyr_lists = sorted(zephyr_lists.items())
        # mail-only lists: a list that is also a unix group reaches
        # Hesiod and NFS too, and the seed would pick how many such
        # (costlier) mutations a run makes
        self.maillists = sorted(
            r["name"] for r in db.table("list").rows
            if r["maillist"] and not r["grouplist"]
            and r["name"] not in zephyr_lists)
        members = {}
        for m in db.table("members").rows:
            members.setdefault(lists[m["list_id"]], set()).add(
                m["member_id"])
        self.members = members
        self.homedirs = {r["label"]: r for r in db.table("filesys").rows
                         if r["lockertype"] == "HOMEDIR"}
        self.quota_of = {r["filsys_id"]: r["quota"]
                         for r in db.table("nfsquota").rows}
        self.machines = {r["mach_id"]: r["name"]
                         for r in db.table("machine").rows}
        self.next_register = 0

    def _round(self) -> list:
        """One round of mutations: (description, query args, verify)."""
        rng = self.rng
        ops = []
        u = rng.choice(self.active)
        shell = rng.choice([s for s in SHELLS
                            if s != self.by_login[u]["shell"]])
        ops.append(("update_user_shell", (u, shell),
                    lambda u=u, shell=shell: self._hesiod_shell(u) == shell))
        ml = rng.choice(self.maillists)
        v = self._non_member(ml)
        ops.append(("add_member_to_list", (ml, "USER", v),
                    lambda ml=ml, v=v: self._on_maillist(ml, v)))
        label = rng.choice(sorted(self.homedirs))
        fs = self.homedirs[label]
        owner = self.by_login[label]
        old = self.quota_of[fs["filsys_id"]]
        new = rng.choice([q for q in QUOTAS if q != old])
        ops.append(("update_nfs_quota", (label, label, str(new)),
                    lambda fs=fs, uid=owner["uid"], q=new:
                    self._quota(fs, uid) == q))
        zl, klass = rng.choice(self.zephyr_lists)
        w = self._non_member(zl)
        ops.append(("add_member_to_list", (zl, "USER", w),
                    lambda klass=klass, w=w: self._zephyr_ok(klass, w)))
        uid = self.unregistered[self.next_register]
        self.next_register += 1
        login = f"pbr{uid}"
        ops.append(("register_user", (str(uid), login, "1"),
                    lambda login=login: self._registered(login)))
        ops.append(("delete_member_from_list", (ml, "USER", v),
                    lambda ml=ml, v=v: not self._on_maillist(ml, v)))
        ops.append(("update_nfs_quota", (label, label, str(old)),
                    lambda fs=fs, uid=owner["uid"], q=old:
                    self._quota(fs, uid) == q))
        ops.append(("delete_member_from_list", (zl, "USER", w),
                    lambda klass=klass, w=w:
                    not self._zephyr_ok(klass, w)))
        back = self.by_login[u]["shell"]
        ops.append(("update_user_shell", (u, back),
                    lambda u=u, back=back: self._hesiod_shell(u) == back))
        return ops

    def _non_member(self, list_name: str) -> str:
        taken = self.members.get(list_name, set())
        while True:
            login = self.rng.choice(self.active)
            if self.by_login[login]["users_id"] not in taken:
                return login

    def warmup(self) -> None:
        # each operation takes hundreds of ms, so first-call costs do
        # not matter; settling the collector after the build does
        gc.collect()

    def teardown(self) -> None:
        if self.dep is not None:
            if self.client is not None:
                self.client.mr_disconnect()
                self.client = None
            if self.transport is not None:
                self.transport.stop()
                self.transport = None
            teardown_deployment(self.dep)
            self.dep = None

    # -- what the managed services answer -----------------------------------

    def _hesiod_shell(self, login: str) -> str:
        return self.dep.hesiod.getpwnam(login)["shell"]

    def _on_maillist(self, list_name: str, login: str) -> bool:
        return any(a.split("@")[0] == login
                   for a in self.dep.mailhub.resolve(list_name))

    def _nfs_server(self, fs):
        return self.dep.nfs_servers[self.machines[fs["mach_id"]].upper()]

    def _quota(self, fs, uid: int) -> int:
        return self._nfs_server(fs).quota_for(uid)

    def _zephyr_ok(self, klass: str, login: str) -> bool:
        return all(server.authorized(login, klass)
                   for server in self.dep.zephyr_servers.values())

    def _registered(self, login: str) -> bool:
        """A half-registered user is served its locker and group, not
        yet a passwd entry or mail (those wait for the password)."""
        dep = self.dep
        try:
            filsys = dep.hesiod.get_filsys(login)
            dep.hesiod.resolve(login, "group")
        except Exception:
            return False
        fs = [r for r in dep.db.table("filesys").rows
              if r["label"] == login]
        return (len(fs) == 1 and filsys["mount"] == fs[0]["mount"]
                and self._nfs_server(fs[0]).locker_exists(fs[0]["name"]))

    # -- the timed loop ----------------------------------------------------

    def _execute(self, ops, latencies) -> int:
        failed = 0
        client = self.client
        pump = self.dep.pump_cdc
        clock = time.perf_counter
        for name, args, served in ops:
            t0 = clock()
            try:
                client.query(name, *args)
            except MoiraError as exc:
                self.problems.append(f"{name}{args}: {exc}")
                failed += 1
                continue
            for _ in range(MAX_PUMPS):
                pump()
                if served():
                    latencies.append(clock() - t0)
                    break
            else:
                self.problems.append(f"{name}{args} never reached its hosts")
                failed += 1
        return failed

    def run(self, deadline: float):
        latencies: list = []
        attempted = failed = rounds = 0
        while True:
            ops = self._round()
            failed += self._execute(ops, latencies)
            attempted += len(ops)
            rounds += 1
            if rounds >= MIN_ROUNDS and time.perf_counter() >= deadline:
                return latencies, attempted, failed

    # -- output checks -------------------------------------------------------

    def check(self) -> list:
        problems = list(self.problems[:5])
        before = sum(d.updates_received for d in self.dep.daemons.values())
        self.dep.run_hours(24)
        after = sum(d.updates_received for d in self.dep.daemons.values())
        if after != before:
            problems.append(f"propagation: a cron day after CDC pushed "
                            f"{after - before} host updates")
        return problems
