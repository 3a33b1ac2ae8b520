"""``churn``: two authenticated TCP connections replay app-shaped
actions against the default server (``TcpServerTransport`` in front of
the default worker pool).

Each connection belongs to one client thread and one administrator and
replays, in whole rounds, actions shaped like the paper's applications:

* chsh — read the user, then ``update_user_shell``;
* chfn — read the finger record, then ``update_finger_by_login``;
* listmaint — add or delete one member of a mailing list;
* machmaint — ``add_machine``, ``get_machine``, ``delete_machine``;
* pobox — ``set_pobox`` to a new SMTP address.

A round is made of blocks that alternate between a mixed block on both
connections (all five kinds of action) and a write-only split block in
which connection 0 changes only poboxes and connection 1 only list
members, so two writers contend for the group-commit lanes from
different footprints.  Every
``ACTIONS_PER_CONNECTION`` actions a connection closes and a new one
connects and authenticates; that connect + Kerberos round trip is one
``auth`` operation of the mix.

The two threads own disjoint users, lists and machine names, so each
keeps an exact model of what it last wrote: every read-back must match
it, the final rows must match it, and the on-disk WAL must hold each
acknowledged write exactly once, in the order it was acknowledged.
"""

from __future__ import annotations

import gc
import random
import threading
import time

from repro.client.lib import MoiraClient
from repro.db.journal import Journal
from repro.errors import MoiraError
from repro.protocol.transport import TcpServerTransport

from common import add_admin, build_deployment, teardown_deployment

CONNECTIONS = 2
ADMINS = ("pbchurn0", "pbchurn1")
ADMIN_UIDS = (90010, 90011)
USERS_PER_THREAD = 400
LISTS_PER_THREAD = 20
ACTIONS_PER_CONNECTION = 40
WARMUP_ROUNDS = 1
# A round is BLOCKS_PER_ROUND blocks, three mixed blocks (both
# connections) to one split block (connection 0 on poboxes, connection
# 1 on list members), then one machmaint.  The shares are assumed, not
# measured: no trace of Moira's request mix exists.  Reads (the first
# request of chsh and chfn, the get_machine of machmaint) are about an
# eighth of the requests, well away from one half: a read's two-frame
# reply either waits out the client's delayed ACK (~41 ms) or, when
# both frames leave in one send, returns in well under a millisecond,
# so p50 stays among the writes while the tail and the traced
# protocol.tcp_wait_us_per_multiframe_reply show the stall.  Member
# deletes (~5 ms) are the slowest writes; listmaint is kept to about a
# third of the writes so that p50 falls among the ~2 ms adds and pobox
# changes rather than on the edge of the deletes.
BLOCKS_PER_ROUND = 40
MIXED_BLOCK = ("listmaint", "pobox", "chsh", "pobox", "listmaint",
               "pobox", "chfn", "pobox", "listmaint", "pobox", "pobox",
               "chsh", "listmaint", "pobox", "chfn", "pobox", "listmaint",
               "pobox", "pobox", "pobox")
SPLIT_BLOCK = (("pobox",) * 20, ("listmaint",) * 20)
ROUND_END = ("machmaint",)
SHELLS = ("/bin/csh", "/bin/sh", "/usr/athena/tcsh", "/bin/ksh")


class _Session:
    """One client thread: its connection, keys, model and records."""

    def __init__(self, index, rng, users, lists, machine_type, finger,
                 pobox):
        self.index = index
        self.admin = ADMINS[index]
        self.rng = rng
        self.users = users
        self.lists = lists
        self.machine_type = machine_type
        self.smtp_changes: dict = {}  # login -> SMTP boxes set so far
        self.shell = {u: finger[u]["shell"] for u in users}
        self.finger = {u: finger[u]["finger"] for u in users}
        self.pobox = dict(pobox)      # login -> (type, box)
        self.members = {name: set(m) for name, m in lists.items()}
        self.machines = 0
        self.acked: list = []         # (query, args) acknowledged writes
        self.mismatches: list = []
        self.client = None
        self.actions_on_conn = 0


class Churn:
    name = "churn"
    tail_pct = 99

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.dep = None
        self.transport = None
        self.sessions = []

    # -- set-up ----------------------------------------------------------

    def setup(self) -> dict:
        self.dep, parts = build_deployment(self.workdir)
        self.creds = [add_admin(self.dep, login, uid)
                      for login, uid in zip(ADMINS, ADMIN_UIDS)]
        self.transport = TcpServerTransport(self.dep.server).start()
        self.sessions = self._plan()
        self.scripts = [self._script(s) for s in self.sessions]
        return parts

    def _plan(self) -> list:
        """Disjoint keys per thread, drawn from the seed; each thread's
        model starts from the raw rows."""
        db = self.dep.db
        rng = random.Random(self.seed)
        machines = {r["mach_id"]: r["name"] for r in db.table("machine").rows}
        strings = {r["string_id"]: r["string"]
                   for r in db.table("strings").rows}
        users = [r for r in db.table("users").rows
                 if r["status"] == 1 and r["potype"] == "POP"]
        chosen = rng.sample(users, CONNECTIONS * USERS_PER_THREAD)
        finger_fields = ("fullname", "nickname", "home_addr", "home_phone",
                         "office_addr", "office_phone", "mit_dept",
                         "mit_affil")
        user_state = {r["login"]: {
            "shell": r["shell"],
            "finger": tuple(str(r[f]) for f in finger_fields)}
            for r in chosen}
        pobox = {}
        for r in chosen:
            if r["potype"] == "POP":
                pobox[r["login"]] = ("POP", machines[r["pop_id"]])
            else:
                pobox[r["login"]] = ("SMTP", strings[r["box_id"]])
        users_by_id = {r["users_id"]: r["login"]
                       for r in db.table("users").rows}
        # mail-only lists of middling size: what a member change costs
        # grows with the list, and list sizes are power-law, so a free
        # draw would let the seed set the run's write cost
        sizes: dict = {}
        for m in db.table("members").rows:
            sizes[m["list_id"]] = sizes.get(m["list_id"], 0) + 1
        list_rows = sorted((r for r in db.table("list").rows
                            if r["maillist"] and not r["grouplist"]),
                           key=lambda r: (sizes.get(r["list_id"], 0),
                                          r["name"]))
        wanted = CONNECTIONS * LISTS_PER_THREAD
        middle = (len(list_rows) - wanted) // 2
        picked = rng.sample(list_rows[middle:middle + wanted], wanted)
        members: dict = {r["name"]: set() for r in picked}
        ids = {r["list_id"]: r["name"] for r in picked}
        for m in db.table("members").rows:
            if m["list_id"] in ids and m["member_type"] == "USER":
                members[ids[m["list_id"]]].add(users_by_id[m["member_id"]])
        mtype = sorted(r["trans"] for r in db.table("alias").rows
                       if r["name"] == "mach_type")[0]
        sessions = []
        for i in range(CONNECTIONS):
            mine = [r["login"] for r in
                    chosen[i * USERS_PER_THREAD:(i + 1) * USERS_PER_THREAD]]
            my_lists = {r["name"]: members[r["name"]] for r in
                        picked[i * LISTS_PER_THREAD:
                               (i + 1) * LISTS_PER_THREAD]}
            sessions.append(_Session(
                i, random.Random(f"{self.seed}/{i}"), mine, my_lists, mtype,
                user_state, {u: pobox[u] for u in mine}))
        return sessions

    def _script(self, session: _Session) -> list:
        """The thread's round: action names with fixed keys, drawn once
        from the seed so every round replays the same actions."""
        rng = session.rng
        actions = []
        for block in range(BLOCKS_PER_ROUND):
            actions += (SPLIT_BLOCK[session.index] if block % 4 == 3
                        else MIXED_BLOCK)
        actions += ROUND_END
        script = []
        for action in actions:
            if action in ("chsh", "chfn", "pobox"):
                script.append((action, rng.choice(session.users)))
            elif action == "listmaint":
                script.append((action, (rng.choice(sorted(session.lists)),
                                        rng.choice(session.users))))
            else:
                script.append((action, None))
        return script

    def warmup(self) -> None:
        for _ in range(WARMUP_ROUNDS):
            self._run_threads(lambda: False, [])
        gc.collect()

    def teardown(self) -> None:
        for session in self.sessions:
            if session.client is not None:
                session.client.mr_disconnect()
                session.client = None
        if self.transport is not None:
            self.transport.stop()
            self.transport = None
        if self.dep is not None:
            teardown_deployment(self.dep)
            self.dep = None

    # -- the timed loop ----------------------------------------------------

    def run(self, deadline: float):
        counts = []
        latencies = self._run_threads(
            lambda: time.perf_counter() < deadline, counts)
        return (latencies, sum(a for a, _ in counts),
                sum(f for _, f in counts))

    def _run_threads(self, keep_going, counts) -> list:
        """One thread per connection; each runs whole rounds while
        *keep_going()* holds (at least one)."""
        results = [None] * CONNECTIONS

        def worker(i):
            results[i] = self._thread_rounds(self.sessions[i], keep_going)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        latencies = []
        for lat, attempted, failed in results:
            latencies.extend(lat)
            counts.append((attempted, failed))
        return latencies

    def _thread_rounds(self, session, keep_going):
        latencies: list = []
        attempted = failed = 0
        script = self.scripts[session.index]
        while True:
            for action, key in script:
                a, f = self._action(session, action, key, latencies)
                attempted += a
                failed += f
            if not keep_going():
                return latencies, attempted, failed

    def _connect(self, session, latencies) -> None:
        if session.client is not None:
            session.client.mr_disconnect()
        session.client = MoiraClient(
            tcp_address=self.transport.address, kdc=self.dep.kdc,
            credentials=self.creds[session.index], clock=self.dep.clock)
        t0 = time.perf_counter()
        session.client.connect().auth("churn")
        latencies.append(time.perf_counter() - t0)
        session.actions_on_conn = 0

    def _action(self, s: _Session, action, key, latencies):
        """Run one action; returns (requests attempted, failed)."""
        attempted = 0
        if s.client is None or s.actions_on_conn >= ACTIONS_PER_CONNECTION:
            attempted += 1
            try:
                self._connect(s, latencies)
            except MoiraError:
                s.client = None
                return attempted, 1
        s.actions_on_conn += 1
        requests = _plan_requests(s, action, key)
        for kind, name, args, expect, on_ack in requests:
            attempted += 1
            t0 = time.perf_counter()
            try:
                rows = s.client.query(name, *args)
            except MoiraError as exc:
                s.mismatches.append(f"{name}{args}: {exc}")
                return attempted, 1
            latencies.append(time.perf_counter() - t0)
            if kind == "write":
                s.acked.append((name, tuple(str(a) for a in args)))
                on_ack()
            elif expect is not None and not expect(rows):
                s.mismatches.append(f"{name}{args} read back {rows!r}")
        return attempted, 0

    # -- output checks -------------------------------------------------------

    def check(self) -> list:
        problems = []
        for s in self.sessions:
            problems.extend(f"churn[{s.index}]: {m}"
                            for m in s.mismatches[:3])
        problems.extend(self._check_rows())
        problems.extend(self._check_wal())
        return problems

    def _check_rows(self) -> list:
        db = self.dep.db
        problems = []
        users = {r["login"]: r for r in db.table("users").rows}
        machines = {r["mach_id"]: r["name"] for r in db.table("machine").rows}
        strings = {r["string_id"]: r["string"]
                   for r in db.table("strings").rows}
        lists = {r["name"]: r["list_id"] for r in db.table("list").rows}
        members: dict = {}
        logins = {r["users_id"]: r["login"] for r in users.values()}
        for m in db.table("members").rows:
            if m["member_type"] == "USER":
                members.setdefault(m["list_id"], set()).add(
                    logins[m["member_id"]])
        finger_fields = ("fullname", "nickname", "home_addr", "home_phone",
                         "office_addr", "office_phone", "mit_dept",
                         "mit_affil")
        for s in self.sessions:
            for u in s.users:
                row = users[u]
                if row["shell"] != s.shell[u]:
                    problems.append(f"churn: {u} shell {row['shell']!r}, "
                                    f"model {s.shell[u]!r}")
                if tuple(str(row[f]) for f in finger_fields) != s.finger[u]:
                    problems.append(f"churn: {u} finger differs from model")
                box = (machines[row["pop_id"]] if row["potype"] == "POP"
                       else strings.get(row["box_id"]))
                if (row["potype"], box) != s.pobox[u]:
                    problems.append(f"churn: {u} pobox {(row['potype'], box)}"
                                    f", model {s.pobox[u]}")
            for name, want in s.members.items():
                if members.get(lists[name], set()) != want:
                    problems.append(f"churn: members of {name} differ")
        leftover = [n for n in machines.values() if n.startswith("PB-")]
        if leftover:
            problems.append(f"churn: machines left behind: {leftover[:3]}")
        return problems[:10]

    def _check_wal(self) -> list:
        """The on-disk WAL holds every acknowledged write once, each
        thread's in acknowledgement order, commit seqs increasing."""
        self.dep.journal.sync()
        loaded = Journal.load(self.dep.journal.path, strict=True)
        problems = []
        per_admin = {a: [] for a in ADMINS}
        last = 0
        for entry in loaded.entries:
            if entry.commit_seq and entry.commit_seq <= last:
                problems.append(f"churn: WAL commit_seq {entry.commit_seq} "
                                f"after {last}")
            last = max(last, entry.commit_seq)
            if entry.who in per_admin:
                per_admin[entry.who].append((entry.query, entry.args))
        for s in self.sessions:
            got = per_admin[s.admin]
            if got != s.acked:
                problems.append(
                    f"churn: WAL holds {len(got)} writes by {s.admin}, "
                    f"{len(s.acked)} were acknowledged"
                    + ("" if len(got) != len(s.acked)
                       else " (order or content differs)"))
        return problems


def _plan_requests(s: _Session, action, key) -> list:
    """The requests of one action: (kind, handle, args, check, on_ack)."""
    if action == "chsh":
        u = key
        new = SHELLS[(SHELLS.index(s.shell[u]) + 1) % len(SHELLS)
                     if s.shell[u] in SHELLS else 0]
        return [
            ("read", "get_user_by_login", (u,),
             lambda rows, u=u, want=s.shell[u]: rows[0][2] == want, None),
            ("write", "update_user_shell", (u, new), None,
             lambda: s.shell.__setitem__(u, new)),
        ]
    if action == "chfn":
        u = key
        old = s.finger[u]
        n = int(old[3][-4:]) + 1 if old[3].startswith("x") else 0
        new = (old[0], old[1], old[2], f"x{n:04d}", old[4],
               f"x-{u}", old[6], old[7])
        return [
            ("read", "get_finger_by_login", (u,),
             lambda rows, want=old: tuple(rows[0][1:9]) == want, None),
            ("write", "update_finger_by_login", (u, *new), None,
             lambda: s.finger.__setitem__(u, new)),
        ]
    if action == "listmaint":
        name, u = key
        if u in s.members[name]:
            return [("write", "delete_member_from_list", (name, "USER", u),
                     None, lambda: s.members[name].discard(u))]
        return [("write", "add_member_to_list", (name, "USER", u), None,
                 lambda: s.members[name].add(u))]
    if action == "pobox":
        u = key
        s.smtp_changes[u] = s.smtp_changes.get(u, 0) + 1
        new = ("SMTP", f"{u}.{s.smtp_changes[u]}@pobox.example.com")
        return [("write", "set_pobox", (u, *new), None,
                 lambda: s.pobox.__setitem__(u, new))]
    # machmaint
    s.machines += 1
    name = f"PB-{s.index}-{s.machines}.MIT.EDU"
    return [
        ("write", "add_machine", (name, s.machine_type), None, lambda: None),
        ("read", "get_machine", (name,),
         lambda rows, name=name: rows[0][:2] == (name, s.machine_type),
         None),
        ("write", "delete_machine", (name,), None, lambda: None),
    ]
