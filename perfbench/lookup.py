"""``lookup``: one in-process client sends a read-only mix.

The client is a ``MoiraClient(dispatcher=server)``: every request goes
through the wire codec, the server's access check (with the access
cache in front), plan binding, an MVCC snapshot and, for R-typed
membership reads, the closure index — but no socket, no write and no
DCM.

The stream is made of sessions.  An administrator session authenticates
as a member of moira-admins and reads anyone's records (capability-list
branch of the access check); a user session authenticates as one
ordinary user and reads that user's own records (self-service branch).
Keys follow a Zipf-like skew over the whole population, so the hot end
of the working set stays in the 4096-entry access cache and the long
tail does not.  Mailing lists for ``get_members_of_list`` are taken in
turn from a seed-shuffled cycle instead: their sizes are power-law, so
the largest few set the tail, and a random draw would let the seed
decide how often they come up.  Every reply is checked afterwards
against an answer computed here from the raw table rows.
"""

from __future__ import annotations

import gc
import itertools
import random
import time

from repro.errors import MoiraError

from common import (add_admin, build_deployment, inproc_client,
                    teardown_deployment, user_credentials)

ADMIN = "pblookup"
ADMIN_UID = 90001
ZIPF_S = 1.0

# (handle, weight) for the reads of an administrator session; user
# sessions always read the four self-service handles below.  These
# weights, the session ratio and ZIPF_S are assumptions, not measured
# shares (no usage trace of Moira exists); README.md says why each was
# chosen.
ADMIN_MIX = (
    ("get_user_by_login", 3), ("get_finger_by_login", 2),
    ("get_pobox", 2), ("get_machine", 3), ("get_filesys_by_label", 3),
    ("get_list_info", 3), ("get_members_of_list", 2),
    ("get_lists_of_member", 2),
)
SELF_HANDLES = ("get_user_by_login", "get_finger_by_login", "get_pobox",
                "get_lists_of_member")
ADMIN_READS_PER_SESSION = 20
USER_SESSIONS_PER_ADMIN_SESSION = 3
SESSIONS_PER_ROUND = 2000
WARMUP_OPS = 3000

_USER_FIELDS = ("login", "uid", "shell", "last", "first", "middle",
                "status", "mit_id", "mit_year", "modtime", "modby",
                "modwith")
_FINGER_FIELDS = ("login", "fullname", "nickname", "home_addr",
                  "home_phone", "office_addr", "office_phone", "mit_dept",
                  "mit_affil", "fmodtime", "fmodby", "fmodwith")
# handles whose replies carry no defined row order
_UNORDERED = {"get_members_of_list", "get_lists_of_member"}


def _zipf_sampler(rng: random.Random, keys: list):
    """Draw from *keys* (shuffled by *rng*) with weight 1/rank^s."""
    keys = list(keys)
    rng.shuffle(keys)
    cum = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_S
                                    for r in range(len(keys))))
    return lambda: rng.choices(keys, cum_weights=cum)[0]


class Lookup:
    name = "lookup"
    # p99, not p99.9: the slowest 0.1% are mostly point lookups that a
    # collector pause or a descheduling happened to hit, and in ten runs
    # of unchanged code p99.9 spread 0.36 of its median; the slowest 1%
    # are the large mailing lists of get_members_of_list, which the
    # code decides.
    tail_pct = 99

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.dep = None
        self.client = None
        self.round = None       # [(op, args)], op "auth" or a handle
        self.first_reply = {}   # (handle, args) -> rows first received
        self.mismatches = 0
        self.errors = []        # (op, args, message) of failed requests

    # -- set-up ----------------------------------------------------------

    def setup(self) -> dict:
        self.dep, parts = build_deployment(self.workdir)
        self.admin_creds = add_admin(self.dep, ADMIN, ADMIN_UID)
        if self.round is None:
            self.round = self._plan()
        self.creds = {ADMIN: self.admin_creds}
        for op, args in self.round:
            if op == "auth" and args[0] not in self.creds:
                self.creds[args[0]] = user_credentials(self.dep, args[0])
        self.client = inproc_client(self.dep, self.admin_creds, "lookup")
        return parts

    def _plan(self) -> list:
        """One round of the request stream, from the seed and the keys
        the raw rows offer (every key answers at least one row)."""
        db = self.dep.db
        rng = random.Random(self.seed)
        users = [r["login"] for r in db.table("users").rows
                 if r["status"] == 1]
        member_lists = {m["list_id"] for m in db.table("members").rows}
        lists = db.table("list").rows
        maillists = [r["name"] for r in lists
                     if r["maillist"] and r["list_id"] in member_lists]
        pick = {
            "user": _zipf_sampler(rng, users),
            "machine": _zipf_sampler(
                rng, [r["name"] for r in db.table("machine").rows]),
            "filesys": _zipf_sampler(
                rng, [r["label"] for r in db.table("filesys").rows]),
            "list": _zipf_sampler(rng, [r["name"] for r in lists
                                        if not r["hidden"]]),
            # every list in turn, in a seed-shuffled order: list sizes
            # are power-law, so the few largest lists set the tail, and
            # a random draw would let the seed decide how often
            "maillist": itertools.cycle(rng.sample(maillists,
                                                   len(maillists))).__next__,
        }
        args_for = {
            "get_user_by_login": lambda: (pick["user"](),),
            "get_finger_by_login": lambda: (pick["user"](),),
            "get_pobox": lambda: (pick["user"](),),
            "get_machine": lambda: (pick["machine"](),),
            "get_filesys_by_label": lambda: (pick["filesys"](),),
            "get_list_info": lambda: (pick["list"](),),
            "get_members_of_list": lambda: (pick["maillist"](),),
            "get_lists_of_member": lambda: ("RUSER", pick["user"]()),
        }
        handles = [h for h, _ in ADMIN_MIX]
        weights = [w for _, w in ADMIN_MIX]
        stream = []
        per_cycle = 1 + USER_SESSIONS_PER_ADMIN_SESSION
        for session in range(SESSIONS_PER_ROUND):
            if session % per_cycle == 0:
                stream.append(("auth", (ADMIN,)))
                for handle in rng.choices(handles, weights,
                                          k=ADMIN_READS_PER_SESSION):
                    stream.append((handle, args_for[handle]()))
            else:
                login = pick["user"]()
                stream.append(("auth", (login,)))
                for handle in SELF_HANDLES:
                    args = (("RUSER", login)
                            if handle == "get_lists_of_member"
                            else (login,))
                    stream.append((handle, args))
        return stream

    def warmup(self) -> None:
        self._execute(self.round[:WARMUP_OPS], [])
        gc.collect()

    def teardown(self) -> None:
        if self.dep is not None:
            if self.client is not None:
                self.client.mr_disconnect()
                self.client = None
            teardown_deployment(self.dep)
            self.dep = None

    # -- the timed loop ----------------------------------------------------

    def _execute(self, ops, latencies) -> int:
        """Run *ops*, appending each latency; returns failures."""
        client = self.client
        creds = self.creds
        first = self.first_reply
        failed = 0
        clock = time.perf_counter
        for op, args in ops:
            try:
                if op == "auth":
                    client.credentials = creds[args[0]]
                    t0 = clock()
                    client.auth("lookup")
                    latencies.append(clock() - t0)
                    continue
                t0 = clock()
                rows = client.query(op, *args)
                latencies.append(clock() - t0)
            except MoiraError as exc:
                failed += 1
                self.errors.append((op, args, str(exc)))
                continue
            key = (op, args)
            seen = first.get(key)
            if seen is None:
                first[key] = rows
            elif rows != seen:
                self.mismatches += 1
        return failed

    def run(self, deadline: float):
        latencies: list = []
        attempted = failed = 0
        while True:
            failed += self._execute(self.round, latencies)
            attempted += len(self.round)
            if time.perf_counter() >= deadline:
                return latencies, attempted, failed

    # -- output checks -------------------------------------------------------

    def check(self) -> list:
        problems = [f"lookup: {op}{args} failed: {message}"
                    for op, args, message in self.errors[:3]]
        if len(self.errors) > 3:
            problems.append(f"lookup: {len(self.errors)} requests failed")
        if self.mismatches:
            problems.append(f"lookup: {self.mismatches} replies differed "
                            "from the first reply to the same request")
        oracle = _Oracle(self.dep.db)
        wrong = 0
        for (handle, args), rows in self.first_reply.items():
            want = oracle.answer(handle, args)
            if handle in _UNORDERED:
                ok = sorted(rows) == sorted(want)
            else:
                ok = rows == want
            if not ok:
                wrong += 1
                if wrong <= 3:
                    problems.append(f"lookup: {handle}{args} gave {rows!r},"
                                    f" raw rows give {want!r}")
        if wrong > 3:
            problems.append(f"lookup: {wrong} requests answered wrongly")
        return problems


class _Oracle:
    """Answers the lookup handles from a scan of the raw table rows."""

    def __init__(self, db):
        def rows(name):
            return db.table(name).rows

        self.users = {r["login"]: r for r in rows("users")}
        self.users_by_id = {r["users_id"]: r for r in rows("users")}
        self.machines = {r["mach_id"]: r for r in rows("machine")}
        self.machine_by_name = {r["name"]: r for r in rows("machine")}
        self.lists = {r["list_id"]: r for r in rows("list")}
        self.list_by_name = {r["name"]: r for r in rows("list")}
        self.strings = {r["string_id"]: r["string"]
                        for r in rows("strings")}
        self.filesys = {r["label"]: r for r in rows("filesys")}
        self.members_of: dict = {}
        self.lists_of: dict = {}
        for m in rows("members"):
            self.members_of.setdefault(m["list_id"], []).append(m)
            self.lists_of.setdefault((m["member_type"], m["member_id"]),
                                     []).append(m["list_id"])

    @staticmethod
    def _strs(values) -> tuple:
        return tuple(str(v) for v in values)

    def _ace(self, ace_type, ace_id) -> str:
        if ace_type == "USER":
            return self.users_by_id[ace_id]["login"]
        if ace_type == "LIST":
            return self.lists[ace_id]["name"]
        return "NONE"

    def _member_name(self, mtype, mid) -> str:
        if mtype == "USER":
            return self.users_by_id[mid]["login"]
        if mtype == "LIST":
            return self.lists[mid]["name"]
        return self.strings[mid]

    def _containing(self, mtype, mid) -> set:
        """Every list holding the member, walking sub-lists upward."""
        found: set = set()
        frontier = list(self.lists_of.get((mtype, mid), ()))
        while frontier:
            lid = frontier.pop()
            if lid not in found:
                found.add(lid)
                frontier.extend(self.lists_of.get(("LIST", lid), ()))
        return found

    def answer(self, handle: str, args: tuple) -> list:
        if handle == "get_user_by_login":
            u = self.users[args[0]]
            return [self._strs(u[f] for f in _USER_FIELDS)]
        if handle == "get_finger_by_login":
            u = self.users[args[0]]
            return [self._strs(u[f] for f in _FINGER_FIELDS)]
        if handle == "get_pobox":
            u = self.users[args[0]]
            if u["potype"] == "POP":
                box = self.machines[u["pop_id"]]["name"]
            elif u["potype"] == "SMTP":
                box = self.strings[u["box_id"]]
            else:
                box = "NONE"
            return [self._strs((u["login"], u["potype"], box, u["pmodtime"],
                                u["pmodby"], u["pmodwith"]))]
        if handle == "get_machine":
            m = self.machine_by_name[args[0].upper()]
            return [self._strs((m["name"], m["type"], m["modtime"],
                                m["modby"], m["modwith"]))]
        if handle == "get_filesys_by_label":
            f = self.filesys[args[0]]
            return [self._strs((
                f["label"], f["type"], self.machines[f["mach_id"]]["name"],
                f["name"], f["mount"], f["access"], f["comments"],
                self.users_by_id[f["owner"]]["login"],
                self.lists[f["owners"]]["name"], f["createflg"],
                f["lockertype"], f["modtime"], f["modby"], f["modwith"]))]
        if handle == "get_list_info":
            r = self.list_by_name[args[0]]
            return [self._strs((
                r["name"], r["active"], r["public"], r["hidden"],
                r["maillist"], r["grouplist"], r["gid"], r["acl_type"],
                self._ace(r["acl_type"], r["acl_id"]), r["desc"],
                r["modtime"], r["modby"], r["modwith"]))]
        if handle == "get_members_of_list":
            lid = self.list_by_name[args[0]]["list_id"]
            return [(m["member_type"],
                     self._member_name(m["member_type"], m["member_id"]))
                    for m in self.members_of.get(lid, ())]
        if handle == "get_lists_of_member":
            if args[0] != "RUSER":
                raise ValueError(args)
            uid = self.users[args[1]]["users_id"]
            out = []
            for lid in self._containing("USER", uid):
                r = self.lists[lid]
                out.append(self._strs((r["name"], r["active"], r["public"],
                                       r["hidden"], r["maillist"],
                                       r["grouplist"])))
            return out
        raise ValueError(handle)
