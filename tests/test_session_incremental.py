"""Per-invocation cost of a designer session is independent of history.

Two caches make it so, and these tests pin both down:

* each database version is fingerprinted at most once (aliases inherit
  their source's digest, lazily restored versions hash the materialized
  payload), and every stored digest equals a fresh fingerprint;
* the activity manager places each new history record once, and its
  incremental layout equals a fresh ``grid_layout`` of the stream.

A hypothesis property drives random sessions (invoke, rework, erase,
deferred completion that splices) and checks both after every commit,
together with warm == cold memo identity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.memo as memo_module
from repro.activity import ActivityManager
from repro.activity.persistence import load_system, save_system
from repro.activity.viewport import grid_layout
from repro.cad import default_registry
from repro.clock import VirtualClock
from repro.core import LWTSystem
from repro.core.memo import fingerprint
from repro.obs import METRICS
from repro.sprite import Cluster
from repro.taskmgr import TaskManager
from repro.taskmgr.attrdb import AttributeDatabase, standard_computers
from repro.workloads import seed_designs, standard_library

#: Calls on seed designs.
CALLS = (
    ("Create_Logic_Description", {"Spec": "shifter.spec"},
     {"Outcell": "sh.logic"}),
    ("Standard_Cell_PR", {"Incell": "shifter.net"}, {"Outcell": "sh.sc"}),
    ("Padp", {"Incell": "adder.net"}, {"Outcell": "a.pad"}),
    ("Standard_Cell_PR", {"Incell": "alu.net"}, {"Outcell": "alu.sc"}),
)
#: Calls that consume an output of the calls above (a replayed producer
#: hands them an alias), by the base they need.
DEPENDENT = (
    ("sh.logic", ("Logic_Simulator",
                  {"Incell": "sh.logic", "Command": "musa.cmd"},
                  {"Report": "sh.sim"})),
    ("sh.sc", ("Padp", {"Incell": "sh.sc"}, {"Outcell": "sh.pad"})),
)
#: A designer loop: each dependent call comes after its producer.
SESSION = CALLS + tuple(call for _, call in DEPENDENT)


def make_env(lwt: LWTSystem | None = None, thread=None):
    if lwt is None:
        lwt = LWTSystem(clock=VirtualClock())
        seed_designs(lwt.db)
    tm = TaskManager(
        lwt.db, default_registry(), standard_library(),
        cluster=Cluster.homogeneous(4, clock=lwt.clock),
        attrdb=standard_computers(AttributeDatabase(lwt.db)),
        clock=lwt.clock,
    )
    if thread is None:
        thread = lwt.create_thread("T", owner="chiueh")
    return ActivityManager(thread, tm), lwt


def entries(db):
    for chain in db._versions.values():
        for entry in chain:
            if entry.obj is not None:
                yield entry


@pytest.fixture
def count_fingerprints(monkeypatch):
    """Count the digests actually computed, by version object."""
    hashed: list[object] = []

    def counting(payload):
        hashed.append(payload)
        return fingerprint(payload)

    monkeypatch.setattr(memo_module, "fingerprint", counting)
    return hashed


def call_for(lwt, pick: int):
    """A seed call, or a dependent one while its input is live."""
    index = pick % len(SESSION) - len(CALLS)
    if index >= 0 and lwt.db.exists(DEPENDENT[index][0]):
        return DEPENDENT[index][1]
    return CALLS[pick % len(CALLS)]


def designer_loop(am, n: int) -> None:
    """``n`` invocations cycling through :data:`SESSION`; every 7th reworks
    from the cursor where its call was first invoked."""
    made: dict[int, int] = {}
    for i in range(n):
        pick = i % len(SESSION)
        if i % 7 == 6 and pick in made:
            am.move_cursor(made[pick])
        made.setdefault(pick, am.thread.current_cursor)
        am.invoke(*SESSION[pick])


# ------------------------------------------------------------ digests


class TestDigestOncePerVersion:
    def test_long_session_hashes_each_version_at_most_once(
            self, count_fingerprints):
        am, lwt = make_env()
        designer_loop(am, 300)
        aliases = lwt.db.aliases()
        originals = [e for e in entries(lwt.db)
                     if str(e.obj.name) not in aliases]
        hashed = [e for e in originals if e.digest is not None]
        assert 0 < len(count_fingerprints) == len(hashed) <= len(originals)
        # Every alias that took part in a key got its digest without a call.
        assert any(e.digest is not None for e in entries(lwt.db)
                   if str(e.obj.name) in aliases)

    def test_alias_inherits_source_digest(self, count_fingerprints):
        _, lwt = make_env()
        db = lwt.db
        obj = db.put("cell", {"k": 1})
        digest = db.fingerprint(obj.name)
        assert len(count_fingerprints) == 1
        alias = db.alias("copy", obj.name)
        again = db.alias("copy", alias.name)
        assert db.fingerprint(again.name) == digest
        assert db.fingerprint(alias.name) == digest
        assert len(count_fingerprints) == 1

    def test_unhashed_alias_chain_hashes_its_source_once(
            self, count_fingerprints):
        _, lwt = make_env()
        db = lwt.db
        obj = db.put("cell", {"k": 2})
        first = db.alias("copy", obj.name)
        second = db.alias("copy", first.name)
        assert db.fingerprint(second.name) == fingerprint({"k": 2})
        assert db.fingerprint(obj.name) == db.fingerprint(first.name)
        assert len(count_fingerprints) == 1

    def test_alias_of_reclaimed_source_hashes_itself(self):
        _, lwt = make_env()
        db = lwt.db
        obj = db.put("cell", {"k": 3})
        alias = db.alias("copy", obj.name)
        db.delete(obj.name)
        db.reclaim()
        assert db.fingerprint(alias.name) == fingerprint({"k": 3})

    def test_restored_digest_matches_and_rework_still_hits(self, tmp_path):
        am, lwt = make_env()
        first = am.thread.current_cursor
        point = am.invoke(*CALLS[1])
        am.invoke(*CALLS[2])
        out = am.thread.stream.record(point).outputs[0]
        before = {str(e.obj.name): lwt.db.fingerprint(e.obj.name)
                  for e in entries(lwt.db)}
        save_system(lwt, tmp_path / "snap")

        restored = load_system(tmp_path / "snap",
                               LWTSystem(clock=VirtualClock()))
        db = restored.db
        slot = db._entry(out)
        assert slot.digest is None and \
            getattr(slot.obj.payload, "is_lazy_payload", False)
        assert db.fingerprint(out) == before[out]
        assert all(db.fingerprint(name) == digest
                   for name, digest in before.items())

        am2, _ = make_env(restored, restored.thread("T"))
        am2.move_cursor(first)
        hits = METRICS.counter("memo.hits").value
        replay = am2.invoke(*CALLS[1])
        assert all(s.reused for s in am2.thread.stream.record(replay).steps)
        assert METRICS.counter("memo.hits").value > hits


# ------------------------------------------------------------- layout


class TestPlaceEachRecordOnce:
    def test_cells_placed_equal_commits(self):
        am, _ = make_env()
        am.invoke(*CALLS[2])
        placed, rebuilds = am.layout.placed, am.layout.rebuilds
        designer_loop(am, 300)
        assert am.layout.placed - placed == 300
        assert am.layout.rebuilds == rebuilds
        assert dict(am.layout) == dict(grid_layout(am.thread.stream))

    def test_erase_rebuilds_once(self):
        am, _ = make_env()
        p1 = am.invoke(*CALLS[0])
        am.invoke(*CALLS[1])
        am.invoke(*CALLS[2])
        rebuilds = am.layout.rebuilds
        am.move_cursor(p1, erase=True)
        am.invoke(*CALLS[3])
        am.invoke(*CALLS[1])
        assert am.layout.rebuilds == rebuilds + 1
        assert dict(am.layout) == dict(grid_layout(am.thread.stream))

    def test_commit_that_bypassed_the_manager_is_placed(self):
        am, _ = make_env()
        am.invoke(*CALLS[0])
        junction = am.thread.stream.add_junction([am.thread.current_cursor])
        am.thread.move_cursor(junction)
        point = am.invoke(*CALLS[1])
        assert am.viewport.coords(point) == \
            grid_layout(am.thread.stream)[point]


# ----------------------------------------------------------- property


@st.composite
def sessions(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    return [(draw(st.sampled_from(
                ["invoke", "invoke", "rework", "erase", "splice"])),
             draw(st.integers(min_value=0, max_value=10**6)),
             draw(st.integers(min_value=0, max_value=10**6)))
            for _ in range(n)]


def check_commit(am, lwt, point, cold):
    """Every invariant the two caches promise, after one commit."""
    stream = am.thread.stream
    db = lwt.db
    for entry in entries(db):
        if entry.digest is not None:
            assert entry.digest == fingerprint(entry.obj.payload)
    fresh = grid_layout(stream)
    assert dict(am.layout) == dict(fresh)
    assert am.viewport.coords(point) == fresh[point]
    assert len(set(fresh.values())) == len(fresh)
    for p in stream.points():
        for child in stream.node(p).children:
            assert fresh[child][0] > fresh[p][0]
    # warm == cold: the same task on the same input contents yields the
    # same output contents, whether it ran or was replayed from history.
    record = stream.record(point)
    key = (record.task,
           tuple(fingerprint(db.get(n).payload) for n in record.inputs))
    outputs = tuple(fingerprint(db.get(n).payload) for n in record.outputs)
    assert cold.setdefault(key, outputs) == outputs


@settings(max_examples=30, deadline=None)
@given(sessions())
def test_random_session_keeps_digests_and_layout_exact(actions):
    am, lwt = make_env()
    cold: dict = {}
    for kind, a, b in actions:
        points = am.thread.stream.points()
        target = points[a % len(points)]
        if kind == "rework":
            am.move_cursor(target)
        elif kind == "erase":
            if am.thread.stream.is_ancestor(target,
                                            am.thread.current_cursor):
                am.move_cursor(target, erase=True)
            continue
        if kind == "splice":
            # Begin on the current path, rework from the same cursor, then
            # complete: the late record is spliced before the new branch.
            pending = am.begin(*call_for(lwt, a))
            am.move_cursor(am.thread.current_cursor)
            check_commit(am, lwt, am.invoke(*call_for(lwt, b)), cold)
            check_commit(am, lwt, am.complete(pending), cold)
            continue
        check_commit(am, lwt, am.invoke(*call_for(lwt, b)), cold)
