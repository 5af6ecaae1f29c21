"""Tests for the Sprite-like cluster simulator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import VirtualClock
from repro.errors import SchedulerError
from repro.sprite import Cluster, OwnerSchedule, ProcessState, Workstation


class TestOwnerSchedule:
    def test_never_busy(self):
        sched = OwnerSchedule(period=100, busy=0)
        assert not sched.is_busy(0)
        assert sched.next_transition(5) is None

    def test_always_busy(self):
        sched = OwnerSchedule(period=100, busy=100)
        assert sched.is_busy(50)
        assert sched.next_transition(5) is None

    def test_periodic_pattern(self):
        sched = OwnerSchedule(period=100, busy=30, offset=10)
        assert not sched.is_busy(5)      # before first arrival
        assert sched.is_busy(15)         # owner present 10..40
        assert not sched.is_busy(50)     # owner away 40..110
        assert sched.is_busy(115)        # next cycle

    def test_transitions(self):
        sched = OwnerSchedule(period=100, busy=30, offset=10)
        assert sched.next_transition(0) == 10     # owner arrives
        assert sched.next_transition(15) == 40    # owner leaves
        assert sched.next_transition(50) == 110   # owner returns

    def test_validation(self):
        with pytest.raises(ValueError):
            OwnerSchedule(period=0)
        with pytest.raises(ValueError):
            OwnerSchedule(period=10, busy=20)


class TestCluster:
    def test_submit_prefers_idle_host(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(3, clock=clock)
        proc = cluster.submit("p", work=5.0)
        assert proc.host != "home"
        assert proc.migrations == 1

    def test_home_when_no_idle_host(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(1, clock=clock)
        proc = cluster.submit("p", work=5.0)
        assert proc.host == "home"

    def test_non_migratable_stays_home(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(3, clock=clock)
        proc = cluster.submit("p", work=5.0, migratable=False)
        assert proc.host == "home"

    def test_single_process_duration(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(2, clock=clock)
        cluster.submit("p", work=7.5)
        done = cluster.drain()
        assert clock.now == pytest.approx(7.5)
        assert done[0].state is ProcessState.DONE

    def test_timesharing_slows_home(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(1, clock=clock)
        cluster.submit("a", work=10.0)
        cluster.submit("b", work=10.0)
        cluster.drain()
        # two timeshared 10s jobs on one host take 20s total
        assert clock.now == pytest.approx(20.0)

    def test_parallel_speedup(self):
        def makespan(hosts: int) -> float:
            clock = VirtualClock()
            cluster = Cluster.homogeneous(hosts, clock=clock)
            for i in range(8):
                cluster.submit(f"p{i}", work=10.0)
            cluster.drain()
            return clock.now

        assert makespan(4) < makespan(2) < makespan(1)

    def test_eviction_on_owner_return(self):
        clock = VirtualClock()
        # owner of ws01 returns at t=5 for 10s
        hosts = [
            Workstation("home"),
            Workstation("ws01", schedule=OwnerSchedule(period=100, busy=10,
                                                       offset=5)),
        ]
        cluster = Cluster(hosts, clock=clock)
        proc = cluster.submit("p", work=20.0)
        assert proc.host == "ws01"
        cluster.drain()
        assert proc.evictions == 1
        assert cluster.stats.evictions == 1

    def test_remigration_recovers_after_eviction(self):
        def run(remigration: bool) -> float:
            clock = VirtualClock()
            hosts = [
                Workstation("home"),
                # ws01 idle until t=2, then owner stays forever
                Workstation("ws01", schedule=OwnerSchedule(
                    period=10_000, busy=9_999, offset=2)),
                # ws02 becomes interesting only via re-migration: it has an
                # owner present 0..4, idle afterwards
                Workstation("ws02", schedule=OwnerSchedule(
                    period=10_000, busy=4, offset=0)),
            ]
            cluster = Cluster(hosts, clock=clock, remigration=remigration)
            cluster.submit("big", work=30.0)
            cluster.submit("other", work=30.0)  # keeps home loaded
            cluster.drain()
            return clock.now

        assert run(True) < run(False)

    def test_kill_releases_host(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(2, clock=clock)
        proc = cluster.submit("p", work=100.0)
        cluster.kill(proc)
        assert proc.state is ProcessState.KILLED
        assert cluster.stats.killed == 1
        fresh = cluster.submit("q", work=1.0)
        assert fresh.host == proc.host  # host is free again

    def test_step_without_processes_raises(self):
        cluster = Cluster.homogeneous(2, clock=VirtualClock())
        with pytest.raises(SchedulerError):
            cluster.step()

    def test_duplicate_host_rejected(self):
        with pytest.raises(SchedulerError):
            Cluster([Workstation("a"), Workstation("a")])

    def test_unknown_home_rejected(self):
        cluster = Cluster.homogeneous(1, clock=VirtualClock())
        with pytest.raises(SchedulerError):
            cluster.submit("p", work=1.0, home="elsewhere")

    def test_wait_any_returns_earliest(self):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(3, clock=clock)
        slow = cluster.submit("slow", work=10.0)
        fast = cluster.submit("fast", work=1.0)
        done = cluster.wait_any()
        assert [p.label for p in done] == ["fast"]
        assert clock.now == pytest.approx(1.0)
        cluster.drain()

    def test_priority_orders_remigration(self):
        clock = VirtualClock()
        hosts = [
            Workstation("home"),
            # idle from t=5 onwards
            Workstation("ws01", schedule=OwnerSchedule(period=10_000, busy=5)),
        ]
        cluster = Cluster(hosts, clock=clock)
        low = cluster.submit("low", work=50.0, priority=0)
        high = cluster.submit("high", work=50.0, priority=5)
        assert low.host == "home" and high.host == "home"
        # advance past t=5: owner leaves ws01, re-migration runs
        cluster.step()
        assert high.host == "ws01"
        assert low.host == "home"
        cluster.drain()

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.5, max_value=50.0),
                 min_size=1, max_size=10),
        st.integers(min_value=1, max_value=6),
    )
    def test_conservation_of_work(self, works, n_hosts):
        """Makespan is bounded below by critical path and total/parallelism."""
        clock = VirtualClock()
        cluster = Cluster.homogeneous(n_hosts, clock=clock)
        for i, work in enumerate(works):
            cluster.submit(f"p{i}", work=work)
        done = cluster.drain()
        assert len(done) == len(works)
        assert clock.now >= max(works) - 1e-6
        assert clock.now >= sum(works) / n_hosts - 1e-6

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=2, max_value=5))
    def test_eviction_never_loses_work(self, n_hosts):
        clock = VirtualClock()
        cluster = Cluster.homogeneous(
            n_hosts, clock=clock, owner_period=7, owner_busy=3
        )
        for i in range(n_hosts * 2):
            cluster.submit(f"p{i}", work=5.0)
        done = cluster.drain()
        assert len(done) == n_hosts * 2
        assert all(p.state is ProcessState.DONE for p in done)


class TestOwnerTransitions:
    """Owner state and transition times come from one cycle index."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.5, max_value=100.0),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1e4),
    )
    def test_transition_lands_in_the_new_state(self, period, frac, offset, t):
        sched = OwnerSchedule(period=period, busy=period * frac,
                              offset=offset)
        for _ in range(20):
            u = sched.next_transition(t)
            assert u > t
            assert sched.is_busy(u) != sched.is_busy(t)
            assert sched.next_transition(u) > u
            t = u

    def test_no_foreign_work_inside_an_owner_window(self):
        """After every event, no owner-busy host runs a foreign process.

        Before transitions were derived from the cycle index, an arrival
        time often read back as "not busy", so its eviction never ran and
        foreign work kept running while the owner was at the console.
        """
        violations = []
        for seed in range(20):
            rng = random.Random(seed)
            clock = VirtualClock()
            cluster = Cluster.homogeneous(6, clock=clock, owner_period=37,
                                          owner_busy=11)

            def check():
                for host in cluster.hosts.values():
                    sched = host.schedule
                    if host.name == "home" or clock.now < sched.offset:
                        continue
                    phase = (clock.now - sched.offset) % sched.period
                    if not 1e-6 < phase < sched.busy - 1e-6:
                        continue        # not strictly inside a window
                    violations.extend(
                        (seed, host.name, clock.now, pid)
                        for pid in host.resident
                        if cluster._procs[pid].home != host.name)

            for i in range(300):
                cluster.submit(f"p{i}", work=rng.uniform(1.0, 30.0))
                if rng.random() < 0.5:
                    cluster.step()
                    check()
            while cluster.running():
                cluster.step()
                check()
        assert violations == []


_SCHEDULES = st.one_of(
    st.builds(lambda p, f, o: OwnerSchedule(period=p, busy=p * f, offset=o),
              st.floats(min_value=1.0, max_value=20.0),
              st.floats(min_value=0.1, max_value=0.9),
              st.floats(min_value=0.0, max_value=20.0)),
    st.just(OwnerSchedule()),                        # owner never returns
    st.just(OwnerSchedule(period=10.0, busy=10.0)),  # owner never leaves
)

_OPS = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.floats(min_value=0.1, max_value=30.0),
              st.booleans(), st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("kill"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run_until"), st.floats(min_value=0.0, max_value=15.0)),
    st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=10.0)),
    st.tuples(st.just("gaps"), st.dictionaries(
        st.sampled_from(["home", "ws01", "ws02", "ws03", "ws04"]),
        st.floats(min_value=0.0, max_value=50.0), max_size=4)),
), max_size=40)


class TestBookkeeping:
    """The free-host list and resident sets against their definitions."""

    @staticmethod
    def expected_idle(cluster: Cluster) -> Workstation | None:
        idle = [h for _, h in sorted(cluster.hosts.items())
                if cluster.is_idle(h)]
        if not idle:
            return None
        if cluster.gap_feedback and cluster.gap_seconds:
            return min(idle, key=lambda h: (
                cluster.gap_seconds.get(h.name, 0.0), h.name))
        return idle[0]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_SCHEDULES, min_size=0, max_size=4), st.booleans(), _OPS)
    def test_idle_host_and_residents_match_definitions(self, schedules,
                                                       gap_feedback, ops):
        clock = VirtualClock()
        hosts = [Workstation("home")] + [
            Workstation(f"ws{i + 1:02d}", schedule=sched)
            for i, sched in enumerate(schedules)]
        cluster = Cluster(hosts, clock=clock, gap_feedback=gap_feedback)
        names = sorted(cluster.hosts)
        for op in ops:
            kind = op[0]
            if kind == "submit":
                _, work, migratable, priority, home = op
                cluster.submit("p", work=work, migratable=migratable,
                               priority=priority,
                               home=names[home % len(names)])
            elif kind == "kill" and cluster.running():
                running = cluster.running()
                cluster.kill(running[op[1] % len(running)])
            elif kind == "step" and cluster.running():
                cluster.step()
            elif kind == "run_until":
                cluster.run_until(clock.now + op[1])
            elif kind == "advance":
                clock.advance(op[1])
            elif kind == "gaps":
                cluster.note_gap_seconds(op[1])
            assert cluster.find_idle_host() is self.expected_idle(cluster)
            for host in cluster.hosts.values():
                assert host.resident == {
                    p.pid for p in cluster.running() if p.host == host.name}

    def test_find_idle_host_examines_free_hosts_only(self, monkeypatch):
        # ws01-ws04 are never idle (owner always present); ws05-ws08 get
        # a resident each.  No host is idle, and only the four free ones
        # may have their owner state read.
        hosts = [Workstation("home")] + [
            Workstation(f"ws{i:02d}",
                        schedule=OwnerSchedule(period=10.0, busy=10.0))
            for i in range(1, 5)] + [
            Workstation(f"ws{i:02d}") for i in range(5, 9)]
        for gap_feedback in (False, True):
            cluster = Cluster(hosts=[Workstation(h.name, schedule=h.schedule)
                                     for h in hosts],
                              clock=VirtualClock(), gap_feedback=gap_feedback)
            cluster.note_gap_seconds({"ws01": 1.0})
            for _ in range(4):
                cluster.submit("p", work=5.0)
            assert cluster._free == ["ws01", "ws02", "ws03", "ws04"]
            calls = []
            original = Workstation.is_owner_busy
            monkeypatch.setattr(
                Workstation, "is_owner_busy",
                lambda host, t: calls.append(host.name) or original(host, t))
            assert cluster.find_idle_host() is None
            monkeypatch.undo()
            assert calls == cluster._free
