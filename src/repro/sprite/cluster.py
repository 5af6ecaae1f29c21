"""The cluster simulator.

A work-remaining discrete-event model: on every event (submission,
completion, owner transition) the simulator charges elapsed compute to every
running process at its host's timeshared rate, then recomputes the next event
time.  This keeps the model exact under arbitrary load changes without
fixed-step ticking.

Per-event cost does not grow with a scan of every host:

* Free-host invariant: ``Cluster._free`` is the name-ordered list of
  non-home hosts with no resident process, and ``Cluster._rates`` maps each
  host with residents to its timeshared rate.  ``_place``/``_unplace`` are
  the only writers of a resident set and keep both exact, so
  ``find_idle_host`` examines free hosts only and returns the same host as
  a scan of :meth:`Cluster.is_idle` over all hosts.
* Owner-state rule: owner state is read from the host's schedule at the
  current ``clock.now`` whenever it is needed and is never cached, because
  the clock is also advanced from outside the cluster.  Only hosts whose
  owner comes and goes (``Cluster._varying``) have transitions, so
  ``_next_owner_transition`` scans those alone and returns ``inf`` at once
  when there are none.  Host speeds and schedules are fixed once a host
  joins the cluster.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import MutableMapping
from typing import Any, Callable, Iterator

from repro.clock import GLOBAL_CLOCK, VirtualClock
from repro.errors import SchedulerError
from repro.obs import TRACER
from repro.obs.metrics import MetricsRegistry
from repro.sprite.host import OwnerSchedule, Workstation
from repro.sprite.process import ProcessState, SimProcess

_EPS = 1e-9


class _BusySeconds(MutableMapping):
    """Dict-facing view over the ``cluster.busy_seconds{host=...}`` gauges.

    Preserves the old ``stats.busy_seconds[host]`` API while the storage
    lives in the metrics registry (one labelled gauge per host).
    """

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self._gauges: dict[str, Any] = {}   # host -> Gauge (hot-path cache)

    def _gauge(self, host: str):
        gauge = self._gauges.get(host)
        if gauge is None:
            gauge = self._registry.gauge("cluster.busy_seconds", host=host)
            self._gauges[host] = gauge
        return gauge

    def __setitem__(self, host: str, value: float) -> None:
        self._gauge(host).set(value)

    def __getitem__(self, host: str) -> float:
        if host not in self._gauges:
            raise KeyError(host)
        return self._gauges[host].value

    def __delitem__(self, host: str) -> None:
        if host not in self._gauges:
            raise KeyError(host)
        del self._gauges[host]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._gauges))

    def __len__(self) -> int:
        return len(self._gauges)

    def __repr__(self) -> str:
        return repr(dict(self))


class ClusterStats:
    """Counters the benchmarks report, backed by a metrics registry.

    The historical attribute API (``stats.migrations``, ``stats.submitted``,
    ``stats.busy_seconds[host]``...) is preserved; the storage is named
    instruments in ``stats.registry``, so the shell's ``stats`` command and
    benchmark snapshots see the same numbers the benchmarks print.
    """

    FIELDS = ("submitted", "completed", "killed", "migrations", "evictions",
              "remigrations", "ran_at_home", "ran_remote")

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"cluster.{name}")
            for name in self.FIELDS
        }
        self.busy_seconds = _BusySeconds(self.registry)

    def inc(self, field: str, amount: float = 1.0) -> None:
        self._counters[field].inc(amount)

    def add_busy(self, host: str, seconds: float, times: int = 1) -> None:
        """Add ``seconds`` of busy time to ``host``, ``times`` times over
        (once per resident process: repeated addition, not a product, so
        the total is the same float as charging each process in turn)."""
        gauge = self.busy_seconds._gauge(host)
        value = gauge.value
        for _ in range(times):
            value += seconds
        gauge.set(value)

    def __getattr__(self, name: str) -> int:
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            return int(counters[name].value)
        raise AttributeError(name)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {f: int(c.value)
                               for f, c in self._counters.items()}
        out["busy_seconds"] = dict(self.busy_seconds)
        return out

    def __repr__(self) -> str:
        rendered = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ClusterStats({rendered})"


class Cluster:
    """A network of workstations with migration, eviction and re-migration."""

    def __init__(
        self,
        hosts: list[Workstation] | None = None,
        clock: VirtualClock | None = None,
        remigration: bool = True,
        gap_feedback: bool = False,
    ):
        self.clock = clock or GLOBAL_CLOCK
        self.hosts: dict[str, Workstation] = {}
        #: Name-ordered view of ``hosts``, maintained by ``add_host``.
        self._hosts_sorted: list[Workstation] = []
        #: Names of the non-home hosts with no resident process, in name
        #: order: the candidates of ``find_idle_host``.  Kept exact by
        #: ``_place``/``_unplace``, the only writers of a resident set.
        self._free: list[str] = []
        #: Timeshared rate of every host with a resident process, updated
        #: with its resident set.
        self._rates: dict[str, float] = {}
        #: Name-ordered hosts whose owner comes and goes; every other host's
        #: owner state is the same at every time.
        self._varying: list[Workstation] = []
        for host in hosts or [Workstation("home")]:
            self.add_host(host)
        self.remigration = remigration
        #: History feedback into placement: when enabled, ``find_idle_host``
        #: prefers the idle host with the fewest *recent* scheduler-gap
        #: seconds (windows it sat idle while another host timeshared work —
        #: on owner-prone machines that is the signature of eviction churn:
        #: the host keeps going empty and stranding its work elsewhere).
        #: The per-host numbers are pushed by a ``repro.obs.health``
        #: monitor via :meth:`note_gap_seconds`; with nothing pushed the
        #: scan stays the plain name-ordered one.
        self.gap_feedback = gap_feedback
        self.gap_seconds: dict[str, float] = {}
        self.stats = ClusterStats()
        #: pid → process.  Pids increase monotonically and entries are
        #: inserted at submission, so iteration order is pid order — views
        #: over this dict never need sorting.
        self._procs: dict[int, SimProcess] = {}
        self._pid = itertools.count(1)
        self._last_charge = self.clock.now

    # ------------------------------------------------------------------ hosts

    def add_host(self, host: Workstation) -> Workstation:
        if host.name in self.hosts:
            raise SchedulerError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host
        self._hosts_sorted.append(host)
        self._hosts_sorted.sort(key=lambda h: h.name)
        if host.resident:
            self._rates[host.name] = host.rate()
        elif host.name != "home":
            bisect.insort(self._free, host.name)
        if host.schedule.varies():
            self._varying.append(host)
            self._varying.sort(key=lambda h: h.name)
        return host

    @classmethod
    def homogeneous(
        cls,
        n_hosts: int,
        clock: VirtualClock | None = None,
        owner_period: float = 0.0,
        owner_busy: float = 0.0,
        remigration: bool = True,
        gap_feedback: bool = False,
    ) -> "Cluster":
        """A home node plus ``n_hosts - 1`` colleague workstations.

        ``owner_period``/``owner_busy`` > 0 gives the colleague machines
        returning owners (staggered offsets) so evictions happen.
        """
        hosts = [Workstation("home")]
        for i in range(max(0, n_hosts - 1)):
            if owner_period > 0 and owner_busy > 0:
                schedule = OwnerSchedule(
                    period=owner_period,
                    busy=owner_busy,
                    offset=(i + 1) * owner_period / max(1, n_hosts),
                )
            else:
                schedule = OwnerSchedule()
            hosts.append(Workstation(f"ws{i + 1:02d}", schedule=schedule))
        return cls(hosts, clock=clock, remigration=remigration,
                   gap_feedback=gap_feedback)

    def is_idle(self, host: Workstation) -> bool:
        """Sprite's idleness rule: owner away and no resident processes."""
        if host.name == "home":
            return False
        return not host.is_owner_busy(self.clock.now) and host.load() == 0

    def note_gap_seconds(self, per_host: dict[str, float]) -> None:
        """Receive recent scheduler-gap seconds per host (health feedback).

        Called by a ``repro.obs.health`` monitor each time it re-derives
        gap windows from the trace; the map replaces the previous one, so
        the placement bias always reflects the monitor's newest window.
        """
        self.gap_seconds = dict(per_host)

    def find_idle_host(self) -> Workstation | None:
        """The first idle host (:meth:`is_idle`) in name order, or with gap
        feedback the idle host with the fewest gap seconds (ties by name).

        Only free hosts can be idle, so only they are examined.
        """
        hosts = self.hosts
        now = self.clock.now
        if self.gap_feedback and self.gap_seconds:
            best: Workstation | None = None
            best_key: tuple[float, str] | None = None
            for name in self._free:
                host = hosts[name]
                if host.is_owner_busy(now):
                    continue
                key = (self.gap_seconds.get(name, 0.0), name)
                if best_key is None or key < best_key:
                    best, best_key = host, key
            return best
        for name in self._free:
            host = hosts[name]
            if not host.is_owner_busy(now):
                return host
        return None

    # -------------------------------------------------------------- processes

    def _place(self, proc: SimProcess, host: Workstation) -> None:
        """Make ``proc`` resident on ``host``."""
        if not host.resident and host.name != "home":
            del self._free[bisect.bisect_left(self._free, host.name)]
        host.resident.add(proc.pid)
        self._rates[host.name] = host.rate()
        proc.host = host.name

    def _unplace(self, proc: SimProcess) -> None:
        """Take ``proc`` off its host (``proc.host`` keeps the name)."""
        host = self.hosts[proc.host]
        host.resident.discard(proc.pid)
        if host.resident:
            self._rates[host.name] = host.rate()
            return
        del self._rates[host.name]
        if host.name != "home":
            bisect.insort(self._free, host.name)

    def submit(
        self,
        label: str,
        work: float,
        payload: Any = None,
        migratable: bool = True,
        priority: int = 0,
        home: str = "home",
    ) -> SimProcess:
        """Start a process: on an idle host if the work is migratable and one
        exists, otherwise on the home node (§4.3.2)."""
        if home not in self.hosts:
            raise SchedulerError(f"unknown home host {home!r}")
        self._charge_elapsed()
        target = self.hosts[home]
        migrated = False
        if migratable:
            idle = self.find_idle_host()
            if idle is not None:
                target = idle
                migrated = True
        proc = SimProcess(
            pid=next(self._pid),
            label=label,
            work=max(work, _EPS),
            home=home,
            host=target.name,
            migratable=migratable,
            priority=priority,
            payload=payload,
            started_at=self.clock.now,
        )
        self._place(proc, target)
        self._procs[proc.pid] = proc
        self.stats.inc("submitted")
        if migrated:
            proc.migrations += 1
            self.stats.inc("migrations")
            self.stats.inc("ran_remote")
        else:
            self.stats.inc("ran_at_home")
        if TRACER.enabled:
            TRACER.event("cluster.submit", cat="cluster", pid=proc.pid,
                         step=label, host=target.name, migrated=migrated,
                         work=proc.work)
        return proc

    def kill(self, proc: SimProcess) -> None:
        if proc.state is not ProcessState.RUNNING:
            return
        self._charge_elapsed()
        proc.state = ProcessState.KILLED
        proc.finished_at = self.clock.now
        self._unplace(proc)
        del self._procs[proc.pid]
        self.stats.inc("killed")
        if TRACER.enabled:
            TRACER.event("cluster.kill", cat="cluster", pid=proc.pid,
                         step=proc.label, host=proc.host)

    def running(self) -> list[SimProcess]:
        # Insertion order is pid order (see ``_procs``): no per-call sort.
        return list(self._procs.values())

    # ------------------------------------------------------------- accounting

    def _charge_elapsed(self) -> None:
        """Charge compute progress for the span since the last charge.

        Timeshared rates are per *host*: each occupied host's work done is
        computed once and charged to its residents.  Each process's
        ``work`` is updated once and each host's busy time gains ``span``
        once per resident, so the order of hosts does not change a float.
        """
        now = self.clock.now
        span = now - self._last_charge
        if span > _EPS:
            procs = self._procs
            hosts = self.hosts
            for name, rate in self._rates.items():
                resident = hosts[name].resident
                done = span * rate
                for pid in resident:
                    procs[pid].work -= done
                self.stats.add_busy(name, span, len(resident))
        self._last_charge = now

    def _next_completion(self) -> tuple[float, SimProcess | None]:
        """The earliest finish time and its process.

        Processes are visited in pid order, so within ``_EPS`` of a tie the
        lower pid, seen first, keeps the slot.
        """
        now = self.clock.now
        rates = self._rates
        best_t, best_p = math.inf, None
        for proc in self._procs.values():
            t = now + proc.work / rates[proc.host]
            if t < best_t - _EPS:
                best_t, best_p = t, proc
        return best_t, best_p

    def _next_owner_transition(self) -> float:
        if not self._varying:
            return math.inf
        now = self.clock.now
        best = math.inf
        for host in self._varying:
            t = host.schedule.next_transition(now)
            if t is not None and t > now + _EPS:
                best = min(best, t)
        return best

    # ----------------------------------------------------------------- events

    def _evict(self) -> None:
        """Owner-return policy: foreign processes go back to their home node."""
        now = self.clock.now
        for host in self._hosts_sorted:
            if not host.resident or host.name == "home" \
                    or not host.is_owner_busy(now):
                continue
            # Resident pids were inserted in submission (= pid) order only
            # for fresh processes; evictions/remigrations reshuffle the set,
            # so order here must come from the pids themselves — but only
            # for the (rare) owner-busy hosts that actually have residents.
            for pid in sorted(host.resident):
                proc = self._procs[pid]
                if proc.home == host.name:
                    continue
                self._unplace(proc)
                self._place(proc, self.hosts[proc.home])
                proc.evictions += 1
                self.stats.inc("evictions")
                if TRACER.enabled:
                    TRACER.event("cluster.evict", cat="cluster", pid=pid,
                                 step=proc.label, host=host.name,
                                 to=proc.home)

    def remigrate(self) -> int:
        """Move stranded migratable processes from home to idle hosts
        (§4.3.3).  Returns how many were moved."""
        self._charge_elapsed()
        if self.find_idle_host() is None:
            return 0
        moved = 0
        # Migratable processes running on their own home host beside others.
        stranded = [proc for host in self._hosts_sorted
                    if host.load() > 1
                    for proc in map(self._procs.__getitem__, host.resident)
                    if proc.home == host.name and proc.migratable]
        stranded.sort(key=lambda p: (-p.priority, p.pid))
        for proc in stranded:
            idle = self.find_idle_host()
            if idle is None:
                break
            source = proc.host
            self._unplace(proc)
            self._place(proc, idle)
            proc.migrations += 1
            moved += 1
            self.stats.inc("remigrations")
            if TRACER.enabled:
                TRACER.event("cluster.remigrate", cat="cluster", pid=proc.pid,
                             step=proc.label, host=source, to=idle.name)
        return moved

    def step(self) -> list[SimProcess]:
        """Advance simulated time to the next event; return any completions.

        The next event is whichever comes first: a process finishing or an
        owner arriving/leaving.  Owner transitions trigger eviction and (if
        enabled) re-migration, then return an empty completion list.
        """
        if not self._procs:
            raise SchedulerError("no running processes to wait for")
        t_done, proc = self._next_completion()
        t_owner = self._next_owner_transition()
        if t_owner < t_done - _EPS:
            old_now = self.clock.now
            self.clock.advance_to(t_owner)
            self._charge_elapsed()
            if TRACER.enabled:
                # Record which consoles changed hands: trace replay needs
                # owner windows to tell an *available* idle host from one
                # whose owner is at the keyboard (scheduler-gap detection),
                # and to see hosts that never ran a process at all.
                for host in self._varying:
                    busy = host.is_owner_busy(self.clock.now)
                    if busy != host.is_owner_busy(old_now):
                        TRACER.event("cluster.owner", cat="cluster",
                                     host=host.name, busy=busy)
            self._evict()
            if self.remigration:
                self.remigrate()
            return []
        assert proc is not None
        self.clock.advance_to(t_done)
        self._charge_elapsed()
        # (If none is within tolerance, a numeric corner: force the chosen
        # one through.)
        done = [candidate for candidate in self._procs.values()
                if candidate.work <= _EPS * 10] or [proc]
        for finished in done:
            finished.state = ProcessState.DONE
            finished.finished_at = self.clock.now
            self._unplace(finished)
            del self._procs[finished.pid]
            self.stats.inc("completed")
        if TRACER.enabled:
            for finished in done:
                TRACER.event("cluster.complete", cat="cluster",
                             pid=finished.pid, step=finished.label,
                             host=finished.host,
                             elapsed=self.clock.now - finished.started_at)
        if self.remigration:
            self.remigrate()
        return done

    def wait_any(self) -> list[SimProcess]:
        """Advance until at least one process completes."""
        while True:
            done = self.step()
            if done:
                return done

    def drain(self) -> list[SimProcess]:
        """Run everything to completion; return processes in finish order."""
        finished: list[SimProcess] = []
        while self._procs:
            finished.extend(self.wait_any())
        return finished

    def run_until(self, when: float) -> list[SimProcess]:
        """Advance the simulation to absolute virtual time ``when``.

        A bounded :meth:`drain`: every completion and owner transition on
        the way is processed, and if no event lands exactly at ``when``
        the clock still advances there (compute progress charged at the
        rates in force).  Lets monitors and SLO engines sample a run at a
        fixed cadence — ``cluster.run_until(clock.now + 5)`` in a loop
        produces one clock advance (and thus one throttled health
        evaluation) per five virtual seconds, regardless of how sparse
        the simulation's own events are.
        """
        finished: list[SimProcess] = []
        while self.clock.now < when - _EPS:
            if self._procs:
                t_done, _ = self._next_completion()
                t_next = min(t_done, self._next_owner_transition())
                if t_next <= when + _EPS:
                    finished.extend(self.step())
                    continue
            self.clock.advance_to(when)
            self._charge_elapsed()
        return finished
