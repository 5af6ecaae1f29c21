"""Seeded input generation.

Every input a workload feeds the program is made here from the run's seed:
TDL sources, designer operation sequences and payload pools.  The same seed
gives the same inputs; sizes are fixed per workload, so two seeds differ in
content and shape but not in the amount of work.  Each generator also
computes, in Python, the values the program's outputs are checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """``parts`` positive integers summing to ``total``, each within about
    5% of the even share."""
    base = total // parts
    sizes = [base] * parts
    sizes[-1] += total - base * parts
    for _ in range(parts):
        i, j = rng.randrange(parts), rng.randrange(parts)
        delta = rng.randrange(base // 20 + 1)
        if i != j and sizes[i] - delta >= 1:
            sizes[i] -= delta
            sizes[j] += delta
    return sizes


# ----------------------------------------------------------------- task DAGs


@dataclass(frozen=True)
class TaskInputs:
    """One TDL template plus what running it must produce."""

    name: str
    source: str
    steps: int          # committed steps the run must report
    final_value: str    # payload of ``final@1``, computed in Python


def bigdag_inputs(seed: int, steps: int = 10_000) -> TaskInputs:
    """Straight-line TDL: 10 step chains fanning out of one seed
    object and joined by a final step (about ``steps + 1`` steps).  The join
    step's options carry one ``expr`` whose value the tool writes to
    ``final@1``."""
    rng = random.Random(seed)
    depths = _split(rng, steps, 10)
    a, b, c = rng.randrange(100, 999), rng.randrange(100, 999), \
        rng.randrange(1000)
    lines = ["task BigDag {Seed} {Final}"]
    for ci, depth in enumerate(depths):
        prev = "Seed"
        for i in range(depth):
            out = f"c{ci}_{i}"
            lines.append(f"step c{ci}s{i} {{{prev}}} {{{out}}} {{mark}}")
            prev = out
    tails = " ".join(f"c{ci}_{depth - 1}" for ci, depth in enumerate(depths))
    lines.append(f'step Join {{{tails}}} {{Final}} '
                 f'"mark -v [expr {a} * {b} + {c}]"')
    return TaskInputs("BigDag", "\n".join(lines) + "\n", steps + 1,
                      str(a * b + c))


def tdl_flow_inputs(seed: int, steps: int = 1_200) -> TaskInputs:
    """The same kind of chains (8 of them), issued from TDL ``for``/``while``
    loops with ``proc`` calls, ``expr`` arithmetic and list operations between the
    ``step`` commands.  Each iteration reads ``$status``, which waits for
    the step just issued (the thesis's sequential semantics for TDL
    conditionals), so interpretation interleaves with completions.  The
    accumulated value reaches ``final@1`` through the join step's options.

    ``expr`` is written unbraced (``expr $a + $b``): the interpreter rejects
    the braced Tcl form.
    """
    rng = random.Random(seed)
    depths = _split(rng, steps, 8)
    k1, k2, k3, k4 = (rng.randrange(2, 13), rng.randrange(2, 9),
                      rng.randrange(2, 7), rng.randrange(1, 50))
    modulus = 1_000_003
    source = f"""task Flow {{Seed}} {{Final}}
proc weight {{c i}} {{
    set w [expr $c * {k1} + $i % {k2}]
    return [expr $w * {k3} + {k4}]
}}
set depths {{{" ".join(map(str, depths))}}}
set acc 0
set tails {{}}
for {{set c 0}} {{$c < [llength $depths]}} {{incr c}} {{
    set depth [lindex $depths $c]
    set prev Seed
    set names {{}}
    set i 0
    while {{$i < $depth}} {{
        set out c${{c}}_$i
        step s${{c}}_$i $prev $out {{mark}}
        lappend names $out
        set acc [expr $acc + $status + [weight $c $i]]
        set prev $out
        incr i
    }}
    set acc [expr $acc + [llength $names]]
    lappend tails [lindex $names [expr [llength $names] - 1]]
}}
set acc [expr $acc % {modulus}]
step Join $tails {{Final}} "mark -v $acc"
"""
    acc = 0
    for c, depth in enumerate(depths):
        for i in range(depth):
            acc += (c * k1 + i % k2) * k3 + k4
        acc += depth
    return TaskInputs("Flow", source, steps + 1, str(acc % modulus))


# ----------------------------------------------------------- designer session

#: Task menu of the session: (key, template, inputs, outputs), where
#: ``{d}`` is the design and ``{k}`` makes the output names fresh.
SESSION_TASKS = {
    "cld": ("Create_Logic_Description", {"Spec": "{d}.spec"},
            {"Outcell": "{d}.logic{k}"}),
    "scpr": ("Standard_Cell_PR", {"Incell": "{d}.net"},
             {"Outcell": "{d}.sc{k}"}),
    "padp": ("Padp", {"Incell": "{d}.net"}, {"Outcell": "{d}.pad{k}"}),
    "sim": ("Logic_Simulator", {"Incell": "{d}.net", "Command": "musa.cmd"},
            {"Report": "{d}.rep{k}"}),
    "pa": ("Parallel_Analysis", {"Incell": "{d}.spec"},
           {"Stats": "{d}.pst{k}", "Power": "{d}.pw{k}",
            "Sim": "{d}.psim{k}"}),
    "ss": ("Structure_Synthesis", {"Incell": "{d}.spec",
                                   "Musa_Command": "musa.cmd"},
           {"Outcell": "{d}.lay{k}", "Cell_Statistics": "{d}.st{k}"}),
    "vs": ("Verified_Synthesis", {"Incell": "{d}.spec"},
           {"Outcell": "{d}.vlay{k}", "Equivalence": "{d}.eq{k}"}),
    "ir": ("Iterative_Refinement", {"Incell": "{d}.spec"},
           {"Outcell": "{d}.ir{k}"}),
    "pla": ("PLA_Generation", {"Incell": "{d}.net"},
            {"Outcell": "{d}.pla{k}"}),
    "fig33": ("Fig33", {"Incell": "{d}.spec"}, {"Outcell": "{d}.f33{k}"}),
}

#: Designs of the standard seed set.  Two-level minimization (espresso) and
#: the deep synthesis flows take 50-400 ms on the wide adder and alu, so
#: those pairs are left out: one of them more or less would move a run's
#: figures by the seed alone.  The Mosaico macro-cell flow is left out of the
#: menu for cost: at 3x the mean invocation it would double a run's time.
#: Every entry is invoked equally often, as ``generate_project`` picks its
#: tasks uniformly.
SESSION_DESIGNS = ("shifter", "adder", "alu", "decoder", "parity",
                   "comparator", "mux", "counter")
_HEAVY = {"ss", "vs", "ir", "pla", "fig33"}
_LIGHT_ONLY = {"adder", "alu"}


def _menu() -> list[tuple[str, str]]:
    return [(task, design) for design in SESSION_DESIGNS
            for task in SESSION_TASKS
            if not (design in _LIGHT_ONLY and task in _HEAVY)]


def session_call(task: str, design: str, k: int):
    """The (template, inputs, outputs) of one menu invocation."""
    template, inputs, outputs = SESSION_TASKS[task]
    fill = {"d": design, "k": k}
    return (template,
            {f: v.format(**fill) for f, v in inputs.items()},
            {f: v.format(**fill) for f, v in outputs.items()})


#: Every 7th invocation is a rework: the cadence of
#: ``repro.workloads.generator.generate_project`` (``rework_every=7``).
REWORK_EVERY = 7

#: Assumed, not measured (neither the thesis nor the repository gives a
#: rate): the designer switches context once after every invocation, and
#: half of the switches go to the two newest frontier points (the ping-pong
#: of ``bench_scale.measure_ping_pong``), half to a uniformly chosen point
#: of the history (the cursor targets of ``generate_project``'s reworks).
HOT_SWITCHES = 0.5


@dataclass(frozen=True)
class SessionInputs:
    """A designer's operation sequence.

    Each op is one of:

    * ``("new", task, design, k)`` — invoke a menu task with fresh outputs;
    * ``("rework", j)`` — move the cursor back to where the ``j``-th new
      invocation was made and invoke it again (a memo replay);
    * ``("switch", hot, u)`` — a context switch: to one of the two newest
      frontier points when ``hot`` is set, else to the point at fraction
      ``u`` of the whole history.
    """

    ops: tuple[tuple, ...]
    invokes: int


def session_inputs(seed: int, invokes: int = 1_008) -> SessionInputs:
    """``invokes`` invocations, every ``REWORK_EVERY``-th of them a rework,
    each followed by a context switch.  Each menu entry is invoked equally
    often (up to one); the seed sets their order and every target."""
    rng = random.Random(seed)
    menu = _menu()
    reworks = invokes // REWORK_EVERY
    news = invokes - reworks
    calls = menu * (news // len(menu)) + rng.sample(menu, news % len(menu))
    rng.shuffle(calls)
    hot = [True] * int(invokes * HOT_SWITCHES)
    hot += [False] * (invokes - len(hot))
    rng.shuffle(hot)
    seq: list[tuple] = []
    made = 0
    for i in range(invokes):
        if (i + 1) % REWORK_EVERY == 0:
            seq.append(("rework", rng.randrange(made)))
        else:
            task, design = calls[made]
            seq.append(("new", task, design, made))
            made += 1
        seq.append(("switch", hot[i], rng.random()))
    return SessionInputs(tuple(seq), invokes)


# ---------------------------------------------------------------- checkpoint


@dataclass(frozen=True)
class CheckpointInputs:
    """A preloaded workspace shape plus the rounds run against it."""

    pool: tuple[dict, ...]          # distinct payloads, repeated across puts
    bases: int
    versions: int
    commit_every: int
    rounds: tuple[tuple[tuple[int, dict], ...], ...]  # (base, payload) puts
    restore_every: int
    reads: tuple[tuple[int, float], ...]    # (base, u)


#: Distinct payloads of the checkpoint workspace (``bench_persistence``).
POOL_SIZE = 1_500
#: Puts per checkpoint round, alternating new and repeated payloads.
PUTS_PER_ROUND = 6
#: Uniformly chosen versions read after each restore.
RESTORE_READS = 60


def checkpoint_inputs(seed: int, bases: int = 200, versions: int = 20,
                      rounds: int = 1_000,
                      restore_every: int = 200) -> CheckpointInputs:
    """The ``bench_persistence`` shape (bases x versions drawn from a
    payload pool), then rounds of puts — half repeated pool payloads, half
    new ones — each followed by a commit and an incremental save.  Every
    ``restore_every`` rounds the workspace is restored and read: the
    versions put in the last round, then ``RESTORE_READS`` uniformly chosen
    bases at uniformly chosen versions."""
    rng = random.Random(seed)
    pool = tuple({"netlist": [rng.randrange(10_000) for _ in range(8)],
                  "cell": f"macro{i}",
                  "area_um2": rng.randrange(100, 90_000)}
                 for i in range(POOL_SIZE))
    fresh = 0
    plan = []
    for _ in range(rounds):
        puts = []
        for i in range(PUTS_PER_ROUND):
            if i % 2:
                payload = pool[rng.randrange(POOL_SIZE)]
            else:
                fresh += 1
                payload = {"patched": fresh, "by": "eco",
                           "delta": [rng.randrange(1_000) for _ in range(4)]}
            puts.append((rng.randrange(bases), payload))
        plan.append(tuple(puts))
    read_plan = tuple((rng.randrange(bases), rng.random())
                      for _ in range(RESTORE_READS))
    return CheckpointInputs(pool, bases, versions, 10, tuple(plan),
                            restore_every, read_plan)
