#!/usr/bin/env python3
"""Outside-in sweep benchmark for `fle_lab`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload honest_phase_n64 [--seed 1]
                             [--seconds 30] [--trace 0|1]

It builds `fle_lab` and the in-process probe (`perfbench/probe`) with
cargo into `$CARGO_TARGET_DIR` (default `.bench_build`), writes the
workload's sweep spec from `--seed`, and then spawns the real
`fle_lab attack-sweep --spec FILE` process in a closed loop for a fixed
number of rounds sized to `--seconds`: at `--threads 1`, at
`--threads $(nproc)` (alternating which goes first), and on the spec cut
to one lockstep group per worker (set-up time). Every process's stdout is checked: exit code, report semantics,
byte identity across thread counts, and, on the pinned seed, the sha256
pinned from the repository's golden outputs.

With `--trace 1` it also runs the probe, which replays the CLI's
sequence of public calls in-process with spans around each call, and
times each layer's entry point alone (micro-arms). The per-layer
metrics come from that trace; the traced run fails when its layer spans
cover less than 95% of its wall time.

The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`, where `attempted` and
`failed` count trials (their ratio is the failed share). A human summary,
with the machine context (nproc, CPU model), goes to stderr.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_SEED = 1
COVERAGE_FLOOR = 0.95
SETUPS_PER_ITERATION = 3
MIN_ITERATIONS = 3
# Measuring stops here whatever the round count, so that a much slower
# build still ends a run in time.
MAX_MEASURE_S = 120
PROCESS_TIMEOUT_S = 120
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# End-to-end metrics (tracing off): name -> unit.
END_TO_END = {
    "trials_per_s": "1/s",
    "trials_per_s_1t": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Per-layer metrics (from the traced run): name -> unit.
PER_LAYER = {
    "spec.parse_us": "us",
    "spec.validate_us": "us",
    "worker.setup_us": "us",
    "randfn.table_build_us": "us",
    "lockstep.ns_per_delivery": "ns",
    "lockstep.batched_share": "ratio",
    "lockstep.diverged_groups": "count",
    "engine.ns_per_delivery": "ns",
    "engine.relay_ns_per_delivery": "ns",
    "protocol.ns_per_delivery": "ns",
    "engine.deliveries_per_trial": "count",
    "engine.sends_per_trial": "count",
    "randfn.eval_ns": "ns",
    "randfn.table_eval_ns": "ns",
    "timed.ns_per_delivery": "ns",
    "timed.overhead_ratio": "ratio",
    "fault.draw_ns": "ns",
    "fault.crashed_share": "ratio",
    "fault.survival_share": "ratio",
    "fault.deliveries_per_trial": "count",
    "attack.ns_per_trial": "ns",
    "attack.success_share": "ratio",
    "attack.infeasible": "count",
    "reduce.ns_per_trial": "ns",
    "reduce.merge_us": "us",
    "report.finish_us": "us",
    "report.to_json_us": "us",
    "report.bytes": "bytes",
    "digest.sha_us": "us",
    "checkpoint.writes": "count",
    "checkpoint.bytes": "bytes",
    "checkpoint.write_ms.p50": "ms",
    "checkpoint.write_ms.max": "ms",
    "checkpoint.parse_ms": "ms",
    "fanout.threads": "count",
    "fanout.efficiency": "ratio",
    "fanout.chunk_ms.p50": "ms",
    "fanout.chunk_ms.max": "ms",
    "fanout.join_wait_ms": "ms",
    "process.overhead_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "failed_share": "ratio",
}

PHASE_N64 = {"sweep": "honest", "protocol": "phase", "n": 64, "fn_key": 0}


def check_honest(report, trials):
    problems = []
    if report.get("elected") != trials or any(report["fails"].values()):
        problems.append("an honest FIFO trial failed to elect")
    if report["messages"]["min"] != 2 * 64 * 64 or report["messages"]["max"] != 2 * 64 * 64:
        problems.append("an honest PhaseAsyncLead n=64 trial did not send 2n^2 messages")
    return problems


def check_attack(report, trials):
    arm = report.get("attack") or {}
    problems = []
    if arm.get("successes") != trials or arm.get("infeasible") != 0:
        problems.append("attack.success_share is not 1.0")
    if report["wins"][3] != trials:
        problems.append("the rushing coalition's target 3 did not win every trial")
    return problems


def check_timed_crash(report, trials):
    fault = report.get("fault")
    fails = dict(report["fails"])
    partitioned = fails.pop("crash_partition", None)
    problems = []
    if fault is None or partitioned is None:
        problems.append("the report of a fault-enabled sweep has no fault arm")
    elif report["elected"] + partitioned != trials or any(fails.values()):
        problems.append("a trial ended other than elected or crash-partitioned")
    elif fault["crashed_trials"] > trials:
        problems.append("more crashed trials than trials")
    elif trials >= 1_000 and fault["crashed_trials"] == 0:
        # About half the trials crash; a short set-up run may see none.
        problems.append("no planned crash fired")
    if report["messages"]["max"] > 2 * 64 * 64:
        problems.append("a timed trial sent more than 2n^2 messages")
    return problems


# Sweep sizes are short (0.1–0.5 s per process on 2 cores) so a run
# collects many samples, and some of them land between other tenants'
# bursts of load. `round_s` is the nominal time of one measuring round
# (set-up runs plus the 1-thread and nproc-thread sweeps), taken once on
# a 2-vCPU host; a run makes `seconds / round_s` rounds.
WORKLOADS = {
    "honest_phase_n64": {
        "spec": PHASE_N64,
        "trials": 5_000,
        # Trials per worker in the set-up spec: one lockstep group.
        "group": 8,
        "checkpoint_every": None,
        "check": check_honest,
        "round_s": 0.6,
        # On the pinned seed, one untimed run of this length is checked
        # against the repository's golden pin.
        "golden": 10_000,
    },
    "attack_rushing_n16": {
        "spec": {
            "sweep": "attack",
            "attack": "rushing",
            "n": 16,
            "fn_key": {"mode": "fixed", "value": 0},
            "coalition": {"placement": "equally_spaced", "k": 7, "offset": 1},
            "target": {"policy": "fixed", "value": 3},
            "seed_mode": "derived",
        },
        "trials": 25_000,
        "group": 1,
        "checkpoint_every": None,
        "check": check_attack,
        "round_s": 0.36,
    },
    "timed_crash_phase_n64": {
        "spec": dict(
            PHASE_N64,
            schedule={
                "mode": "timed",
                "latency": {"dist": "constant", "ns": 500},
                "loss_permille": 0,
                "dup_permille": 0,
            },
            fault={"crashes": 1, "window_ns": 4_000_000, "recover": 10_000},
        ),
        # Longer than the others: uneven trials balance out across the
        # two workers only over a few thousand trials.
        "trials": 2_000,
        "group": 1,
        "checkpoint_every": 1_000,
        "check": check_timed_crash,
        "round_s": 1.0,
    },
}

# sha256 of fle_lab's stdout at seed 1, keyed by (workload, trials),
# taken at the commit that added this benchmark. The honest 10k entry is
# the repository's golden pin (tests/golden_outcomes.rs); its report JSON
# without the newline must hash to GOLDEN_TO_JSON as well. The small
# sizes are the set-up spec at 1, 2, 4 and 8 workers.
PINS = {
    ("honest_phase_n64", 10_000): "7866a0a0e5c1c7156d59604f002e4188f3fe58761aff96ba345055f97b5b191e",
    ("honest_phase_n64", 5_000): "4d22111e8fa9a7dba64f665da6b95842dfd9180ecfd63faf336cbfa90d160c0c",
    ("honest_phase_n64", 8): "a752d3bfd158e7355558776dac0fe9fce926738fa8952d2bd882bb77542fb1c6",
    ("honest_phase_n64", 16): "83928fc8a4192877b0bd886213a1450a18c00ac4ff7e384167f37cefba998ecf",
    ("honest_phase_n64", 32): "1fd8cd4dc689f228ca1064166482506d0c61a01b3883daa49ebdaacf76f58c53",
    ("honest_phase_n64", 64): "7cc02af2e5dfa72d1f8c476e3f867126229fda918df9004495af5e4331ea57a3",
    ("attack_rushing_n16", 25_000): "71b4a80dffe4b0d176ca48272dd2e2517b40a8df0eb68783bede088629393f21",
    ("attack_rushing_n16", 1): "9230bf22871d0398146fe516ba749a019309f81c6ef18044a1cb93aa4280464e",
    ("attack_rushing_n16", 2): "c7fe4a639cf58e4f6694d801fa3207fe9bddfed441a40999e6090fb6a9bfd394",
    ("attack_rushing_n16", 4): "017855ebc9de15ad7b597ef79612db115261988bae85e131619bd00300f2c9f3",
    ("attack_rushing_n16", 8): "b18a0c3ccaae600091f6ee1be511e2a83ddcc7b61a297ddf9a227186d7ca98e6",
    ("timed_crash_phase_n64", 2_000): "723dc860e12de20ac77fd4ac08ef03b9d53dd1e9693e47771bdc4c15b3f51359",
    ("timed_crash_phase_n64", 1): "b94fe5f9bea9dc064b4d2fbc7e41e746665c8a5ba12d01d9afd530c58b27cbf1",
    ("timed_crash_phase_n64", 2): "49a149354ec1fcfbf38bd5872a6b6f928a47be7eb800c40120465f5c2efb3ed6",
    ("timed_crash_phase_n64", 4): "d4a701ad0ff194808ac2bc782a6d795ebeae331ae25ef2b3faae0ab3c82264f9",
    ("timed_crash_phase_n64", 8): "e4cacc570894dfa9c7fba0040eedc384e3ace0e07b3f57c3dbd3064f7e21a41b",
}
GOLDEN_TO_JSON = {
    ("honest_phase_n64", 10_000): "3001849b911e21739d42048ea699659cc662da9466873125127b4673124019e4",
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def spec_json(workload, seed, trials):
    spec = dict(WORKLOADS[workload]["spec"], trials=trials, base_seed=seed, threads=0)
    return json.dumps(spec, separators=(",", ":"))


def check_stdout(workload, stdout, trials, seed, pins):
    """Problems with one fle_lab stdout (an empty list means it passed)."""
    if not stdout.endswith(b"\n") or stdout.count(b"\n") != 1:
        return ["stdout is not one report line"]
    try:
        report = json.loads(stdout)
    except ValueError as e:
        return [f"stdout is not JSON: {e}"]
    problems = []
    if report.get("trials") != trials or report.get("base_seed") != seed:
        problems.append("the report covers another trial range or seed")
    else:
        problems += WORKLOADS[workload]["check"](report, trials)
    if seed == PINNED_SEED:
        pin = pins.get((workload, trials))
        if pin is not None and sha256(stdout) != pin:
            problems.append(f"stdout sha256 {sha256(stdout)[:12]}… differs from the pin {pin[:12]}…")
        golden = GOLDEN_TO_JSON.get((workload, trials))
        if golden is not None and sha256(stdout[:-1]) != golden:
            problems.append("report JSON differs from the golden to_json pin")
    return problems


def evaluate(workload, runs, seed, pins=PINS):
    """Checks every run; returns (attempted trials, failed trials, problems).

    A run that exits non-zero or fails a check counts all its trials as
    failed; otherwise its contained trial faults (the report's `faults`
    section) count. Runs of the same spec must print identical bytes,
    whatever their thread count.
    """
    attempted = failed = 0
    problems = []
    reference = {}
    for run in runs:
        trials = run["trials"]
        attempted += trials
        if run["code"] != 0:
            bad = [f"exit code {run['code']}"]
        else:
            bad = check_stdout(workload, run["stdout"], trials, seed, pins)
            first = reference.setdefault(trials, run["stdout"])
            if run["stdout"] != first:
                bad.append("stdout differs between runs of one spec (thread invariance)")
        if bad:
            failed += trials
            problems += [f"{run['kind']} run of {trials} trials: {p}" for p in bad]
        else:
            failed += len(json.loads(run["stdout"]).get("faults", []))
    return attempted, failed, problems


def median(values):
    return statistics.median(values) if values else 0.0


def fastest(values):
    """The run's figure for a wall time: its fastest sample. On a shared
    host, interference only ever adds time: the samples' slow tail, and at
    nproc threads a second mode when a core is taken away for a while, is
    other tenants' load, which drifts from one run to the next. The
    fastest of many whole-process samples still moves with every change to
    the program's own work, and repeats across runs better than the
    median does."""
    return min(values) if values else 0.0


def spans_of(rep):
    return [
        {"name": s[0], "parent": s[1], "thread": s[2], "start": s[3], "end": s[4], "index": i}
        for i, s in enumerate(rep["spans"])
    ]


# The layers a replay's wall time splits into: the spans of the public
# calls (probe/src/replay.rs). Any other span (`fanout`) only groups them.
LAYERS = {
    "spec.read", "spec.parse", "spec.validate", "fanout.chunk", "reduce.merge",
    "checkpoint.open", "checkpoint.write", "checkpoint.remove", "report.finish",
    "report.to_json", "digest.sha", "report.emit",
}


def covered_ns(span, children):
    """The part of a span its layers account for. A layer span counts
    whole. A grouping span counts its serial children in full but only the
    slowest of its parallel worker ranges (`fanout.chunk`), and never its
    own time: what it spends outside them (thread start, join, glue)
    stays uncovered."""
    if span["name"] in LAYERS:
        return span["end"] - span["start"]
    kids = children.get(span["index"], [])
    chunks = [covered_ns(k, children) for k in kids if k["name"] == "fanout.chunk"]
    serial = sum(covered_ns(k, children) for k in kids if k["name"] != "fanout.chunk")
    return serial + max(chunks, default=0)


def coverage(rep):
    """Layer time on the critical path over the replay's wall time."""
    spans = spans_of(rep)
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    top = sum(covered_ns(s, children) for s in spans if s["parent"] < 0)
    return top / rep["wall_ns"]


def trace_coverage(trace):
    """The median coverage over the traced replays."""
    return median([coverage(r) for r in trace["reps"] if r["traced"]])


def check_coverage(trace):
    """Problems if the traced replays' layers cover too little of their wall time."""
    c = trace_coverage(trace)
    return [f"trace.coverage {c:.3f} < {COVERAGE_FLOOR}"] if c < COVERAGE_FLOOR else []


def rep_layers(rep, trials, width):
    """Per-layer figures of one traced replay."""
    spans = spans_of(rep)

    def total_ns(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def durations_ms(name):
        return sorted((s["end"] - s["start"]) / 1e6 for s in spans if s["name"] == name)

    join_wait_ns = 0
    for f in (s for s in spans if s["name"] == "fanout"):
        children = [s for s in spans if s["parent"] == f["index"]]
        chunks = [s["end"] - s["start"] for s in children if s["name"] == "fanout.chunk"]
        others = sum(s["end"] - s["start"] for s in children if s["name"] != "fanout.chunk")
        join_wait_ns += (f["end"] - f["start"]) - max(chunks, default=0) - others
    chunks = durations_ms("fanout.chunk")
    writes = durations_ms("checkpoint.write")
    m = {
        "spec.parse_us": total_ns("spec.parse") / 1e3,
        "spec.validate_us": total_ns("spec.validate") / 1e3,
        "lockstep.batched_share": rep["batched_trials"] / trials,
        "lockstep.diverged_groups": (rep["group_trials"] - rep["batched_trials"]) / width,
        "reduce.merge_us": total_ns("reduce.merge") / 1e3,
        "report.finish_us": total_ns("report.finish") / 1e3,
        "report.to_json_us": total_ns("report.to_json") / 1e3,
        "report.bytes": rep["report_bytes"],
        "digest.sha_us": total_ns("digest.sha") / 1e3,
        "checkpoint.writes": len(writes),
        "fanout.chunk_ms.p50": median(chunks),
        "fanout.chunk_ms.max": max(chunks, default=0),
        "fanout.join_wait_ms": join_wait_ns / 1e6,
    }
    if writes:
        m["checkpoint.write_ms.p50"] = median(writes)
        m["checkpoint.write_ms.max"] = writes[-1]
    return m


# Figures the micro-arms give (see probe/src/micro.rs).
MICRO = (
    "worker.setup_us",
    "randfn.table_build_us",
    "lockstep.ns_per_delivery",
    "engine.ns_per_delivery",
    "engine.relay_ns_per_delivery",
    "protocol.ns_per_delivery",
    "randfn.eval_ns",
    "randfn.table_eval_ns",
    "timed.ns_per_delivery",
    "timed.overhead_ratio",
    "fault.draw_ns",
    "attack.ns_per_trial",
    "reduce.ns_per_trial",
    "checkpoint.parse_ms",
)


def layer_metrics(trace, report, e2e):
    """Every per-layer metric but `failed_share`: replay figures (median
    over the traced reps), micro-arm figures for what runs inside
    `run_sweep_partial`, counts from the CLI's report, and the ratios
    against the end-to-end runs. Counts of a layer the workload does not
    use read 0."""
    trials = trace["trials"]
    traced = [r for r in trace["reps"] if r["traced"]]
    untraced = [r for r in trace["reps"] if not r["traced"]]
    per_rep = [rep_layers(r, trials, trace["width"]) for r in traced]
    m = {k: median([p[k] for p in per_rep]) for k in per_rep[0] if all(k in p for p in per_rep)}
    micro = trace["micro"]
    m.update((k, micro[k]) for k in MICRO)
    # Without --checkpoint the sweep writes none: the micro-arm times one.
    m.setdefault("checkpoint.write_ms.p50", micro["checkpoint.write_ms"])
    m.setdefault("checkpoint.write_ms.max", micro["checkpoint.write_ms"])
    m["checkpoint.bytes"] = micro["checkpoint.file_bytes"] if m["checkpoint.writes"] else 0
    # Both workload protocols wake node 0 only, so a trial's steps are
    # its deliveries plus one.
    ran = report["trials"]
    deliveries = report["steps"]["mean"] - 1
    m["engine.deliveries_per_trial"] = deliveries
    m["engine.sends_per_trial"] = report["messages"]["mean"]
    attack, fault = report.get("attack"), report.get("fault")
    m["attack.success_share"] = attack["successes"] / ran if attack else 0
    m["attack.infeasible"] = attack["infeasible"] if attack else 0
    m["fault.crashed_share"] = fault["crashed_trials"] / ran if fault else 0
    m["fault.survival_share"] = report["elected"] / ran
    m["fault.deliveries_per_trial"] = deliveries if fault else 0
    m["trace.coverage"] = trace_coverage(trace)
    m["trace.overhead"] = fastest([r["wall_ns"] for r in traced]) / fastest(
        [r["wall_ns"] for r in untraced]
    )
    # The set-up spec is almost all fixed cost, so the process's own share
    # (exec, loading, thread start, output) is not lost in trial noise.
    m["process.overhead_ms"] = e2e["setup_s"] * 1e3 - median(trace["setup_wall_ns"]) / 1e6
    m["fanout.threads"] = trace["threads"]
    m["fanout.efficiency"] = e2e["trials_per_s"] / (trace["threads"] * e2e["trials_per_s_1t"])
    return m


def machine_context():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count() or 1, "cpu": cpu, "python": platform.python_version()}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.wl = WORKLOADS[workload]
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = os.path.join(root, target)
        self.work = os.path.join(root, ".bench_build", "perfbench")
        self.nproc = os.cpu_count() or 1

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for args in (
            ["--bin", "fle_lab"],
            ["--manifest-path", os.path.join(HERE, "probe", "Cargo.toml")],
        ):
            subprocess.run(
                ["cargo", "build", "--release", "--offline", "--quiet", *args],
                cwd=self.root,
                env=env,
                stdout=sys.stderr,
                check=True,
            )
        self.fle_lab = os.path.join(self.target, "release", "fle_lab")
        self.probe = os.path.join(self.target, "release", "perfbench-probe")

    def write_spec(self, trials):
        path = os.path.join(self.work, f"{self.workload}-s{self.seed}-t{trials}.json")
        with open(path, "w") as f:
            f.write(spec_json(self.workload, self.seed, trials) + "\n")
        return path

    def spawn(self, argv, tag):
        """Runs argv to completion; returns (exit code, wall s, peak RSS MiB, stdout)."""
        out_path = os.path.join(self.work, f"{tag}.out")
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.root)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as f:
            stdout = f.read()
        return proc.returncode, wall, usage.ru_maxrss / 1024, stdout

    def sweep(self, spec_path, threads, trials, kind):
        argv = [self.fle_lab, "attack-sweep", "--spec", spec_path, "--threads", str(threads)]
        every = self.wl["checkpoint_every"]
        if every is not None:
            checkpoint = os.path.join(self.work, f"{kind}.checkpoint.json")
            for stale in (checkpoint, checkpoint + ".tmp"):
                if os.path.exists(stale):
                    os.remove(stale)
            argv += ["--checkpoint", checkpoint, "--checkpoint-every", str(every)]
        code, wall, rss, stdout = self.spawn(argv, kind)
        return {"kind": kind, "trials": trials, "code": code, "wall": wall, "rss": rss, "stdout": stdout}

    def measure(self, seconds):
        trials = self.wl["trials"]
        setup_trials = self.wl["group"] * self.nproc
        self.main_spec = main_spec = self.write_spec(trials)
        self.setup_spec = setup_spec = self.write_spec(setup_trials)
        runs = [self.sweep(setup_spec, self.nproc, setup_trials, "warmup")]
        golden = self.wl.get("golden")
        if golden is not None and self.seed == PINNED_SEED:
            runs.append(self.sweep(self.write_spec(golden), self.nproc, golden, "golden"))
        # A fixed number of rounds, from the workload's nominal round time
        # rather than from the clock: the fastest of N samples falls as N
        # grows, so two builds must be compared over the same N.
        rounds = max(MIN_ITERATIONS, round(seconds / self.wl["round_s"]))
        hard_stop = time.perf_counter() + MAX_MEASURE_S
        for i in range(rounds):
            if time.perf_counter() > hard_stop:
                log(f"perfbench: stopped after {i} of {rounds} rounds ({MAX_MEASURE_S} s)")
                break
            for _ in range(SETUPS_PER_ITERATION):
                runs.append(self.sweep(setup_spec, self.nproc, setup_trials, "setup"))
            # Two samples at nproc threads to one at 1 thread: the nproc
            # figure also waits on a second core being free, so its
            # fastest sample takes more samples to find.
            order = [(1, "1t"), (self.nproc, "nt"), (self.nproc, "nt")]
            for threads, kind in order if i % 2 == 0 else order[::-1]:
                runs.append(self.sweep(main_spec, threads, trials, kind))
        return runs

    def trace(self):
        trace_path = os.path.join(self.work, "trace.json")
        emit = os.path.join(self.work, "probe.out")
        argv = [
            self.probe, "--spec", self.main_spec, "--setup-spec", self.setup_spec,
            "--threads", str(self.nproc), "--emit", emit, "--trace-out", trace_path,
        ]
        if self.wl["checkpoint_every"] is not None:
            argv += ["--checkpoint", os.path.join(self.work, "probe.checkpoint.json"),
                     "--every", str(self.wl["checkpoint_every"])]
        code, _, _, _ = self.spawn(argv, "probe")
        if code != 0:
            return None
        with open(trace_path) as f:
            return json.load(f)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        log("perfbench: run from the root of an fle checkout (no Cargo.toml / crates/ here)")
        return 2
    bench = Bench(root, args.workload, args.seed)
    os.makedirs(bench.work, exist_ok=True)
    try:
        bench.build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    context = machine_context()
    log(f"perfbench: {args.workload} seed={args.seed} nproc={context['nproc']} cpu={context['cpu']}")

    started = time.perf_counter()
    runs = bench.measure(args.seconds)
    measured_s = time.perf_counter() - started
    attempted, failed, problems = evaluate(args.workload, runs, args.seed)
    trials = bench.wl["trials"]
    walls = {k: [r["wall"] for r in runs if r["kind"] == k] for k in ("1t", "nt", "setup")}
    e2e = {
        "trials_per_s": trials / fastest(walls["nt"]),
        "trials_per_s_1t": trials / fastest(walls["1t"]),
        # Set-up runs are cheap, so there are many: their median is steady.
        "setup_s": median(walls["setup"]),
        "peak_rss_mib": median([r["rss"] for r in runs if r["kind"] == "nt"]),
    }
    log(
        f"perfbench: samples 1t={len(walls['1t'])} nt={len(walls['nt'])} "
        f"setup={len(walls['setup'])} in {measured_s:.1f} s; "
        + ", ".join(f"{k}={v:.4g}" for k, v in e2e.items())
    )
    metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    if args.trace:
        trace = bench.trace()
        reference = next((r["stdout"] for r in runs if r["kind"] == "nt" and r["code"] == 0), b"")
        if trace is None:
            traced_trials = trials
            bad = ["the probe failed"]
        else:
            traced_trials = len(trace["reps"]) * trials
            bad = check_coverage(trace)
            bad += [
                f"replay {i} report sha differs from fle_lab's stdout"
                for i, rep in enumerate(trace["reps"])
                if rep["sha"] != sha256(reference[:-1])
            ]
        attempted += traced_trials
        if bad:
            failed += traced_trials
            problems += bad
            # A failed probe reports 0 for every layer; `correct` is false.
            layers = {}
        else:
            layers = layer_metrics(trace, json.loads(reference), e2e)
        layers["failed_share"] = failed / attempted
        metrics = {k: {"value": layers.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
        log("perfbench: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()))

    for p in problems:
        log(f"perfbench: FAILED CHECK: {p}")
    record = {"machine": context, "workload": args.workload, "seed": args.seed, "e2e": e2e,
              "walls": walls, "problems": problems}
    with open(os.path.join(bench.work, "last_run.json"), "w") as f:
        json.dump(record, f)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
