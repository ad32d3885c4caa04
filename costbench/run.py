"""Cost per simulated request: end-to-end and per-layer host cost of the simulator.

One command runs one workload and prints every metric::

    python3 costbench/run.py --workload fig5-dcm --seed 0 --seconds 20 --trace 0

The simulator runs offline, as fast as it can go, one single-threaded
interpreter at a time.  Each repetition is a fresh interpreter (this file
with ``--child``) that loads the workload's committed ``ScenarioSpec`` JSON,
builds a ``Deployment`` and runs it in fixed sim-time slices.  After every
slice it times the frozen calibration kernel (``calibrate.py``) and
rescales the slice's host seconds to the kernel's committed reference, so
drift of the shared host cancels.  A first, untimed ``plain`` child runs
the same scenario with one ``Deployment.run()`` call; it warms the caches
and is the reference every other child's outputs must equal.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (from ``cProfile`` runs, alternated with untraced ones).  The last
line of standard output is one JSON object; see README.md for every
metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from statistics import mean, median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPECS = HERE / "specs"


@dataclasses.dataclass(frozen=True)
class Workload:
    spec: str       # file under specs/
    slice_s: float  # sim seconds between two calibration samples


WORKLOADS = {
    "fig5-dcm": Workload("fig5-dcm.json", 5.0),
    "lv-batched-100k": Workload("lv-batched-100k.json", 0.5),
    "shards-cache-rw": Workload("shards-cache-rw.json", 5.0),
}

#: Untimed sim seconds the plain child runs past the horizon, with the
#: workload stopped, so every in-flight request settles before the strict
#: conservation checks.
DRAIN_S = 120.0

#: Fewest measured repetitions per run, whatever ``--seconds`` says.
MIN_REPS = 3

#: Fewest fresh-interpreter set-up samples behind ``setup_s``; set-up-only
#: children make up the difference.
MIN_SETUP_SAMPLES = 9

#: Kernel samples, right after set-up, that calibrate one set-up sample.
SETUP_CAL_SAMPLES = 5

#: A workload must complete this many requests for ten to lie beyond p99.9.
MIN_COMPLETED = 10_000

#: Largest share of profiled self time allowed to reach no layer.
MAX_UNATTRIBUTED = 0.05

# ---------------------------------------------------------------------------
# Child: one fresh interpreter, one repetition
# ---------------------------------------------------------------------------

def _nearest_rank(sorted_values, q: float) -> float:
    index = max(0, -(-len(sorted_values) * q // 1) - 1)
    return sorted_values[int(index)]


def _simulated(dep, horizon: float) -> dict:
    """Simulated end-to-end metrics and layer counters at ``horizon``."""
    from repro.analysis.sla import DEFAULT_SPIKE_THRESHOLD
    from repro.monitor import METRICS_TOPIC

    system = dep.system
    rts = sorted(rt for _created, rt in system.request_log)
    completed = len(rts)
    submitted = system.submitted
    per_req = 1.0 / max(1, completed)
    if dep.hypervisor is not None:
        vm_seconds = dep.hypervisor.billing.vm_seconds(horizon)
    else:  # a static deployment bills every server for the whole horizon
        vm_seconds = len(system.all_servers()) * horizon
    servers = system.all_servers() + system.removed_servers
    grants = sum(s.threads.acquisitions for s in servers if hasattr(s, "threads"))
    grants += sum(s.db_pool.checkouts for s in servers if hasattr(s, "db_pool"))
    db = [s for s in servers if s.tier == "db"]
    nonidle = sum(s.cpu.nonidle_integral() for s in db)
    hot_share = 0.0
    if hasattr(system.db_balancer, "shard_stats"):
        routed = [st["routed"] for st in system.db_balancer.shard_stats().values()]
        hot_share = max(routed) / max(1, sum(routed))
    chain_calls = sum(
        chain.links[-1].calls for chain in dep.resilience_chains.values()
    )
    records = 0
    if dep.broker is not None:
        records = sum(dep.broker.end_offsets(METRICS_TOPIC))
    return {
        "sim.completed": completed,
        "sim.rt_p50_ms": 1e3 * _nearest_rank(rts, 0.5) if rts else 0.0,
        "sim.rt_p999_ms": 1e3 * _nearest_rank(rts, 0.999) if rts else 0.0,
        "sim.sla_met_frac": sum(rt <= DEFAULT_SPIKE_THRESHOLD for rt in rts)
        / max(1, submitted),
        "sim.vm_seconds": vm_seconds,
        # Environment has no public accessor for events scheduled; this is
        # the counter ``repro perf`` reports as ops.
        "sim.events_per_req": dep.env._seq * per_req,
        "ntier.db.mean_inservice": sum(s.cpu.busy_integral() for s in db) / horizon,
        "ntier.db.efficiency": sum(s.cpu.efficiency_integral() for s in db)
        / nonidle if nonidle else 0.0,
        "ntier.pool.grants_per_req": grants * per_req,
        "ntier.cache.hit_rate": system.cache.hit_rate() if system.cache else 0.0,
        "ntier.shard.hot_share": hot_share,
        "broker.records_per_req": records * per_req,
        "control.actions": len(dep.controller.events) if dep.controller else 0,
        "cluster.vm_boots": len(dep.hypervisor.vms) if dep.hypervisor else 0,
        "faults.dispatch_per_req": chain_calls / max(1, submitted),
    }


def _digest(system) -> str:
    payload = json.dumps(
        [system.request_log, system.failure_log, system.shed_log,
         system.submitted, system.inflight],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _conservation(dep, settled: bool) -> list:
    """Request and per-link accounting; returns the failed checks."""
    system = dep.system
    problems = []
    resolved = (system.completed_count() + len(system.failure_log)
                + len(system.shed_log))
    if system.submitted != resolved + system.inflight:
        problems.append(
            f"submitted {system.submitted} != completed+failed+shed "
            f"{resolved} + in flight {system.inflight}"
        )
    if settled and system.inflight:
        problems.append(f"{system.inflight} requests still in flight")
    for tier, chain in dep.resilience_chains.items():
        for link in chain.links:
            done = link.ok + link.shed + link.failed
            if done > link.calls or (settled and done != link.calls):
                problems.append(
                    f"{tier}/{link.kind}: calls {link.calls} != ok {link.ok} "
                    f"+ shed {link.shed} + failed {link.failed}"
                )
    return problems


def child(mode: str, name: str, seed: int, t_spawn: float) -> dict:
    """Run one repetition in this interpreter; returns its record."""
    sys.path.insert(0, str(SRC))
    from repro.scenario import Deployment, ScenarioSpec

    spec = ScenarioSpec.from_json((SPECS / WORKLOADS[name].spec).read_text())
    dep = Deployment(dataclasses.replace(spec, seed=seed))
    dep.start()
    record = {"mode": mode, "setup_s": perf_counter() - t_spawn}
    if mode != "plain":
        import calibrate  # not in the plain child, whose peak RSS is reported

        for _ in range(5):
            calibrate.kernel()
        record["setup_cal_s"] = mean(
            calibrate.time_kernel() for _ in range(SETUP_CAL_SAMPLES)
        )
    if mode == "setup":
        return record
    horizon = dep.duration

    run_s, cal_s, profiler = [], [], None
    if mode == "plain":
        start = perf_counter()
        dep.run()
        run_s.append(perf_counter() - start)
    else:
        if mode == "traced":
            import cProfile

            profiler = cProfile.Profile()
        cal_s.append(calibrate.time_kernel())
        step = WORKLOADS[name].slice_s
        k = 0
        while k * step < horizon:
            k += 1
            if profiler is not None:
                profiler.enable()
            start = perf_counter()
            dep.run(until=min(k * step, horizon))
            elapsed = perf_counter() - start
            if profiler is not None:
                profiler.disable()
            run_s.append(elapsed)
            cal_s.append(calibrate.time_kernel())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record.update({
        "run_s": run_s,
        "cal_s": cal_s,
        "peak_rss_mb": peak_rss_mb,
        "submitted": dep.system.submitted,
        "sim": _simulated(dep, horizon),
        "digest": _digest(dep.system),
    })
    problems = _conservation(dep, settled=False)
    if profiler is not None:
        import pstats

        import layers

        stats = pstats.Stats(profiler).stats
        self_s, calls, unattributed = layers.fold(stats)
        record["profile"] = {
            "self_s": self_s,
            "calls": calls,
            "unattributed_s": unattributed,
            "reschedules": layers.call_count(stats, "sim/processor.py", "_reschedule"),
            "timer_fires": layers.call_count(stats, "sim/processor.py", "_on_timer"),
        }
    if mode == "plain":
        dep.stop()
        dep.env.run(until=horizon + DRAIN_S)
        problems += _conservation(dep, settled=True)
    record["problems"] = problems
    return record


# ---------------------------------------------------------------------------
# Parent: repetitions, checks, metrics
# ---------------------------------------------------------------------------

def spawn(mode: str, name: str, seed: int) -> dict:
    """Run one child interpreter to completion; returns its record."""
    # A fixed hash seed keeps dict layouts, and so host time, alike across
    # interpreters; the simulated results do not depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", name, "--seed", str(seed),
           "--t-spawn", repr(perf_counter())]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{mode} child failed ({proc.returncode}):\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrated_run_s(record: dict, reference_s: float) -> float:
    """Run-phase host seconds rescaled to the calibration reference.

    Slice ``i`` is bracketed by kernel samples ``i`` and ``i + 1``; it is
    rescaled by the mean of the two.
    """
    cal = record["cal_s"]
    return sum(
        dt * reference_s * 2.0 / (cal[i] + cal[i + 1])
        for i, dt in enumerate(record["run_s"])
    )


def _check(records: list) -> list:
    problems = []
    reference = records[0]
    for rec in records:
        problems += [f"{rec['mode']}: {p}" for p in rec["problems"]]
        if rec["digest"] != reference["digest"]:
            problems.append(f"{rec['mode']}: request-log digest differs from plain run")
        if rec["sim"] != reference["sim"]:
            diff = sorted(k for k in rec["sim"] if rec["sim"][k] != reference["sim"].get(k))
            problems.append(f"{rec['mode']}: simulated values differ: {diff}")
    if reference["sim"]["sim.completed"] < MIN_COMPLETED:
        problems.append(
            f"only {reference['sim']['sim.completed']} requests completed "
            f"(< {MIN_COMPLETED})"
        )
    return problems


def _end_to_end(plain: dict, reps: list, setups: list,
                reference_s: float) -> tuple:
    """End-to-end metrics; ``setups`` are the records with set-up samples."""
    completed = reps[0]["sim"]["sim.completed"]
    rates = [completed / calibrated_run_s(r, reference_s) for r in reps]
    raw = [completed / sum(r["run_s"]) for r in reps]
    cal = [median(r["cal_s"]) for r in reps]
    metrics = {
        "requests_per_s": (median(rates), "req/s"),
        "setup_s": (median(
            r["setup_s"] * reference_s / r["setup_cal_s"] for r in setups), "s"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
        "sim.completed": (completed, "count"),
        "sim.rt_p50_ms": (reps[0]["sim"]["sim.rt_p50_ms"], "ms"),
        "sim.rt_p999_ms": (reps[0]["sim"]["sim.rt_p999_ms"], "ms"),
        "sim.sla_met_frac": (reps[0]["sim"]["sim.sla_met_frac"], "ratio"),
        "sim.vm_seconds": (reps[0]["sim"]["sim.vm_seconds"], "VM-s"),
    }
    context = [
        f"  rep {i}: calibrated {rate:10.1f} req/s   raw {r:10.1f} req/s   "
        f"kernel median {1e3 * c:.3f} ms   setup {rep['setup_s']:.3f} s"
        for i, (rate, r, c, rep) in enumerate(zip(rates, raw, cal, reps))
    ]
    context.append(
        "  setup s, raw: "
        + " ".join(f"{r['setup_s']:.3f}" for r in setups)
        + f"  (median {median(r['setup_s'] for r in setups):.3f})"
    )
    context.append(
        f"  raw wall req/s median {median(raw):.1f}; kernel reference "
        f"{1e3 * reference_s:.3f} ms, measured median {1e3 * median(cal):.3f} ms"
    )
    return metrics, context


def _per_layer(pairs: list, reference_s: float) -> tuple:
    import layers

    completed = pairs[0][0]["sim"]["sim.completed"]
    submitted = pairs[0][0]["submitted"]
    per_req = 1.0 / completed
    traced = [t for _u, t in pairs]
    overhead = [
        calibrated_run_s(t, reference_s) / calibrated_run_s(u, reference_s)
        for u, t in pairs
    ]
    # Profiled seconds, rescaled like the run phase.
    scale = [reference_s / median(t["cal_s"]) for t in traced]
    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_us_per_req"] = (
            median(1e6 * t["profile"]["self_s"][layer] * s * per_req
                   for t, s in zip(traced, scale)), "us")
        metrics[f"{layer}.calls_per_req"] = (
            traced[0]["profile"]["calls"][layer] * per_req, "count")
    sim = traced[0]["sim"]
    prof = traced[0]["profile"]
    metrics.update({
        "sim.events_per_req": (sim["sim.events_per_req"], "count"),
        "sim.processor.reschedules_per_req": (prof["reschedules"] * per_req, "count"),
        "sim.processor.timer_fires_per_req": (prof["timer_fires"] * per_req, "count"),
        "ntier.db.mean_inservice": (sim["ntier.db.mean_inservice"], "jobs"),
        "ntier.db.efficiency": (sim["ntier.db.efficiency"], "ratio"),
        "ntier.pool.grants_per_req": (sim["ntier.pool.grants_per_req"], "count"),
        "ntier.cache.hit_rate": (sim["ntier.cache.hit_rate"], "ratio"),
        "ntier.shard.hot_share": (sim["ntier.shard.hot_share"], "ratio"),
        "broker.records_per_req": (sim["broker.records_per_req"], "count"),
        "control.actions": (sim["control.actions"], "count"),
        "cluster.vm_boots": (sim["cluster.vm_boots"], "count"),
        "faults.dispatch_per_req": (sim["faults.dispatch_per_req"], "count"),
        "trace.overhead_ratio": (median(overhead), "ratio"),
        "trace.unattributed_frac": (median(
            t["profile"]["unattributed_s"]
            / (t["profile"]["unattributed_s"] + sum(t["profile"]["self_s"].values()))
            for t in traced), "ratio"),
    })
    total = sum(metrics[f"{layer}.self_us_per_req"][0] for layer in layers.LAYERS)
    context = [
        f"  {layer:16s} {metrics[f'{layer}.self_us_per_req'][0]:9.2f} us/req "
        f"({100 * metrics[f'{layer}.self_us_per_req'][0] / total:5.1f} %)  "
        f"{metrics[f'{layer}.calls_per_req'][0]:9.1f} calls/req"
        for layer in layers.LAYERS
    ]
    context.append(f"  submitted {submitted}, completed {completed}")
    return metrics, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("plain", "sliced", "traced", "setup"))
    parser.add_argument("--t-spawn", type=float)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.child:
        record = child(args.child, args.workload, args.seed, args.t_spawn)
        print(json.dumps(record))
        return 0

    import calibrate

    host = calibrate.load_host()
    reference_s = host["REFERENCE_S"]
    if calibrate.kernel() != host["CHECKSUM"]:
        print("error: the calibration kernel differs from the one host.json "
              "was recorded for", file=sys.stderr)
        return 2
    plain = spawn("plain", args.workload, args.seed)
    modes = ("sliced", "traced") if args.trace else ("sliced",)
    # Traced pairs are slow and their metrics carry no bound: one may do.
    min_groups = 1 if args.trace else MIN_REPS
    groups = []
    start = perf_counter()
    while True:
        began = perf_counter()
        groups.append([spawn(m, args.workload, args.seed) for m in modes])
        elapsed = perf_counter() - start
        last = perf_counter() - began
        if len(groups) >= min_groups and elapsed + last > args.seconds:
            break

    records = [plain] + [rec for group in groups for rec in group]
    problems = _check(records)
    if args.trace:
        metrics, context = _per_layer(groups, reference_s)
    else:
        reps = [g[0] for g in groups]
        setups = reps + [
            spawn("setup", args.workload, args.seed)
            for _ in range(MIN_SETUP_SAMPLES - len(reps))
        ]
        metrics, context = _end_to_end(plain, reps, setups, reference_s)
    if args.trace and metrics["trace.unattributed_frac"][0] > MAX_UNATTRIBUTED:
        problems.append(
            f"{metrics['trace.unattributed_frac'][0]:.3f} of profiled self "
            f"time reached no layer (> {MAX_UNATTRIBUTED})"
        )
    print(f"{args.workload} seed {args.seed}: {len(groups)} repetitions "
          f"in {perf_counter() - start:.1f} s")
    print("\n".join(context))
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    attempted = sum(rec["submitted"] for rec in records[1:])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
