"""The ``repro perf`` suite runner and its ``BENCH_kernel.json`` schema.

Running the suite executes every kernel scenario from
:mod:`repro.perf.kernel` twice — once with the runtime sanitizer disarmed
(production configuration) and once with every domain armed — plus a pure
Python *calibration loop* that measures the host's interpreter speed.  The
loop is timed once after each of the three bench groups (disarmed, armed,
scale) and ``calibration_mops`` is the median of those samples: on a
shared host one sample alone drifts by about as much as the gates'
tolerance.  The report it emits is a stable, machine-comparable JSON
document:

.. code-block:: json

    {
      "schema": "repro-bench-kernel/3",
      "quick": false,
      "python": "3.11.7",
      "platform": "Linux-...",
      "calibration_mops": 24.1,
      "suites": {
        "disarmed": {"event-dispatch": {"ops": 200000, "seconds": 0.21,
                                        "ops_per_sec": 952000.0},
                     "fig5-autoscale": {"ops": 255199, "seconds": 1.0,
                                        "ops_per_sec": 255199.0,
                                        "completed": 10791,
                                        "requests_per_sec": 10791.0,
                                        "events_per_req": 23.65}, ...},
        "armed":    {...}
      },
      "scale": {
        "fig5-100k": {"ops": 1400000, "seconds": 5.9, "ops_per_sec": ...,
                      "completed": 50510, "requests_per_sec": 8560.0,
                      "events_per_req": 27.7},
        "fig5-1m":   {"...": "full mode only"}
      },
      "headline": {"event_throughput": 952000.0, "normalized": 0.0395,
                   "scale_requests_normalized": 355.2}
    }

``headline.event_throughput`` is the disarmed ``event-dispatch`` rate —
the kernel's raw dispatch speed.  ``headline.normalized`` divides it by
the calibration rate, yielding a machine-independent figure CI can gate
on: a slower runner lowers both numerator and denominator, so only a
*kernel* regression moves the ratio.

The ``scale`` section holds batched Large-Variation replays on the
million-user path (batched populations, sanitizer disarmed).
``fig5-100k`` runs in every mode; ``fig5-1m`` — the full 10⁶-user,
600-simulated-second trace — runs in full mode only and is the committed
baseline's proof that a million-user Large Variation trace completes in
minutes.

End-to-end rows (``fig5-autoscale`` and the scale rows) count work in
*completed requests*, not events: a change that serves the same requests
with fewer events is a gain, yet it lowers events/s.  So schema v3 adds
``completed``, ``requests_per_sec`` and ``events_per_req`` to those rows,
and gates ``fig5-100k`` on ``headline.scale_requests_normalized``: its
completed requests/s divided by the calibration rate in Mops/s (requests
per million calibration loops).  Schema v2 gated the same row on events/s
(``scale_normalized``); a v2 baseline still loads and is compared on the
dispatch headline alone.

Wall-clock reads here are the measurement itself and never feed a
simulation, hence the ``DCM001`` suppressions.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
from time import perf_counter  # repro: noqa[DCM001] -- benchmark timing is the product here
from typing import Any, Dict, List, Optional

from repro.check import config as check_config
from repro.errors import ConfigurationError
from repro.perf import kernel

#: Schema tag; bump when the report layout changes incompatibly.
#: v2 added the "scale" section and headline.scale_normalized; v3 counts
#: completed requests in the end-to-end rows and gates fig5-100k on
#: headline.scale_requests_normalized instead.
SCHEMA = "repro-bench-kernel/3"

#: Schemas :func:`load_report` accepts as a baseline.
LOADABLE_SCHEMAS = (SCHEMA, "repro-bench-kernel/2")

#: Best-of repetitions for the micro scenarios (full, quick).
REPS = (5, 3)

#: Calibration loop iterations (full, quick).
CALIBRATION_OPS = (2_000_000, 500_000)


def calibrate(ops: int) -> float:
    """Millions of trivial interpreter loop iterations per second."""
    start = perf_counter()  # repro: noqa[DCM001] -- benchmark timing
    acc = 0
    for i in range(ops):
        acc += i
    elapsed = perf_counter() - start  # repro: noqa[DCM001] -- benchmark timing
    return ops / elapsed / 1e6


def _best_of(fn, *args, reps: int) -> Dict[str, Any]:
    ops, best = 0, float("inf")
    for _ in range(reps):
        ops, seconds = fn(*args)
        if seconds < best:
            best = seconds
    return {"ops": ops, "seconds": best, "ops_per_sec": ops / best}


def _scenario_row(fn, *args) -> Dict[str, Any]:
    """One end-to-end scenario run, rated per event and per request."""
    ops, seconds, completed = fn(*args)
    return {
        "ops": ops,
        "seconds": seconds,
        "ops_per_sec": ops / seconds,
        "completed": completed,
        "requests_per_sec": completed / seconds,
        "events_per_req": ops / max(1, completed),
    }


def run_suite(quick: bool = False) -> Dict[str, Any]:
    """Run every scenario armed and disarmed; return the report dict."""
    idx = 1 if quick else 0
    reps = REPS[idx]
    samples: List[float] = []  # one calibration sample per bench group
    suites: Dict[str, Dict[str, Any]] = {}
    for label, armed in (("disarmed", False), ("armed", True)):
        with check_config.override(armed):
            rows: Dict[str, Any] = {}
            for name, fn in kernel.MICRO_BENCHES.items():
                rows[name] = _best_of(fn, kernel.SIZES[name][idx], reps=reps)
            rows["fig5-autoscale"] = _scenario_row(kernel.bench_fig5, quick)
            suites[label] = rows
        samples.append(calibrate(CALIBRATION_OPS[idx]))
    # Million-user-path benches run disarmed only (production config): the
    # CI-sized 100k variant always, the 10⁶ acceptance variant in full mode.
    with check_config.override(False):
        scale: Dict[str, Any] = {
            "fig5-100k": _scenario_row(kernel.bench_fig5_100k)
        }
        if not quick:
            scale["fig5-1m"] = _scenario_row(kernel.bench_fig5_1m)
    samples.append(calibrate(CALIBRATION_OPS[idx]))
    calibration = statistics.median(samples)
    throughput = suites["disarmed"]["event-dispatch"]["ops_per_sec"]
    scale_rate = scale["fig5-100k"]["requests_per_sec"]
    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_mops": round(calibration, 3),
        "suites": suites,
        "scale": scale,
        "headline": {
            "event_throughput": round(throughput, 1),
            "normalized": round(throughput / (calibration * 1e6), 6),
            "scale_requests_normalized": round(scale_rate / calibration, 3),
        },
    }


def render_report(report: Dict[str, Any]) -> str:
    """Human-readable table of a suite report."""
    from repro.analysis.tables import render_table

    def cells(row: Dict[str, Any]) -> List[object]:
        per_req = ["-", "-"]  # micro rows complete no requests
        if "requests_per_sec" in row:
            per_req = [f"{row['requests_per_sec']:,.0f}",
                       f"{row['events_per_req']:.2f}"]
        return [f"{row['ops_per_sec']:,.0f}", f"{row['seconds']:.3f}",
                row["ops"], *per_req]

    rows: List[List[object]] = []
    for label in ("disarmed", "armed"):
        for name, row in report["suites"][label].items():
            rows.append([label, name, *cells(row)])
    for name, row in report.get("scale", {}).items():
        rows.append(["scale", name, *cells(row)])
    rows.append(["-", "calibration (Mops/s)",
                 f"{report['calibration_mops']:,.3f}", "-", "-", "-", "-"])
    rows.append(["-", "normalized throughput",
                 f"{report['headline']['normalized']:.3f}", "-", "-", "-", "-"])
    title = "kernel microbenchmarks" + (" [quick]" if report["quick"] else "")
    return render_table(
        ["checks", "scenario", "ops/sec", "best (s)", "ops", "req/sec",
         "events/req"],
        rows, title=title,
    )


def save_report(report: Dict[str, Any], path: str) -> None:
    """Write the report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def record_report(report: Dict[str, Any], store) -> str:
    """Record a perf report in a lab :class:`~repro.lab.store.ArtifactStore`.

    Keyed by host fingerprint + mode — never by the timings — so each
    machine/mode pair keeps one slot that successive runs overwrite.  The
    artifact is ``volatile``: ``repro lab diff`` reports timing drift as a
    note, not a delta.  Returns the artifact key.
    """
    from repro.lab.store import artifact_key

    producer = {
        "kind": "perf-report",
        "quick": bool(report.get("quick")),
        "python": report.get("python"),
        "platform": report.get("platform"),
    }
    key = artifact_key(producer)
    metrics = {
        name: float(value)
        for name, value in report["headline"].items()
        if isinstance(value, (int, float))
    }
    store.put(
        key,
        {"text": render_report(report), "metrics": metrics, "data": report},
        producer=producer, type="bench", volatile=True,
    )
    return key


def load_report(path: str) -> Dict[str, Any]:
    """Load a report of the current schema, or a v2 baseline."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("schema") not in LOADABLE_SCHEMAS:
        raise ConfigurationError(
            f"{path}: unsupported bench schema {report.get('schema')!r} "
            f"(expected one of {LOADABLE_SCHEMAS!r})"
        )
    return report


def compare_reports(current: Dict[str, Any], baseline: Dict[str, Any],
                    tolerance: float = 0.25) -> List[str]:
    """Regressions of ``current`` vs ``baseline``; empty when within bounds.

    Gates on the *normalized* event throughput (dispatch rate divided by
    the host's calibration rate) so a slower CI runner does not read as a
    kernel regression; ``tolerance`` is the allowed fractional drop.  When
    both reports carry ``scale_requests_normalized`` (the ``fig5-100k``
    completed requests/s over the calibration rate, identical in quick and
    full mode), it is gated the same way.  A v2 baseline has no such
    headline, so only the dispatch rate is compared against it.
    """
    problems: List[str] = []
    base = baseline["headline"]["normalized"]
    cur = current["headline"]["normalized"]
    floor = base * (1.0 - tolerance)
    if cur < floor:
        problems.append(
            f"normalized event throughput regressed: {cur:.3f} < "
            f"{floor:.3f} (baseline {base:.3f} - {tolerance:.0%})"
        )
    base_scale = baseline["headline"].get("scale_requests_normalized")
    cur_scale = current["headline"].get("scale_requests_normalized")
    if base_scale is not None and cur_scale is not None:
        scale_floor = base_scale * (1.0 - tolerance)
        if cur_scale < scale_floor:
            problems.append(
                f"normalized fig5-100k completed requests/s regressed: "
                f"{cur_scale:.3f} < {scale_floor:.3f} "
                f"(baseline {base_scale:.3f} - {tolerance:.0%})"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - thin CLI shim
    """Entry point used by ``benchmarks/bench_kernel.py``."""
    from repro.cli import main as cli_main

    return cli_main(["perf"] + list(argv or []))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main(sys.argv[1:]))
