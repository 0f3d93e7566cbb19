"""gwlab benchmark: closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  One run measures one workload in this process, single-threaded
(``jobs=1``):

* ``--trace 0``: passes over the workload while the next one should end
  within ``--seconds`` (at least one).  Reports ``wall_s`` (median pass
  time), ``setup_s`` (median over three fresh interpreters, this one
  included, of importing ``gwlab.cli`` and building the inputs) and
  ``peak_rss_mb`` (``ru_maxrss`` of this process).
* ``--trace 1``: one pass with every gwlab layer wrapped from outside (see
  ``layers.py``).  Reports the per-layer metrics, among them the traced
  pass time ``trace.wall_s``, and fails the run if a predicted zero or
  non-zero cell does not hold.  The tracing overhead is ``trace.wall_s``
  minus the untraced ``wall_s`` of the same seed; ``--workload all --trace
  1`` runs both and prints it.

``wall_s``, ``setup_s``, ``trace.wall_s`` and ``cli.import_s`` are wall
times scaled to the host's nominal pace, which is sampled while they are
timed (see ``pace.py``); the raw wall times are in the record and printed
as comments.  Per-layer self times are raw and include the pace probes
that interrupted them, about 2.5% of the pass.

Every operation's output is checked after its pass, outside the timing.
An operation fails if it raises or its output fails the check; failures are
counted by exception type and the run goes on.  Only the exceptions a
workload declares in ``may_fail`` leave the run correct.  ``wall_s``
includes the time of failing operations; the record and the output also
give that time on its own.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record (machine, seed, pass and operation times, failures) and the
trace spans go to ``.perfbench_out/`` in the checkout.  ``--workload all``
runs every workload in its own process and prints a summary table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import pace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Set-up is timed in this process and in this many fresh interpreters more.
SETUP_PROBES = 2
# A run that fails fast makes many passes; keep only the first messages.
MAX_MESSAGES = 40


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _machine() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": cpu or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def timed_setup(name: str, seed: int) -> tuple[dict, object, dict]:
    """Import ``gwlab.cli`` and build a workload's inputs, timing both.

    Called first thing in a fresh interpreter, so the import is cold; the
    clock excludes interpreter start-up and this module's own imports.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    with pace.Paced() as imported:
        import gwlab.cli  # noqa: F401  (the import every ``gw`` call pays)
    import gwlab

    with pace.Paced() as built:
        inputs = workloads.WORKLOADS[name].inputs(gwlab, seed)
    sample = {
        "import_s": imported.seconds,
        "setup_s": imported.seconds + built.seconds,
        "raw_setup_s": imported.raw_s + built.raw_s,
        "pace_s": imported.pace_s,
    }
    return sample, gwlab, inputs


def _probe_setups(name: str, seed: int) -> list[dict]:
    """Set-up times from fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Outcomes:
    """Attempted and failed operations, failures by exception type."""

    def __init__(self) -> None:
        self.attempted = 0
        self.by_type: Counter[str] = Counter()
        self.messages: list[str] = []
        self.correct = True

    @property
    def failed(self) -> int:
        return sum(self.by_type.values())

    def note(self, message: str) -> None:
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(message)

    def record(self, gw, wl, inputs, seed: int, results) -> None:
        for label, out, exc, _ in results:
            self.attempted += 1
            if exc is not None:
                kind = type(exc).__name__
                self.by_type[kind] += 1
                self.note(f"{label}: {kind}: {exc}")
                if kind not in wl.may_fail.get(label, ()):
                    self.correct = False
                    self.note("".join(traceback.format_exception(exc)))
                continue
            try:
                wl.check(gw, inputs, label, out, seed)
            except workloads.CheckFailed as err:
                self.by_type["CheckFailed"] += 1
                self.note(f"{label}: wrong output: {err}")
                self.correct = False
            except Exception as err:  # a malformed output breaks the check itself
                self.by_type["CheckFailed"] += 1
                self.note(f"{label}: unreadable output: {err!r}")
                self.correct = False


def _run_pass(operations) -> tuple[pace.Paced, list]:
    """Runs every operation once; each result is (label, output, exception,
    raw seconds)."""
    results = []
    with pace.Paced() as timed:
        for label, op in operations:
            t0 = time.perf_counter()
            try:
                out, exc = op(), None
            except Exception as err:  # recorded by type; the pass goes on
                out, exc = None, err
            results.append((label, out, exc, time.perf_counter() - t0))
    return timed, results


def _failing_s(results) -> float:
    return sum(seconds for _, _, exc, seconds in results if exc is not None)


def _self_test(
    wl: workloads.Workload, layers: dict, absent: set[str], top_self: float, wall: float
) -> list[str]:
    problems = []
    for metric in wl.busy:
        if metric.rsplit(".", 1)[0] not in absent and layers[metric] == 0:
            problems.append(f"self-test: {metric} is 0, expected calls")
    for metric in wl.idle:
        if layers[metric] != 0:
            problems.append(f"self-test: {metric} is {layers[metric]}, expected 0")
    if layers["cli.import_s"] <= 0:
        problems.append("self-test: cli.import_s not measured")
    if top_self > wall:
        problems.append(f"self-test: top-level self time {top_self} exceeds wall {wall}")
    return problems


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "gwlab" / "__init__.py").is_file():
        print(f"error: no gwlab sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    first, gwlab, inputs = timed_setup(args.workload, args.seed)
    if not Path(gwlab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: gwlab imported from {gwlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    machine = _machine()
    setups = [first] + _probe_setups(wl.name, args.seed)
    operations = wl.operations(gwlab, inputs)
    outcomes = Outcomes()
    OUT_DIR.mkdir(exist_ok=True)
    record: dict = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "setup": setups,
    }

    if args.trace == 0:
        passes, raw, paces, failing = [], [], [], []
        operation_s: dict[str, list[float]] = {}
        start = time.perf_counter()
        # Start another pass only if it should end within --seconds.
        while not passes or time.perf_counter() - start + raw[-1] <= args.seconds:
            timed, results = _run_pass(operations)
            passes.append(timed.seconds)
            raw.append(timed.raw_s)
            paces.append(timed.pace_s)
            failing.append(_failing_s(results))
            for label, _, _, seconds in results:
                operation_s.setdefault(label, []).append(seconds)
            outcomes.record(gwlab, wl, inputs, args.seed, results)
            del results
        values = {
            "wall_s": statistics.median(passes),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]
        }
        record["passes_s"] = passes
        record["raw_passes_s"] = raw
        record["paces_s"] = paces
        record["failing_s"] = failing
        record["operation_s"] = operation_s
    else:
        from layers import SPAN_FIELDS, Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
        traced, results = _run_pass(operations)
        tracer.active = False
        outcomes.record(gwlab, wl, inputs, args.seed, results)
        del results
        layers = tracer.summarize()
        layers["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        layers["trace.wall_s"] = traced.seconds
        absent = tracer.absent_layers()
        problems = _self_test(wl, layers, absent, tracer.top_level_self_s(), traced.raw_s)
        if problems:
            outcomes.correct = False
            outcomes.messages[:0] = problems
        metrics = {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]
        }
        record["absent"] = sorted(tracer.absent)
        (OUT_DIR / f"{wl.name}-seed{args.seed}-spans.json").write_text(
            json.dumps({"fields": list(SPAN_FIELDS), "spans": tracer.spans})
        )
        for item in sorted(tracer.absent):
            print(f"# absent layer: {item}")

    failed_frac = outcomes.failed / outcomes.attempted
    result = {
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }
    record.update(
        result,
        failed_frac=failed_frac,
        failures=dict(outcomes.by_type),
        messages=outcomes.messages,
    )
    (OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"# machine: {json.dumps(machine)}")
    print(f"# workload {wl.name}, seed {args.seed}: {wl.why}")
    for msg in outcomes.messages:
        for line in msg.splitlines():
            print(f"# {line}")
    print(
        f"# failed_frac {failed_frac:.6g} ({outcomes.failed}/{outcomes.attempted}) "
        f"by type {dict(outcomes.by_type)}; correct {outcomes.correct}"
    )
    print("# raw set-ups: " + " ".join(f"{s['raw_setup_s']:.4f}" for s in setups))
    if args.trace == 0:
        print(f"# raw passes {len(passes)}: " + " ".join(f"{p:.4f}" for p in raw[:20]))
        if any(failing):
            print("# of which failing operations: " + " ".join(f"{f:.4f}" for f in failing[:20]))
    print(json.dumps(result))
    return 0


def _child(name: str, args: argparse.Namespace, trace: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"{name:<20} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process: one summary row each, and with
    ``--trace 1`` a traced run after it, its layers and its overhead."""
    print(
        f"{'workload':<20} {'wall_s':>10} {'setup_s':>9} {'peak_rss_mb':>12} "
        f"{'failed_frac':>12}  correct"
    )
    ok = True
    for name in workloads.WORKLOADS:
        res = _child(name, args, 0)
        if res is None:
            ok = False
            continue
        m = {k: v["value"] for k, v in res["metrics"].items()}
        print(
            f"{name:<20} {m['wall_s']:>8.3f} s {m['setup_s']:>7.3f} s "
            f"{m['peak_rss_mb']:>9.1f} MB {res['failed'] / res['attempted']:>12.4g}  "
            f"{res['correct']}"
        )
        ok = ok and res["correct"]
        if not args.trace:
            continue
        traced = _child(name, args, 1)
        if traced is None:
            ok = False
            continue
        ok = ok and traced["correct"]
        layers = traced["metrics"]
        overhead = layers["trace.wall_s"]["value"] - m["wall_s"]
        print(f"    traced run correct {traced['correct']}, overhead {overhead:+.3f} s")
        for metric, v in layers.items():
            print(f"    {metric:<40} {v['value']:>14.6g} {v['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
