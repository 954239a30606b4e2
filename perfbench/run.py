"""vidcap benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload caption_stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the repository root.  Untraced (`--trace 0`) it prints the
end-to-end metrics, with its times scaled to a reference host speed that
`hostspeed.py` measures between rounds; traced (`--trace 1`) it runs the same loop untraced for
half the time, then the same number of rounds with spans around every layer,
and prints the per-layer metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Scratch inputs live under
.perfbench/work/ and are removed at exit; the run record (environment,
named metrics, checks, digests, spans) is written to .perfbench/results/.
See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
REFERENCE_SHARE = 0.05  # of each round's time, spent timing the host's reference loop
HOST_WINDOW_S = 1.0  # reference samples this close to a round say how fast the host ran it
DEADLINE_S = 150.0  # stop timed loops early rather than overrun a 180 s budget

MODULES = (
    "afs", "autodiff", "cli", "decoder", "encoder", "evaluate", "metrics",
    "model", "nn", "optim", "synth", "textproc", "training", "video",
)


def cap_blas_threads(nproc: int) -> None:
    """Must run before numpy is imported: BLAS reads these once at load."""
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 0 < current <= nproc:
            os.environ[var] = str(nproc)


def environment(nproc: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def loc_metrics() -> dict[str, float]:
    """Non-blank, non-comment source lines per vidcap module."""
    out = {}
    for module in MODULES:
        path = SRC / "vidcap" / f"{module}.py"
        lines = path.read_text().splitlines() if path.exists() else []
        out[f"loc.{module}"] = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    out["loc.total"] = sum(out.values())
    return out


class Runner:
    def __init__(self, workload, started: float):
        self.w = workload
        self.started = started
        self.attempted = 0
        self.failed = 0

    def loop(self, seconds: float | None = None, units: int | None = None, reference: list | None = None):
        """Closed loop of workload units, until `seconds` have passed and
        at least `min_units` ran, or for exactly `units` rounds.  Each
        sample gets its round's `start` and `end` times.  Given a
        `reference` list, the host's reference loop is timed into it, as
        (time, seconds) pairs, before the first round and after each round
        for REFERENCE_SHARE of the round's time."""
        import hostspeed

        def time_reference(budget: float) -> None:
            spent = 0.0
            while spent < budget or spent == 0.0:
                seconds = hostspeed.reference_s()
                reference.append((time.perf_counter() - seconds / 2.0, seconds))
                spent += seconds

        samples = []
        start = time.perf_counter()
        if reference is not None:
            time_reference(3 * hostspeed.REFERENCE_S)
        i = 0
        while time.perf_counter() - self.started < DEADLINE_S:
            if units is not None and i >= units:
                break
            if units is None and time.perf_counter() - start >= seconds and i >= self.w.min_units:
                break
            t0 = time.perf_counter()
            try:
                sample = self.w.unit(i)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.attempted += 1
                self.failed += 1
            else:
                sample["start"], sample["end"] = t0, time.perf_counter()
                self.attempted += sample["ops"]
                samples.append(sample)
            if reference is not None:
                time_reference(REFERENCE_SHARE * (time.perf_counter() - t0))
            i += 1
        return samples, (start, time.perf_counter())

    def setup_seconds(self, workdir: Path, seed: int) -> dict[str, float]:
        """Medians over fresh interpreters of the set-up time each reports,
        and of the process's whole life from spawn to exit; and that set-up
        time scaled by the reference loop, timed three times before each."""
        import hostspeed

        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        inner, reference, process = [], [], []
        for _ in range(SETUP_REPEATS):
            self.attempted += 1
            reference.extend(hostspeed.reference_s() for _ in range(3))
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "setup_probe.py"), self.w.name, str(workdir), str(seed)],
                    env=env,
                    stdout=subprocess.PIPE,
                    text=True,
                    timeout=60,
                )
            except subprocess.TimeoutExpired:  # run() has killed and reaped the probe
                self.failed += 1
                continue
            elapsed = time.perf_counter() - t0
            try:
                setup_s = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
            except (IndexError, ValueError, KeyError, TypeError):
                setup_s = None
            if proc.returncode != 0 or not isinstance(setup_s, float):
                self.failed += 1
                continue
            inner.append(setup_s)
            process.append(elapsed)
        if not inner:
            return {"inner": float("nan"), "norm": float("nan"), "process": float("nan")}
        host = statistics.median(reference)
        return {
            "inner": statistics.median(inner),
            "norm": statistics.median(inner) * hostspeed.REFERENCE_S / host,
            "process": statistics.median(process),
        }

    def checks(self, samples) -> list[tuple[str, bool, str]]:
        if not samples:
            return [("samples", False, "no unit completed")]
        try:
            checks = self.w.checks(samples)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            checks = [("checks", False, "raised")]
        self.attempted += len(checks)
        self.failed += sum(not ok for _, ok, _ in checks)
        return checks


def run_plain(runner: Runner, w, args, workdir: Path, record: dict):
    """Untraced: set-up time in fresh interpreters, then the timed loop."""
    import hostspeed

    setup = runner.setup_seconds(workdir, args.seed)
    w.setup()
    w.warm()
    reference = []
    samples, _ = runner.loop(seconds=args.seconds, reference=reference)
    named = w.summary(samples) if samples else {}
    rates = [w.work(s) / (s["end"] - s["start"]) for s in samples]
    # each round's host speed: the reference loop timed within HOST_WINDOW_S of it
    hosts = [
        statistics.median(r for t, r in reference if s["start"] - HOST_WINDOW_S <= t <= s["end"] + HOST_WINDOW_S)
        for s in samples
    ]
    scaled = [rate * host / hostspeed.REFERENCE_S for rate, host in zip(rates, hosts)]
    nan = float("nan")
    named["work_per_s"] = (statistics.median(rates) if rates else nan, "1/s")
    named["host.reference_ms"] = (1000.0 * statistics.median(r for _, r in reference), "ms")
    named["setup.inner_s"] = (setup["inner"], "s")
    named["setup.process_s"] = (setup["process"], "s")
    record["rounds"] = [
        {"start": s["start"], "end": s["end"], "work_per_s": rate, "host_s": host}
        for s, rate, host in zip(samples, rates, hosts)
    ]
    record["reference"] = reference
    metrics = {
        "setup_s": (setup["norm"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "norm_work_per_s": (statistics.median(scaled) if scaled else nan, "1/s"),
    }
    return samples, named, metrics


def run_traced(runner: Runner, w, args, tracer, results: Path, record: dict):
    """Half the time untraced, then as many rounds again with every wrapper
    installed; the two per-round times give the tracing overhead."""
    import tracing

    w.setup()
    w.warm()
    plain, (u0, u1) = runner.loop(seconds=args.seconds / 2)
    patches = tracing.Patches(tracer)
    patches.install()
    try:
        tracer.on = True
        with tracer.span("op.setup"):
            w.setup()
        tracer.on = False
        w.warm()  # set-up rebuilt the model, so its lazy caches are cold again
        tracer.on = True
        traced, window = runner.loop(units=max(len(plain), 1))
    finally:
        tracer.on = False
        patches.restore()
    layer = tracing.layer_metrics(tracer.spans, window)
    per_round_plain = (u1 - u0) / max(len(plain), 1)
    per_round_traced = (window[1] - window[0]) / max(len(traced), 1)
    layer["trace.overhead_pct"] = 100.0 * (per_round_traced / per_round_plain - 1.0)
    layer.update(loc_metrics())
    record["absent_targets"] = patches.absent
    spans_path = results / f"{w.name}-seed{args.seed}-spans.jsonl"
    with spans_path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    record["spans"] = str(spans_path.relative_to(ROOT))
    metrics = {name: (value, tracing.unit_of(name)) for name, value in layer.items()}
    return plain + traced, {}, metrics


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    worst = 0
    for name in ("train_desk", "caption_stream", "evaluate_corpus"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all' for each in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "vidcap" / "__init__.py").is_file():
        print(f"error: vidcap sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    sys.path.insert(0, str(SRC))

    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(nproc)
    tracer = tracing.Tracer()
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](workdir, args.seed, tracer)
    runner = Runner(w, started)
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "env": env}
    try:
        w.prepare()
        if args.trace:
            samples, named, metrics = run_traced(runner, w, args, tracer, results, record)
        else:
            samples, named, metrics = run_plain(runner, w, args, workdir, record)
        checks = runner.checks(samples)
        digests = w.digest(samples) if samples else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = runner.failed == 0
    named["failed_ratio"] = (runner.failed / max(runner.attempted, 1), "ratio")
    print(f"# vidcap benchmark workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, ok, detail in checks:
        print(f"check {name} {'ok' if ok else 'FAILED'} ({detail})")
    for name, value in digests.items():
        print(f"digest {name} {value}")
    if record.get("absent_targets"):
        print("absent " + " ".join(record["absent_targets"]))
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"metric {name} {value:.6g} {unit}")

    def as_json(table):
        return {k: {"value": v, "unit": u} for k, (v, u) in table.items()}

    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed, "metrics": as_json(metrics)}
    record.update(
        checks=[{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        digests=digests,
        named=as_json(named),
        **result,
    )
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
