"""Benchmark for opensos: two workloads, timed end to end or traced per module.

    python3 perfbench/run.py --workload open-games --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --short          # a checked slice of every workload

A run first screens the seed's random draws with the oracle, untimed.  It
then runs whole rounds of the workload's questions until --seconds have
passed: the first round warms up and is checked against the oracle, the
later ones are timed, must repeat its answers, and have a reference
computation timed between their questions (speed.py), by which each
question's time is corrected for the shared machine's speed at that moment.
Last it measures set-up (import, parsing, building the kept inputs) in
several fresh interpreters and keeps the median.  The last line of standard
output is one JSON object: `correct`, `attempted` and `failed` (the
questions of one round and those of them that failed) and `metrics`, the
end-to-end metrics with --trace 0 and the per-layer ones with --trace 1.
See README.md for the workloads and the metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TESTS = HERE.parent / "tests"  # gen.py: the acceptance suites' generators
OUT = HERE / "out"
WORKLOADS = ("open-games", "ci-advise")
SETUP_SAMPLES = 15


def load():
    """Import opensos and the workloads; returns the workloads module."""
    for need in (SRC / "opensos" / "__init__.py", TESTS / "gen.py"):
        if not need.is_file():
            raise SystemExit("perfbench: %s is missing" % need)
    sys.path[:0] = [str(SRC), str(TESTS)]
    import opensos  # noqa: F401  (the import is part of set-up)
    import workloads
    return workloads


def setup_probe(args) -> None:
    """Print the set-up time of one fresh interpreter: import and inputs.
    The indices of the kept random draws come on standard input."""
    keep = json.loads(sys.stdin.read())
    start = time.perf_counter()
    wl = load()
    _, make_inputs, _ = wl.RUNNERS[args.workload]
    make_inputs(args.seed, wl.SHORT if args.slice else wl.FULL, keep)
    print(time.perf_counter() - start)


def measure_setup(args, keep: list[int]) -> float:
    """The median set-up time of SETUP_SAMPLES fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.slice:
        cmd.append("--slice")
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, input=json.dumps(keep), capture_output=True,
                              text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit("perfbench: set-up probe failed:\n" + done.stderr)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q * 100) - 1]


def run_workload(args) -> int:
    wl = load()
    screen, make_inputs, ask_all = wl.RUNNERS[args.workload]
    scale = wl.SHORT if args.slice else wl.FULL
    keep = screen(args.seed, scale)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install()

    def one_round(speed):
        # what the benchmark keeps between rounds is moved out of the
        # collector's sight, so that later rounds do not pay for scanning it
        gc.collect()
        gc.freeze()
        rnd = wl.Round(speed=speed)
        ask_all(rnd, make_inputs(args.seed, scale, keep), scale)
        return rnd

    begin = time.perf_counter()
    # The first round warms up and is the one checked in full; it is not
    # timed.  The peak RSS is taken after it, before the speed table exists.
    first = one_round(None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    from speed import Speed  # needs opensos, which load() put on the path
    speed = Speed()
    rounds = []
    while not rounds or time.perf_counter() - begin < args.seconds:
        rnd = one_round(speed)
        for rec in rnd.records:
            rec.check = None  # only the first round is checked in full
        rounds.append(rnd)
        if args.slice:
            break
    if tracer is not None:
        tracer.enabled = False
    setup_s = measure_setup(args, keep)

    problems = []

    def answers(rnd):
        return [(r.name, r.outcome, r.failed) for r in rnd.records]

    for i, rnd in enumerate(rounds, 2):
        if answers(rnd) != answers(first):
            problems.append("round %d answered differently from round 1" % i)
    for rec in first.records:
        if rec.check is not None:
            problems += rec.check()
        if rec.outcome.startswith("error"):
            print("perfbench: %s: %s" % (rec.name, rec.outcome), file=sys.stderr)
    for p in problems:
        print("perfbench: CHECK FAILED: %s" % p, file=sys.stderr)

    def seconds(rec) -> float:
        return speed.correct(rec.seconds, rec.start)

    walls = [sum(seconds(r) for r in rnd.records) for rnd in rounds]

    def per_round(fn) -> float:
        # every round asks the same questions, so the median over rounds
        # filters out bursts of load on the machine
        return statistics.median(fn(rnd.records) for rnd in rounds)

    def latency(q):
        return lambda recs: quantile([seconds(r) * 1e3 for r in recs], q)

    def subst_rates(recs) -> list[float]:
        # one rate per part of a round: the ci sweeps of a round are spread
        # over its parts, and the median over every part of every round
        # rests on more samples than one per round
        parts: dict = {}
        for r in recs:
            if r.sweep:
                parts.setdefault(r.part, []).append(r)
        return [sum(r.substitutions for r in p) / sum(seconds(r) for r in p)
                for p in parts.values()]

    rates = [x for rnd in rounds for x in subst_rates(rnd.records)]
    wall_s = statistics.median(walls)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "checks_per_s": (len(first.records) / wall_s, "1/s"),
        "decided": (sum(r.decided for r in first.records), "count"),
        "subst_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # Latency percentiles vary too much between runs here to be bounded
    # (see README.md), so they go to the raw output only.
    latency_ms = {"p50": per_round(latency(0.5)), "p90": per_round(latency(0.9))}
    if tracer is not None:
        import tracing
        metrics = tracing.per_layer(tracer, len(rounds) + 1)
        print("perfbench: traced wall_s %.4f" % wall_s, file=sys.stderr)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    # every round asks the same questions and gives the same answers, so one
    # round's counts stand for the run, however many rounds fitted in it
    result = {
        "correct": not problems,
        "attempted": len(first.records),
        "failed": sum(r.failed for r in first.records),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    raw = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "timed_rounds": len(rounds), "round_walls_s": walls,
           "round_walls_measured_s": [sum(r.seconds for r in rnd.records)
                                      for rnd in rounds],
           "speed_slowness": statistics.median(speed.slowness),
           "draws_kept": len(keep),
           "draws_screened_out": max(keep, default=-1) + 1 - len(keep),
           "problems": problems, "result": result,
           "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
           "latency_ms": latency_ms,
           "questions": [{"name": r.name, "ms": r.seconds * 1e3,
                          "outcome": r.outcome, "failed": r.failed}
                         for r in first.records]}
    if tracer is not None:
        raw["trace"] = tracing.dump(tracer)
    name = "%s-seed%d-trace%d%s.json" % (args.workload, args.seed, args.trace,
                                         "-slice" if args.slice else "")
    (OUT / name).write_text(json.dumps(raw, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_short(args) -> int:
    """A checked slice of every workload, each in a fresh interpreter."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--slice",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", "0", "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("%s: %s" % (workload, lines[-1] if lines else "(no result)"))
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="run a checked slice of every workload")
    ap.add_argument("--slice", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.short:
        return run_short(args)
    if args.workload is None:
        ap.error("--workload is required unless --short is given")
    if args.setup_probe:
        setup_probe(args)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
