"""Benchmark of the toricsing CLI: seeded corpora, end-to-end metrics, and a
traced run that times each module from outside.

    python3 bench/run.py --workload small_verdicts --seed 3 --seconds 25 \\
        --trace 0

Run from the root of a checkout. The load is a closed loop with one client:
one process and one thread, each problem one call of
``toricsing.cli.main([..., "--format", "structured", "--report", FILE])``,
timed around that call. Each run starts a fresh interpreter, warms up on
problems drawn from ``--seed`` outside the corpus, and then visits the
corpus once, round after round, the problems of each round in an order
drawn from ``--seed``, until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
problems traced (see tracer.py), then untraced, and prints the per-layer
metrics with the difference of the two loop times as the tracing overhead.
Every run passes the outputs through the gate (gate.py) and prints, as its
last line, one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
import gate  # noqa: E402
from tracer import layer_metrics  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WARMUP_PROBLEMS = 12
SETUP_PROBES = 11
RECHECKS = 10
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "problems_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_expected(workload, corpus_seed):
    path = os.path.join(BENCH_DIR, "expected", f"{workload}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            recorded = json.load(fh)["corpora"][str(corpus_seed)]
    except (OSError, KeyError, ValueError) as exc:
        fail(f"no expected outcomes for {workload} at corpus seed "
             f"{corpus_seed}: {exc}")
    return recorded


def plan(rounds, seed):
    """The timed visits (round, slot): the rounds in corpus order, the
    slots of each round in an order drawn from the seed. Every run thus
    times the same leading rounds, whatever its seed."""
    rng = random.Random(seed)
    visits = []
    for r, rnd in enumerate(rounds):
        slots = list(range(len(rnd)))
        rng.shuffle(slots)
        visits += [(r, k) for k in slots]
    return visits


class Session:
    """The files and processes of one benchmark run inside the checkout."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.work = os.path.join(root, ".bench_work",
                                 f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.worker = os.path.join(BENCH_DIR, "worker.py")
        self.jobs = 0

    def problem_file(self, pid, entry):
        path = os.path.join(self.work, f"p{pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry["problem"], fh)
        return [pid, entry["command"], path, entry["args"],
                os.path.join(self.work, f"r{pid}.json")]

    def setup_s(self):
        """Fresh interpreter until toricsing.cli is imported and ready:
        the median of several probes, after one that warms the file cache."""
        times = []
        for _ in range(SETUP_PROBES + 1):
            t0 = perf_counter()
            with subprocess.Popen(
                    [sys.executable, self.worker, "--probe"], env=self.env,
                    stdout=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                t1 = perf_counter()
                proc.wait(timeout=60)
            if line.strip() != "ready":
                fail("the set-up probe could not import toricsing.cli")
            times.append(t1 - t0)
        return statistics.median(times[1:])

    def run_job(self, **job):
        self.jobs += 1
        job["out"] = os.path.join(self.work, f"out{self.jobs}.json")
        job["records"] = os.path.join(self.root, ".bench_out",
                                      os.path.basename(self.work) + ".spans")
        path = os.path.join(self.work, f"job{self.jobs}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        with subprocess.Popen([sys.executable, self.worker, path],
                              env=self.env, stdout=subprocess.DEVNULL) as proc:
            try:
                code = proc.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                fail("the worker did not finish in time")
        if code != 0:
            fail(f"the worker exited with code {code}")
        with open(job["out"], encoding="utf-8") as fh:
            return json.load(fh)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


def check(results, problems, expected, recheck):
    """Run the gate over every timed problem; returns (errors, verdicts)."""
    by_id = {p[0]: p for p in problems}
    mismatched = {pid for pid, same in recheck if not same}
    answer = expected.get("answer")
    errors, verdicts = {}, Counter()
    for pid, code, _ in results:
        r, k = map(int, pid.split("."))
        report = None
        try:
            with open(by_id[pid][4], encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            pass
        found = gate.problem_errors(
            code, expected["exit"][r][k], report,
            answer[r][k] if answer else None)
        if pid in mismatched:
            found.append("report not byte-identical on rerun")
        if found:
            errors[pid] = found
        for v in gate.iter_verdicts(report or {}):
            verdicts["method." + v["method"]] += 1
            verdicts[v["status"]] += 1
    return errors, verdicts


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int,
                    default=corpus.DEFAULT_CORPUS_SEED,
                    help=f"corpus to draw from: {corpus.DEFAULT_CORPUS_SEED}"
                         f" (default) or {corpus.HELD_OUT_CORPUS_SEED} "
                         "(held out for later claims)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "toricsing", "cli.py")):
        fail("run from the root of a checkout: src/toricsing is missing")
    expected = load_expected(args.workload, args.corpus_seed)
    rounds = corpus.corpus(args.workload, args.corpus_seed)
    if corpus.digest(rounds) != expected["digest"]:
        fail("the corpus generator no longer matches the expected outcomes")

    session = Session(root, args.workload, args.seed)
    if args.trace:
        os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    try:
        warmup = [session.problem_file(f"w{i}", entry) for i, entry in
                  enumerate(corpus.warmup(args.workload, args.seed, rounds,
                                          WARMUP_PROBLEMS))]
        timed = [session.problem_file(f"{r}.{k}", rounds[r][k])
                 for r, k in plan(rounds, args.seed)]
        job = dict(warmup=warmup, timed=timed, seconds=args.seconds,
                   trace=bool(args.trace), count=None, recheck=RECHECKS)
        out = session.run_job(**job)
        results = out["results"]
        if not results:
            fail("no problem completed")
        errors, verdicts = check(results, timed, expected, out["recheck"])
        if args.trace:
            job.update(trace=False, count=len(results), recheck=0)
            plain = session.run_job(**job)
            overhead = out["wall_s"] - plain["wall_s"]
            metrics = layer_metrics(out["trace"], verdicts, overhead)
            units = {k: "s" if k.endswith(("_s", ".self_s")) else
                     "ratio" if k.endswith("_ratio") else "count"
                     for k in metrics}
        else:
            metrics = end_to_end(results, out, rounds, session.setup_s())
            units = END_TO_END_UNITS
    finally:
        session.close()

    attempted = len(results)
    print(f"workload {args.workload}, seed {args.seed}, corpus seed "
          f"{args.corpus_seed}, {attempted} problems in "
          f"{out['wall_s']:.2f} s, trace {args.trace}")
    if attempted == len(timed):
        print("  the corpus ran out before the time did")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(f"  gate: {len(errors)} of {attempted} problems with errors "
          f"(error_ratio {len(errors) / attempted:.4f})")
    for pid, found in sorted(errors.items())[:10]:
        print(f"    problem {pid}: {'; '.join(found)}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


def complete_rounds(results, rounds):
    """The call times of the rounds the run completed, so that the last,
    partial round does not tilt the mix of classes."""
    times = defaultdict(list)
    for pid, _, t in results:
        times[int(pid.split(".")[0])].append(t)
    return [t for r, ts in times.items() if len(ts) == len(rounds[r])
            for t in ts]


def end_to_end(results, out, rounds, setup_s):
    counted = complete_rounds(results, rounds) or [t for *_, t in results]
    lat_ms = [t * 1000 for t in counted]
    decided = sum(1 for _, code, _ in results if code in gate.DECIDED)
    return {
        "setup_s": setup_s,
        "problems_per_s": len(counted) / sum(counted),
        "latency_ms.p50": statistics.median(lat_ms),
        "latency_ms.p90": statistics.quantiles(lat_ms, n=10)[-1],
        "decided_ratio": decided / len(results),
        "peak_rss_mb": out["rss_mb"],
    }


if __name__ == "__main__":
    main()
