"""One benchmark process: import toricsing, run a job, write the results.

    python worker.py --probe     import toricsing.cli, print "ready", exit
    python worker.py JOB.json    run the job described in JOB.json

The parent (run.py) starts this in a fresh interpreter with PYTHONPATH set
to the checkout's src/. A job warms up on its own problems, then runs the
timed problems in order, one ``toricsing.cli.main`` call each, until the
time is up (or, with ``count``, until that many are done). Afterwards it
reruns a subsample to check that reports are byte-identical.
"""
from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def call(problem, report):
    """One CLI call; returns its exit code or the exception it raised."""
    import toricsing.cli
    _, command, path, args, _ = problem
    argv = [command, "--input", path, "--format", "structured",
            "--report", report] + args
    try:
        return toricsing.cli.main(argv)
    except SystemExit as exc:
        return f"SystemExit({exc.code})"
    except Exception as exc:  # the gate counts every exception as an error
        return f"{type(exc).__name__}: {exc}"


def run(job):
    for problem in job["warmup"]:
        call(problem, problem[4])
    tracer = None
    if job["trace"]:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    results = []
    start = perf_counter()
    deadline = start + job["seconds"]
    end = start
    for problem in job["timed"]:
        if job["count"] is None and end >= deadline:
            break
        if tracer is not None:
            tracer.problem = problem[0]
        t0 = perf_counter()
        code = call(problem, problem[4])
        end = perf_counter()
        results.append([problem[0], code, end - t0])
        if job["count"] is not None and len(results) >= job["count"]:
            break
    out = {"results": results, "wall_s": end - start,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write_records(job["records"])
    done = job["timed"][:len(results)]
    step = max(1, len(done) // job["recheck"]) if job["recheck"] else 0
    out["recheck"] = []
    for problem in done[::step] if step else ():
        again = problem[4] + ".again"
        call(problem, again)
        out["recheck"].append([problem[0], _same_bytes(problem[4], again)])
    return out


def _same_bytes(a, b):
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


if __name__ == "__main__":
    import toricsing.cli  # noqa: F401  (set-up time ends once it is ready)
    print("ready", flush=True)
    if sys.argv[1] != "--probe":
        with open(sys.argv[1], encoding="utf-8") as fh:
            job = json.load(fh)
        result = run(job)
        with open(job["out"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
