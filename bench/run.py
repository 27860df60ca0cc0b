#!/usr/bin/env python3
"""anglestruct benchmark: one closed-loop client over a seeded corpus.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload lp-decide --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

One process, one client, no threads: each request goes through
``anglestruct.cli.main(argv)`` on an instance file, with stdout captured;
L7 requests, which have no CLI entry, call ``feasibility.check_closure``
on the loaded instance.  The client sends the next request when the
previous one returns, pass after pass over the corpus in order, until
``--seconds`` have passed and the first pass is complete.

A shared host runs the same code at different speeds from one moment
to the next (a fixed 3 ms computation spread +-40 % between calls on a
2-core VM, in stretches from milliseconds to seconds) and drifts for
minutes (the same code and seeds ran at 6.3 and at 3.2 requests/s half
an hour apart), so no run length averages the host out of wall-clock
times.  While the client sends, a wall-clock timer signal therefore runs
``reference_work``, a fixed exact-rational computation of about 0.3 ms,
every SAMPLE_EVERY_S, inside whatever code is running, and records how
long it took.  A send's time excludes the samples taken during it, and
is scaled to a host on which one reference unit takes REFERENCE_UNIT_MS:
send time * REFERENCE_UNIT_MS / mean unit time of the samples taken
during the send, or of the MIN_SAMPLES samples nearest to it when the
send was too short for that many.  The samples see the host as the send
saw it: on a 2-core VM they left 5 % of a send's variation between
passes where reference blocks right before and after each send left
8 %.  A faster program still reads faster, since the reference work
does not change with it.
A request's latency is the median of its scaled sends;
``latency_p50_ms`` and ``latency_p90_ms`` are quantiles of those over
the corpus, and ``requests_per_s`` is the corpus size over their sum,
the rate of a closed loop that ran every request at that speed.
``latency_p90_ms`` is the 90th percentile, or the highest percentile
with at least ten requests beyond it when the corpus is smaller than 100.
Both quantiles are Harrell-Davis estimates, a weighted mean of all
latencies with the weight around the quantile's rank: a single order
statistic jumps with the seed where the latencies have a gap (the rank
40 of 50 on lp-construct fell at 296 ms on one seed and 391 ms on
another, between the cluster of mid-sized requests and the ten largest).
The wall-clock figures are printed next to the scaled ones.

Set-up runs ``bench/corpus.py`` in a fresh interpreter that imports
``anglestruct.cli`` and writes the corpus, several times per run (before
the first pass, then every few seconds between sends); each set-up is
scaled by blocks of reference work timed just before and just after it
(the timer is off meanwhile, so that no sample runs next to the child),
and ``setup_s`` is the median.
``peak_rss_mb`` is the client process's maximum resident set size.

Every output is checked against the answer the corpus knows by
construction (checks.py); a later send must print the same bytes as the
first.  A send fails when it raises, exits with the wrong code or prints
a wrong or changed output.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` each request is sent untraced and then traced (spans.py)
and the per-layer metrics are reported; spans go to ``.bench_out/``.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The program exits 2 without a result
when the package sources are missing.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

FIRST_PASS_CAP = 1.2
SETUP_BEFORE = 3
SETUP_TOTAL = 15
SETUP_EVERY_S = 1.5
WARMUP_S = 1.0
SAMPLE_EVERY_S = 0.005
MIN_SAMPLES = 8
REFERENCE_UNIT_MS = 0.25
SETUP_REFERENCE_S = 0.05

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Terminated(BaseException):
    """Raised on SIGTERM; not an Exception, so a send does not swallow it."""


def reference_work() -> Fraction:
    """One reference unit: fixed work shaped like the package's hot loops,
    exact-rational sums and products, list indexing and dict stores
    (about 0.3 ms, a small share of the sampling interval)."""
    xs = [Fraction(i, 120) for i in range(1, 60)]
    acc = Fraction(0)
    seen = {}
    for i, x in enumerate(xs):
        acc += x * xs[(i * 7) % len(xs)]
        seen[i] = acc
    return acc


class HostSpeed:
    """Reference samples on a timer signal during the sends, reference
    blocks around set-ups, and the scale they give."""

    def __init__(self):
        self.stamps: list[float] = []  # start of every timer sample
        self.units: list[float] = []  # its duration
        self.spent = 0.0  # total time in timer samples

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.stamps.append(start)
        self.units.append(end - start)
        self.spent += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    @contextlib.contextmanager
    def paused(self):
        running = signal.getitimer(signal.ITIMER_REAL)[0] > 0
        self.stop()
        try:
            yield
        finally:
            if running:
                self.start()

    def scale(self, seconds: float, start: float, end: float) -> float:
        """`seconds`, measured between `start` and `end`, scaled by the
        samples taken then, widened to the MIN_SAMPLES nearest."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < min(MIN_SAMPLES, len(self.stamps)):
            if lo > 0 and (hi == len(self.stamps) or start - self.stamps[lo - 1] < self.stamps[hi] - end):
                lo -= 1
            else:
                hi += 1
        return seconds * REFERENCE_UNIT_MS / 1e3 / statistics.fmean(self.units[lo:hi])

    @staticmethod
    def block(seconds: float) -> float:
        """Mean time of whole reference units run until `seconds` passed."""
        total, count = 0.0, 0
        while count == 0 or total < seconds:
            start = time.perf_counter()
            reference_work()
            total += time.perf_counter() - start
            count += 1
        return total / count


class Setup:
    """Fresh-interpreter set-ups of one workload and seed."""

    def __init__(self, workload: str, seed: int, work: Path, host: HostSpeed):
        self.argv = [sys.executable, str(BENCH / "corpus.py"), "--workload", workload, "--seed", str(seed)]
        self.work = work
        self.host = host
        self.times: list[float] = []  # wall clock
        self.scaled: list[float] = []
        self.corpus_hash: str | None = None
        self.last = 0.0

    def sample(self) -> None:
        out = self.work if not self.times else self.work / "again"
        with self.host.paused():
            before = self.host.block(SETUP_REFERENCE_S)
            proc = subprocess.run([*self.argv, "--out", str(out)], cwd=ROOT,
                                  capture_output=True, text=True, timeout=120)
            after = self.host.block(SETUP_REFERENCE_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if self.corpus_hash not in (None, result["corpus_sha256"]):
            raise RuntimeError("set-up wrote different corpora for one seed")
        self.corpus_hash = result["corpus_sha256"]
        self.times.append(result["setup_s"])
        self.scaled.append(result["setup_s"] * REFERENCE_UNIT_MS / 1e3 / ((before + after) / 2))
        self.last = time.perf_counter()

    def sample_now_and_then(self) -> None:
        """One more sample when SETUP_EVERY_S passed since the last one, so
        the samples spread over the run instead of one stretch of host speed."""
        if len(self.times) < SETUP_TOTAL and time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.sample()


class Sends:
    """Fastest latency, send count and every send's (latency, start, end)
    per request, and the changed sends."""

    def __init__(self):
        self.best: dict[int, float] = {}
        self.counts: dict[int, int] = {}
        self.timed: dict[int, list[tuple[float, float, float]]] = {}
        self.changed: list[int] = []

    def add(self, index: int, latency: float, start: float, end: float, changed: bool) -> None:
        self.best[index] = min(latency, self.best.get(index, latency))
        self.counts[index] = self.counts.get(index, 0) + 1
        self.timed.setdefault(index, []).append((latency, start, end))
        if changed:
            self.changed.append(index)

    @property
    def count(self) -> int:
        return sum(self.counts.values())


class Client:
    """Sends requests one at a time and keeps what each first printed."""

    def __init__(self, work: Path, manifest):
        from anglestruct import cli, feasibility, serialize

        self.cli, self.feasibility, self.serialize = cli, feasibility, serialize
        self.manifest = manifest
        self.paths = [str(work / req["file"]) for req in manifest]
        self.argvs = [[a.replace("{path}", p) for a in req["argv"]] for req, p in zip(manifest, self.paths)]
        self.first: dict[int, tuple] = {}

    def _closure(self, path: str) -> int:
        t, invariant, _, _ = self.serialize.load_instance(path)
        report = self.feasibility.check_closure(t, invariant)
        print(self.serialize.dumps(self.serialize.report_to_json(report)))
        return 1 if report.verdict.value == "infeasible" else 0

    def send(self, i: int, host: HostSpeed | None = None):
        """(exit code or exception text, stdout, seconds, start, end) for
        request i; the seconds exclude the host samples taken meanwhile."""
        buf = io.StringIO()
        spent = host.spent if host is not None else 0.0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if self.manifest[i]["op"] == "closure":
                    code = self._closure(self.paths[i])
                else:
                    code = self.cli.main(self.argvs[i])
        except Exception:  # a traceback out of the program is a failed send
            code = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        end = time.perf_counter()
        if host is not None:
            spent = host.spent - spent
        return code, buf.getvalue(), end - start - spent, start, end

    def send_pass(self, sends: Sends, host: HostSpeed, deadline: float | None = None, between=None) -> bool:
        """Send every request once, in order; False if stopped at
        `deadline`.  ``between`` runs after each send, untimed.
        """
        for index in range(len(self.manifest)):
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            self.send_one(index, sends, host=host)
            if between is not None:
                between()
        return True

    def send_one(self, index: int, sends: Sends, tracer=None, host: HostSpeed | None = None) -> None:
        """One send.  The first output of a request is kept; a later send
        only records whether it printed the same, so memory does not grow
        with the number of sends."""
        if tracer is not None:
            tracer.begin(index)
        code, out, latency, start, end = self.send(index, host)
        if tracer is not None:
            tracer.end()
        changed = self.first.setdefault(index, (code, out)) != (code, out)
        sends.add(index, latency, start, end, changed)


def harrell_davis(values, q: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the q-quantile of a non-empty list: the
    mean of the order statistics weighted by the Beta(q(n+1), (1-q)(n+1))
    mass of ((i-1)/n, i/n], integrated by the midpoint rule."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):
        mids = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm) for t in mids))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail_quantile(n: int) -> float:
    """0.9, or the highest quantile with at least ten samples beyond it."""
    return max(0.5, min(0.9, 1 - 10 / n))


def failed_sends(client: Client, texts, errors: dict, sends: Sends):
    """(index, error) for every failed send.

    The first output of each request is checked once (results kept in
    ``errors``); every send of a request whose first output is wrong
    fails, and so does every send that printed something else.
    """
    failures = [(index, "output differs from the first send") for index in sends.changed]
    for index, count in sends.counts.items():
        if index not in errors:
            code, out = client.first[index]
            errors[index] = checks.check(client.manifest[index], texts[index], code, out)
        if errors[index] is not None:
            unchanged = count - sends.changed.count(index)
            failures += [(index, errors[index])] * unchanged
    return failures


def output_digest(first) -> str:
    """sha256 over every sent request's exit code and stdout, in corpus
    order (a pass cut short on a slow host leaves the rest out)."""
    digest = hashlib.sha256()
    for i in sorted(first):
        code, out = first[i]
        digest.update(f"{i}\t{code}\n".encode())
        digest.update(out.encode())
    return digest.hexdigest()


def probe_known_defects(client: Client, work: Path) -> int:
    """Run the known-defect inputs once; return how many still raise."""
    raised = 0
    for n, (error_type, obj, tail, cap_env) in enumerate(corpus.defect_cases()):
        path = work / f"defect-{n}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        saved = os.environ.get("ANGLESTRUCT_CAP")
        if cap_env is not None:
            os.environ["ANGLESTRUCT_CAP"] = cap_env
        try:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = client.cli.main(["check", str(path), *tail])
            ok = code == 2 and "error" in json.loads(buf.getvalue())
        except Exception as exc:  # the defect under observation
            ok = False
            print(f"  known defect: {error_type} input raised {type(exc).__name__}: {exc}")
        finally:
            if saved is None:
                os.environ.pop("ANGLESTRUCT_CAP", None)
            else:
                os.environ["ANGLESTRUCT_CAP"] = saved
        raised += not ok
    return raised


def timed_passes(client: Client, setup: Setup, host: HostSpeed, seconds: float) -> Sends:
    """Untraced passes until `seconds` passed.  The first pass is sent
    whole unless a slow host takes it past FIRST_PASS_CAP * `seconds`
    (every block of a corpus holds its whole mix, so a cut pass has still
    sent nearly that mix).

    The host samples run throughout; set-up samples run between sends,
    outside every send's time.
    """
    sends = Sends()
    host.start()
    try:
        start = time.perf_counter()
        limit = FIRST_PASS_CAP * seconds
        while client.send_pass(sends, host, start + limit, between=setup.sample_now_and_then):
            limit = seconds
    finally:
        host.stop()
    return sends


def traced_passes(client: Client, tracer, seconds: float):
    """Whole passes in which each request is sent untraced, then traced,
    while another pass still fits in `seconds`; the first pass stops at
    2 * FIRST_PASS_CAP * `seconds` on a slow host.

    Sending the two back to back keeps the host's drift out of the
    overhead ratio.  The wrappers stay installed throughout; an untraced
    send goes through them without recording, which costs one extra call
    per traced function and is left in the untraced figure.
    """
    untraced, traced = Sends(), Sends()
    tracer.install()
    start = time.perf_counter()
    passes = 0
    while passes < 1 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for index in range(len(client.manifest)):
            if time.perf_counter() - start >= 2 * FIRST_PASS_CAP * seconds:
                return untraced, traced
            client.send_one(index, untraced)
            client.send_one(index, traced, tracer)
        passes += 1
    return untraced, traced


def end_to_end(sends: Sends, setup: Setup, host: HostSpeed):
    def figures(per_send: dict, setup_times: list):
        latencies = [statistics.median(v) for v in per_send.values()]
        return {
            "requests_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": harrell_davis(latencies, 0.5) * 1e3,
            "latency_p90_ms": harrell_davis(latencies, tail_q) * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    n = len(sends.timed)
    tail_q = tail_quantile(n)
    scaled = {i: [host.scale(*send) for send in v] for i, v in sends.timed.items()}
    wall = {i: [send[0] for send in v] for i, v in sends.timed.items()}
    metrics = figures(scaled, setup.scaled)
    raw = figures(wall, setup.times)
    print(f"{sends.count} sends of {n} requests; each request timed by the median of its sends")
    print(f"reference unit: median {statistics.median(host.units) * 1e3:.4f} ms over {len(host.units)} samples; "
          f"times scaled to a {REFERENCE_UNIT_MS} ms unit")
    samples = {"requests_per_s": n, "latency_p50_ms": n, "latency_p90_ms": n,
               "setup_s": len(setup.times), "peak_rss_mb": 1}
    print(f"{'metric':24} {'scaled':>14} {'wall clock':>14} unit")
    for name, unit in END_TO_END_UNITS.items():
        label = f"{name} (p{tail_q * 100:.0f})" if name == "latency_p90_ms" else name
        print(f"{label:24} {metrics[name]:14.6g} {raw[name]:14.6g} {unit:5} n={samples[name]}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(client: Client, tracer, untraced: Sends, traced: Sends, workload: str, seed: int):
    both = [i for i in traced.best if i in untraced.best]
    overhead = sum(untraced.best[i] for i in both) / sum(traced.best[i] for i in both)
    layer, absent = spans.summarize(tracer.spans, traced.count, tracer.wrapped, overhead)
    print(f"{traced.count} traced and {untraced.count} untraced sends")
    print(f"{'metric':34} {'value':>14}  unit")
    for name, (unit, _) in spans.PER_LAYER.items():
        note = "  absent (no references left to trace)" if name in absent else ""
        print(f"{name:34} {layer[name]:14.6g}  {unit}{note}")
    print(f"{'op':10} {'thm':4} {'|F|':>4} {'n':>5} {'req p50 ms':>11} {'decider p50 ms':>15}")
    for op, thm, faces, n, req_ms, dec_ms in spans.breakdown(tracer.spans, tracer.request_index, client.manifest):
        print(f"{op:10} {thm:4} {faces:>4} {n:>5} {req_ms:11.2f} {dec_ms:15.2f}")
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return {name: {"value": layer[name], "unit": unit} for name, (unit, _) in spans.PER_LAYER.items()}


def run_workload(args) -> int:
    if not (SRC / "anglestruct" / "cli.py").is_file():
        print(f"bench: package sources not found under {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(args, work: Path) -> int:
    work.mkdir(parents=True, exist_ok=True)
    host = HostSpeed()
    setup = Setup(args.workload, args.seed, work, host)
    for _ in range(SETUP_BEFORE):
        setup.sample()
    sys.path.insert(0, str(SRC))
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    texts = [(work / req["file"]).read_text(encoding="utf-8") for req in manifest]
    client = Client(work, manifest)
    print(f"workload {args.workload}  seed {args.seed}  python {platform.python_version()}  "
          f"{platform.platform()}  nproc {os.cpu_count()}")
    print(f"corpus {len(manifest)} requests  sha256 {setup.corpus_hash}")

    warm_start = time.perf_counter()
    for i in range(len(manifest)):
        if time.perf_counter() - warm_start >= WARMUP_S:
            break
        client.send(i)

    errors: dict[int, str | None] = {}
    if args.trace:
        tracer = spans.Tracer()
        untraced, traced = traced_passes(client, tracer, args.seconds)
        failures = failed_sends(client, texts, errors, untraced) + failed_sends(client, texts, errors, traced)
        attempted = untraced.count + traced.count
        result = per_layer(client, tracer, untraced, traced, args.workload, args.seed)
    else:
        sends = timed_passes(client, setup, host, args.seconds)
        while len(setup.times) < SETUP_TOTAL:
            setup.sample()
        result = end_to_end(sends, setup, host)
        failures = failed_sends(client, texts, errors, sends)
        attempted = sends.count

    if args.workload == "small-batch":
        raised = probe_known_defects(client, work)
        print(f"known defect: {raised} of {len(corpus.defect_cases())} malformed inputs "
              f"raise a traceback instead of exiting 2")
    if len(client.first) < len(manifest):
        print(f"first pass cut short: {len(client.first)} of {len(manifest)} requests sent")
    print(f"output digest {output_digest(client.first)}")
    print(f"failed {len(failures)} of {attempted} attempted  failed_ratio {len(failures) / attempted:.6g}")
    for index, error in list(dict(failures).items())[:10]:
        req = manifest[index]
        print(f"  FAILED #{index} {req['op']} {req['theorem']} |F|={req['faces']}: {error}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": result}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one summary table at the end."""
    results = {}
    for workload in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 2
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"\n{'metric':32} {'unit':6} " + " ".join(f"{w:>14}" for w in results))
    for name in names:
        unit = results[next(iter(results))]["metrics"][name]["unit"]
        print(f"{name:32} {unit:6} " + " ".join(f"{r['metrics'][name]['value']:14.6g}" for r in results.values()))
    print(f"{'failed/attempted':39} " + " ".join(f"{r['failed']:>6}/{r['attempted']:<7}" for r in results.values()))
    combined = {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": combined,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="anglestruct benchmark")
    parser.add_argument("--workload", required=True, choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind, so that a running set-up child is killed and
    # waited for and the work directory is removed.
    def terminate(*_):
        raise Terminated

    signal.signal(signal.SIGTERM, terminate)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except Terminated:
        return 143


if __name__ == "__main__":
    sys.exit(main())
