#!/usr/bin/env python3
"""End-to-end benchmark of acpp, driven through its public surfaces only.

Each workload runs the `acpp` CLI, or `acppd` over loopback HTTP, as child
processes of this script, times them from outside, and checks every release
with `perfbench` (this directory's Rust package), whose checks share no code
with the program. Run from the repository root:

    python3 perfbench/run.py --workload publish_1m --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --workload acppd_jobs --steady 10 --seconds 20

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced run. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. `--workload all`
prints every metric of every workload; `--steady N` runs a workload N times
on seeds seed..seed+N-1 and prints each end-to-end metric's median,
quartiles and spread against its bound in BENCHMARK.json.
"""

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
P, K = 0.3, 8
ROWS = 1_000_000
THREADS = 2
SETUP_ROUNDS = 3
DELTAS_PER_ROUND = 6
CHURN = 0.01
JOB_ROWS = 20_000
JOB_TABLES = 4
JOBS_PER_ROUND = 8
WORKERS = 2
CLIENTS = 2
WORKLOADS = ["publish_1m", "publish_journal_1m", "series_delta_1m", "acppd_jobs"]


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def build():
    """Builds the CLI and perfbench from source; returns their paths."""
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"not a repository checkout: {needed} is missing")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    for manifest, extra in (("Cargo.toml", ["-p", "acpp-cli"]), ("perfbench/Cargo.toml", [])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError(f"build of {manifest} failed")
    return os.path.join(target, "release", "acpp"), os.path.join(target, "release", "perfbench")


class Bench:
    def __init__(self, seed, seconds, work):
        self.seed, self.seconds, self.work = seed, seconds, work
        self.acpp, self.tool = build()
        os.makedirs(work)
        self.children = []

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def run_child(self, cmd, stderr_lines=None):
        """Runs `cmd` to its exit. Returns (seconds, peak RSS in MB of the
        child itself, exit code, stderr). With `stderr_lines`, appends
        (arrival time, line) for every stderr line as it arrives."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        err = []
        for line in iter(proc.stderr.readline, b""):
            if stderr_lines is not None:
                stderr_lines.append((time.perf_counter(), line.decode(errors="replace")))
            err.append(line)
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, usage.ru_maxrss / 1024.0, proc.returncode, b"".join(err).decode(errors="replace")

    def acpp_ok(self, *args):
        secs, _, code, err = self.run_child([self.acpp, *map(str, args)])
        if code != 0:
            raise BenchError(f"acpp {args[0]} exited {code}: {err.strip()[-400:]}")
        return secs

    def tool_json(self, *args):
        proc = subprocess.run([self.tool, *map(str, args)], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"perfbench {args[0]} failed: {proc.stderr.strip()[-400:]}")
        return json.loads(proc.stdout)

    def generate(self, rows, seed, out):
        return self.acpp_ok("generate", "--rows", rows, "--seed", seed, "--out", out, "--quiet")

    def check(self, table, releases, sample_seed):
        """Independent checks; `releases` holds `path` or `path=journal_dir`."""
        if not releases:
            return []
        args = ["check", "--schema", table + ".schema", "--input", table, "--k", K, "--p", P,
                "--sample-seed", sample_seed]
        for r in releases:
            args += ["--release", r]
        return self.tool_json(*args)["releases"]

    def input_1m(self):
        """Set-up of the 1M-row workloads: the input CSV, made SETUP_ROUNDS
        times so set-up time is a median."""
        table = self.path("input.csv")
        times = [self.generate(ROWS, self.seed, table) for _ in range(SETUP_ROUNDS)]
        return table, median(times)


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def verdicts(results):
    """Maps checker results to per-release pass/fail; releases of one run at
    one seed must all carry the first one's digest."""
    digest = results[0]["digest"] if results else None
    out = []
    for r in results:
        ok = r["ok"] and r["digest"] == digest
        if not ok:
            log(f"check failed: {r['path']}: {r['error'] or 'digest ' + r['digest'] + ' != ' + str(digest)}")
        out.append(ok)
    return out


# ---------------------------------------------------------------- publish

def publish_cmd(b, table, out, journal):
    cmd = [b.acpp, "publish", "--input", table, "--p", P, "--k", K, "--seed", 1000 + b.seed,
           "--threads", THREADS, "--out", out]
    if journal:
        cmd += ["--journal", journal]
    return [str(c) for c in cmd]


def publish_ops(b, table, journal, count=None, seconds=None):
    """Runs `acpp publish` ops back to back, `count` of them or until
    `seconds` have passed. Returns per-op records and the timed length."""
    ops = []
    start = time.perf_counter()
    while (count is not None and len(ops) < count) or (
            seconds is not None and time.perf_counter() - start < seconds):
        i = len(ops)
        out = b.path(f"release-{i}.csv")
        jdir = b.path(f"journal-{i}") if journal else None
        secs, rss, code, err = b.run_child(publish_cmd(b, table, out, jdir))
        if code != 0:
            log(f"acpp publish exited {code}: {err.strip()[-400:]}")
        ops.append({"ms": secs * 1e3, "rss": rss, "code": code, "out": out, "journal": jdir})
    return ops, time.perf_counter() - start


def check_publish_ops(b, table, ops):
    specs = [o["out"] + (f"={o['journal']}" if o["journal"] else "") for o in ops if o["code"] == 0]
    results = iter(verdicts(b.check(table, specs, b.seed)))
    return [o["code"] == 0 and next(results) for o in ops]


def run_publish(b, journal, trace):
    table, setup_s = b.input_1m()
    if not trace:
        ops, timed = publish_ops(b, table, journal, seconds=b.seconds)
        ok = check_publish_ops(b, table, ops)
        good = [o for o, g in zip(ops, ok) if g]
        return ok, {
            "setup_s": setup_s,
            "release_p50_ms": median([o["ms"] for o in good]),
            "peak_rss_mb": median([o["rss"] for o in good]),
            "jobs_per_s": len(good) / timed,
        }
    ops, _ = publish_ops(b, table, journal, count=2)
    traced = b.tool_json("trace-publish", "--input", table, "--out-dir", b.work, "--p", P, "--k", K,
                         "--seed", 1000 + b.seed, "--threads", THREADS, "--ops", 3,
                         "--journal", int(bool(journal)))
    # The in-process calls must publish exactly what the CLI published.
    ops += [{"code": 0, "out": b.path(f"traced-{i}.csv"),
             "journal": b.path(f"traced-journal-{i}") if journal else None} for i in range(traced["ops"])]
    ok = check_publish_ops(b, table, ops)
    ops = ops[:2]
    layers = dict(traced["layers"])
    written = [os.path.getsize(o["out"]) + (dir_bytes(o["journal"]) if journal else 0) for o in ops]
    layers["data.bytes_written"] = median(written)
    layers["trace_overhead_ms"] = layers.pop("op_wall_ms") - median([o["ms"] for o in ops])
    return ok, layers


# ----------------------------------------------------------------- series

def series_setup(b):
    table = b.path("input.csv")
    t0 = time.perf_counter()
    b.generate(ROWS, b.seed, table)
    churn = b.tool_json("churn", "--schema", table + ".schema", "--input", table,
                        "--batches", DELTAS_PER_ROUND, "--churn", CHURN,
                        "--insert-seed", 7_000_000 + b.seed, "--offset-seed", b.seed,
                        "--out-dir", b.path("batches"))
    return table, churn["batches"], time.perf_counter() - t0


def series_round(b, table, batches, r):
    """One `acpp republish` process: a full release (set-up), then one
    delta per batch, each timed from the previous release's commit line to
    its own."""
    sdir = b.path(f"series-{r}")
    cmd = [b.acpp, "republish", "--input", table, "--p", P, "--k", K, "--seed", 1000 + b.seed,
           "--threads", THREADS, "--series", sdir, "--delta", ",".join(batches)]
    lines = []
    t0 = time.perf_counter()
    _, rss, code, err = b.run_child([str(c) for c in cmd], lines)
    commits = [t for t, line in lines if re.match(r"release \d+:", line)]
    if code != 0 or len(commits) != len(batches) + 1:
        log(f"acpp republish exited {code}: {err.strip()[-400:]}")
    deltas = [(b2 - a) * 1e3 for a, b2 in zip(commits, commits[1:])]
    return {"dir": sdir, "base_s": commits[0] - t0 if commits else None, "deltas": deltas,
            "rss": rss, "ok": code == 0 and len(deltas) == len(batches)}


def check_series(b, table, batches, rounds):
    """Full checks on the first complete round's series; the other rounds
    must repeat its digests byte for byte (same seed, same batches)."""
    full = next((r for r in rounds if r["ok"]), None)
    if full is None:
        return [False] * len(batches) * len(rounds), []
    first = b.tool_json("check-series", "--schema", table + ".schema", "--input", table,
                        "--dir", full["dir"], "--batches", ",".join(batches), "--k", K,
                        "--p", P, "--sample-seed", b.seed)["releases"]
    for rel in first:
        if not rel["ok"]:
            log(f"series check failed on release {rel['release']}: {rel['error']}")
    digests = [rel["digest"] for rel in first]
    ok = []
    for rnd in rounds:
        same = rnd["ok"] and series_digests(rnd["dir"]) == digests
        if rnd["ok"] and not same:
            log(f"series {rnd['dir']} differs from {full['dir']}")
        ok += [same and first[0]["ok"] and first[i + 1]["ok"] for i in range(len(batches))]
    return ok, digests


def series_digests(sdir):
    """The release digests a series' bookkeeping records, in order."""
    with open(os.path.join(sdir, "series-state.tsv")) as f:
        return [line.split("\t")[1].strip() for line in f if "\t" in line]


def run_series(b, trace):
    table, batches, gen_s = series_setup(b)
    rounds = []
    start = time.perf_counter()
    while not rounds or (not trace and time.perf_counter() - start < b.seconds):
        rounds.append(series_round(b, table, batches, len(rounds)))
    ok, digests = check_series(b, table, batches, rounds)
    deltas = [d for r in rounds for d in r["deltas"]]
    if not trace:
        return ok, {
            "setup_s": gen_s + median([r["base_s"] for r in rounds if r["base_s"] is not None]),
            "release_p50_ms": median(deltas),
            "peak_rss_mb": median([r["rss"] for r in rounds]),
            "jobs_per_s": len(deltas) / (sum(deltas) / 1e3),
        }
    traced = b.tool_json("trace-series", "--input", table, "--dir", b.path("series-traced"),
                         "--batches", ",".join(batches), "--p", P, "--k", K,
                         "--seed", 1000 + b.seed, "--threads", THREADS)
    # The in-process calls must publish exactly what the CLI published.
    base_same = traced["digests"][0] == digests[0]
    same = [base_same and d == c for d, c in zip(traced["digests"][1:], digests[1:])]
    ok += same
    if not all(same):
        log("traced series differs from the CLI series")
    layers = dict(traced["layers"])
    layers["trace_overhead_ms"] = layers.pop("op_wall_ms") - median(deltas)
    return ok, layers


# ------------------------------------------------------------------ acppd

class Daemon:
    def __init__(self, b, spool):
        self.proc = subprocess.Popen(
            [b.acpp, "serve", "--addr", "127.0.0.1:0", "--spool", spool, "--workers", str(WORKERS)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        b.children.append(self.proc)
        self.spool = spool
        addr = self.proc.stdout.readline().decode().strip()
        if not addr:
            raise BenchError("acpp serve printed no address")
        self.host, port = addr.rsplit(":", 1)
        self.port = int(port)
        status, _ = self.request("GET", "/healthz")
        if status != 200:
            raise BenchError(f"acppd healthz answered {status}")

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"} if body else {})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stop(self):
        """SIGTERM drains the daemon; returns its peak RSS in MB."""
        self.proc.send_signal(signal.SIGTERM)
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024.0


def job_setup(b, r):
    """Job tables, request bodies and a booted daemon on a fresh spool."""
    tables = [b.path(f"jobs-{r}", f"t{t}.csv") for t in range(JOB_TABLES)]
    os.makedirs(b.path(f"jobs-{r}"))
    for t, path in enumerate(tables):
        b.generate(JOB_ROWS, 100 * b.seed + t, path)
    jobs = []
    for j in range(JOBS_PER_ROUND):
        with open(tables[j % JOB_TABLES]) as f:
            csv_text = f.read()
        seed = 5000 + 10 * b.seed + j
        body = json.dumps({"tenant": "bench", "csv": csv_text, "p": P, "k": K, "seed": seed})
        jobs.append({"table": tables[j % JOB_TABLES], "seed": seed, "body": body.encode()})
    return jobs, Daemon(b, b.path(f"spool-{r}"))


def run_job(daemon, job, traced):
    """One closed-loop operation: POST /jobs, follow the job's trace to its
    end, then read its status."""
    t0 = time.perf_counter()
    status, body = daemon.request("POST", "/jobs", job["body"])
    t_admit = time.perf_counter()
    if status != 202:
        return {"ok": False, "error": f"POST /jobs answered {status}"}
    job_id = json.loads(body)["id"]
    _, stream = daemon.request("GET", f"/jobs/{job_id}/trace?follow=1")
    status, body = daemon.request("GET", f"/jobs/{job_id}")
    t_done = time.perf_counter()
    state = json.loads(body) if status == 200 else {}
    rec = {"ok": state.get("state") == "done", "id": job_id, "ms": (t_done - t0) * 1e3,
           "admit_ms": (t_admit - t0) * 1e3, "job_ms": (t_done - t_admit) * 1e3,
           "digest": state.get("release_digest"), "job": job}
    if traced:
        spans = {}
        for line in stream.decode().splitlines():
            r = json.loads(line)
            if r.get("type") == "span" and "end_us" in r:
                spans[r["name"]] = spans.get(r["name"], 0) + (r["end_us"] - r["start_us"]) / 1e3
        rec["spans"] = spans
    return rec


def closed_loop(daemon, jobs, seconds, traced):
    """CLIENTS closed-loop clients; each sends its next job only after its
    previous one is done."""
    records, lock = [], threading.Lock()
    counter = iter(range(1 << 30))
    start = time.perf_counter()

    def client():
        while time.perf_counter() - start < seconds:
            with lock:
                j = next(counter)
            try:
                rec = run_job(daemon, jobs[j % len(jobs)], traced)
            except (OSError, http.client.HTTPException, ValueError) as e:
                rec = {"ok": False, "error": str(e)}
            with lock:
                records.append(rec)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records, time.perf_counter() - start


def check_jobs(b, daemon, records):
    """Checks every job's release against its own table, the journal's
    digest and the status digest; repeats of one job must match; one job
    must equal `acpp publish --journal` on the same input and seed."""
    by_table = {}
    for rec in records:
        if rec["ok"]:
            d = os.path.join(daemon.spool, rec["id"])
            by_table.setdefault(rec["job"]["table"], []).append(
                (rec, os.path.join(d, "dstar.csv") + "=" + os.path.join(d, "journal")))
    first_digest = {}
    for table, items in by_table.items():
        for (rec, _), res in zip(items, b.check(table, [s for _, s in items], b.seed)):
            seed = rec["job"]["seed"]
            expect = first_digest.setdefault(seed, res["digest"])
            rec["ok"] = res["ok"] and res["digest"] == rec["digest"] == expect
            if not rec["ok"]:
                log(f"job {rec['id']} failed its checks: {res['error'] or 'digest mismatch'}")
    ok = [rec["ok"] for rec in records]
    first = next((r for r in records if r["ok"]), None)
    if first is not None:
        out = b.path("cross-check.csv")
        b.acpp_ok("publish", "--input", first["job"]["table"], "--p", P, "--k", K,
                  "--seed", first["job"]["seed"], "--threads", 1,
                  "--journal", b.path("cross-check-journal"), "--out", out, "--quiet")
        with open(out, "rb") as f, open(os.path.join(daemon.spool, first["id"], "dstar.csv"), "rb") as g:
            if f.read() != g.read():
                log("acppd release differs from acpp publish --journal on the same input")
                ok[records.index(first)] = False
    return ok


def run_jobs(b, trace):
    setups = []
    for r in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        jobs, daemon = job_setup(b, r)
        setups.append(time.perf_counter() - t0)
        if r < SETUP_ROUNDS - 1:
            daemon.stop()
    if not trace:
        records, timed = closed_loop(daemon, jobs, b.seconds, False)
        rss = daemon.stop()
        ok = check_jobs(b, daemon, records)
        good = [r for r, g in zip(records, ok) if g]
        return ok, {
            "setup_s": median(setups),
            "release_p50_ms": median([r["ms"] for r in good]),
            "peak_rss_mb": rss,
            "jobs_per_s": len(good) / timed,
        }
    plain, _ = closed_loop(daemon, jobs, b.seconds / 2, False)
    traced, _ = closed_loop(daemon, jobs, b.seconds / 2, True)
    daemon.stop()
    records = plain + traced
    ok = check_jobs(b, daemon, records)
    fp = b.tool_json("trace-fingerprint", "--input", ",".join(sorted({j["table"] for j in jobs})),
                     "--p", P, "--k", K, "--seed", 5000, "--reps", 5)["layers"]["core.journal_fingerprint_ms"]
    good = [r for r, g in zip(traced, ok[len(plain):]) if g]
    spans = lambda name: median([r["spans"].get(name, 0.0) for r in good])
    phases = ["phase.ingest", "phase.perturb", "phase.generalize", "phase.sample", "journal.commit"]
    shares = [(r["admit_ms"] + fp + sum(r["spans"].get(p, 0.0) for p in phases)) / r["ms"] for r in good]
    plain_ms = sorted(r["ms"] for r, g in zip(plain, ok) if g)
    return ok, {
        "serve.admit_ms": median([r["admit_ms"] for r in good]),
        "serve.job_ms": median([r["job_ms"] for r in good]),
        "serve.spool_bytes_per_job": median([dir_bytes(os.path.join(daemon.spool, r["id"])) for r in good]),
        "serve.job_p90_ms": statistics.quantiles(plain_ms, n=10)[-1] if len(plain_ms) > 1 else 0.0,
        "core.ingest_ms": spans("phase.ingest"),
        "core.perturb_ms": spans("phase.perturb"),
        "core.sample_ms": spans("phase.sample"),
        "core.journal_ms": spans("journal.commit"),
        "core.journal_fingerprint_ms": fp,
        "attributed_share": median(shares),
        "trace_overhead_ms": median([r["ms"] for r in good]) - median(plain_ms),
    }


# ------------------------------------------------------------ entry points

def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace):
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    b = Bench(seed, seconds, work)
    try:
        if workload in ("publish_1m", "publish_journal_1m"):
            ok, values = run_publish(b, workload == "publish_journal_1m", trace)
        elif workload == "series_delta_1m":
            ok, values = run_series(b, trace)
        else:
            ok, values = run_jobs(b, trace)
    finally:
        for proc in b.children:
            if proc.poll() is None and proc.returncode is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    spec = bench_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    failed = ok.count(False)
    return {"correct": failed == 0, "attempted": len(ok), "failed": failed, "metrics": metrics}


def run_all(seed, seconds):
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = run_workload(workload, seed, seconds, trace)
            results[f"{workload}/trace{trace}"] = res
            print(f"== {workload} ({'traced' if trace else 'end to end'}): attempted {res['attempted']}, "
                  f"failed {res['failed']}, correct {res['correct']}")
            for name, m in res["metrics"].items():
                print(f"   {name:32s} {m['value']:14.4f} {m['unit']}")
            sys.stdout.flush()
    correct = all(r["correct"] for r in results.values())
    return {"correct": correct, "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{k}/{n}": m for k, r in results.items() for n, m in r["metrics"].items()}}


def run_steady(workload, seed, seconds, runs):
    """Runs the workload `runs` times, each as its own process on its own
    seed, and prints each end-to-end metric's quartiles against its bound."""
    rows = []
    for i in range(runs):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed + i),
               "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            raise BenchError(f"run {i} exited {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        rows.append(res)
        log(f"run {i + 1}/{runs} seed {seed + i}: " + ", ".join(
            f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()))
    summary = {}
    for m in bench_spec()["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in rows]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2
        summary[m["name"]] = {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"]}
        print(f"{m['name']:16s} median {q2:12.4f} {m['unit']:5s} q1 {q1:12.4f} q3 {q3:12.4f} "
              f"spread {spread:.4f} bound {m['bound']} ({'ok' if spread < m['bound'] / 3 else 'WIDE'})")
    shares = {r["failed"] / r["attempted"] for r in rows}
    print(f"failed share per run: {sorted(shares)}; attempted {[r['attempted'] for r in rows]}")
    return {"correct": all(r["correct"] for r in rows), "attempted": sum(r["attempted"] for r in rows),
            "failed": sum(r["failed"] for r in rows), "metrics": {}, "steadiness": summary}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N")
    args = ap.parse_args()
    try:
        if args.steady:
            result = run_steady(args.workload, args.seed, args.seconds, args.steady)
        elif args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"benchmark failed: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
