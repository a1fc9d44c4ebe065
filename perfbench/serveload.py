"""The ``serve`` workload: one ``repro serve`` process, one client process
(this one) over 2 connections in a closed loop.

Each connection draws jobs from its own seeded stream.  Sweep jobs cover
``DESIGNS`` with half their frequencies already stored (taken from the
warm-up grid and the connection's own earlier, completed jobs) and half
new, so every sweep both reads and writes the store.  Every
``COMPARE_EVERY``-th job is a ``compare`` on ``COMPARE_DESIGNS``.  Hit
and miss counts per job therefore do not depend on how the two
connections interleave.

A job is timed from the start of its submit to the receipt of its result.
The client fetches ``/jobs/<id>/result`` until it is ready, sleeping a
tenth of the time elapsed so far (at least 0.5 ms) between tries, so
quantisation stays under about 10% of the latency instead of being set by
a fixed interval.
"""

import http.client
import json
import os
import random
import signal
import subprocess
import threading
import time

DESIGNS = ("mult16", "m0lite", "counter16", "multiplier(n=8)")
COMPARE_DESIGNS = ("mult16", "counter16")
#: Warm-up grid, swept once per design during set-up (Hz).
BASE_FREQS = (1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6)
KNOWN_PER_JOB = 4
NEW_PER_JOB = 4
COMPARE_EVERY = 40
CONNECTIONS = 2


class Server:
    """A ``repro serve`` child with a fresh store and spool under ``tmp``.

    ``launcher`` is the argv prefix that runs the ``repro`` CLI (plain
    ``python -m repro`` or the traced launcher).
    """

    def __init__(self, launcher, env, tmp, cwd):
        os.makedirs(tmp)
        self.stderr = open(os.path.join(tmp, "server.err"), "wb")
        argv = launcher + [
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--store", os.path.join(tmp, "store.sqlite"),
            "--spool", os.path.join(tmp, "spool")]
        self.proc = subprocess.Popen(
            argv, env=dict(env, PYTHONUNBUFFERED="1"), cwd=cwd,
            stdout=subprocess.PIPE, stderr=self.stderr)
        self.port = None
        self.maxrss_kb = 0
        line = self.proc.stdout.readline().decode()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError("repro serve did not start: {!r}".format(
                line))
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self, timeout=60.0):
        """SIGINT (clean shutdown), then reap; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            self.proc.stdout.read()
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self.proc.stdout.close()
        self.stderr.close()
        return self.proc.returncode

    def request(self, method, path, payload=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body=body)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        return response.status, json.loads(data) if data else None

    def run_job(self, spec):
        """Submit ``spec`` and wait for its result.

        Returns ``(seconds, job_id, result)``; ``result`` is None when the
        job did not finish ``done``.
        """
        start = time.perf_counter()
        status, job = self.request("POST", "/jobs", spec)
        if status != 202:
            return time.perf_counter() - start, None, None
        path = "/jobs/{}/result".format(job["id"])
        while True:
            status, data = self.request("GET", path)
            if status != 409:
                elapsed = time.perf_counter() - start
                result = data["result"] if status == 200 else None
                return elapsed, job["id"], result
            time.sleep(max(0.0005, (time.perf_counter() - start) / 10))

    def statuses(self):
        status, data = self.request("GET", "/jobs")
        if status != 200:
            raise RuntimeError("GET /jobs said {}".format(status))
        return {job["id"]: job for job in data}


def sweep_spec(design, freqs):
    return {"kind": "sweep", "design": design, "freqs": list(freqs)}


def warm_up(server):
    """One sweep over ``BASE_FREQS`` per design; False if one failed."""
    return all(server.run_job(sweep_spec(design, BASE_FREQS))[2] is not None
               for design in DESIGNS)


def stream(seed, connection):
    """Endless seeded job specs for one connection.

    The generator must be resumed only after the previous job completed:
    its "known" frequencies are that connection's earlier points.
    """
    rng = random.Random("{}:{}".format(seed, connection))
    known = {design: set(BASE_FREQS) for design in DESIGNS}
    index = 0
    while True:
        if index % COMPARE_EVERY == COMPARE_EVERY // 2:
            design = COMPARE_DESIGNS[
                (index // COMPARE_EVERY + connection) % len(COMPARE_DESIGNS)]
            yield {"kind": "compare", "design": design}
        else:
            design = rng.choice(DESIGNS)
            freqs = rng.sample(sorted(known[design]), KNOWN_PER_JOB)
            fresh = [10 ** rng.uniform(4.0, 6.7) for _ in range(NEW_PER_JOB)]
            freqs += fresh
            rng.shuffle(freqs)
            yield sweep_spec(design, freqs)
            known[design].update(fresh)
        index += 1


class Record:
    """One completed (or failed) job as the client saw it."""

    __slots__ = ("spec", "seconds", "done_at", "job_id", "result")

    def __init__(self, spec, seconds, done_at, job_id, result):
        self.spec = spec
        self.seconds = seconds
        self.done_at = done_at
        self.job_id = job_id
        self.result = result


class Load:
    """The closed-loop client: one seeded stream per connection, resumed
    across calls to :meth:`drive` so a run can pause between segments."""

    def __init__(self, seed):
        self.streams = [stream(seed, i) for i in range(CONNECTIONS)]
        self.counts = [0] * CONNECTIONS

    def drive(self, server, seconds=None, jobs=None):
        """Run until ``seconds`` pass or each connection has run ``jobs``
        jobs in all.  Returns ``(records, wall seconds)``; jobs in flight
        at the deadline finish and are counted."""
        start = time.perf_counter()
        deadline = None if seconds is None else start + seconds
        records = []
        lock = threading.Lock()

        def connection(index):
            while (jobs is None or self.counts[index] < jobs) and \
                    (deadline is None or time.perf_counter() < deadline):
                spec = next(self.streams[index])
                elapsed, job_id, result = server.run_job(spec)
                with lock:
                    records.append(Record(spec, elapsed,
                                          time.perf_counter(), job_id,
                                          result))
                if result is None:
                    return
                self.counts[index] += 1

        threads = [threading.Thread(target=connection, args=(i,))
                   for i in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return records, time.perf_counter() - start


def check_sweeps(records, seed, samples=3):
    """Offline ``Session.sweep`` of a seeded sample of served sweeps;
    returns the records whose served result differed."""
    from repro import Session
    from repro.serve.jobs import sweep_to_dict

    sweeps = [r for r in records
              if r.result is not None and r.spec["kind"] == "sweep"]
    rng = random.Random("{}:check".format(seed))
    picked = rng.sample(sweeps, min(samples, len(sweeps)))
    wrong = []
    session = Session(cache=False)
    try:
        for record in picked:
            handle = session.design(record.spec["design"])
            offline = sweep_to_dict(handle.sweep(record.spec["freqs"]))
            if json.loads(json.dumps(offline)) != record.result:
                wrong.append(record)
    finally:
        session.close()
    return wrong


def check_compares(records, golden):
    """Served compares: ``mult16`` equals its golden file, and every
    compare of one design returns the same payload.  Returns the records
    that differed."""
    first = dict(golden)
    wrong = []
    for record in records:
        if record.result is None or record.spec["kind"] != "compare":
            continue
        design = record.spec["design"]
        if first.setdefault(design, record.result) != record.result:
            wrong.append(record)
    return wrong

