"""``serve_mixed`` client: one closed-loop caller of a real server process.

Started by ``run.py`` with a JSON config on stdin.  Launches
``repro-alloc serve --port 0`` (in-memory cache, one worker, admission
lint at ``error``) several times to sample set-up time, keeps the last
server, and drives it with one connection at a time, waiting for each
reply as a compiler flow does.  Every set-up sends the same warm-up
requests to a fresh server, so their program counters must repeat.  The
client inherits ``run.py``'s CPU pin, so its probes see the server's
core.  Prints one ``RESULT`` line; answers are checked afterwards by
``run.py``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import gen
from probe import SETUP_SAMPLES, peak_rss_mb, probe, settle

SERVER_ARGS = ["serve", "--port", "0", "--workers", "1", "--admission-lint", "error"]
HERE = Path(__file__).resolve().parent
_LISTENING = re.compile(r"http://([0-9.]+):([0-9]+)")


class Server:
    """A running server process and the client's view of it."""

    def __init__(self, trace: bool) -> None:
        if trace:
            command = [sys.executable, str(HERE / "serve_traced.py"), *SERVER_ARGS]
        else:
            command = [sys.executable, "-m", "repro.cli", *SERVER_ARGS]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        #: Layer lookup sites the traced server could not wrap.
        self.unresolved: list[str] = []
        line = self.proc.stdout.readline()
        if trace and line.startswith("UNRESOLVED "):
            self.unresolved = json.loads(line[len("UNRESOLVED "):])
            line = self.proc.stdout.readline()
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def request(self, method: str, path: str, body: bytes | None = None):
        """One request on its own connection; ``(status, raw body)``."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def metrics(self) -> dict:
        status, raw = self.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return json.loads(raw)

    def set_tracing(self, on: bool) -> None:
        """Toggle the layer timers; the ``/healthz`` round trip returns
        only after the server's main thread has run the signal handler."""
        os.kill(self.proc.pid, signal.SIGUSR1 if on else signal.SIGUSR2)
        self.request("GET", "/healthz")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def encode(manifest: dict) -> bytes:
    return json.dumps(manifest, sort_keys=True).encode("utf-8")


class Caller:
    """Sends the workload's requests and remembers answered manifests."""

    def __init__(self, server: Server, seed: int) -> None:
        self.server = server
        self.seed = seed
        #: Fresh manifests answered so far, in answer order: the pool
        #: cache-hit requests are drawn from.
        self.answered: list[int] = []
        self.bodies: dict[int, bytes] = {}

    def prepare(self, op: dict, label: tuple) -> tuple[int | None, bytes]:
        if op["kind"] == "hit":
            pick = gen.rng_for(self.seed, "hit", *label).choice(self.answered)
            return pick, self.bodies[pick]
        number = int(op["manifest"]["jobs"][0]["label"][len(op["kind"]):])
        return number, encode(op["manifest"])

    def send(self, op: dict, label: tuple) -> tuple[float, dict]:
        number, body = self.prepare(op, label)
        start = time.perf_counter()
        status, raw = self.server.request("POST", "/v1/batch", body)
        elapsed = time.perf_counter() - start
        record = {"kind": op["kind"], "manifest": number, "status": status}
        record.update(summarise(status, raw))
        if op["kind"] == "fresh" and status == 200:
            self.answered.append(number)
            self.bodies[number] = body
        return elapsed, record


def summarise(status: int, raw: bytes) -> dict:
    """The parts of a response the checker needs."""
    body = json.loads(raw)
    if status == 200:
        return {
            "jobs": [
                [job["job_id"], job["status"], job["cached"], job.get("objective")]
                for job in body["jobs"]
            ]
        }
    if status == 422:
        runs = []
        for run in body["sarif"]["runs"]:
            properties = run.get("properties", {})
            proofs = [
                result["properties"]["evidence"]
                for result in run.get("results", [])
                if result.get("ruleId") == "RA601"
            ]
            runs.append([properties.get("job"), properties.get("blocking"), proofs])
        return {"rejected": body.get("rejected_jobs", []), "runs": runs}
    return {"error": body.get("error")}


def int_counters(metrics: dict) -> dict[str, int]:
    return {
        name: value
        for name, value in metrics["counters"].items()
        if isinstance(value, int) and not name.startswith("perfbench.")
    }


def layer_counters(metrics: dict) -> dict[str, list]:
    layers: dict[str, list] = {}
    for name, value in metrics["counters"].items():
        if name.startswith("perfbench.layer."):
            layer, _, field = name[len("perfbench.layer."):].rpartition(".")
            slot = layers.setdefault(layer, [0, 0.0])
            slot[0 if field == "calls" else 1] = value
    return layers


def delta(after: dict, before: dict) -> dict:
    return {
        key: (
            [after[key][0] - before.get(key, [0, 0.0])[0],
             after[key][1] - before.get(key, [0, 0.0])[1]]
            if isinstance(after[key], list)
            else after[key] - before.get(key, 0)
        )
        for key in after
    }


def traced_view(metrics: dict) -> dict:
    cache = metrics.get("cache", {})
    return {
        "layers": layer_counters(metrics),
        "counters": {
            **int_counters(metrics),
            "cache.hits": cache.get("hits", 0),
            "cache.misses": cache.get("misses", 0),
        },
    }


def setup_sample(trace: bool, seed: int) -> tuple[Server, Caller, dict]:
    """Launch a server and warm it up; time it between probe brackets.

    The sample also carries the server's program counters after the
    warm-up, read once the clock has stopped.
    """
    before = settle()
    start = time.perf_counter()
    server = Server(trace)
    try:
        caller = Caller(server, seed)
        for position, op in enumerate(gen.serve_warmup()):
            _, record = caller.send(op, ("warmup", position))
            expected = {"fresh": 200, "hit": 200, "bad": 422}[op["kind"]]
            if record["status"] != expected:
                raise RuntimeError(f"warm-up request answered {record}")
    except BaseException:
        server.stop()
        raise
    raw = time.perf_counter() - start
    after = settle()
    try:
        counters = int_counters(server.metrics())
    except BaseException:
        server.stop()
        raise
    return server, caller, {"raw_s": raw, "probes": before + after, "counters": counters}


def main() -> int:
    config = json.loads(sys.stdin.read())
    seed, trace = config["seed"], bool(config["trace"])
    samples = []
    server = None
    try:
        for sample in range(SETUP_SAMPLES):
            server, caller, timing = setup_sample(trace, seed)
            samples.append(timing)
            if sample < SETUP_SAMPLES - 1:
                server.stop()
                server = None
        probes = [probe()]
        ops = []
        start = time.perf_counter()
        index = 0
        while True:
            traced = trace and index % 2 == 1
            if traced:
                server.set_tracing(True)
                view = traced_view(server.metrics())
            for position, op in enumerate(gen.round_for("serve_mixed", seed, index)["ops"]):
                elapsed, record = caller.send(op, (index, position))
                record.update(
                    {"round": index, "position": position, "traced": traced,
                     "raw_s": elapsed}
                )
                if traced:
                    latest = traced_view(server.metrics())
                    record["layers"] = delta(latest["layers"], view["layers"])
                    record["counters"] = delta(latest["counters"], view["counters"])
                    view = latest
                probes.append(probe())
                ops.append(record)
            if traced:
                server.set_tracing(False)
            index += 1
            spent = time.perf_counter() - start
            if spent >= config["seconds"] and (not trace or index >= 2):
                break
        result = {
            "ops": ops,
            "probes": probes,
            "setup": samples,
            "peak_rss_mb": peak_rss_mb(server.proc.pid),
            "replay": [sample["counters"] for sample in samples],
            "unresolved": server.unresolved,
        }
    finally:
        if server is not None:
            server.stop()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
