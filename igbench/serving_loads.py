"""The HTTP workloads: ``line`` (open loop) and ``bulk`` (closed loop).

Both drive ``python -m repro.serving --http`` with its defaults, launched
afresh for each of ``SEGMENTS`` segments of a run, so every run measures
set-up time several times and its load phases on more than one daemon.
Every answer is checked byte for byte against single-process ``predict``
of that request's own images.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import numpy as np

import common
from common import Client, Phases, percentile

SEGMENTS = 3

# line: open-loop Poisson arrivals of single 50x126 KSDD frames.
LINE_RATE = 40.0          # requests/s, about half of one connection's capacity
LINE_CONNECTIONS = 2
LINE_WARMUP = 120         # closed-loop requests per segment before timing
LINE_WARM_FRAMES = 24
LINE_WINDOW = 44          # requests per latency window (by due time)

# bulk: one connection, closed loop, 16 content-distinct 150x377 frames.
BULK_BATCH = 16
BULK_BODIES = 8           # distinct bodies, cycled; each checked every time
BULK_WARMUP = 2


class Result:
    """One request: when it was due, sent and answered, and its answer."""

    __slots__ = ("due", "sent", "done", "status", "payload", "ok")

    def __init__(self, due: float):
        self.due = due
        self.sent = self.done = float("nan")
        self.status = 0
        self.payload = b""
        self.ok = False

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3 if self.ok else common.FAILED_MS


def send(client: Client, body: bytes, result: Result) -> None:
    result.sent = time.perf_counter()
    try:
        result.status, result.payload = client.request(
            "POST", "/v1/label", body)
    except (OSError, http.client.HTTPException) as exc:
        # Timeouts, resets, a broken connection: the request failed, and
        # the next one reconnects.
        client.close()
        result.status, result.payload = -1, repr(exc).encode()
    result.done = time.perf_counter()


def check_answers(results, expected_of, phases: Phases, phase: str) -> int:
    """Mark each result ok or failed; a non-200 or a wrong answer fails."""
    for index, result in enumerate(results):
        result.ok = result.status == 200
        if result.ok and (common.probs_bytes_of(
                json.loads(result.payload)["probs"]) != expected_of(index)):
            result.ok = False
            phases.problem(f"{phase}: request {index} answer differs "
                           "from single-process predict")
    failed = sum(not result.ok for result in results)
    phases.add(phase, len(results), failed)
    return failed


def drive(url: str, bodies, connections: int, due=None):
    """Send each body once over ``connections`` keep-alive connections.

    Without ``due`` this is a closed loop: a connection sends its next
    body as soon as its last answer arrives.  With ``due`` (seconds from
    the start, one per body) it is an open loop: body ``i`` goes out at
    its due time on whichever connection is free, and is timed from that
    due time, so a stalled connection charges the wait to every request
    queued behind it.  Returns the start time and the results.
    """
    start = time.perf_counter() + (0.05 if due is not None else 0.0)
    results = [Result(start + (due[i] if due is not None else 0.0))
               for i in range(len(bodies))]
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()

    def worker() -> None:
        client = Client(url)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                delay = results[index].due - time.perf_counter()
                if due is not None and delay > 0:
                    time.sleep(delay)
                send(client, bodies[index], results[index])
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, results


def tasks_done(url: str) -> int:
    client = Client(url)
    try:
        health = client.get_json("/healthz")
    finally:
        client.close()
    return sum(worker["tasks_done"] for worker in health["workers"])


def run_line(seed: int, seconds: float, work, phases: Phases) -> tuple:
    profile = common.serving_profile(work)
    segment_s = seconds / SEGMENTS
    per_segment = max(1, int(round(LINE_RATE * segment_s)))
    images = common.frames("ksdd", common.LINE_SCALE,
                           common.seed_for(seed, "line"),
                           per_segment * SEGMENTS + LINE_WARM_FRAMES)
    warm, timed = images[:LINE_WARM_FRAMES], images[LINE_WARM_FRAMES:]
    oracle = common.Oracle(profile, [timed[0].shape])
    warm_expected = [oracle.probs_bytes([image]) for image in warm]
    expected = [oracle.probs_bytes([image]) for image in timed]
    warm_bodies = [common.encode_body([image]) for image in warm]
    bodies = [common.encode_body([image]) for image in timed]
    rng = np.random.default_rng(common.seed_for(seed, "line-arrivals"))

    setups, rss, windows, throughputs, lateness = [], [], [], [], []
    env = {}
    for segment in range(SEGMENTS):
        lo = segment * per_segment
        daemon = common.http_daemon(profile, work, f"line-{segment}", phases)
        try:
            setups.append(daemon.setup_s)
            env = env or common.serving_env(daemon)
            _, results = drive(daemon.url,
                               [warm_bodies[i % LINE_WARM_FRAMES]
                                for i in range(LINE_WARMUP)],
                               LINE_CONNECTIONS)
            check_answers(results,
                          lambda i: warm_expected[i % LINE_WARM_FRAMES],
                          phases, "warmup")
            # Poisson arrivals with a fixed count: given N arrivals in
            # [0, T], a Poisson process's arrival times are N sorted
            # uniforms.
            due = np.sort(rng.uniform(0.0, segment_s, per_segment))
            start, results = drive(daemon.url,
                                   bodies[lo:lo + per_segment],
                                   LINE_CONNECTIONS, due)
            failed = check_answers(results, lambda i: expected[lo + i],
                                   phases, "timed")
            chunks = max(1, len(results) // LINE_WINDOW)
            windows += [[r.latency_ms for r in chunk] for chunk in
                        np.array_split(np.array(results), chunks)]
            lateness += [(r.sent - r.due) * 1e3 for r in results]
            last = max((r.done for r in results if r.ok),
                       default=start + segment_s)
            throughputs.append((len(results) - failed) / (last - start))
        finally:
            common.drain(daemon)
        rss.append(daemon.rss_mb)
    detail = {
        "rate_per_s": LINE_RATE, "connections": LINE_CONNECTIONS,
        "samples": sum(len(window) for window in windows),
        "windows": len(windows),
        "generator_late_ms": {"p50": percentile(lateness, 50),
                              "p99": percentile(lateness, 99),
                              "max": max(lateness)},
    }
    return (common.end_to_end(setups, windows, throughputs, rss), env,
            detail)


def run_bulk(seed: int, seconds: float, work, phases: Phases) -> tuple:
    profile = common.serving_profile(work)
    images = common.frames("ksdd", common.BULK_SCALE,
                           common.seed_for(seed, "bulk"),
                           BULK_BATCH * BULK_BODIES)
    batches = [images[i:i + BULK_BATCH]
               for i in range(0, len(images), BULK_BATCH)]
    oracle = common.Oracle(profile, [images[0].shape])
    expected = [oracle.probs_bytes(batch) for batch in batches]
    bodies = [common.encode_body(batch) for batch in batches]
    segment_s = seconds / SEGMENTS

    setups, rss, windows, throughputs, env = [], [], [], [], {}
    for segment in range(SEGMENTS):
        first = segment * 3  # each segment starts at another body
        daemon = common.http_daemon(profile, work, f"bulk-{segment}", phases)
        try:
            setups.append(daemon.setup_s)
            env = env or common.serving_env(daemon)
            _, results = drive(daemon.url, bodies[:BULK_WARMUP], 1)
            check_answers(results, lambda i: expected[i % BULK_BODIES],
                          phases, "warmup")
            client = Client(daemon.url)
            results = []
            start = time.perf_counter()
            try:
                while time.perf_counter() - start < segment_s:
                    result = Result(time.perf_counter())
                    send(client, bodies[(first + len(results))
                                         % BULK_BODIES], result)
                    results.append(result)
            finally:
                client.close()
            elapsed = time.perf_counter() - start
            failed = check_answers(
                results, lambda i: expected[(first + i) % BULK_BODIES],
                phases, "timed")
            windows.append([r.latency_ms for r in results])
            throughputs.append((len(results) - failed) * BULK_BATCH
                               / elapsed)
        finally:
            common.drain(daemon)
        rss.append(daemon.rss_mb)
    detail = {"batch": BULK_BATCH, "frame_shape": list(images[0].shape),
              "body_mb": round(len(bodies[0]) / 1e6, 3),
              "samples": sum(len(window) for window in windows),
              "windows": len(windows)}
    return (common.end_to_end(setups, windows, throughputs, rss), env,
            detail)
