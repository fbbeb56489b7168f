"""The ``ingest`` workload: ``--watch DIR --once`` drains a backlog.

Each segment writes a fresh backlog of ``.npy`` frames (KSDD 50x126 and
product 16x270, plus exact re-sends under new names), launches the
daemon on it with a ``jsonl:`` sink, and tails the sink file to time
each verdict's commit.  The daemon exits by itself once the backlog is
drained.  Every file of a backlog is due when the daemon announces
``watching``, so a verdict's latency is that moment until its line is
committed to the sink.
"""

from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path

import numpy as np

import common
from common import Phases

SEGMENTS = 3
BACKLOG_RATE = 240.0      # files per second of run time in a backlog: a
                          # 2-core host drains it in about half the run's
                          # --seconds; a larger one was no steadier and makes
                          # the oracle's check of every file cost more
KSDD_SHARE = 0.6          # the rest are product frames
RESEND_SHARE = 0.2        # of the files in a backlog, exact re-sends
RESEND_GAP = 48           # a re-send follows its original by >= this many
                          # files (> the 16-file in-flight bound), so the
                          # original's verdict is recorded before it is seen


def backlog_contents(seed: int, segment: int, n_files: int):
    """(file contents in name order, distinct contents) of one backlog."""
    n_distinct = int(round(n_files * (1 - RESEND_SHARE)))
    n_ksdd = int(round(n_distinct * KSDD_SHARE))
    distinct = (common.frames("ksdd", common.LINE_SCALE,
                              common.seed_for(seed, "ingest-ksdd", segment),
                              n_ksdd)
                + common.frames("product_scratch", common.LINE_SCALE,
                                common.seed_for(seed, "ingest-product",
                                                segment),
                                n_distinct - n_ksdd))
    rng = np.random.default_rng(common.seed_for(seed, "ingest-order",
                                                segment))
    order = [int(i) for i in rng.permutation(n_distinct)]
    sources = rng.choice(n_distinct - RESEND_GAP, size=n_files - n_distinct,
                         replace=False)
    files = list(order)
    for source in sorted(int(s) for s in sources):
        # Insert after position source + RESEND_GAP of the original order,
        # which keeps it at least RESEND_GAP files behind its original.
        original = order[source]
        anchor = files.index(order[source + RESEND_GAP - 1])
        files.insert(anchor + 1, original)
    return [distinct[i] for i in files], distinct


def _tail(path: Path, stop: threading.Event, commits: list) -> None:
    """Record (time, lines) whenever the sink file grows."""
    seen = 0
    while True:
        stopping = stop.is_set()  # read once more after the writer is gone
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        if size > seen:
            with open(path, "rb") as fh:
                fh.seek(seen)
                chunk = fh.read(size - seen)
            complete = chunk[:chunk.rfind(b"\n") + 1]
            if complete:
                commits.append((time.perf_counter(), complete.count(b"\n")))
                seen += len(complete)
        if stopping:
            return
        stop.wait(0.005)


def run_ingest(seed: int, seconds: float, work, phases: Phases) -> tuple:
    from repro.serving.ingest.ledger import content_key

    profile = common.serving_profile(work)
    n_files = int(round(BACKLOG_RATE * seconds / SEGMENTS))
    backlogs = [backlog_contents(seed, segment, n_files)
                for segment in range(SEGMENTS)]
    shapes = sorted({image.shape for _, distinct in backlogs
                     for image in distinct})
    oracle = common.Oracle(profile, shapes)

    setups, rss, windows, throughputs = [], [], [], []
    workers = None
    for segment, (files, distinct) in enumerate(backlogs):
        watch = work / f"watch-{segment}"
        watch.mkdir()
        keys = {}
        for position, image in enumerate(files):
            path = watch / f"frame-{position:05d}.npy"
            np.save(path, image)
            keys.setdefault(content_key(path.read_bytes()), image)
        sink = work / f"verdicts-{segment}.jsonl"
        commits: list = []
        stop = threading.Event()
        tail = threading.Thread(target=_tail, args=(sink, stop, commits))
        tail.start()
        try:
            daemon = common.Launched(
                ["-m", "repro.serving", "--profile", str(profile),
                 "--watch", str(watch), "--once",
                 "--sink", f"jsonl:{sink}",
                 "--ledger", str(work / f"ledger-{segment}.jsonl")],
                work, f"ingest-{segment}", phases, "watching")
            setups.append(daemon.setup_s)
            daemon.wait()
            workers = workers or _workers_ready(daemon.stderr_tail())
        finally:
            stop.set()
            tail.join()
        rss.append(daemon.rss_mb)
        verdicts = [json.loads(line) for line in
                    sink.read_text().splitlines() if line]
        failed = check_verdicts(verdicts, keys, oracle, phases,
                                f"ingest-{segment}")
        phases.add("drain", len(files), failed)
        latencies = [(stamp - daemon.ready_at) * 1e3
                     for stamp, count in commits for _ in range(count)]
        windows.append(latencies[:len(distinct) - failed]
                       + [common.FAILED_MS] * failed)
        drained_at = commits[-1][0] if commits else time.perf_counter()
        throughputs.append((len(files) - failed)
                           / (drained_at - daemon.ready_at))
    detail = {"files": n_files * SEGMENTS,
              "distinct": sum(len(d) for _, d in backlogs),
              "resend_share": RESEND_SHARE, "ksdd_share": KSDD_SHARE,
              "shapes": [list(shape) for shape in shapes],
              "samples": sum(len(window) for window in windows),
              "windows": len(windows)}
    return (common.end_to_end(setups, windows, throughputs, rss),
            {"ipc": common.ipc_lane(), "http_backend": None,
             "workers": workers},
            detail)


def check_verdicts(verdicts, keys: dict, oracle, phases: Phases,
                   label: str) -> int:
    """Exactly one verdict per distinct content, equal to ``predict``."""
    counts: dict[str, int] = {}
    failed = 0
    for verdict in verdicts:
        key = verdict["key"]
        counts[key] = counts.get(key, 0) + 1
        image = keys.get(key)
        if image is None or (common.probs_bytes_of([verdict["probs"]])
                             != oracle.probs_bytes([image])):
            phases.problem(f"{label}: verdict for {verdict['path']} differs "
                           "from single-process predict")
            failed += 1
    missing = [key for key in keys if key not in counts]
    repeated = [key for key, count in counts.items() if count > 1]
    if missing:
        phases.problem(f"{label}: {len(missing)} content(s) got no verdict")
    if repeated:
        phases.problem(f"{label}: {len(repeated)} content(s) got more than "
                       "one verdict")
    return failed + len(missing)


def _workers_ready(stderr: str) -> int | None:
    """Worker count from the daemon's ``N/N workers ready`` banner."""
    found = re.search(r"(\d+)/\d+ workers ready", stderr)
    return int(found.group(1)) if found else None
