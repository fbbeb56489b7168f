"""The traced run: per-layer timings from calls into each layer.

``--trace 1`` replaces a workload's end-to-end run with probes that call
each layer's public functions from here, on that workload's own request
shapes (``line``: single 50x126 frames, ``bulk``: 16 150x377 frames,
``ingest``: single frames of both shapes, ``fit``: single frames of a
fitted pool, served by the profile fitted on it).  The program itself is
not instrumented, so the daemon runs exactly as in the untraced run.

Probes:

1. single process — ``InspectorGadget.load``/``warmup``,
   ``FeatureGenerator.warm``/``transform_images``,
   ``MLPLabeler.predict_proba``, the protocol codec and a pickle round
   trip of each request's frames and feature rows;
2. paired lanes — each request through single-process ``predict``, the
   in-process pool of ``pool_probe.py`` and the HTTP daemon, back to
   back, with ``/healthz`` ``tasks_done`` read around the passes;
3. ``pool_probe.py`` again — a ``--once`` ingest drain with ledger and
   sink calls timed;
4. the fit stages — ``Stage.run`` durations of one cold fit.

Medians of per-request differences between the lanes give the self
time of the layers between them (front = HTTP - pool, pool = pool -
predict).
"""

from __future__ import annotations

import json
import pickle
import time

import numpy as np

import common
import ingest_load
import serving_loads
from common import Phases, median

UNITS = {
    "front.overhead_ms": "ms", "protocol.decode_ms": "ms",
    "protocol.encode_ms": "ms", "protocol.body_mb": "MB",
    "pool.overhead_ms": "ms", "dispatch.tasks": "count",
    "dispatch.images_per_task": "img/task", "ipc.mb_per_request": "MB",
    "ipc.pickle_ms": "ms", "engine.features_ms": "ms", "engine.warm_s": "s",
    "labeler.predict_ms": "ms", "pipeline.load_s": "s",
    "pipeline.warmup_s": "s", "ingest.ledger_ms": "ms",
    "ingest.sink_flush_ms": "ms", "ingest.useful_share": "share",
    "ingest.rescored": "count", "stage.crowd_s": "s", "stage.augment_s": "s",
    "stage.features_s": "s", "stage.labeler_s": "s",
    "augment.patterns": "count",
}

LOADS = 3                 # repetitions of load / warmup / warm
LINE_REQUESTS = 60
BULK_REQUESTS = 6
PASSES = 2                # paired passes over the requests
WARMUP = 4                # requests per lane before the paired passes
INGEST_FILES = 80         # the probe's ingest backlog: the ingest
                          # workload's first segment, cut to this size


def _inputs(workload: str, seed: int, work):
    """(profile, requests, fit) in the workload's own shapes."""
    fit = _fit_stages(seed)
    if workload == "fit":
        ig = fit["pipeline"]
        profile = ig.save(work / "fitted.igz")
        return profile, [[image] for image in
                         common.non_dev_images(ig, fit["dataset"])], fit
    profile = common.serving_profile(work)
    if workload == "line":
        images = common.frames("ksdd", common.LINE_SCALE,
                               common.seed_for(seed, "line"), LINE_REQUESTS)
        return profile, [[image] for image in images], fit
    if workload == "bulk":
        images = common.frames("ksdd", common.BULK_SCALE,
                               common.seed_for(seed, "bulk"),
                               serving_loads.BULK_BATCH * BULK_REQUESTS)
        step = serving_loads.BULK_BATCH
        return profile, [images[i:i + step]
                         for i in range(0, len(images), step)], fit
    files, _ = ingest_load.backlog_contents(seed, 0, LINE_REQUESTS * 2)
    distinct = list({id(image): image for image in files}.values())
    return profile, [[image] for image in distinct[:LINE_REQUESTS]], fit


def _fit_stages(seed: int) -> dict:
    """One cold fit of the ``fit`` workload's first pool; stage times."""
    from repro.core.pipeline import InspectorGadget

    dataset = common.fit_pool(seed, 0)
    ig = InspectorGadget(common.fit_config())
    ig.fit(dataset, dev_budget=common.FIT_DEV_BUDGET)
    stages = {e.name: e.duration for e in ig.last_run.executions}
    return {"pipeline": ig, "dataset": dataset, "stages": stages,
            "patterns": len(ig.feature_generator.patterns)}


def _single_process(profile, requests) -> dict:
    """Load/warm-up times and per-request layer times in this process."""
    from repro.core.pipeline import InspectorGadget
    from repro.labeler.weak_labels import WeakLabels
    from repro.serving.protocol import (decode_image, parse_label_request,
                                        response_payload)

    shapes = sorted({image.shape for images in requests for image in images})
    load_s, warmup_s, warm_s = [], [], []
    for _ in range(LOADS):
        start = time.perf_counter()
        ig = InspectorGadget.load(profile)
        load_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        ig.warmup(shapes)
        warmup_s.append(time.perf_counter() - start)
        fresh = InspectorGadget.load(profile).feature_generator
        start = time.perf_counter()
        for shape in shapes:
            fresh.warm(shape)
        warm_s.append(time.perf_counter() - start)

    generator, labeler = ig.feature_generator, ig.labeler
    n_patterns = len(generator.patterns)
    rows = {key: [] for key in ("decode", "features", "predict_proba",
                                "encode", "predict", "pickle", "body_mb",
                                "ipc_mb")}
    bodies, expected = [], []
    for images in requests:
        body = common.encode_body(images)
        start = time.perf_counter()
        entries = parse_label_request(json.loads(body))
        decoded = [decode_image(entry) for entry in entries]
        rows["decode"].append(_ms(start))
        start = time.perf_counter()
        features = generator.transform_images(decoded)
        rows["features"].append(_ms(start))
        start = time.perf_counter()
        probs = labeler.predict_proba(features.values)
        rows["predict_proba"].append(_ms(start))
        start = time.perf_counter()
        json.dumps(response_payload(WeakLabels(probs=probs))).encode()
        rows["encode"].append(_ms(start))
        start = time.perf_counter()
        pickle.loads(pickle.dumps((images, features.values),
                                  pickle.HIGHEST_PROTOCOL))
        rows["pickle"].append(_ms(start))
        rows["body_mb"].append(len(body) / 1e6)
        # Computed from array sizes: float64 frames out, float64 feature
        # rows back.
        rows["ipc_mb"].append(sum(image.size for image in images) * 8 / 1e6
                              + len(images) * n_patterns * 8 / 1e6)
        start = time.perf_counter()
        weak = ig.predict(images)
        rows["predict"].append(_ms(start))
        bodies.append(body)
        expected.append(weak.probs.tobytes())
    return {"load_s": median(load_s), "warmup_s": median(warmup_s),
            "warm_s": median(warm_s), "ig": ig, "bodies": bodies,
            "expected": expected, "rows": rows}


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


def _write_requests(path, requests, expected) -> None:
    arrays = {"counts": np.array([len(images) for images in requests])}
    cursor = 0
    for index, (images, want) in enumerate(zip(requests, expected)):
        for image in images:
            arrays[f"image_{cursor}"] = image
            cursor += 1
        arrays[f"expected_{index}"] = np.frombuffer(want, dtype=np.uint8)
    np.savez(path, **arrays)


def _paired(profile, requests, single, seed: int, work, phases: Phases):
    """Each request through single-process ``predict``, the in-process
    pool and the HTTP daemon, back to back, so their differences pair up
    under the same machine conditions."""
    ig, bodies, expected = single["ig"], single["bodies"], single["expected"]
    _write_requests(work / "requests.npz", requests, expected)
    shm_before = common.shm_segments()
    pool = common.Launched(
        [str(common.ROOT / "igbench" / "pool_probe.py"), str(profile),
         str(work / "requests.npz")],
        work, "trace-pool", phases, "ready", commands=True, check_shm=False)
    try:
        daemon = common.http_daemon(profile, work, "trace-http", phases,
                                    check_shm=False)
        try:
            env = common.serving_env(daemon)
            client = common.Client(daemon.url)
            try:
                for index in range(WARMUP):
                    pool.ask(f"label {index % len(requests)}")
                    client.request("POST", "/v1/label",
                                   bodies[index % len(requests)])
                tasks_before = serving_loads.tasks_done(daemon.url)
                times = {"predict": [], "pool": []}
                failed = {"predict": 0, "pool": 0}
                http = []
                order = [index for _ in range(PASSES)
                         for index in range(len(requests))]
                for index in order:
                    start = time.perf_counter()
                    weak = ig.predict(requests[index])
                    times["predict"].append(_ms(start))
                    failed["predict"] += (weak.probs.tobytes()
                                          != expected[index])
                    reply = pool.ask(f"label {index}")
                    times["pool"].append(reply["ms"])
                    failed["pool"] += not reply["ok"]
                    http.append(serving_loads.Result(time.perf_counter()))
                    serving_loads.send(client, bodies[index], http[-1])
            finally:
                client.close()
            tasks = serving_loads.tasks_done(daemon.url) - tasks_before
        finally:
            common.drain(daemon)
        for lane, count in failed.items():
            phases.add(f"trace-{lane}", len(order), int(count))
        serving_loads.check_answers(http, lambda i: expected[order[i]],
                                    phases, "trace-http")
        times["http"] = [result.latency_ms for result in http]
        watch = work / "trace-watch"
        files, _ = ingest_load.backlog_contents(seed, 0, INGEST_FILES)
        keys = _write_backlog(watch, files)
        sink = work / "trace-verdicts.jsonl"
        drained = pool.ask(f"ingest {watch} {work / 'trace-ledger.jsonl'} "
                           f"{sink}")
    finally:
        pool.wait()
    common.check_segments(phases, "trace", shm_before)
    images_sent = sum(len(requests[i]) for i in order)
    return {"order": order, "times": times, "tasks": tasks,
            "images_per_task": images_sent / tasks if tasks else 0.0,
            "drained": drained, "keys": keys, "sink": sink}, env


def _write_backlog(watch, images) -> dict:
    from repro.serving.ingest.ledger import content_key

    watch.mkdir()
    keys = {}
    for position, image in enumerate(images):
        path = watch / f"frame-{position:05d}.npy"
        np.save(path, image)
        keys.setdefault(content_key(path.read_bytes()), image)
    return keys


def _ingest_metrics(paired, oracle, phases: Phases) -> dict:
    verdicts = [json.loads(line)
                for line in paired["sink"].read_text().splitlines()]
    drained = paired["drained"]
    stats, totals = drained["ingest"], drained["totals"]
    failed = ingest_load.check_verdicts(verdicts, paired["keys"], oracle,
                                        phases, "trace-ingest")
    phases.add("trace-ingest", stats["discovered"], failed)
    if not drained["idle"]:
        phases.problem("trace-ingest: the drain did not go idle")
    return {
        "ingest.ledger_ms": (totals.get("ledger", 0.0) * 1e3
                             / max(1, stats["processed"])),
        "ingest.sink_flush_ms": (totals.get("sink_flush", 0.0) * 1e3
                                 / max(1, totals.get("sink_flush_calls", 0))),
        "ingest.useful_share": (stats["processed"]
                                / max(1, stats["discovered"])),
        "ingest.rescored": len(verdicts) - len({v["key"] for v in verdicts}),
    }


def run(workload: str, seed: int, work, phases: Phases):
    profile, requests, fit = _inputs(workload, seed, work)
    single = _single_process(profile, requests)
    paired, env = _paired(profile, requests, single, seed, work, phases)
    oracle = common.Oracle(profile, sorted({image.shape
                                            for images in requests
                                            for image in images}))
    rows, times, order = single["rows"], paired["times"], paired["order"]

    def per_request(name):
        return [rows[name][index] for index in order]

    def diff(*terms):
        """Median of the paired difference first - rest, per request."""
        first, *rest = terms
        return median([a - sum(r) for a, *r in zip(first, *rest)])

    metrics = {
        "front.overhead_ms": diff(times["http"], times["pool"]),
        "protocol.decode_ms": median(rows["decode"]),
        "protocol.encode_ms": median(rows["encode"]),
        "protocol.body_mb": median(rows["body_mb"]),
        "pool.overhead_ms": diff(times["pool"], times["predict"]),
        "dispatch.tasks": paired["tasks"],
        "dispatch.images_per_task": paired["images_per_task"],
        "ipc.mb_per_request": median(rows["ipc_mb"]),
        "ipc.pickle_ms": median(rows["pickle"]),
        "engine.features_ms": median(rows["features"]),
        "engine.warm_s": single["warm_s"],
        "labeler.predict_ms": median(rows["predict_proba"]),
        "pipeline.load_s": single["load_s"],
        "pipeline.warmup_s": single["warmup_s"],
        **_ingest_metrics(paired, oracle, phases),
        "stage.crowd_s": fit["stages"]["crowd"],
        "stage.augment_s": fit["stages"]["augment"],
        "stage.features_s": fit["stages"]["features"],
        "stage.labeler_s": fit["stages"]["labeler"],
        "augment.patterns": fit["patterns"],
    }
    table = [
        ("serving.http (socket, HTTP parse)",
         diff(times["http"], times["pool"], per_request("decode"),
              per_request("encode"))),
        ("serving.protocol decode", metrics["protocol.decode_ms"]),
        ("serving.protocol encode", metrics["protocol.encode_ms"]),
        ("serving.dispatcher + pool + IPC", metrics["pool.overhead_ms"]),
        ("imaging.engine features", metrics["engine.features_ms"]),
        ("labeler.mlp predict_proba", metrics["labeler.predict_ms"]),
        ("core.pipeline predict, rest",
         diff(rows["predict"], rows["features"], rows["predict_proba"])),
    ]
    http_ms = median(times["http"])
    print(f"per-layer self time along one request, medians of "
          f"{len(order)} paired samples (HTTP round trip {http_ms:.3f} ms, "
          f"pool {median(times['pool']):.3f} ms, single-process predict "
          f"{median(times['predict']):.3f} ms):")
    for name, value in table:
        print(f"  {name:36} {value:9.3f} ms  {value / http_ms:7.1%}")
    detail = {"requests": len(requests), "samples": len(order),
              "round_trip_ms_p50": {lane: median(values)
                                    for lane, values in times.items()},
              "self_ms": dict(table)}
    return metrics, env, detail
