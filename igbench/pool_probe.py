"""In-process pool probe for the traced run, in its own interpreter.

    python3 igbench/pool_probe.py PROFILE REQUESTS_NPZ

Brings up a ``ServingPool`` with its default config (so its workers and
resource tracker belong to this process's tree, which the parent's
hygiene check covers), prints ``ready`` and answers commands on stdin,
one JSON line each on stdout:

* ``label I`` — ``submit`` -> ``result`` of request ``I`` of
  REQUESTS_NPZ, timed here: ``{"ms": ..., "ok": bytes equal}``;
* ``ingest WATCH_DIR LEDGER OUT_JSONL`` — one ``--once`` drain of
  WATCH_DIR through an ``IngestController`` on the same pool, with
  ``CheckpointLedger.record``/``sync`` and the sink's ``flush`` timed
  from here: ``{"ingest": stats, "idle": ..., "totals": ...}``.

End of input shuts the pool down and exits.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np


def load_requests(path: Path):
    """[(images, expected probs bytes)] from the parent's npz file."""
    with np.load(path) as data:
        counts = data["counts"]
        requests, cursor = [], 0
        for index, count in enumerate(counts):
            images = [data[f"image_{cursor + i}"] for i in range(count)]
            requests.append((images, data[f"expected_{index}"].tobytes()))
            cursor += count
    return requests


def timed(method, totals: dict, name: str):
    """Wrap a bound method so its wall time accumulates in ``totals``."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            totals[name] = totals.get(name, 0.0) + time.perf_counter() - start
            totals[name + "_calls"] = totals.get(name + "_calls", 0) + 1
    return wrapper


def ingest(pool, watch_dir: str, ledger: str, out_jsonl: str) -> dict:
    from repro.serving.ingest.controller import IngestController
    from repro.serving.ingest.sinks import JsonlSink

    import common
    totals: dict = {}
    sink = JsonlSink(out_jsonl)
    sink.flush = timed(sink.flush, totals, "sink_flush")
    controller = IngestController(pool, watch_dir, [sink], ledger, once=True)
    controller.ledger.record = timed(controller.ledger.record, totals,
                                     "ledger")
    controller.ledger.sync = timed(controller.ledger.sync, totals, "ledger")
    controller.start()
    idle = controller.wait_idle(timeout=common.REQUEST_TIMEOUT_S)
    controller.stop(drain=True, flush=True)
    return {"ingest": controller.stats(), "idle": idle, "totals": totals}


def main(argv) -> int:
    profile, requests_npz = argv
    import common
    common.use_source_tree()
    from repro.serving import ServingPool

    requests = load_requests(Path(requests_npz))
    with ServingPool(profile) as pool:
        print("ready", flush=True)
        for line in sys.stdin:
            command, *args = line.split()
            if command == "label":
                images, expected = requests[int(args[0])]
                start = time.perf_counter()
                weak = pool.submit(images).result(common.REQUEST_TIMEOUT_S)
                reply = {"ms": (time.perf_counter() - start) * 1e3,
                         "ok": weak.probs.tobytes() == expected}
            else:
                reply = ingest(pool, *args)
            print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
