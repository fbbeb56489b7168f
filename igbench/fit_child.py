"""The ``fit`` workload's fresh interpreter.

    python3 igbench/fit_child.py SEED SEGMENT POOLS BUDGET_S

Imports the stack, generates its ``POOLS`` KSDD pools and prints
``ready`` (the parent times launch to ``ready`` as set-up).  After one
untimed warm-up fit it runs cold ``InspectorGadget.fit`` with every
stage on one pool after another, each followed by weak labels for that
pool's non-dev images, until ``BUDGET_S`` seconds of fitting and
labelling are spent (at least one fit), and prints one JSON line per
fit.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time


def main(argv) -> int:
    seed, segment, pools, budget_s = (int(argv[0]), int(argv[1]),
                                      int(argv[2]), float(argv[3]))
    import common
    common.use_source_tree()
    from repro.core.pipeline import InspectorGadget

    config = common.fit_config()
    datasets = [common.fit_pool(seed, segment * pools + index)
                for index in range(pools)]
    print("ready", flush=True)
    # One untimed fit first, so lazy imports and first-call costs of this
    # fresh interpreter land on no measured fit.
    warm = common.fit_pool(seed, -1 - segment)
    InspectorGadget(config).fit(warm, dev_budget=common.FIT_DEV_BUDGET)
    spent = 0.0
    for index, dataset in enumerate(datasets):
        if spent >= budget_s:
            break
        start = time.perf_counter()
        ig = InspectorGadget(config)
        ig.fit(dataset, dev_budget=common.FIT_DEV_BUDGET)
        fitted = time.perf_counter()
        rest = common.non_dev_images(ig, dataset)
        weak = ig.predict(rest)
        done = time.perf_counter()
        spent += done - start
        print(json.dumps({
            "pool": segment * pools + index,
            "fit_s": fitted - start,
            "label_s": done - fitted,
            "labelled": len(rest),
            "fingerprint": ig.serving_fingerprint(),
            "patterns": len(ig.feature_generator.patterns),
            "probs_sha256": hashlib.sha256(weak.probs.tobytes()).hexdigest(),
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
