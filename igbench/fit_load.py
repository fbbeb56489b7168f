"""The ``fit`` workload: cold ``InspectorGadget.fit`` with every stage.

Each segment launches ``fit_child.py`` in a fresh interpreter, which
fits distinct generated KSDD pools one after another (crowd, policy +
GAN augment, features, tuned MLP) and weakly labels each pool's non-dev
images.  The oracle refits one pool here, on a fresh pipeline in this
process, and must reproduce that fit's serving fingerprint, pattern
count and weak-label bytes.
"""

from __future__ import annotations

import hashlib
import json

import common
from common import Phases

SEGMENTS = 3
POOLS = 24                # generated per segment; fitting stops at the budget


def run_fit(seed: int, seconds: float, work, phases: Phases) -> tuple:
    child = str(common.ROOT / "igbench" / "fit_child.py")
    budget_s = seconds / SEGMENTS
    setups, rss, fits, windows, throughputs = [], [], [], [], []
    for segment in range(SEGMENTS):
        process = common.Launched(
            [child, str(seed), str(segment), str(POOLS), str(budget_s)],
            work, f"fit-{segment}", phases, "ready")
        setups.append(process.setup_s)
        failed = process.wait(timeout=120.0) != 0
        rss.append(process.rss_mb)
        done = [json.loads(line) for line in process.output()]
        phases.add("fit", len(done) + failed, int(failed))
        fits += done
        windows.append([fit["fit_s"] * 1e3 for fit in done]
                       + [common.FAILED_MS] * failed)
        if done:
            throughputs.append(sum(fit["labelled"] for fit in done)
                               / sum(fit["fit_s"] + fit["label_s"]
                                     for fit in done))
    if not fits:
        raise RuntimeError(f"no fit completed: {process.stderr_tail()}")
    _check_refit(seed, fits[0], phases)
    detail = {"samples": len(fits), "windows": len(windows),
              "patterns": sorted({fit["patterns"] for fit in fits}),
              "pool_images": common.FIT_POOL,
              "dev_budget": common.FIT_DEV_BUDGET}
    return (common.end_to_end(setups, windows, throughputs, rss),
            {"ipc": None, "http_backend": None, "workers": None}, detail)


def _check_refit(seed: int, fit: dict, phases: Phases) -> None:
    from repro.core.pipeline import InspectorGadget

    dataset = common.fit_pool(seed, fit["pool"])
    ig = InspectorGadget(common.fit_config())
    ig.fit(dataset, dev_budget=common.FIT_DEV_BUDGET)
    weak = ig.predict(common.non_dev_images(ig, dataset))
    refit = {"fingerprint": ig.serving_fingerprint(),
             "patterns": len(ig.feature_generator.patterns),
             "probs_sha256": hashlib.sha256(weak.probs.tobytes()).hexdigest()}
    phases.add("refit", 1, 0)
    for key, value in refit.items():
        if fit[key] != value:
            phases.problem(f"refit of pool {fit['pool']}: {key} differs "
                           f"({value} here, {fit[key]} in the child)")
            phases.add("refit", 0, 1)
            return
