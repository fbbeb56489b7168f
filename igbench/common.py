"""Shared pieces of the benchmark: inputs, processes under test, stats.

Everything here runs in the benchmark's own process.  The program under
test is the checkout's ``src`` tree, reached two ways: imported directly
(input generation, the single-process oracle, the traced layer probes)
and launched as ``python -m repro.serving`` (the daemon the end-to-end
workloads drive).
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "igbench"

#: Serving profile: fitted once per run from a fixed dataset seed, so the
#: pattern count (and with it the engine cost per frame) is the same for
#: every ``--seed``; only the request inputs follow the seed.
PROFILE_SEED = 0
LINE_SCALE = 0.1     # KSDD 50x126 frames
BULK_SCALE = 0.3     # KSDD 150x377 frames, ~9x a line frame
REQUEST_TIMEOUT_S = 60.0
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "igshm-"


def source_present() -> bool:
    return (SRC / "repro" / "serving" / "__main__.py").is_file()


def use_source_tree() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def subprocess_env() -> dict:
    """The daemon's environment: the checkout's source, default knobs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The daemon runs with its documented defaults, whatever the caller's
    # shell exports.
    for name in ("REPRO_SERVING_IPC", "REPRO_SERVING_DEBUG"):
        env.pop(name, None)
    return env


def seed_for(seed: int, *parts) -> int:
    """A 32-bit sub-seed derived from the run seed and a label."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:4], "little")


# -- environment --------------------------------------------------------------

def source_digest() -> str:
    """Git SHA when the checkout is a repository, else a hash of ``src``."""
    try:
        if not (ROOT / ".git").exists():
            raise FileNotFoundError(ROOT / ".git")
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def environment(**serving) -> dict:
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **serving,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "source": source_digest(),
    }


# -- statistics ---------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


#: The latency a failed or refused request counts with: it misses every
#: latency figure below the request timeout.
FAILED_MS = REQUEST_TIMEOUT_S * 1e3


def end_to_end(setups, windows, throughputs, rss) -> dict:
    """The end-to-end metrics of one run, each a median.

    ``windows`` holds the latency samples of contiguous stretches of the
    timed phase.  Percentiles are taken within each window and the run
    reports their median over windows, as it reports the median over
    segments of set-up time, throughput and RSS.  A burst of interference
    from the host that slows one window then moves a figure much less than
    it moves a percentile pooled over the whole run.
    """
    return {
        "setup_s": median(setups),
        "p50_ms": median([percentile(w, 50) for w in windows if w]),
        "p90_ms": median([percentile(w, 90) for w in windows if w]),
        "throughput_per_s": median(throughputs),
        "rss_mb": median(rss),
    }


class Phases:
    """Attempted/failed counts per phase, summed into the result line."""

    def __init__(self):
        self.counts: dict[str, dict[str, int]] = {}
        self.problems: list[str] = []

    def add(self, phase: str, attempted: int, failed: int) -> None:
        entry = self.counts.setdefault(phase, {"attempted": 0, "failed": 0})
        entry["attempted"] += attempted
        entry["failed"] += failed

    def problem(self, message: str) -> None:
        self.problems.append(message)

    @property
    def attempted(self) -> int:
        return sum(entry["attempted"] for entry in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(entry["failed"] for entry in self.counts.values())


# -- inputs -------------------------------------------------------------------

def serving_profile(work: Path) -> Path:
    """Fit and save the profile the daemon serves (~0.2 s)."""
    from repro.core.pipeline import InspectorGadget
    from repro.datasets.registry import make_dataset
    from repro.eval.experiments import ExperimentProfile, build_ig_config

    profile = ExperimentProfile(scale=LINE_SCALE, n_images=60,
                                target_defective=6, augment_mode="none",
                                labeler_max_iter=50, tune=False,
                                seed=PROFILE_SEED)
    dataset = make_dataset("ksdd", scale=LINE_SCALE, seed=PROFILE_SEED,
                           n_images=60)
    ig = InspectorGadget(build_ig_config(profile))
    ig.fit(dataset)
    return ig.save(work / "serving.igz")


#: ``fit`` pools: small, so each run holds many fits; a fixed dev budget
#: keeps the number of weakly labelled images per fit constant.
FIT_SCALE = 0.08          # KSDD 40x101 frames
FIT_POOL = 32
FIT_DEFECTIVE = 8
FIT_DEV_BUDGET = 16


def fit_config():
    """The ``fit`` workload's pipeline: every stage on, sized small."""
    from repro.eval.experiments import ExperimentProfile, build_ig_config

    profile = ExperimentProfile(scale=FIT_SCALE, n_images=FIT_POOL,
                                augment_mode="both", n_policy=4, n_gan=4,
                                policy_max_combos=1, rgan_epochs=10,
                                rgan_side_cap=10, labeler_max_iter=20,
                                tune=True, seed=0)
    return replace(build_ig_config(profile), tune_max_layers=1)


def fit_pool(seed: int, index: int):
    from repro.datasets.ksdd import KSDDConfig, make_ksdd
    return make_ksdd(KSDDConfig(n_images=FIT_POOL, n_defective=FIT_DEFECTIVE,
                                scale=FIT_SCALE),
                     seed=seed_for(seed, "fit-pool", index))


def non_dev_images(ig, dataset) -> list:
    """The images of a fitted pool that its crowd dev set left out."""
    dev = set(ig.crowd_result.dev_indices)
    return [item.image for i, item in enumerate(dataset.images)
            if i not in dev]


def frames(name: str, scale: float, seed: int, count: int) -> list:
    from repro.datasets.registry import make_dataset
    dataset = make_dataset(name, scale=scale, seed=seed, n_images=count)
    return [item.image for item in dataset.images][:count]


class Oracle:
    """Single-process ``predict`` of each request's own images."""

    def __init__(self, profile: Path, shapes):
        from repro.core.pipeline import InspectorGadget
        self.ig = InspectorGadget.load(profile)
        self.ig.warmup(shapes)

    def probs_bytes(self, images) -> bytes:
        return self.ig.predict(list(images)).probs.tobytes()


def probs_bytes_of(probs) -> bytes:
    """The float64 bytes of JSON ``probs`` (they round-trip exactly)."""
    return np.asarray(probs, dtype=np.float64).tobytes()


# -- process trees ------------------------------------------------------------

_PAGE_KB = os.sysconf("SC_PAGE_SIZE") / 1024.0


def _stat(pid: int):
    """(ppid, start time) of a live process, or None."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    fields = raw[raw.rfind(b")") + 2:].split()
    if fields[0] == b"Z":
        return None
    return int(fields[1]), int(fields[19])


def _rss_kb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_KB
    except (OSError, IndexError, ValueError):
        return 0.0


def descendants(root: int) -> list[tuple[int, int]]:
    """(pid, start time) of ``root`` and every live descendant."""
    parents = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            info = _stat(int(name))
            if info is not None:
                parents[int(name)] = info
    if root not in parents:
        return []
    tree = [(root, parents[root][1])]
    frontier = [root]
    while frontier:
        parent = frontier.pop()
        for pid, (ppid, start) in parents.items():
            if ppid == parent:
                tree.append((pid, start))
                frontier.append(pid)
    return tree


class TreeSampler:
    """Peak summed RSS of a process tree, plus every member it saw.

    RSS is read every ``interval_s``; the tree's membership, which needs a
    scan of all of ``/proc``, is refreshed every ``rescan_s``, keeping the
    sampler's own CPU use small beside the program under test.
    """

    def __init__(self, root: int, interval_s: float = 0.05,
                 rescan_s: float = 0.5):
        self.root = root
        self.interval_s = interval_s
        self.rescan_s = rescan_s
        self.peak_kb = 0.0
        self.seen: set[tuple[int, int]] = set()
        self._tree: list[tuple[int, int]] = []
        self._scanned = float("-inf")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(self.interval_s)

    def sample(self, rescan: bool = False) -> None:
        now = time.monotonic()
        if rescan or now - self._scanned >= self.rescan_s:
            self._tree = descendants(self.root)
            self._scanned = now
            self.seen.update(self._tree)
        self.peak_kb = max(self.peak_kb,
                           sum(_rss_kb(pid) for pid, _ in self._tree))

    def stop(self) -> float:
        self._stop.set()
        self._thread.join(timeout=5)
        return self.peak_kb / 1024.0


def leftover_processes(seen, wait_s: float = 5.0) -> list[int]:
    """Members of a finished tree still alive after ``wait_s``."""
    me = os.getpid()
    deadline = time.monotonic() + wait_s
    while True:
        alive = [pid for pid, start in seen if pid != me
                 and (_stat(pid) or (None, None))[1] == start]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir(SHM_DIR)
                if name.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def check_processes(phases: Phases, label: str, seen) -> None:
    """Report, then reap, processes a finished tree left behind.

    The check comes first: strays are killed only after they were
    reported, so a leak always marks the run incorrect.
    """
    strays = leftover_processes(seen)
    if not strays:
        return
    phases.problem(f"{label}: {len(strays)} process(es) outlived their "
                   f"parent: {strays}")
    for pid in strays:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    leftover_processes([(pid, start) for pid, start in seen
                        if pid in strays])


#: Set to a token of the run in the benchmark's environment, so every
#: process it starts, and everything those start, inherits it.  The sweep
#: at the end of a run finds them by it even after they were reparented
#: away from the tree they started in.
RUN_MARK = "IGBENCH_RUN"
PR_SET_CHILD_SUBREAPER = 36


def mark_run() -> None:
    """Mark this run's processes, and adopt the ones orphaned on the way.

    As a child subreaper (Linux), the benchmark becomes the parent of any
    descendant whose own parent exits first, such as a daemon's resource
    tracker, so the sweep can wait for and reap it.
    """
    os.environ[RUN_MARK] = f"{os.getpid()}-{time.time_ns()}"
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1,
                                                 0, 0, 0)
    except (OSError, AttributeError):
        pass


def marked_processes() -> list[tuple[int, int]]:
    """(pid, start time) of live processes carrying this run's mark."""
    token = f"{RUN_MARK}={os.environ[RUN_MARK]}".encode()
    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/environ", "rb") as fh:
                marked = token in fh.read().split(b"\0")
        except OSError:
            continue
        info = _stat(int(name))
        if marked and info is not None:
            found.append((int(name), info[1]))
    return found


def sweep(phases: Phases) -> None:
    """Wait for every process of this run to end; report, then kill, the
    ones that do not."""
    check_processes(phases, "run", marked_processes())
    me = os.getpid()
    for name in os.listdir("/proc"):
        if name.isdigit() and _zombie_of(int(name)) == me:
            try:
                os.waitpid(int(name), os.WNOHANG)
            except OSError:
                pass


def _zombie_of(pid: int) -> int | None:
    """The parent of ``pid`` if it is a zombie, else None."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    fields = raw[raw.rfind(b")") + 2:].split()
    return int(fields[1]) if fields[0] == b"Z" else None


def check_segments(phases: Phases, label: str, before: set) -> None:
    """Report, then unlink, ``igshm-`` segments created since ``before``."""
    leaked = sorted(shm_segments() - before)
    if not leaked:
        return
    phases.problem(f"{label}: {len(leaked)} {SHM_PREFIX}* segment(s) left "
                   f"in {SHM_DIR}")
    for name in leaked:
        try:
            os.unlink(SHM_DIR / name)
        except OSError:
            pass


# -- processes under test ------------------------------------------------------

class Launched:
    """One interpreter process under test, from launch to reaping.

    ``args`` follow the interpreter (``-m repro.serving ...``).
    ``setup_s`` is launch until the process prints its ready line
    (``serving HTTP on`` / ``watching`` / ``ready``) on stdout.
    """

    def __init__(self, args: list[str], work: Path, label: str,
                 phases: Phases, ready_prefix: str, commands: bool = False,
                 check_shm: bool = True):
        self.label = label
        self.phases = phases
        # None: the caller checks segments itself (several trees at once).
        self.shm_before = shm_segments() if check_shm else None
        self.stderr_path = work / f"{label}.stderr"
        self._stderr = open(self.stderr_path, "wb")
        self._lines: queue.Queue = queue.Queue()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.PIPE if commands else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._stderr, cwd=ROOT,
            env=subprocess_env(), text=True)
        self.sampler = TreeSampler(self.proc.pid)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.ready_line = self._wait_line(ready_prefix, timeout=120.0)
        self.ready_at = time.perf_counter()
        self.setup_s = self.ready_at - start
        self.rss_mb: float | None = None
        self.exit_code: int | None = None

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _wait_line(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline
                                                   - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.close()
                raise RuntimeError(
                    f"{self.label}: no {prefix!r} line on stdout; "
                    f"stderr: {self.stderr_tail()}")
            if line.startswith(prefix):
                return line

    def ask(self, command: str) -> dict:
        """Send one command line; return the JSON line it answers with."""
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self._wait_line("{", REQUEST_TIMEOUT_S))

    def output(self) -> list[str]:
        """Stdout lines after the ready line (complete once exited)."""
        lines = []
        while True:
            try:
                line = self._lines.get_nowait()
            except queue.Empty:
                return lines
            if line is not None:
                lines.append(line)

    def stderr_tail(self) -> str:
        if not self._stderr.closed:
            self._stderr.flush()
        return self.stderr_path.read_text(errors="replace")[-800:]

    @property
    def url(self) -> str:
        return self.ready_line.split()[-1]

    def wait(self, timeout: float = 60.0) -> int:
        """Wait for exit (SIGINT, then SIGKILL, past the timeout); reap."""
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        try:
            self.exit_code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.phases.problem(f"{self.label}: process did not exit in "
                                f"{timeout:.0f} s; sent SIGINT")
            self.proc.send_signal(signal.SIGINT)
            try:
                self.exit_code = self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.exit_code = self.proc.wait()
        self.close()
        if self.exit_code != 0:
            self.phases.problem(f"{self.label}: process exited "
                                f"{self.exit_code}: {self.stderr_tail()}")
        return self.exit_code

    def close(self) -> None:
        """Stop sampling and run the hygiene check (idempotent)."""
        if self.rss_mb is not None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.rss_mb = self.sampler.stop()
        self._reader.join(timeout=5)
        self._stderr.close()
        check_processes(self.phases, self.label, self.sampler.seen)
        if self.shm_before is not None:
            check_segments(self.phases, self.label, self.shm_before)


def http_daemon(profile: Path, work: Path, label: str, phases: Phases,
                check_shm: bool = True) -> Launched:
    return Launched(["-m", "repro.serving", "--profile", str(profile),
                     "--http", "127.0.0.1:0"],
                    work, label, phases, "serving HTTP on",
                    check_shm=check_shm)


class Client:
    """One keep-alive HTTP/1.1 connection to a daemon."""

    def __init__(self, url: str, timeout: float = REQUEST_TIMEOUT_S):
        import http.client
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.conn = http.client.HTTPConnection(host, int(port),
                                               timeout=timeout)

    def request(self, method: str, path: str, body: bytes | None = None):
        headers = {"Content-Type": "application/json"}
        if body is None and method == "POST":
            body = b""
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def get_json(self, path: str) -> dict:
        status, payload = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(payload)

    def close(self) -> None:
        self.conn.close()


def drain(daemon: Launched) -> None:
    """Stop an HTTP daemon the documented way: ``POST /admin/drain``."""
    client = Client(daemon.url)
    try:
        status, _ = client.request("POST", "/admin/drain")
        if status != 200:
            daemon.phases.problem(f"{daemon.label}: drain answered {status}")
    except OSError as exc:
        daemon.phases.problem(f"{daemon.label}: drain failed: {exc}")
    finally:
        client.close()
    daemon.wait()


def ipc_lane() -> str:
    """What ``ipc_transport="auto"`` resolves to on this host.

    The probe creates a shared-memory segment, which starts a resource
    tracker process beside whoever runs it; a child interpreter runs it,
    so that process ends with the child rather than outliving the
    benchmark.
    """
    probe = subprocess.run(
        [sys.executable, "-c", "from repro.serving.shm import "
         "resolve_ipc_transport; print(resolve_ipc_transport('auto'))"],
        capture_output=True, text=True, cwd=ROOT, env=subprocess_env(),
        timeout=60)
    if probe.returncode != 0:
        raise RuntimeError(f"IPC probe failed: {probe.stderr[-800:]}")
    return probe.stdout.strip()


def serving_env(daemon: Launched) -> dict:
    """What the daemon resolved: IPC lane, HTTP backend, worker count."""
    client = Client(daemon.url)
    try:
        pool = client.get_json("/profile")["pool"]
    finally:
        client.close()
    return {"ipc": pool["ipc_transport"], "http_backend": pool["http_backend"],
            "workers": pool["workers"]}


def encode_body(images) -> bytes:
    from repro.serving.protocol import encode_image
    if len(images) == 1:
        payload = {"image": encode_image(images[0])}
    else:
        payload = {"images": [encode_image(image) for image in images]}
    return json.dumps(payload).encode("utf-8")
