"""In-memory span recorder and per-episode outcome log, both installed by
replacing public functions at their module (or class) attributes.

The package calls its own layers through module attributes (`sim.render`,
`nn.forward_batch`, `bayes.potential_energy`, ...), so a replaced attribute
sees the calls made inside the package as well as the benchmark's own.
Nothing in the package is edited; `restore()` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    """Records one span per call of each wrapped function: name, start,
    end, index of the enclosing span (-1 at top level) and the episode the
    call belongs to. Spans are kept in memory and only recorded in the
    process that created the tracer while `enabled` is set; forked pool
    workers run the originals."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.episodes: list[object] = []
        self.episode: object = None
        self.enabled = False
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, owner, attr: str, name: str | None = None, namer=None,
             episode_key=None) -> bool:
        """Replace owner.attr by a recording wrapper. `namer(args, kwargs)`
        may label a call (e.g. extractor versus head forward passes);
        `episode_key(args, kwargs)` marks the call as an episode whose
        spans all carry that key. Returns False, and wraps nothing, when
        the attribute is absent."""
        original = getattr(owner, attr, None)
        if original is None:
            return False
        label = name or attr
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled or os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            outer_episode = tracer.episode
            if episode_key is not None:
                tracer.episode = episode_key(args, kwargs)
            idx = len(tracer.names)
            tracer.names.append(namer(args, kwargs) if namer else label)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.episodes.append(tracer.episode)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                return original(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()
                tracer.episode = outer_episode

        self.patch(owner, attr, traced)
        return True

    def patch(self, owner, attr: str, replacement) -> None:
        # a class keeps its descriptor (classmethod, staticmethod) as stored
        if isinstance(owner, type) and attr in vars(owner):
            original = vars(owner)[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> np.ndarray:
        """Durations in seconds of every span with this name."""
        return np.asarray([e - s for n, s, e in zip(self.names, self.starts, self.ends)
                           if n == name])

    def self_times(self) -> np.ndarray:
        return self_times(self.starts, self.ends, self.parents)

    def write(self, path: Path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i in range(len(self.names)):
                ep = self.episodes[i]
                fh.write(json.dumps({
                    "name": self.names[i], "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i],
                    "episode": list(ep) if isinstance(ep, tuple) else ep,
                }) + "\n")


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    out = np.empty(len(starts))
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s), min(b, e)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[i] = (e - s) - covered
    return out


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile; 0.0 for no samples."""
    arr = np.asarray(values, dtype=np.float64)
    return float(np.percentile(arr, q)) if arr.size else 0.0


def seed_of(signature: inspect.Signature, args, kwargs):
    """The `seed` argument of a run_episode call, as a hashable key."""
    seed = signature.bind(*args, **kwargs).arguments.get("seed", 0)
    return tuple(seed) if isinstance(seed, (list, tuple)) else seed


class EpisodeLog:
    """Outcome and step count of every `sim.run_episode` call, including
    calls in forked pool workers, which append one JSON line per episode to
    a file of their own under `spool`."""

    def __init__(self, sim_module, spool: Path, tracer: Tracer):
        self.records: list[dict] = []
        self.spool = spool
        self._pid = os.getpid()
        original = sim_module.run_episode
        self.signature = signature = inspect.signature(original)
        log = self

        @functools.wraps(original)
        def logged(*args, **kwargs):
            label = seed_of(signature, args, kwargs)
            path = original(*args, **kwargs)
            rec = {"seed": list(label) if isinstance(label, tuple) else label,
                   "outcome": path.outcome, "steps": len(path.records),
                   "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if os.getpid() == log._pid:
                log.records.append(rec)
            else:
                fd = os.open(log.spool / f"episodes-{os.getpid()}.jsonl",
                             os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
                try:
                    os.write(fd, (json.dumps(rec) + "\n").encode())
                finally:
                    os.close(fd)
            return path

        tracer.patch(sim_module, "run_episode", logged)

    def take(self) -> list[dict]:
        """Every record since the last call, the workers' included."""
        out, self.records = self.records, []
        for path in sorted(self.spool.glob("episodes-*.jsonl")):
            out.extend(json.loads(line) for line in path.read_text().splitlines())
            path.unlink()
        return out


class PoolCounter:
    """Bytes and messages the parent serialises for worker processes.
    Counted at multiprocessing's pickler, which every queue and pipe of a
    process pool sends through, and at the dump used to launch spawned
    workers. Task messages are those over 64 bytes; shutdown sentinels and
    wake-ups are smaller."""

    TASK_MIN_BYTES = 64

    def __init__(self, tracer: Tracer):
        from multiprocessing import reduction

        self.bytes = 0
        self.tasks = 0
        self.active = False
        self._lock = threading.Lock()
        pid = os.getpid()
        counter = self
        dumps = reduction.ForkingPickler.dumps
        dump = reduction.dump

        def counted_dumps(obj, protocol=None):
            buf = dumps(obj, protocol)
            if counter.active and os.getpid() == pid:
                counter._add(len(buf))
            return buf

        def counted_dump(obj, file, protocol=None):
            start = file.tell() if hasattr(file, "tell") else None
            dump(obj, file, protocol)
            if counter.active and start is not None and os.getpid() == pid:
                counter._add(file.tell() - start)

        tracer.patch(reduction.ForkingPickler, "dumps", staticmethod(counted_dumps))
        tracer.patch(reduction, "dump", counted_dump)

    def _add(self, n: int) -> None:
        # the executor's queue feeder thread does the pickling
        with self._lock:
            self.bytes += n
            if n > self.TASK_MIN_BYTES:
                self.tasks += 1
