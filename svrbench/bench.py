"""One benchmark workload against ``SVRTextIndex``'s public API.

Run through ``svrbench/run.py``, which starts this file in a child
interpreter with a pinned environment.  One closed-loop client thread sends
each request after the previous answer arrives.  Every answer is checked
against the brute-force :class:`~oracle.Oracle`; a mismatch, a ``degraded``
answer or an exception counts as a failed operation.

Two modes:

* timed (the default): set up, warm up, then run requests for ``--seconds``
  and print the metrics as the last stdout line;
* fixed (``--steps N``): run exactly N workload steps and print the
  deterministic cost-model counts instead (used by ``selftest.py``).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import heapq
import json
import os
import random
import resource
import shutil
import statistics
import struct
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import asdict
from functools import partial
from itertools import islice

from repro.core.text_index import SVRTextIndex
from repro.workloads.queries import KeywordQuery, QueryWorkload, QueryWorkloadConfig
from repro.workloads.synthetic import SyntheticCorpusConfig, generate_corpus
from repro.workloads.updates import UpdateWorkload, UpdateWorkloadConfig, resolve_batch

from oracle import Oracle
from tracer import Tracer

CORPUS = dict(num_docs=10_000, terms_per_doc=40, num_distinct_terms=40_000)
INDEX = dict(method="chunk", page_size=512, chunk_ratio=2.2, min_chunk_size=10)
K = 10
WINDOW = 32
SETUP_BUILDS = 3
BUILD_SLICE = 500           # documents added between two speed samples

#: Per workload: index options and the number of untimed warm-up steps.
WORKLOADS = {
    # 512 pages (256 KB) against ~2.1 MB of stored index: the read path misses.
    "query_heavy": dict(cache_pages=512, warmup=200),
    # A pool larger than every page the index allocates: the write path is hot.
    "update_heavy": dict(cache_pages=1 << 16, warmup=8),
    # File-backed, two shards, two executor threads.
    "durable_mixed": dict(cache_pages=1024, shards=2, threads=2, durable=True,
                          warmup=8),
}
UPDATE_QUERY_EVERY = 8      # update_heavy: windows per focus-term query
COMMIT_EVERY = 20           # durable_mixed: windows per commit
PROBE_DOCS = 300            # durable_mixed: documents re-read after reopen
PROBE_QUERIES = 20          # durable_mixed: queries re-checked after reopen
QUERY_BATCH = 1000          # queries generated per QueryWorkload draw
STORE_AT_STEP = 100         # recorded steps before the store size is read
WORK_DIR = ".svrbench_work"


# -- same-run speed anchor -----------------------------------------------------

#: Typical seconds of one reference task on a 2.1 GHz cloud vCPU (Python 3.11).
REFERENCE_S = 0.003
REFERENCE_EVERY_S = 0.1
REFERENCE_NEAR_S = 0.5      # a request is scaled by the samples this close to it
ELASTICITY = 0.6
_UNPACK = struct.Struct("<4I").unpack_from
_DATA = bytes(range(256)) * 8


def reference_work(rounds: int = 1500) -> int:
    """A fixed interpreter-bound task that runs no engine code.

    Dict updates, heap pushes and pops, struct unpacking and small sorts:
    the same kinds of interpreter work the engine does, so a machine that
    runs slower (other tenants on the host) slows both alike.
    """
    table: dict[int, int] = {}
    heap: list = []
    total = 0
    for i in range(rounds):
        key = (i * 7919) % 1024
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (key, i))
        if len(heap) > 32:
            heapq.heappop(heap)
        total += sum(_UNPACK(_DATA, (i * 16) % 2032))
        total += len(sorted((key, i % 13, i % 7)))
    return total + len(table)


class Speed:
    """How fast the machine runs, sampled with the reference task.

    On a shared 2-vCPU cloud VM, speed drifts by a third or more within
    minutes as other tenants come and go, which swamps changes to the
    engine.  Timed figures are therefore divided by a slowdown factor: the
    median reference time near the request (or over a build), relative to
    :data:`REFERENCE_S`, raised to :data:`ELASTICITY`.  Regressing the log
    of engine time on the log of the reference time over 10 s windows on
    such a VM gave slopes of 0.5 to 0.66 in two traces and 1.2 in a third;
    0.6 gave the smallest spread over all three.  The reference task never
    runs inside a timed request or build slice.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stamps: list[float] = []   # when each sample ended
        self.last = 0.0

    def sample(self) -> None:
        started = time.perf_counter()
        reference_work()
        self.last = time.perf_counter()
        self.samples.append(self.last - started)
        self.stamps.append(self.last)

    def tick(self) -> None:
        """Sample when the last sample is older than ``REFERENCE_EVERY_S``."""
        if time.perf_counter() - self.last >= REFERENCE_EVERY_S:
            self.sample()

    def mark(self) -> int:
        """A position to measure the speed from (see :meth:`factor`)."""
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Slowdown against the reference speed over the samples since ``since``."""
        return self._slowdown(self.samples[since:])

    def factor_at(self, moment: float) -> float:
        """Slowdown against the reference speed within ``REFERENCE_NEAR_S`` of ``moment``.

        The drift moves within a run, so each request is scaled by the
        samples around it rather than by one figure for the whole run.
        """
        low = bisect.bisect_left(self.stamps, moment - REFERENCE_NEAR_S)
        high = bisect.bisect_right(self.stamps, moment + REFERENCE_NEAR_S)
        return self._slowdown(self.samples[low:high])

    def _slowdown(self, near: list) -> float:
        near = near or self.samples[-1:]
        return (statistics.median(near) / REFERENCE_S) ** ELASTICITY


# -- inputs --------------------------------------------------------------------


class Inputs:
    """Everything a run sends, generated from ``--seed`` alone."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"svrbench:{seed}")
        self.corpus_seed, self.query_seed, self.update_seed, self.pick_seed = (
            rng.randrange(2 ** 31) for _ in range(4)
        )
        self.corpus = generate_corpus(
            SyntheticCorpusConfig(**CORPUS, seed=self.corpus_seed)
        )
        vocabulary = CORPUS["num_distinct_terms"]
        widest = QueryWorkloadConfig(selectivity="medium").candidate_pool_size(vocabulary)
        self.frequent = self.corpus.frequent_terms(widest)
        self.postings = sum(len(set(doc.terms)) for doc in self.corpus.documents)

    def queries(self, selectivity: str, salt: int):
        """An endless deterministic stream of 2-keyword top-k queries."""
        vocabulary = CORPUS["num_distinct_terms"]
        for draw in range(1 << 30):
            config = QueryWorkloadConfig(
                num_queries=QUERY_BATCH, selectivity=selectivity, k=K,
                seed=self.query_seed + 7919 * draw + salt,
            )
            yield from QueryWorkload(config, self.frequent,
                                     vocabulary_size=vocabulary).generate()

    def updates(self) -> UpdateWorkload:
        """The paper-default update stream (flash crowd on a 1% focus set)."""
        config = UpdateWorkloadConfig(num_updates=1 << 40, seed=self.update_seed)
        return UpdateWorkload(config, self.corpus.scores())

    def digest(self, workload: str) -> str:
        """Hash of the generated inputs: corpus, query and update prefixes."""
        sha = hashlib.sha256(json.dumps([workload, CORPUS, INDEX, WORKLOADS[workload]],
                                        sort_keys=True).encode())
        for doc in self.corpus.documents:
            sha.update(f"{doc.doc_id}:{doc.score!r}:{' '.join(doc.terms)}\n".encode())
        for selectivity, salt in (("unselective", 1), ("medium", 2)):
            for query in islice(self.queries(selectivity, salt), 256):
                sha.update(repr(query.keywords).encode())
        for update in islice(self.updates().generate(), 1024):
            sha.update(f"{update.doc_id}:{update.delta!r}\n".encode())
        return sha.hexdigest()[:16]


def build(inputs: Inputs, spec: dict, path: "str | None",
          speed: Speed) -> "tuple[SVRTextIndex, float]":
    """Build the index (add + finalize, + checkpoint when durable).

    Returns the index and its build time at the reference speed.  The
    build runs in slices with a speed sample before each one.
    """
    index = SVRTextIndex(
        cache_pages=spec["cache_pages"], shards=spec.get("shards", 1),
        threads=spec.get("threads", 1), path=path, **INDEX,
    )

    def add(part) -> None:
        for doc in part:
            index.add_document_terms(doc.doc_id, doc.terms, doc.score)

    documents = inputs.corpus.documents
    steps = [partial(add, documents[start:start + BUILD_SLICE])
             for start in range(0, len(documents), BUILD_SLICE)]
    steps.append(index.finalize)
    if path is not None:
        steps.append(index.checkpoint)
    seconds = 0.0
    mark = speed.mark()
    for step in steps:
        speed.sample()
        started = time.perf_counter()
        step()
        seconds += time.perf_counter() - started
    return index, seconds / speed.factor(mark)


# -- measurement ---------------------------------------------------------------


def wal_bytes(index: SVRTextIndex) -> int:
    """Bytes appended to every write-ahead log of the index (0 in memory)."""
    envs = getattr(index.env, "shards", [index.env])
    return sum(env.disk.wal.stats.bytes_appended
               for env in envs if getattr(env.disk, "wal", None) is not None)


def percentile(samples: list, pct: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


class Client:
    """The closed-loop client: sends requests, checks answers, keeps counts."""

    def __init__(self, index: SVRTextIndex, oracle: Oracle, speed: Speed) -> None:
        self.index = index
        self.speed = speed
        self.oracle = oracle
        self.tracer: "Tracer | None" = None
        self.recording = False
        self.attempted = 0
        self.failures: list[str] = []
        #: Request wall seconds by kind, and when each request ended.
        self.latency: "defaultdict[str, list[float]]" = defaultdict(list)
        self.ended: "defaultdict[str, list[float]]" = defaultdict(list)
        self.counts: "defaultdict[str, float]" = defaultdict(float)
        self.updates = 0
        self.answers = hashlib.sha256()
        self.committed = dict(oracle.scores)
        self.store_bytes = 0
        self.peak_rss_mb = 0.0

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def request(self, kind: str, call):
        """Time one engine call; record its I/O counter deltas by ``kind``."""
        self.attempted += 1
        if not self.recording:
            try:
                return call()
            except Exception as exc:  # the run goes on; the failure is counted
                self.fail(f"{kind}: {type(exc).__name__}: {exc}")
                return None
        self.speed.tick()
        if self.tracer is not None:
            self.tracer.kind = kind
        env = self.index.env
        before = env.snapshot()
        wal_before = wal_bytes(self.index)
        updates_before = asdict(self.index.router.update_stats)
        started = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # the run goes on; the failure is counted
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - started
        if self.tracer is not None:
            self.tracer.kind = "idle"
        delta = env.delta_since(before)
        counts = self.counts
        counts[f"{kind}.n"] += 1
        counts[f"{kind}.disk_reads"] += delta.disk.reads
        counts[f"{kind}.disk_writes"] += delta.disk.writes
        counts[f"{kind}.pool_hits"] += delta.pool.hits
        counts[f"{kind}.pool_misses"] += delta.pool.misses
        counts[f"{kind}.evictions"] += delta.pool.evictions
        counts[f"{kind}.dirty_writebacks"] += delta.pool.dirty_writebacks
        counts[f"{kind}.io_ms"] += delta.cost_ms()
        counts[f"{kind}.wal_bytes"] += wal_bytes(self.index) - wal_before
        for name, value in asdict(self.index.router.update_stats).items():
            counts[f"{kind}.{name}"] += value - updates_before[name]
        self.latency[kind].append(elapsed)
        self.ended[kind].append(started + elapsed)
        return result

    def scaled(self, kind: str) -> list:
        """Request seconds of ``kind`` at the reference speed."""
        return [elapsed / self.speed.factor_at(ended)
                for elapsed, ended in zip(self.latency[kind], self.ended[kind])]

    def query(self, query: KeywordQuery, scores: "dict | None" = None,
              index: "SVRTextIndex | None" = None) -> None:
        index = index or self.index
        response = self.request("query", lambda: index.search(
            query.keywords, k=query.k, conjunctive=query.conjunctive))
        if response is None:
            return
        results = [(result.doc_id, result.score) for result in response.results]
        self.answers.update(repr(results).encode())
        if response.stats.degraded:
            self.fail(f"query {query.keywords}: degraded answer")
        problem = self.oracle.check(query.keywords, query.k, query.conjunctive,
                                    results, scores)
        if problem is not None:
            self.fail(f"query {problem}")
        if self.recording:
            stats = response.stats
            counts = self.counts
            counts["query.postings_scanned"] += stats.postings_scanned
            counts["query.candidates"] += stats.candidates
            counts["query.score_lookups"] += stats.score_lookups
            counts["query.heap_offers"] += stats.heap_offers
            counts["query.chunks_scanned"] += stats.chunks_scanned
            counts["query.blocks_skipped"] += stats.blocks_skipped
            counts["query.results"] += len(results)

    def window(self, updates) -> None:
        pairs = resolve_batch(updates, self.oracle.scores)
        applied = self.request("window",
                               lambda: self.index.apply_score_updates(pairs))
        if applied is None:
            return
        if applied != len(pairs):
            self.fail(f"window: applied {applied} of {len(pairs)} updates")
        self.oracle.apply(pairs)
        if self.recording:
            self.updates += len(pairs)

    def commit(self) -> None:
        if self.request("commit", self.index.commit) is not None:
            self.committed = dict(self.oracle.scores)


# -- workloads -----------------------------------------------------------------


class Workload:
    """The request stream of one workload as a sequence of steps."""

    def __init__(self, name: str, inputs: Inputs) -> None:
        self.name = name
        self.inputs = inputs
        self.pick = random.Random(inputs.pick_seed)
        self.unselective = inputs.queries("unselective", 1)
        self.medium = inputs.queries("medium", 2)
        self.stream = inputs.updates()
        self.focus = sorted(self.stream.focus_set)
        self.update_iter = self.stream.generate()
        self.steps = 0
        self.windows = 0

    def next_window(self):
        return list(islice(self.update_iter, WINDOW))

    def step(self, client: Client) -> None:
        self.steps += 1
        if self.name == "query_heavy":
            # Half unselective, half medium; one query in four disjunctive.
            source = self.unselective if self.steps % 2 else self.medium
            query = next(source)
            conjunctive = self.steps % 4 != 0
            client.query(KeywordQuery(query.keywords, K, conjunctive))
        elif self.name == "update_heavy":
            for _ in range(UPDATE_QUERY_EVERY):
                client.window(self.next_window())
            doc_id = self.pick.choice(self.focus)
            term = self.pick.choice(client.oracle.terms[doc_id])
            client.query(KeywordQuery((term,), K, True))
        else:
            client.query(next(self.medium))
            client.window(self.next_window())
            self.windows += 1
            if self.windows % COMMIT_EVERY == 0:
                client.commit()


def warm_up(workload: Workload, client: Client) -> None:
    """Unrecorded steps that fill the caches; their answers are still checked."""
    for _ in range(WORKLOADS[workload.name]["warmup"]):
        workload.step(client)


def measure(workload: Workload, client: Client, seconds: float,
            steps: "int | None") -> None:
    """Step until ``seconds`` pass (or ``steps`` are done)."""
    client.recording = True
    started = time.perf_counter()
    done = 0
    while (time.perf_counter() - started < seconds if steps is None
           else done < steps):
        workload.step(client)
        done += 1
        if done == STORE_AT_STEP:
            # Read at a fixed step, so the figures depend on the inputs only.
            client.store_bytes = client.index.env.total_size_bytes()
            client.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    client.recording = False


def crash_and_probe(workload: Workload, client: Client, path: str) -> float:
    """Leave one window uncommitted, crash, reopen; check the committed state.

    Returns the reopen time.  The committed prefix must be visible and the
    uncommitted window gone: every probe mismatch is a failed operation.
    """
    client.window(workload.next_window())
    client.index.crash()
    mark = client.speed.mark()
    for _ in range(5):
        client.speed.sample()
    started = time.perf_counter()
    reopened = SVRTextIndex.open(path, threads=WORKLOADS["durable_mixed"]["threads"])
    reopen_s = time.perf_counter() - started
    for _ in range(5):
        client.speed.sample()
    reopen_s /= client.speed.factor(mark)
    committed = client.committed
    try:
        # Every document whose score moved since the last commit, plus a sample.
        uncommitted = [doc_id for doc_id, score in client.oracle.scores.items()
                       if committed[doc_id] != score]
        pick = random.Random(workload.inputs.pick_seed + 1)
        probe = sorted(set(pick.sample(sorted(committed), PROBE_DOCS))
                       | set(uncommitted))
        client.attempted += 1
        seen = reopened.current_scores(probe)
        wrong = [doc_id for doc_id in probe if seen.get(doc_id) != committed[doc_id]]
        if wrong:
            client.fail(f"reopen: {len(wrong)} of {len(probe)} documents do not "
                        f"show their committed score (e.g. {wrong[:5]})")
        for query in islice(workload.medium, PROBE_QUERIES):
            client.query(query, scores=committed, index=reopened)
    finally:
        reopened.crash()
    return reopen_s


# -- one pass ------------------------------------------------------------------


def run_pass(name: str, inputs: Inputs, seconds: float, steps: "int | None",
             builds: int, trace: bool) -> dict:
    """Set up ``builds`` times, keep the last index, run the workload on it."""
    spec = WORKLOADS[name]
    work = None
    if spec.get("durable"):
        os.makedirs(WORK_DIR, exist_ok=True)
        work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        speed = Speed()
        setup = []
        index = None
        path = None
        for attempt in range(builds):
            if index is not None:
                if work:
                    index.crash()
                else:
                    index.close()
                index = None
                gc.collect()
            path = os.path.join(work, f"index{attempt}") if work else None
            index, seconds_taken = build(inputs, spec, path, speed)
            setup.append(seconds_taken)
        oracle = Oracle(inputs.corpus.documents, inputs.corpus.scores())
        workload = Workload(name, inputs)
        client = Client(index, oracle, speed)
        warm_up(workload, client)
        # Installed after warm-up, so spans cover the recorded requests only.
        tracer = Tracer().install() if trace else None
        client.tracer = tracer
        load_before = index.shard_load()
        try:
            measure(workload, client, seconds, steps)
        finally:
            if tracer is not None:
                tracer.uninstall()
                client.tracer = None
        load = index.shard_load().diff(load_before)
        reopen_s = None
        if work:
            reopen_s = crash_and_probe(workload, client, path)
        else:
            index.close()
        return dict(client=client, setup=setup, tracer=tracer,
                    reopen_s=reopen_s, load=load)
    finally:
        if work:
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(WORK_DIR)
            except OSError:
                pass


# -- metrics -------------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tail(scaled: list, measured: list, pct: float) -> "tuple[float, str, str]":
    """The ``pct`` percentile in ms at the reference speed, with its sample count."""
    if not scaled:
        return 0.0, "ms", "n=0"
    beyond = len(scaled) - int(-(-len(scaled) * pct // 100))
    return (percentile(scaled, pct) * 1000.0, "ms",
            f"n={len(scaled)}, {beyond} beyond; "
            f"{percentile(measured, pct) * 1000.0:.3f} ms measured")


def ops_rate(client: Client) -> float:
    """Requests per second inside the engine, at the reference speed."""
    scaled = [client.scaled(kind) for kind in ("query", "window", "commit")]
    return ratio(sum(map(len, scaled)), sum(map(sum, scaled)))


def end_to_end(inputs: Inputs, result: dict) -> dict:
    client = result["client"]
    queries = client.scaled("query")
    ops = sum(len(samples) for samples in client.latency.values())
    measured = sum(sum(samples) for samples in client.latency.values())
    setup = sorted(result["setup"])
    return {
        "setup_s": (setup[len(setup) // 2], "s", f"median of {len(setup)} builds"),
        "ops_per_s": (ops_rate(client), "1/s",
                      f"{ops} requests, {measured:.2f} s measured inside the engine"),
        "query_p50_ms": tail(queries, client.latency["query"], 50),
        "query_p95_ms": tail(queries, client.latency["query"], 95),
        "store_bytes_per_posting": (ratio(client.store_bytes, inputs.postings), "bytes",
                                    f"after {STORE_AT_STEP} steps, {inputs.postings} postings"),
        "peak_rss_mb": (client.peak_rss_mb, "MB",
                        f"child interpreter, after {STORE_AT_STEP} steps"),
    }


def workload_detail(result: dict) -> dict:
    """Window, commit and reopen figures of an untraced pass (0 where absent)."""
    client = result["client"]
    scaled = {kind: client.scaled(kind) for kind in ("query", "window", "commit")}
    busy = sum(sum(samples) for samples in scaled.values())
    return {
        "window_p50_ms": tail(scaled["window"], client.latency["window"], 50),
        "window_p95_ms": tail(scaled["window"], client.latency["window"], 95),
        "updates_per_s": (ratio(client.updates, busy), "1/s",
                          f"{client.updates} updates"),
        "commit_p50_ms": tail(scaled["commit"], client.latency["commit"], 50),
        "reopen_s": (result["reopen_s"] or 0.0, "s", "one reopen after crash"),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced pass, plus the untraced pass's detail."""
    client = traced["client"]
    tracer = traced["tracer"]
    counts = client.counts
    totals = tracer.totals()
    queries = counts["query.n"]
    windows = counts["window.n"]
    commits = counts["commit.n"]
    ops = queries + windows + commits
    updates = client.updates

    def ms(kind, names, field=0):
        """Summed self (field 0), total (1) or client-thread self (4) ms."""
        return sum(slot[field] for (k, name), slot in totals.items()
                   if (kind is None or k == kind) and name in names) / 1e6

    def calls(kind, names):
        return sum(slot[2] for (k, name), slot in totals.items()
                   if k == kind and name in names)

    kv_reads = ("kvstore.get", "kvstore.contains", "kvstore.prefix_items")
    kv_writes = ("kvstore.put", "kvstore.delete", "kvstore.delete_if_present",
                 "kvstore.put_many", "kvstore.delete_many")
    router = ("index_router.query", "index_router.apply_batch")
    indexes = ("indexes.query", "indexes.apply_batch", "indexes.prepare_query",
               "indexes._merge_term_streams")
    obs = ("obs.inc", "obs.add_many", "obs.observe", "obs.set_gauge")
    all_names = {name for (_kind, name) in totals}
    busy_ms = sum(sum(samples) for samples in client.latency.values()) * 1000.0
    heap_calls = calls("query", ("result_heap.add",))
    heap_accepted = sum(slot[3] for (k, name), slot in totals.items()
                        if k == "query" and name == "result_heap.add")
    pool_hits = sum(counts[f"{kind}.pool_hits"] for kind in ("query", "window", "commit"))
    pool_misses = sum(counts[f"{kind}.pool_misses"] for kind in ("query", "window", "commit"))
    metrics = {
        "index_router.self_ms_per_query": (ratio(ms("query", router), queries), "ms"),
        "index_router.self_ms_per_window": (ratio(ms("window", router), windows), "ms"),
        "obs.record_ms_per_op": (ratio(ms(None, obs), ops), "ms"),
        "indexes.query_self_ms_per_query": (ratio(ms("query", indexes), queries), "ms"),
        "indexes.postings_scanned_per_query": (ratio(counts["query.postings_scanned"], queries), "count"),
        "indexes.score_lookups_per_query": (ratio(counts["query.score_lookups"], queries), "count"),
        "indexes.candidates_per_query": (ratio(counts["query.candidates"], queries), "count"),
        "indexes.heap_offers_per_query": (ratio(counts["query.heap_offers"], queries), "count"),
        "indexes.blocks_skipped_per_query": (ratio(counts["query.blocks_skipped"], queries), "count"),
        "indexes.chunks_scanned_per_query": (ratio(counts["query.chunks_scanned"], queries), "count"),
        "indexes.results_per_posting_scanned": (ratio(counts["query.results"], counts["query.postings_scanned"]), "ratio"),
        "indexes.apply_batch_self_ms_per_window": (ratio(ms("window", indexes), windows), "ms"),
        "indexes.short_list_postings_written_per_update": (ratio(counts["window.short_list_postings_written"], updates), "count"),
        "indexes.long_list_postings_written_per_update": (ratio(counts["window.long_list_postings_written"], updates), "count"),
        "posting.decode_ms_per_query": (ratio(ms("query", ("posting.iter_blocked_chunk_postings_lazy",)), queries), "ms"),
        "posting.postings_decoded_per_query": (ratio(calls("query", ("posting.iter_blocked_chunk_postings_lazy",)), queries), "count"),
        "result_heap.add_ms_per_query": (ratio(ms("query", ("result_heap.add",)), queries), "ms"),
        "result_heap.accept_ratio": (ratio(heap_accepted, heap_calls), "ratio"),
        "kvstore.gets_per_query": (ratio(calls("query", ("kvstore.get", "kvstore.contains")), queries), "count"),
        "kvstore.get_ms_per_query": (ratio(ms("query", kv_reads), queries), "ms"),
        "kvstore.writes_per_update": (ratio(calls("window", kv_writes), updates), "count"),
        "kvstore.write_ms_per_window": (ratio(ms("window", kv_writes), windows), "ms"),
        "heap_file.pages_per_query": (ratio(calls("query", ("heap_file.iter_pages",)), queries), "count"),
        "buffer_pool.misses_per_query": (ratio(counts["query.pool_misses"], queries), "count"),
        "buffer_pool.get_ms_per_query": (ratio(ms("query", ("buffer_pool.get",)), queries), "ms"),
        "buffer_pool.evictions_per_op": (ratio(sum(counts[f"{k}.evictions"] for k in ("query", "window", "commit")), ops), "count"),
        "buffer_pool.hit_rate": (ratio(pool_hits, pool_hits + pool_misses), "ratio"),
        "buffer_pool.dirty_writebacks_per_commit": (ratio(counts["commit.dirty_writebacks"], commits), "count"),
        "disk.reads_per_query": (ratio(counts["query.disk_reads"], queries), "count"),
        "disk.estimated_io_ms_per_query": (ratio(counts["query.io_ms"], queries), "ms"),
        "disk.writes_per_window": (ratio(counts["window.disk_writes"], windows), "count"),
        "file_disk.read_ms_per_query": (ratio(ms("query", ("file_disk.read",)), queries), "ms"),
        "file_disk.commit_self_ms_per_commit": (ratio(ms("commit", ("file_disk.commit_batch",)), commits), "ms"),
        "environment.commit_self_ms_per_commit": (ratio(ms("commit", ("environment.commit",)), commits), "ms"),
        "wal.commit_ms_per_commit": (ratio(ms("commit", ("wal.commit",), 1), commits), "ms"),
        "wal.bytes_per_commit": (ratio(counts["commit.wal_bytes"], commits), "bytes"),
        "wal.bytes_per_update": (ratio(sum(counts[f"{k}.wal_bytes"] for k in ("query", "window", "commit")), updates), "bytes"),
        "exec.tasks_per_query": (ratio(calls("query", ("exec.submit",)), queries), "count"),
        "exec.submit_ms_per_query": (ratio(ms("query", ("exec.submit",)), queries), "ms"),
        "exec.wait_ms_per_query": (ratio(ms("query", ("exec.result",), 4), queries), "ms"),
        "exec.worker_busy_ms_per_query": (ratio(ms("query", ("exec.task",), 1), queries), "ms"),
        "sharding.load_skew": (traced["load"].skew, "ratio"),
        "trace.overhead_ratio": (ratio(ops_rate(untraced["client"]), ops_rate(client)), "ratio"),
        "trace.coverage": (ratio(ms(None, all_names, 4), busy_ms), "ratio"),
        "trace.unbound_wrappers": (float(len(tracer.unbound)), "count"),
    }
    metrics = {name: (value, unit, "") for name, (value, unit) in metrics.items()}
    metrics.update(workload_detail(untraced))
    return metrics


# -- entry point -----------------------------------------------------------------


def report(metrics: dict, clients: list, digest: str) -> None:
    """Human-readable lines first, the JSON result as the last stdout line."""
    attempted = sum(client.attempted for client in clients)
    failures = [message for client in clients for message in client.failures]
    print(f"inputs digest={digest}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit:6s} {note}")
    for message in failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }))


def fixed_counts(result: dict) -> dict:
    """The deterministic cost-model counts of a fixed-request pass."""
    client = result["client"]
    return {
        "answers": client.answers.hexdigest()[:16],
        "counts": {name: round(value, 9) for name, value in sorted(client.counts.items())},
        "updates": client.updates,
        "attempted": client.attempted,
        "failed": len(client.failures),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=None,
                        help="run exactly this many steps and print the counts")
    args = parser.parse_args(argv)
    inputs = Inputs(args.seed)
    digest = inputs.digest(args.workload)
    if args.steps is not None:
        result = run_pass(args.workload, inputs, 0.0, args.steps, builds=1,
                          trace=bool(args.trace))
        print(json.dumps(dict(fixed_counts(result), digest=digest,
                              unbound=result["tracer"].unbound if args.trace else []),
                         sort_keys=True))
        return 0
    if not args.trace:
        result = run_pass(args.workload, inputs, args.seconds, None,
                          builds=SETUP_BUILDS, trace=False)
        report(end_to_end(inputs, result), [result["client"]], digest)
        return 0
    untraced = run_pass(args.workload, inputs, args.seconds, None, builds=1, trace=False)
    traced = run_pass(args.workload, inputs, args.seconds, None, builds=1, trace=True)
    tracer = traced["tracer"]
    for label in tracer.unbound:
        print(f"tracer: wrapper failed to bind: {label}", file=sys.stderr)
    silent = tracer.silent()
    if silent:
        print(f"tracer: wrappers that never fired: {', '.join(silent)}", file=sys.stderr)
    report(per_layer(untraced, traced), [untraced["client"], traced["client"]], digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
