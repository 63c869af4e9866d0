"""Pruning-equivalence suite for the blocked posting layout.

The block-max skip step may only change *cost*, never *results*: for every
method, shard count and thread count, the pruned top-k must be bit-identical
to the unpruned top-k, and pruned runs must never read more pages than
unpruned ones.  An adversarial zipf workload additionally pins down that the
skip step actually fires (``blocks_skipped > 0``) and saves pages strictly.
"""

import random

import pytest

from repro.core.index_router import IndexRouter

METHODS = ["id", "id_termscore", "score", "score_threshold", "chunk", "chunk_termscore"]

#: Ratios tuned so the stopping rules (and therefore the block-max skip step)
#: are active on small corpora; the paper-tuned defaults rarely prune lists
#: this short.
METHOD_OPTIONS = {
    "score_threshold": dict(threshold_ratio=1.2),
    "chunk": dict(chunk_ratio=1.5, min_chunk_size=50),
    "chunk_termscore": dict(chunk_ratio=1.5, min_chunk_size=50),
}

QUERIES = [
    (["t00", "t01"], 5, False),
    (["t00"], 5, False),
    (["t00"], 10, False),
    (["t01", "t02"], 3, False),
    (["t00", "t01"], 5, True),
    (["t03", "t05", "t07"], 5, False),
]


def zipf_corpus(n_docs, n_terms=12, seed=3):
    """A zipf-ish corpus: few hot terms with very long lists, skewed scores."""
    terms = [f"t{i:02d}" for i in range(n_terms)]
    rng = random.Random(seed)
    corpus = []
    for doc_id in range(n_docs):
        count = rng.randint(3, 8)
        chosen = [
            terms[min(int(rng.paretovariate(1.3)) % n_terms, n_terms - 1)]
            for _ in range(count)
        ]
        corpus.append((doc_id, chosen, rng.expovariate(0.002) + 1.0))
    return corpus


def build_router(method, corpus, shards, threads, n_updates=120, **extra):
    options = dict(METHOD_OPTIONS.get(method, {}))
    options.update(extra)
    router = IndexRouter.build(method, shard_count=shards, threads=threads,
                               page_size=512, cache_pages=4096, **options)
    for doc_id, terms, score in corpus:
        router.add_document(doc_id, score, terms=terms)
    router.finalize()
    rng = random.Random(99)
    for _ in range(n_updates):
        router.update_score(rng.randrange(len(corpus)), rng.expovariate(0.002) + 1.0)
    return router


def run_queries(router, pruning):
    """Query results plus (pages_read, blocks_skipped) with pruning toggled."""
    router.index.block_max_pruning = pruning
    results, pages, skipped = [], 0, 0
    for keywords, k, conjunctive in QUERIES:
        router.drop_long_list_cache()
        response = router.query(keywords, k=k, conjunctive=conjunctive)
        results.append([(r.doc_id, r.score) for r in response.results])
        pages += response.stats.pages_read
        skipped += response.stats.blocks_skipped
    return results, pages, skipped


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("shards,threads", [(1, 1), (4, 1), (1, 4), (4, 4)])
def test_pruned_topk_identical_to_unpruned(method, shards, threads):
    corpus = zipf_corpus(1200)
    router = build_router(method, corpus, shards, threads)
    try:
        if router._pool is not None:
            # Lazy (non-scattered) pumps make page accounting deterministic:
            # blocks are computed on the consuming thread exactly when needed,
            # so the pruned-vs-unpruned page comparison is exact, not racy.
            router._pool.scatter = False
        pruned, pages_on, _ = run_queries(router, pruning=True)
        unpruned, pages_off, _ = run_queries(router, pruning=False)
        assert pruned == unpruned
        # Terminal block pruning reads a subset of the unpruned pages.
        assert pages_on <= pages_off
    finally:
        router.shutdown()


@pytest.mark.parametrize("method", ["score_threshold", "chunk", "chunk_termscore"])
def test_adversarial_zipf_skips_blocks(method):
    """The skip step fires on long skewed lists under the parallel fan-out.

    The serial merge is already lazy (it stops pulling at the paper's
    stopping rules), so the savings show up where the concurrent subsystem
    speculatively decodes ahead: executor-side pulls consult the shared
    threshold and stop at block granularity.
    """
    corpus = zipf_corpus(4000)
    router = build_router(method, corpus, shards=4, threads=4, n_updates=150)
    try:
        router._pool.scatter = False
        pruned, pages_on, skipped = run_queries(router, pruning=True)
        unpruned, pages_off, _ = run_queries(router, pruning=False)
        assert pruned == unpruned
        assert skipped > 0
        assert pages_on <= pages_off
    finally:
        router.shutdown()


def test_adversarial_zipf_saves_pages_strictly():
    """On the score_threshold workload the pruned run reads strictly fewer pages."""
    corpus = zipf_corpus(4000)
    router = build_router("score_threshold", corpus, shards=4, threads=4,
                          n_updates=150)
    try:
        router._pool.scatter = False
        pruned, pages_on, skipped = run_queries(router, pruning=True)
        unpruned, pages_off, _ = run_queries(router, pruning=False)
        assert pruned == unpruned
        assert skipped > 0
        assert pages_on < pages_off
    finally:
        router.shutdown()
