"""Self-tests of the benchmark itself.

Usage, from the root of a checkout::

    python3 svrbench/selftest.py

Checks, each in a pinned child interpreter (see ``run.py``):

1. Fixed-request mode is exact: two runs of the same seed give identical
   cost-model counts (pages read, pool hits, disk writes, postings scanned,
   WAL bytes, ...) and identical answers, on ``query_heavy`` and
   ``update_heavy``.
2. Another seed changes the input digest.
3. The tracer is invisible: answers and counts are identical with the
   tracer installed and without it, and every wrapper binds.
4. The tracer restores every original on exit, and a wrapper that cannot
   bind is reported by name while the others keep working.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

from run import SRC, run_child

STEPS = {"query_heavy": 300, "update_heavy": 40}


def fixed(workload: str, seed: int, trace: int = 0) -> dict:
    code, stdout = run_child(["--workload", workload, "--seed", str(seed),
                              "--steps", str(STEPS[workload]), "--trace", str(trace)])
    if code != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit code {code}")
    return json.loads(stdout.strip().splitlines()[-1])


def tracer_restores() -> "list[str]":
    """In-process: install, fire, uninstall; report what did not hold."""
    sys.path.insert(0, SRC)
    import importlib

    from repro.core.text_index import SVRTextIndex
    from repro.workloads.synthetic import SyntheticCorpusConfig, generate_corpus
    from tracer import TARGETS, Tracer

    def bindings() -> dict:
        found = {}
        for _layer, module_name, owner, attribute, _mode in TARGETS:
            module = importlib.import_module(module_name)
            holders = [getattr(module, owner)] if owner else [
                holder for holder in list(sys.modules.values())
                if (getattr(holder, "__name__", "") or "").startswith("repro")
            ]
            for holder in holders:
                found[(id(holder), attribute)] = holder.__dict__.get(attribute)
        return found

    def answers() -> list:
        index = SVRTextIndex(cache_pages=64, page_size=512)
        corpus = generate_corpus(SyntheticCorpusConfig.tiny())
        for doc in corpus.iter_documents():
            index.add_document_terms(doc.doc_id, doc.terms, doc.score)
        index.finalize()
        index.apply_score_updates([(1, 5.0), (2, 7.0)])
        terms = corpus.frequent_terms(2)
        result = index.search(terms, k=5, conjunctive=False)
        index.close()
        return [(r.doc_id, r.score) for r in result.results]

    problems = []
    plain = answers()
    before = bindings()  # after the first run has imported every module
    bogus = ("bogus", "repro.core.text_index", "SVRTextIndex", "no_such_entry", "call")
    tracer = Tracer(TARGETS + (bogus,))
    with tracer:
        traced = answers()
    if traced != plain:
        problems.append("answers differ with the tracer installed")
    if len(tracer.unbound) != 1 or "no_such_entry" not in tracer.unbound[0]:
        problems.append(f"unbound wrappers not reported by name: {tracer.unbound}")
    if not any(name == "index_router.query" for (_kind, name) in tracer.totals()):
        problems.append("the router wrapper never fired")
    after = bindings()
    if any(after[key] is not value for key, value in before.items()):
        problems.append("an original was not restored after uninstall")
    return problems


def main() -> int:
    if sys.argv[1:] == ["--tracer-restores"]:
        problems = tracer_restores()
        for problem in problems:
            print(problem)
        return 1 if problems else 0
    checks: "list[tuple[str, bool]]" = []
    for workload in STEPS:
        first = fixed(workload, 1)
        second = fixed(workload, 1)
        checks.append((f"{workload}: same seed, identical counts and answers",
                       first == second and first["failed"] == 0))
        traced = fixed(workload, 1, trace=1)
        same = {key: traced[key] for key in ("answers", "counts", "digest", "failed")}
        checks.append((f"{workload}: tracer leaves answers and counts unchanged",
                       same == {key: first[key] for key in same}))
        checks.append((f"{workload}: every tracer wrapper binds",
                       traced["unbound"] == []))
        other = fixed(workload, 2)
        checks.append((f"{workload}: another seed changes the input digest",
                       other["digest"] != first["digest"]))
    code, stdout = run_child(["--tracer-restores"], script="selftest.py")
    checks.append(("tracer restores originals and reports a wrapper that cannot bind",
                   code == 0))
    if code != 0:
        print(stdout)
    for label, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {label}")
    return 0 if all(passed for _label, passed in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
