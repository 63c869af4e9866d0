"""Outside-in layer tracer: wraps the public entry points of each layer.

Nothing in the engine changes.  :class:`Tracer` replaces selected methods
and functions with timing wrappers while it is installed and puts every
original back on :meth:`Tracer.uninstall`.  Each wrapped call is a span;
spans nest per thread, and a span's *self time* is its duration minus the
spans it encloses.  Lazy iterators (posting scans, heap-file page streams,
key-value range scans) are timed per ``next()``.

Times and call counts are bucketed by the request kind the client thread
sets in :attr:`Tracer.kind` (``"query"``, ``"window"``, ``"commit"``), so
per-layer cost can be divided by the number of requests of that kind.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter_ns


#: (layer, module, owner, attribute, mode) for every wrapped entry point.
#: ``owner`` is a class name, or ``None`` for a module-level function, which
#: is rebound in every ``repro`` module that imported it by name.  ``mode``
#: is ``"call"`` for a plain call, ``"iter"`` when the call returns a lazy
#: iterator whose every ``next()`` is timed, and ``"task"`` for the executor
#: submission whose callable is timed where it runs.
TARGETS = (
    ("text_index", "repro.core.text_index", "SVRTextIndex", "search", "call"),
    ("text_index", "repro.core.text_index", "SVRTextIndex", "apply_score_updates", "call"),
    ("text_index", "repro.core.text_index", "SVRTextIndex", "commit", "call"),
    ("index_router", "repro.core.index_router", "IndexRouter", "query", "call"),
    ("index_router", "repro.core.index_router", "IndexRouter", "apply_batch", "call"),
    ("obs", "repro.obs.metrics", "MetricsRegistry", "inc", "call"),
    ("obs", "repro.obs.metrics", "MetricsRegistry", "add_many", "call"),
    ("obs", "repro.obs.metrics", "MetricsRegistry", "observe", "call"),
    ("obs", "repro.obs.metrics", "MetricsRegistry", "set_gauge", "call"),
    ("indexes", "repro.core.indexes.base", "InvertedIndex", "query", "call"),
    ("indexes", "repro.core.indexes.base", "InvertedIndex", "apply_batch", "call"),
    ("indexes", "repro.core.indexes.base", "InvertedIndex", "prepare_query", "call"),
    ("indexes", "repro.core.indexes.chunk", "ChunkIndex", "_merge_term_streams", "call"),
    ("posting", "repro.core.posting", None, "iter_blocked_chunk_postings_lazy", "iter"),
    ("result_heap", "repro.core.result_heap", "ResultHeap", "add", "call"),
    ("kvstore", "repro.storage.kvstore", "KVStore", "get", "call"),
    ("kvstore", "repro.storage.kvstore", "KVStore", "contains", "call"),
    ("kvstore", "repro.storage.kvstore", "KVStore", "prefix_items", "iter"),
    ("kvstore", "repro.storage.kvstore", "KVStore", "put", "call"),
    ("kvstore", "repro.storage.kvstore", "KVStore", "delete", "call"),
    ("kvstore", "repro.storage.kvstore", "KVStore", "delete_if_present", "call"),
    ("kvstore", "repro.storage.kvstore", "KVStore", "put_many", "call"),
    ("kvstore", "repro.storage.kvstore", "KVStore", "delete_many", "call"),
    ("heap_file", "repro.storage.heap_file", "HeapFile", "iter_pages", "iter"),
    ("buffer_pool", "repro.storage.buffer_pool", "BufferPool", "get", "call"),
    ("buffer_pool", "repro.storage.buffer_pool", "BufferPool", "put", "call"),
    ("buffer_pool", "repro.storage.buffer_pool", "BufferPool", "allocate", "call"),
    ("buffer_pool", "repro.storage.buffer_pool", "BufferPool", "flush", "call"),
    ("disk", "repro.storage.disk", "SimulatedDisk", "read", "call"),
    ("disk", "repro.storage.disk", "SimulatedDisk", "write", "call"),
    ("disk", "repro.storage.disk", "SimulatedDisk", "allocate", "call"),
    ("file_disk", "repro.storage.persistence.file_disk", "FileBackedDisk", "read", "call"),
    ("file_disk", "repro.storage.persistence.file_disk", "FileBackedDisk", "write", "call"),
    ("file_disk", "repro.storage.persistence.file_disk", "FileBackedDisk", "allocate", "call"),
    ("file_disk", "repro.storage.persistence.file_disk", "FileBackedDisk", "commit_batch", "call"),
    ("environment", "repro.storage.environment", "StorageEnvironment", "commit", "call"),
    ("wal", "repro.storage.persistence.wal", "WriteAheadLog", "append_write", "call"),
    ("wal", "repro.storage.persistence.wal", "WriteAheadLog", "commit", "call"),
    ("exec", "repro.exec.executor", "ExecutorPool", "submit", "task"),
    ("exec", "repro.exec.executor", "ShardFuture", "result", "call"),
)

_MISSING = object()


class _Frame:
    __slots__ = ("start", "children")

    def __init__(self, start: int) -> None:
        self.start = start
        self.children = 0


class _ThreadBook:
    """One thread's span stack and accumulators (no locking on the hot path)."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        # (kind, span name) -> [self ns, total ns, calls, true returns]
        self.spans: "defaultdict[tuple, list]" = defaultdict(lambda: [0, 0, 0, 0])


class Tracer:
    """Install timing wrappers, collect per-layer spans, restore on exit."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = targets
        self.kind = "idle"
        self.unbound: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict = {}
        self._local = threading.local()
        self._books: list[tuple[bool, _ThreadBook]] = []
        self._books_lock = threading.Lock()
        self._client = threading.get_ident()

    # -- bookkeeping -----------------------------------------------------------

    def _book(self) -> _ThreadBook:
        book = getattr(self._local, "book", None)
        if book is None:
            book = self._local.book = _ThreadBook()
            with self._books_lock:
                self._books.append((threading.get_ident() == self._client, book))
        return book

    def _enter(self) -> "tuple[_ThreadBook, _Frame]":
        book = self._book()
        frame = _Frame(_clock())
        book.stack.append(frame)
        return book, frame

    def _exit(self, book: _ThreadBook, frame: _Frame, name: str,
              returned: object = None, counted: bool = True) -> None:
        duration = _clock() - frame.start
        book.stack.pop()
        if book.stack:
            book.stack[-1].children += duration
        slot = book.spans[(self.kind, name)]
        slot[0] += duration - frame.children
        slot[1] += duration
        slot[2] += counted
        if returned is True:  # ResultHeap.add reports an accepted offer
            slot[3] += 1

    # -- wrappers --------------------------------------------------------------

    def _wrap_call(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            book, frame = tracer._enter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(book, frame, name, result)
        return wrapper

    def _wrap_iter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedIterator(tracer, name, fn(*args, **kwargs))
        return wrapper

    def _wrap_task(self, name: str, fn):
        """Time the submission, and the submitted callable where it runs."""
        tracer = self
        task_name = name.rsplit(".", 1)[0] + ".task"

        @functools.wraps(fn)
        def wrapper(pool, shard, task, *args, **kwargs):
            def timed_task():
                book, frame = tracer._enter()
                try:
                    return task()
                finally:
                    tracer._exit(book, frame, task_name)

            book, frame = tracer._enter()
            try:
                return fn(pool, shard, timed_task, *args, **kwargs)
            finally:
                tracer._exit(book, frame, name)
        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target that binds; record the ones that do not."""
        makers = {"call": self._wrap_call, "iter": self._wrap_iter,
                  "task": self._wrap_task}
        for layer, module_name, owner, attribute, mode in self.targets:
            label = f"{module_name}.{owner + '.' if owner else ''}{attribute}"
            name = f"{layer}.{attribute}"
            try:
                module = importlib.import_module(module_name)
                if owner is None:
                    original = getattr(module, attribute)
                    wrapped = makers[mode](name, original)
                    for holder in list(sys.modules.values()):
                        holder_name = getattr(holder, "__name__", "") or ""
                        if (holder_name.startswith("repro")
                                and holder.__dict__.get(attribute) is original):
                            self._patch(holder, attribute, wrapped)
                else:
                    cls = getattr(module, owner)
                    # A subclass inheriting an already wrapped method gets its
                    # own wrapper around the original, not a nested one.
                    original = getattr(cls, attribute)
                    original = self._originals.get(original, original)
                    self._patch(cls, attribute, makers[mode](name, original))
            except (ImportError, AttributeError) as exc:
                self.unbound.append(f"{label} ({exc})")
        return self

    def _patch(self, holder, attribute: str, wrapped) -> None:
        previous = holder.__dict__.get(attribute, _MISSING)
        self._originals[wrapped] = wrapped.__wrapped__
        setattr(holder, attribute, wrapped)
        self._patches.append((holder, attribute, previous))

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            holder, attribute, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(holder, attribute)
            else:
                setattr(holder, attribute, previous)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict:
        """``{(kind, span): [self ns, total ns, calls, true returns, client self ns]}``."""
        merged: "defaultdict[tuple, list]" = defaultdict(lambda: [0, 0, 0, 0, 0])
        with self._books_lock:
            books = list(self._books)
        for is_client, book in books:
            for key, (self_ns, total_ns, calls, accepted) in list(book.spans.items()):
                slot = merged[key]
                slot[0] += self_ns
                slot[1] += total_ns
                slot[2] += calls
                slot[3] += accepted
                if is_client:
                    slot[4] += self_ns
        return dict(merged)

    def silent(self) -> list[str]:
        """Span names of bound wrappers that never fired."""
        fired = {name for (_kind, name) in self.totals()}
        names = []
        for layer, _module, _owner, attribute, _mode in self.targets:
            name = f"{layer}.{attribute}"
            if name not in fired and name not in names:
                names.append(name)
        return names


class _TimedIterator:
    """An iterator whose every ``next()`` is one span of ``name``."""

    __slots__ = ("_tracer", "_name", "_inner")

    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = iter(inner)

    def __iter__(self):
        return self

    def __next__(self):
        book, frame = self._tracer._enter()
        item = _MISSING
        try:
            item = next(self._inner)
            return item
        finally:
            # The call that finds the iterator exhausted costs time but
            # yields no item, so it is not counted.
            self._tracer._exit(book, frame, self._name,
                               counted=item is not _MISSING)

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()
