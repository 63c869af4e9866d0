"""Posting representations and the blocked binary codec for long inverted lists.

Long inverted lists are immutable binary objects read a page at a time (§5.2),
so their byte layout determines both Table 1 (index sizes) and the number of
pages a query scan touches.  Every long list uses one **blocked** layout:
fixed-span blocks, each carrying a ``(count, last doc id, max-score bound)``
directory entry plus a CRC over its delta+varbyte payload, decoded lazily one
block at a time so a scan that stops early — or skips whole blocks whose bound
cannot make the top-k — never fetches the remaining pages.  Three list kinds
share the layout:

* id-ordered (ID / ID-TermScore): delta-encoded document ids, optional
  per-posting term score;
* score-ordered (Score-Threshold): document id plus full document score per
  posting, no delta compression — reproducing the paper's observation that
  Score-Threshold lists are several times larger;
* chunked (Chunk / Chunk-TermScore): chunk id stored once per chunk fragment,
  document ids delta-encoded within it.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import ChecksumError, InvertedIndexError

# ---------------------------------------------------------------------------
# Varint helpers
# ---------------------------------------------------------------------------


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint."""
    if value < 0:
        raise InvertedIndexError(f"varints encode non-negative integers, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode a varint at ``offset``; return ``(value, next_offset)``."""
    result = 0
    shift = 0
    position = offset
    while True:
        if position >= len(data):
            raise InvertedIndexError("truncated varint")
        byte = data[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7


# ---------------------------------------------------------------------------
# Posting dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Posting:
    """A single long-list posting: a document id and an optional term score."""

    doc_id: int
    term_score: float = 0.0


@dataclass(frozen=True)
class ScoredPosting:
    """A Score-Threshold long-list posting: document id plus its (stale) SVR score."""

    doc_id: int
    score: float
    term_score: float = 0.0


@dataclass(frozen=True)
class ChunkRun:
    """One chunk's worth of postings in a chunked long list.

    Attributes
    ----------
    chunk_id:
        The chunk id (higher ids correspond to higher original scores).
    postings:
        Postings within the chunk, in increasing document-id order.
    """

    chunk_id: int
    postings: tuple[Posting, ...]


# ---------------------------------------------------------------------------
# Lazy, page-at-a-time reading
# ---------------------------------------------------------------------------

_FLOAT = struct.Struct("<f")
_SCORED = struct.Struct("<dI")
_SCORED_TS = struct.Struct("<dIf")


class LazyBytesReader:
    """Sequential byte reader over a page iterator.

    Query processing reads long inverted lists one page at a time and stops as
    soon as the early-termination conditions are met; pages after the stopping
    point must never be fetched or they would distort the I/O accounting.  This
    reader pulls pages from the underlying iterator only when the decoder
    actually needs more bytes, and serves reads straight out of the current
    page fragment.
    """

    __slots__ = ("_pages", "_buf", "_pos")

    def __init__(self, pages: Iterator[bytes]) -> None:
        self._pages = pages
        self._buf = b""
        self._pos = 0

    def _advance(self) -> bool:
        """Step to the next non-empty page fragment; ``False`` at end of list."""
        for fragment in self._pages:
            self._buf = fragment
            self._pos = 0
            if fragment:
                return True
        return False

    @property
    def exhausted(self) -> bool:
        """Whether no more bytes can be read."""
        if self._pos < len(self._buf):
            return False
        return not self._advance()

    def read_bytes(self, count: int) -> bytes:
        """Read exactly ``count`` bytes (raises on truncation)."""
        buf = self._buf
        pos = self._pos
        end = pos + count
        if end <= len(buf):
            self._pos = end
            return buf[pos:end]
        parts = []
        needed = count
        while True:
            available = len(buf) - pos
            if available:
                take = available if available < needed else needed
                parts.append(buf[pos:pos + take])
                pos += take
                needed -= take
            if not needed:
                break
            if not self._advance():
                self._pos = pos
                raise InvertedIndexError("truncated posting list")
            buf = self._buf
            pos = 0
        self._buf = buf
        self._pos = pos
        return b"".join(parts)

    def read_varint(self) -> int:
        """Read one LEB128 varint."""
        buf = self._buf
        pos = self._pos
        size = len(buf)
        result = 0
        shift = 0
        while True:
            if pos >= size:
                if not self._advance():
                    raise InvertedIndexError("truncated posting list")
                buf = self._buf
                pos = 0
                size = len(buf)
            byte = buf[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self._buf = buf
                self._pos = pos
                return result
            shift += 7


# ---------------------------------------------------------------------------
# Blocked layout (fixed-span blocks with skip metadata)
# ---------------------------------------------------------------------------

#: First byte of every payload; doubles as a cheap sanity check that the bytes
#: routed to a decoder actually came from the encoder.
BLOCKED_MAGIC = 0xB7
BLOCKED_VERSION = 1

#: Kind tags stored in the header.
BLOCK_KIND_ID = 0
BLOCK_KIND_SCORED = 1
BLOCK_KIND_CHUNK = 2

#: Postings per block.  128 keeps a block's payload well under one 4 KiB page
#: (a delta varint plus optional 4-byte term score is <= 14 bytes) so block
#: skipping works at sub-page granularity, while the directory stays ~1% of
#: the payload for long lists.
DEFAULT_BLOCK_SPAN = 128

_BOUND = struct.Struct("<d")

#: The only header flag: per-posting term scores present.  Any other bit set
#: is rejected with a ``ChecksumError`` (bit 1 once selected a retired
#: group-varint payload codec, so such payloads fail loudly, never misdecode).
_FLAG_TERM_SCORES = 1


@dataclass(frozen=True)
class BlockInfo:
    """Directory entry of one block in a blocked long-list payload.

    Attributes
    ----------
    count:
        Number of postings in the block (always >= 1).
    last_doc_id:
        Document id of the block's final posting.
    bound:
        Kind-specific max-score metadata: the largest term score in the block
        (id kind), the largest stored document score (scored kind — the first
        record, lists are score-descending) or the largest chunk id (chunk
        kind).  Block-max pruning compares this against the result heap's
        published threshold.
    length:
        Payload length in bytes.
    crc:
        CRC32 of the payload bytes.
    """

    count: int
    last_doc_id: int
    bound: float
    length: int
    crc: int


@dataclass(frozen=True)
class BlockDirectory:
    """Parsed header + directory of a blocked payload."""

    kind: int
    with_term_scores: bool
    total: int
    blocks: tuple[BlockInfo, ...]


def _encode_blocked(kind: int, with_term_scores: bool, total: int,
                    blocks: "list[tuple[int, int, float, bytes]]") -> bytes:
    """Assemble the blocked wire format.

    ``blocks`` holds ``(count, last_doc_id, bound, payload)`` per block.  The
    layout is: a 4-byte header (magic, version, kind, flags), varint total and
    block counts, the varint-length + CRC32-protected block directory, then
    the block payloads back to back.  Both the directory and each payload
    carry a CRC so bit-rot anywhere in the segment surfaces as a typed
    :class:`~repro.errors.ChecksumError` on *both* storage backends (the file
    backend's per-page checksum catches it one layer earlier).
    """
    directory = bytearray()
    for count, last_doc_id, bound, payload in blocks:
        directory += encode_varint(count)
        directory += encode_varint(last_doc_id)
        directory += _BOUND.pack(bound)
        directory += encode_varint(len(payload))
        directory += encode_varint(zlib.crc32(payload))
    out = bytearray()
    out.append(BLOCKED_MAGIC)
    out.append(BLOCKED_VERSION)
    out.append(kind)
    out.append(_FLAG_TERM_SCORES if with_term_scores else 0)
    out += encode_varint(total)
    out += encode_varint(len(blocks))
    out += encode_varint(len(directory))
    out += encode_varint(zlib.crc32(bytes(directory)))
    out += directory
    for _count, _last, _bound, payload in blocks:
        out += payload
    return bytes(out)


def _check_block_span(block_span: int) -> None:
    if block_span < 1:
        raise InvertedIndexError(f"block_span must be positive, got {block_span}")


def encode_blocked_id_postings(postings: Sequence[Posting],
                               with_term_scores: bool = False,
                               block_span: int = DEFAULT_BLOCK_SPAN) -> bytes:
    """Encode postings sorted by increasing document id.

    Document ids are delta-encoded varints; term scores, when requested, are
    stored as 4-byte floats per posting (this is what makes the TermScore
    variants roughly 3x larger, matching Table 1's ID vs ID-TermScore ratio).
    Each block is self-contained: its first document id is stored absolute so
    a block decodes without its predecessors (and torn tails are detected per
    block).  The block bound is the largest term score in the block.
    """
    _check_block_span(block_span)
    previous = 0
    for posting in postings:
        if posting.doc_id < previous:
            raise InvertedIndexError("ID-ordered postings must be sorted by doc id")
        previous = posting.doc_id
    blocks: list[tuple[int, int, float, bytes]] = []
    for start in range(0, len(postings), block_span):
        span = postings[start:start + block_span]
        bound = 0.0
        body = bytearray()
        previous = 0
        for posting in span:
            body += encode_varint(posting.doc_id - previous)
            previous = posting.doc_id
            if with_term_scores:
                body += _FLOAT.pack(posting.term_score)
                if posting.term_score > bound:
                    bound = posting.term_score
        blocks.append((len(span), span[-1].doc_id, bound, bytes(body)))
    return _encode_blocked(BLOCK_KIND_ID, with_term_scores, len(postings), blocks)


def encode_blocked_scored_postings(postings: Sequence[ScoredPosting],
                                   with_term_scores: bool = False,
                                   block_span: int = DEFAULT_BLOCK_SPAN) -> bytes:
    """Encode postings sorted by decreasing score.

    Each posting stores an 8-byte score and a 4-byte document id; no delta
    compression is possible because the ids are not sorted.  This reproduces
    the Score-Threshold method's space overhead relative to the ID method.
    The block bound is the stored score of the block's first record (lists
    are score-descending, so that is the block maximum — what
    ``thresholdValueOf`` bounds at query time).
    """
    _check_block_span(block_span)
    previous_score = None
    for posting in postings:
        if previous_score is not None and posting.score > previous_score:
            raise InvertedIndexError("scored postings must be sorted by decreasing score")
        previous_score = posting.score
    record = _SCORED_TS if with_term_scores else _SCORED
    blocks: list[tuple[int, int, float, bytes]] = []
    for start in range(0, len(postings), block_span):
        span = postings[start:start + block_span]
        if with_term_scores:
            body = b"".join(
                record.pack(posting.score, posting.doc_id, posting.term_score)
                for posting in span
            )
        else:
            body = b"".join(record.pack(posting.score, posting.doc_id) for posting in span)
        blocks.append((len(span), span[-1].doc_id, span[0].score, body))
    return _encode_blocked(BLOCK_KIND_SCORED, with_term_scores, len(postings), blocks)


def encode_blocked_chunk_runs(runs: Sequence[ChunkRun],
                              with_term_scores: bool = False,
                              block_span: int = DEFAULT_BLOCK_SPAN) -> bytes:
    """Encode chunk runs in decreasing chunk-id order.

    Runs are flattened into (decreasing chunk, increasing doc id) posting
    order and re-grouped into fixed-span blocks; a run that straddles a block
    boundary restarts as a fresh fragment (chunk id, count, absolute first
    doc id) so every block decodes independently.  The chunk id is stored
    once per fragment (the Chunk method's "small additional overhead for
    storing the chunk ID once for each chunk").  The block bound is the
    block's largest chunk id — its first fragment's.
    """
    _check_block_span(block_span)
    flat: list[tuple[int, int, float]] = []
    previous_chunk = None
    for run in runs:
        if previous_chunk is not None and run.chunk_id >= previous_chunk:
            raise InvertedIndexError("chunk runs must be sorted by decreasing chunk id")
        previous_chunk = run.chunk_id
        previous_doc = 0
        for posting in run.postings:
            if posting.doc_id < previous_doc:
                raise InvertedIndexError(
                    "postings within a chunk must be sorted by increasing doc id"
                )
            previous_doc = posting.doc_id
            flat.append((run.chunk_id, posting.doc_id, posting.term_score))
    blocks: list[tuple[int, int, float, bytes]] = []
    total = len(flat)
    for start in range(0, total, block_span):
        span = flat[start:start + block_span]
        body = bytearray()
        index = 0
        while index < len(span):
            chunk_id = span[index][0]
            end = index
            while end < len(span) and span[end][0] == chunk_id:
                end += 1
            body += encode_varint(chunk_id)
            body += encode_varint(end - index)
            previous_doc = 0
            for _chunk, doc_id, term_score in span[index:end]:
                body += encode_varint(doc_id - previous_doc)
                previous_doc = doc_id
                if with_term_scores:
                    body += _FLOAT.pack(term_score)
            index = end
        blocks.append((len(span), span[-1][1], float(span[0][0]), bytes(body)))
    return _encode_blocked(BLOCK_KIND_CHUNK, with_term_scores, total, blocks)


def _read_blocked_header(reader: LazyBytesReader,
                         expected_kind: "int | None" = None) -> BlockDirectory:
    """Parse the header + directory through ``reader`` (CRC-verified).

    ``expected_kind`` — when given — must match the header's kind tag;
    ``None`` accepts any kind (the planner's peek, tests).
    """
    head = reader.read_bytes(4)
    if head[0] != BLOCKED_MAGIC:
        raise ChecksumError(
            f"blocked posting list: bad magic byte 0x{head[0]:02x}"
        )
    if head[1] != BLOCKED_VERSION:
        raise InvertedIndexError(
            f"blocked posting list: unsupported version {head[1]}"
        )
    if head[2] not in _BLOCK_DECODERS:
        raise InvertedIndexError(f"blocked posting list: unknown kind {head[2]}")
    if expected_kind is not None and head[2] != expected_kind:
        raise InvertedIndexError(
            f"blocked posting list: kind {head[2]} where {expected_kind} was expected"
        )
    if head[3] > _FLAG_TERM_SCORES:
        raise ChecksumError(f"blocked posting list: bad flags byte 0x{head[3]:02x}")
    total = reader.read_varint()
    block_count = reader.read_varint()
    directory_length = reader.read_varint()
    directory_crc = reader.read_varint()
    blob = reader.read_bytes(directory_length)
    if zlib.crc32(blob) != directory_crc:
        raise ChecksumError("blocked posting list: directory checksum mismatch")
    blocks: list[BlockInfo] = []
    offset = 0
    for _ in range(block_count):
        count, offset = decode_varint(blob, offset)
        last_doc_id, offset = decode_varint(blob, offset)
        if offset + 8 > len(blob):
            raise ChecksumError("blocked posting list: truncated directory entry")
        bound = _BOUND.unpack_from(blob, offset)[0]
        offset += 8
        length, offset = decode_varint(blob, offset)
        crc, offset = decode_varint(blob, offset)
        blocks.append(BlockInfo(count=count, last_doc_id=last_doc_id, bound=bound,
                                length=length, crc=crc))
    if offset != len(blob):
        raise ChecksumError("blocked posting list: directory length mismatch")
    if sum(block.count for block in blocks) != total:
        raise ChecksumError("blocked posting list: posting count mismatch")
    if any(block.count == 0 for block in blocks):
        raise ChecksumError("blocked posting list: empty block")
    return BlockDirectory(kind=head[2], with_term_scores=bool(head[3]),
                          total=total, blocks=tuple(blocks))


def peek_blocked_directory(reader: LazyBytesReader) -> "BlockDirectory | None":
    """Parse a payload's header + directory, whatever its kind.

    The EXPLAIN planner's peek: ``None`` when the segment is empty, otherwise
    the CRC-verified :class:`BlockDirectory`.  A corrupt payload raises,
    like any read.
    """
    if reader.exhausted:
        return None
    return _read_blocked_header(reader)


def read_block_directory(data: bytes) -> BlockDirectory:
    """Parse a payload's header + directory from bytes (tests, benches)."""
    return _read_blocked_header(LazyBytesReader(iter((data,))))


def _read_block_payload(reader: LazyBytesReader, block: BlockInfo) -> bytes:
    payload = reader.read_bytes(block.length)
    if zlib.crc32(payload) != block.crc:
        raise ChecksumError("blocked posting list: block checksum mismatch")
    return payload


def _decode_id_block(payload: bytes, block: BlockInfo,
                     with_term_scores: bool) -> "list[tuple[int, float]]":
    out: list[tuple[int, float]] = []
    append = out.append
    offset = 0
    doc_id = 0
    size = len(payload)
    for _ in range(block.count):
        delta, offset = decode_varint(payload, offset)
        doc_id += delta
        if with_term_scores:
            if offset + 4 > size:
                raise ChecksumError("blocked posting list: truncated block")
            append((doc_id, _FLOAT.unpack_from(payload, offset)[0]))
            offset += 4
        else:
            append((doc_id, 0.0))
    if offset != size or doc_id != block.last_doc_id:
        raise ChecksumError("blocked posting list: block contents do not match header")
    return out


def _decode_scored_block(payload: bytes, block: BlockInfo,
                         with_term_scores: bool) -> "list[tuple[int, float, float]]":
    record = _SCORED_TS if with_term_scores else _SCORED
    if len(payload) != block.count * record.size:
        raise ChecksumError("blocked posting list: block contents do not match header")
    if with_term_scores:
        out = [(doc_id, score, term_score)
               for score, doc_id, term_score in record.iter_unpack(payload)]
    else:
        out = [(doc_id, score, 0.0) for score, doc_id in record.iter_unpack(payload)]
    if out[-1][0] != block.last_doc_id or out[0][1] != block.bound:
        raise ChecksumError("blocked posting list: block contents do not match header")
    return out


def _decode_chunk_block(payload: bytes, block: BlockInfo,
                        with_term_scores: bool) -> "list[tuple[int, int, float]]":
    out: list[tuple[int, int, float]] = []
    append = out.append
    offset = 0
    size = len(payload)
    remaining = block.count
    previous_chunk = None
    while remaining:
        chunk_id, offset = decode_varint(payload, offset)
        fragment_count, offset = decode_varint(payload, offset)
        if fragment_count == 0 or fragment_count > remaining:
            raise ChecksumError("blocked posting list: bad chunk fragment length")
        if previous_chunk is not None and chunk_id >= previous_chunk:
            raise ChecksumError("blocked posting list: chunk fragments out of order")
        previous_chunk = chunk_id
        doc_id = 0
        for _ in range(fragment_count):
            delta, offset = decode_varint(payload, offset)
            doc_id += delta
            if with_term_scores:
                if offset + 4 > size:
                    raise ChecksumError("blocked posting list: truncated block")
                append((chunk_id, doc_id, _FLOAT.unpack_from(payload, offset)[0]))
                offset += 4
            else:
                append((chunk_id, doc_id, 0.0))
        remaining -= fragment_count
    if offset != size or out[-1][1] != block.last_doc_id or out[0][0] != int(block.bound):
        raise ChecksumError("blocked posting list: block contents do not match header")
    return out


_BLOCK_DECODERS = {
    BLOCK_KIND_ID: _decode_id_block,
    BLOCK_KIND_SCORED: _decode_scored_block,
    BLOCK_KIND_CHUNK: _decode_chunk_block,
}


def _iter_blocked_lazy(reader: LazyBytesReader, kind: int,
                       prune=None, on_skip=None) -> Iterator:
    """The scan loop: decode block-at-a-time, stop at a pruned block.

    ``prune(block)`` — when given — is consulted *before* the block's payload
    bytes are read; because every long list is rank-ordered, a block whose
    bound cannot beat the threshold means no later block can either, so the
    scan ends there and the remaining pages are never fetched.  ``on_skip``
    receives the number of blocks skipped that way plus the pruned
    :class:`BlockInfo` itself (stats accounting and EXPLAIN ANALYZE's
    skip-decision reporting — the block carries the bound the floor beat).
    """
    if reader.exhausted:
        return
    directory = _read_blocked_header(reader, kind)
    decode_block = _BLOCK_DECODERS[kind]
    with_term_scores = directory.with_term_scores
    blocks = directory.blocks
    for index, block in enumerate(blocks):
        if prune is not None and prune(block):
            if on_skip is not None:
                on_skip(len(blocks) - index, block)
            return
        yield from decode_block(_read_block_payload(reader, block), block,
                                with_term_scores)


def iter_blocked_id_postings_lazy(reader: LazyBytesReader, prune=None,
                                  on_skip=None) -> Iterator[tuple[int, float]]:
    """Stream an id-ordered list as ``(doc_id, term_score)`` pairs."""
    return _iter_blocked_lazy(reader, BLOCK_KIND_ID,
                              prune=prune, on_skip=on_skip)


def iter_blocked_scored_postings_lazy(reader: LazyBytesReader, prune=None,
                                      on_skip=None) -> Iterator[tuple[int, float, float]]:
    """Stream a score-ordered list as ``(doc_id, score, term_score)`` tuples."""
    return _iter_blocked_lazy(reader, BLOCK_KIND_SCORED,
                              prune=prune, on_skip=on_skip)


def iter_blocked_chunk_postings_lazy(reader: LazyBytesReader, prune=None,
                                     on_skip=None) -> Iterator[tuple[int, int, float]]:
    """Stream a chunked list as ``(chunk_id, doc_id, term_score)`` triples.

    Chunks come in decreasing chunk-id order and postings within a chunk in
    increasing document-id order, exactly as stored.
    """
    return _iter_blocked_lazy(reader, BLOCK_KIND_CHUNK,
                              prune=prune, on_skip=on_skip)


def decode_blocked_id_postings(data: bytes) -> list[Posting]:
    """Eagerly decode a payload produced by :func:`encode_blocked_id_postings`."""
    reader = LazyBytesReader(iter((data,)))
    return [
        Posting(doc_id=doc_id, term_score=term_score)
        for doc_id, term_score in iter_blocked_id_postings_lazy(reader)
    ]


def decode_blocked_scored_postings(data: bytes) -> list[ScoredPosting]:
    """Eagerly decode a payload produced by :func:`encode_blocked_scored_postings`."""
    reader = LazyBytesReader(iter((data,)))
    return [
        ScoredPosting(doc_id=doc_id, score=score, term_score=term_score)
        for doc_id, score, term_score in iter_blocked_scored_postings_lazy(reader)
    ]


def decode_blocked_chunk_runs(data: bytes) -> list[ChunkRun]:
    """Eagerly decode a payload produced by :func:`encode_blocked_chunk_runs`.

    Fragments of one chunk split across block boundaries are re-joined, so the
    result compares equal to the runs given to the encoder.
    """
    reader = LazyBytesReader(iter((data,)))
    runs: list[ChunkRun] = []
    current_chunk: int | None = None
    postings: list[Posting] = []
    for chunk_id, doc_id, term_score in iter_blocked_chunk_postings_lazy(reader):
        if chunk_id != current_chunk:
            if current_chunk is not None:
                runs.append(ChunkRun(chunk_id=current_chunk, postings=tuple(postings)))
            current_chunk = chunk_id
            postings = []
        postings.append(Posting(doc_id=doc_id, term_score=term_score))
    if current_chunk is not None:
        runs.append(ChunkRun(chunk_id=current_chunk, postings=tuple(postings)))
    return runs


# ---------------------------------------------------------------------------
# Helpers shared by the index builders
# ---------------------------------------------------------------------------


def build_rekey_operations(
    changes: Iterable[tuple[int, float, float]],
    terms_of: "Callable[[int], Iterable[str]]",
) -> tuple[list[tuple[str, float, int]], list[tuple[str, float, int]]]:
    """Turn coalesced score changes into sorted clustered-list re-key batches.

    ``changes`` yields ``(doc_id, old_score, new_score)`` triples — one per
    document, already coalesced from first-seen old score to final new score.
    ``terms_of`` maps a document id to its distinct terms (``Content(id)``).
    Returns ``(deletes, inserts)``: the old ``(term, -old_score, doc_id)`` keys
    to remove from a score-clustered list and the new ``(term, -new_score,
    doc_id)`` keys to add, each sorted so a bulk B+-tree pass can consume the
    run without re-descending per key.  Documents whose score did not change
    produce no operations (their postings are already keyed correctly).
    """
    deletes: list[tuple[str, float, int]] = []
    inserts: list[tuple[str, float, int]] = []
    for doc_id, old_score, new_score in changes:
        if old_score == new_score:
            continue
        for term in terms_of(doc_id):
            deletes.append((term, -old_score, doc_id))
            inserts.append((term, -new_score, doc_id))
    deletes.sort()
    inserts.sort()
    return deletes, inserts


def build_chunk_runs(doc_chunks: Iterable[tuple[int, int, float]]) -> list[ChunkRun]:
    """Group ``(doc_id, chunk_id, term_score)`` triples into sorted chunk runs.

    Runs are ordered by decreasing chunk id; postings within a run by
    increasing document id — the on-disk order the Chunk method requires.
    """
    by_chunk: dict[int, list[Posting]] = {}
    for doc_id, chunk_id, term_score in doc_chunks:
        by_chunk.setdefault(chunk_id, []).append(Posting(doc_id=doc_id, term_score=term_score))
    runs = []
    for chunk_id in sorted(by_chunk, reverse=True):
        postings = tuple(sorted(by_chunk[chunk_id], key=lambda posting: posting.doc_id))
        runs.append(ChunkRun(chunk_id=chunk_id, postings=postings))
    return runs
