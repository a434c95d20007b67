"""Resumable orchestration of the degree–diameter sweep over a chunk store.

The full diameter-10 block of Table 1 tests every divisor split of every
``n`` up to the Kautz order 1536 — hours of work that one wants to spread
over several workers, interrupt, and resume.  This module supplies the
pieces that make that safe, in the deterministic-partitioning style of
Bobpp-like exhaustive search frameworks (see PAPERS.md):

* :class:`ChunkManifest` — a pure function of the search parameters that
  partitions the ``(n, p, q)`` work list into *named* chunks.  A chunk id is
  a stable hash of the chunk's work items together with the search
  parameters and :func:`code_version`, so every worker (and every re-run)
  derives the identical manifest and agrees on which file holds which work.
  (The in-process search persists nothing and slices the list unnamed.)
* :class:`ChunkStore` — a directory of per-chunk JSON-lines result files.
  A chunk file is written to a temporary name and published with one atomic
  :func:`os.replace`, so a file either holds the complete chunk or does not
  exist; an interrupted sweep resumes by skipping the chunk ids already on
  disk.
* :func:`read_chunks` — the one reader of a store, for this manifest or
  the sharded simulator's: merges and the ``--watch`` progress line read
  through it.
* :class:`SplitVerdictCache` — an on-disk memo of
  :func:`repro.otis.search.h_diameter` verdicts keyed by
  ``(p, q, d, target_D)`` and scoped by :func:`code_version`.  ``h_diameter``
  is a pure function of those parameters, and overlapping Table 1 blocks
  (plus repeated CI runs) ask for the same splits again and again; with a
  warm cache they are answered from disk.  Bumping the code version (any
  change to the verdict-defining sources) switches to a fresh cache file, so
  stale verdicts can never leak across versions.

A store is filled by the fleet loop (:func:`repro.fleet.run_fleet` over a
:class:`repro.fleet.SweepFleetJob`: any number of workers claim chunks
through lease files, and every run skips the chunks already published) and
:func:`merge_sweep` folds the chunk files back into the same
:class:`~repro.otis.search.DegreeDiameterResult` that an in-process
:func:`~repro.otis.search.degree_diameter_search` returns — byte-identical
rows, regardless of which worker ran which chunk.  The CLI front-end is
``python -m repro fleet sweep`` (``--merge``, ``--merge --partial``,
``--cache-dir``).

On-disk formats (all JSON, one object per line in the ``.jsonl`` files):

* chunk file ``<out_dir>/chunk-<id>.jsonl`` — one record
  ``{"n": n, "p": p, "q": q, "verdict": v}`` per work item, where ``v`` is
  the raw staged verdict of ``h_diameter(h_digraph(p, q, d), upper_bound=D)``
  (``-1`` not strongly connected, ``0..D`` exact diameter, ``D+1`` "too
  large").  :func:`run_chunk` computes it with one compiled
  ``screen_splits`` call per chunk and the eccentricity stage for the
  splits that pass (per-split ``h_diameter`` under ``numpy``).  Storing
  the raw verdict keeps the merge free to apply either the exact-diameter
  or the at-most-diameter filter.  The final line is a
  ``{"__chunk_footer__": id, "records": count}`` footer; :meth:`ChunkStore.read`
  refuses files whose footer is missing or disagrees, so a chunk truncated
  in transit can never fold partial data into a merge.
* identity file ``<out_dir>/manifest.json`` — the manifest parameters the
  store was built for (:meth:`ChunkManifest.identity`, through
  :func:`manifest_identity`), published on first write and verified on
  every later run/merge (:func:`ensure_store_identity`): relaunching an
  out-dir with different ``(d, D, n range)``/chunk-size/code fails fast
  instead of silently matching zero chunks and rerunning everything.
* cache file ``<cache_dir>/verdicts-d<d>-D<D>-<code_version>.jsonl`` — one
  record ``{"p": p, "q": q, "verdict": v}`` per memoised split; a chunk's
  fresh records are appended as a single ``O_APPEND`` write so concurrent
  workers never tear lines.

>>> manifest = ChunkManifest.build(2, 4, [16], chunk_size=2, code_version="v1")
>>> [chunk.items for chunk in manifest.chunks]
[((16, 1, 32), (16, 2, 16)), ((16, 4, 8),)]
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

__all__ = [
    "import_closure",
    "fingerprint_closure",
    "code_version",
    "WorkItem",
    "SweepChunk",
    "make_chunks",
    "check_chunking",
    "manifest_identity",
    "ChunkManifest",
    "ChunkStore",
    "read_chunks",
    "StoreIdentityError",
    "ensure_store_identity",
    "SplitVerdictCache",
    "run_chunk",
    "merge_sweep",
    "fold_records",
]

#: ``(n, p, q)`` — one candidate split of ``n`` nodes to test.
WorkItem = tuple[int, int, int]

#: An ``import`` statement at any indentation: ``from <module> import
#: <names>`` (groups 1 and 2) or ``import <names>`` (group 3).
_IMPORT_LINE = re.compile(
    r"[ \t]*(?:from[ \t]+([\w.]+)[ \t]+import\b(.*)|import[ \t]+(.*))"
)


def _imported_names(source: str) -> set[str]:
    """Dotted names the ``import`` statements of ``source`` may load.

    A line scan, not a parse (parsing a closure costs ~10x more), over every
    statement including those inside functions.  ``import a.b`` yields
    ``a.b``; ``from a import b`` yields ``a.b``, which resolves to module
    ``a`` when ``b`` is not a submodule.  A parenthesised name list runs to
    its ``)``; comments are dropped first, since one may hold a ``)``.
    """
    names: set[str] = set()
    lines = iter(source.splitlines())
    for line in lines:
        match = _IMPORT_LINE.fullmatch(line) if "import" in line else None
        if match is None:
            continue
        module = match.group(1)
        listed = (match.group(2) if module else match.group(3)).partition("#")[0]
        if listed.lstrip().startswith("("):
            while ")" not in listed:
                listed += "," + next(lines, ")").partition("#")[0]
            listed = listed.replace("(", " ").replace(")", " ")
        for alias in listed.split(","):
            words = alias.split()
            if words:
                names.add(f"{module}.{words[0]}" if module else words[0])
    return names


def _package_dir(module: Path) -> Path:
    """The top-level package directory holding the ``module`` file."""
    package_dir = module.parent
    while (package_dir.parent / "__init__.py").is_file():
        package_dir = package_dir.parent
    return package_dir


def _package_modules(package_dir: Path) -> dict[str, str]:
    """``{dotted module name: package-relative file}`` below ``package_dir``.

    The root ``__init__.py`` is left out: it is the package namespace, not
    result-defining code.
    """
    modules = {}
    for directory, _, files in os.walk(package_dir):
        parts = Path(directory).relative_to(package_dir).parts
        for name in files:
            if name.endswith(".py"):
                dotted = ".".join((package_dir.name, *parts, name[:-3]))
                modules[dotted.removesuffix(".__init__")] = "/".join((*parts, name))
    del modules[package_dir.name]
    return modules


def import_closure(root: Path) -> tuple[str, ...]:
    """Sorted files reachable from module file ``root`` through imports.

    Paths are relative to the package holding ``root`` (``"otis/sweep.py"``).
    Every ``import`` of a module of that package is followed, lazy imports
    inside functions included, so code a result depends on cannot stay out
    of the closure.  A name resolves to its longest prefix that is a
    module.  A lazy import that is never run on the result path only
    over-includes: editing that file causes a recompute, never a stale
    merge.
    """
    package_dir = _package_dir(root)
    modules = _package_modules(package_dir)
    seen = {root.relative_to(package_dir).as_posix()}
    pending = list(seen)
    while pending:
        source = (package_dir / pending.pop()).read_text(encoding="utf-8")
        for name in _imported_names(source):
            while name not in modules and "." in name:
                name = name.rpartition(".")[0]
            found = modules.get(name)
            if found is not None and found not in seen:
                seen.add(found)
                pending.append(found)
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def fingerprint_closure(root: Path) -> str:
    """Stable 12-hex-digit fingerprint of module file ``root``'s import closure.

    A SHA-256 prefix over each file of :func:`import_closure` in sorted
    order (its package-relative path, its byte length, then its bytes).
    Any subsystem that persists results keyed by "the code that computed
    them" (the degree–diameter sweep, the sharded simulator of
    :mod:`repro.simulation.sharding`) roots it at the module that writes its
    records, so editing any code those records depend on renames every chunk
    and no resumed run can mix results from different code.
    """
    package_dir = _package_dir(root)
    digest = hashlib.sha256()
    for relative in import_closure(root):
        data = (package_dir / relative).read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()[:12]


def code_version() -> str:
    """Fingerprint of the verdict-defining code (see :func:`fingerprint_closure`).

    Rooted at this module: its ``run_chunk`` computes the verdict every
    chunk record stores.  Part of every chunk id and every cache file
    name: two processes agree on a chunk or cache entry only when they run
    the *same* verdict code.  The active kernel backend is not part of it:
    the parity suites prove ``cnative`` and ``numpy`` give the same
    verdicts, so a store filled under one backend resumes under the other.
    """
    return fingerprint_closure(Path(__file__))


@dataclass(frozen=True)
class SweepChunk:
    """One named unit of chunked work.

    ``chunk_id`` is the stable name (also the result file name); ``items``
    the work items — for the degree–diameter sweep the ``(n, p, q)``
    triples in canonical (``n`` then ``p`` ascending) order, for other
    manifests whatever JSON-serialisable item type they chunk over (e.g.
    the sharded simulator's ``(replica index, traffic digest)`` pairs).
    """

    chunk_id: str
    items: tuple


def make_chunks(items, chunk_size: int, identity: list) -> tuple[SweepChunk, ...]:
    """Cut a work list into contiguous, deterministically named chunks.

    ``identity`` is the JSON-serialisable context that, together with a
    chunk's items, *defines* its results (search parameters, code version,
    link timings, …): the chunk id is a SHA-256 prefix over both, so every
    worker deriving the same identity and item list agrees on which file
    holds which work — and on which lease names which chunk.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    items = list(items)
    chunks = []
    for start in range(0, len(items), chunk_size):
        chunk_items = tuple(items[start : start + chunk_size])
        payload = json.dumps(identity + [chunk_items], separators=(",", ":"))
        chunk_id = hashlib.sha256(payload.encode()).hexdigest()[:16]
        chunks.append(SweepChunk(chunk_id=chunk_id, items=chunk_items))
    return tuple(chunks)


def check_chunking(chunk_size: int, diameter: int) -> None:
    """Refuse a bad ``chunk_size``, or a negative ``diameter`` (its "too
    large" verdict would be ``-1 + 1 = 0``)."""
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if diameter < 0:
        raise ValueError(f"diameter must be non-negative, got {diameter}")


def manifest_identity(manifest, kind: str, **fields) -> dict:
    """The ``manifest.json`` identity of a manifest of either store kind.

    ``kind`` and the kind's own ``fields``, then the keys every manifest
    shares: ``chunk_size``, ``code_version``, ``num_chunks`` and the chunk
    ids themselves (which cover every parameter hashed into them, and tell
    a status reader which chunk files are this manifest's).
    """
    return {
        "kind": kind,
        **fields,
        "chunk_size": manifest.chunk_size,
        "code_version": manifest.code_version,
        "num_chunks": len(manifest.chunks),
        "chunk_ids": [chunk.chunk_id for chunk in manifest.chunks],
    }


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory (persists renames across crashes).

    ``os.replace`` is atomic, but on a crash the *directory entry* may still
    be lost unless the directory itself is synced — the classic
    write/fsync/rename/fsync-dir discipline NFS and ext4 documentation both
    prescribe.  Failure is ignored: some filesystems refuse O_RDONLY opens
    of directories, and durability is an upgrade, not a correctness
    requirement (a lost rename just means the chunk is recomputed).
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


#: The one compact encoder of chunk and cache lines: ``json.dumps`` with
#: ``separators=`` builds a fresh ``JSONEncoder`` on every call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def _write_payload(fd: int, payload: bytes) -> None:
    """Write ``payload`` to ``fd`` fully, then fsync.

    One explicit ``os.write`` loop instead of a buffered text handle: the
    write is a visible seam (the chaos harness injects torn writes and
    EIO/ENOSPC exactly here), and a partial write followed by a crash can
    only ever leave a *temporary* file torn — publication renames only
    after the full payload and the fsync succeeded.
    """
    view = memoryview(payload)
    while view:
        written = os.write(fd, view)
        view = view[written:]
    os.fsync(fd)


@dataclass(frozen=True)
class ChunkManifest:
    """Deterministic partition of a degree–diameter sweep into named chunks.

    Built by :meth:`build` as a pure function of ``(d, diameter,
    require_exact, n_values, chunk_size, code_version)``: every host that
    receives the same parameters derives bit-identical chunk ids, which is
    what lets fleet workers on different machines share one store with no
    coordination beyond the shared parameters and the lease files.

    ``require_exact`` is carried in the manifest (and hashed into the chunk
    ids) even though chunk files store raw verdicts — it is applied at merge
    time, and keeping it in the identity means a store directory can never
    silently mix sweeps that were launched with different filters.
    """

    d: int
    diameter: int
    require_exact: bool
    n_values: tuple[int, ...]
    chunk_size: int
    code_version: str
    chunks: tuple[SweepChunk, ...]

    @classmethod
    def build(
        cls,
        d: int,
        diameter: int,
        n_values,
        *,
        require_exact: bool = True,
        chunk_size: int = 32,
        code_version: str | None = None,
    ) -> "ChunkManifest":
        """Partition the ``(n, p, q)`` work list into contiguous named chunks.

        ``n_values`` is deduplicated and sorted; each ``n`` expands to its
        :func:`~repro.otis.search.candidate_splits`, and the flattened item
        list is cut into chunks of ``chunk_size`` items.  ``code_version``
        defaults to :func:`code_version` and should only be overridden by
        tests (to simulate a version bump without editing sources).
        """
        from repro.otis.search import candidate_splits

        check_chunking(chunk_size, diameter)
        version = globals()["code_version"]() if code_version is None else code_version
        ns = tuple(sorted(set(int(n) for n in n_values)))
        items: list[WorkItem] = [
            (n, p, q) for n in ns for p, q in candidate_splits(n, d)
        ]
        chunks = make_chunks(items, chunk_size, [d, diameter, require_exact, version])
        return cls(
            d=d,
            diameter=diameter,
            require_exact=require_exact,
            n_values=ns,
            chunk_size=chunk_size,
            code_version=version,
            chunks=tuple(chunks),
        )

    def identity(self) -> dict:
        """The JSON identity persisted as ``manifest.json`` in a store.

        Every parameter that renames the chunk ids appears here (plus the
        ids themselves), so :func:`ensure_store_identity`
        can fail fast — with the *differing field named* — when a store
        directory is relaunched or merged under parameters other than the
        ones it was built for.
        """
        return manifest_identity(
            self,
            "degree-diameter-sweep",
            d=self.d,
            diameter=self.diameter,
            require_exact=self.require_exact,
            n_values=list(self.n_values),
        )

    def fold(self, records: list[dict]):
        """:func:`fold_records` with this manifest's parameters and n range."""
        ns = self.n_values
        return fold_records(
            records,
            d=self.d,
            diameter=self.diameter,
            require_exact=self.require_exact,
            n_range=(ns[0], ns[-1]) if ns else (0, 0),
        )


class ChunkStore:
    """Directory of per-chunk result files with atomic completion.

    A chunk's results are streamed to a ``tempfile`` in the store directory
    and published under ``chunk-<id>.jsonl`` with one :func:`os.replace` —
    POSIX-atomic, so :meth:`is_complete` (existence of the final name) can
    never observe a half-written chunk.  Killing a worker mid-chunk leaves at
    worst a ``.tmp-*`` orphan, which the next run ignores and overwrites.

    The last line of every chunk file is a **footer** naming the chunk and
    its record count.  The atomic rename already guarantees a *locally*
    written file is complete; the footer extends the guarantee to files that
    travelled — a chunk truncated by an interrupted ``scp``/``rsync`` between
    fleet hosts, or tampered with in place, makes :meth:`read` raise instead
    of silently folding partial data into a merge.
    """

    #: Footer key — no result record uses it, so a footer can never be
    #: mistaken for data (records are flat parameter/stat objects).
    FOOTER_KEY = "__chunk_footer__"

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, chunk: SweepChunk) -> Path:
        """The (final, post-publication) result file of a chunk."""
        return self.directory / f"chunk-{chunk.chunk_id}.jsonl"

    def is_complete(self, chunk: SweepChunk) -> bool:
        """Whether the chunk's results were fully written and published."""
        return self.path_for(chunk).exists()

    def completed_ids(self) -> set[str]:
        """Chunk ids with a published result file in the store."""
        return {
            path.name[len("chunk-") : -len(".jsonl")]
            for path in sorted(self.directory.glob("chunk-*.jsonl"))
        }

    def write(self, chunk: SweepChunk, records: list[dict]) -> Path:
        """Atomically publish a chunk's records (write-temp, fsync, rename).

        The full payload — records plus footer — is serialised first and
        pushed through one :func:`os.write` loop, so a crash or injected
        fault at any point leaves either no file or a ``.tmp-*`` orphan,
        never a half-published ``chunk-*.jsonl``.
        """
        target = self.path_for(chunk)
        lines = [_COMPACT.encode(record) for record in records]
        footer = {self.FOOTER_KEY: chunk.chunk_id, "records": len(records)}
        lines.append(_COMPACT.encode(footer))
        payload = ("\n".join(lines) + "\n").encode()
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".tmp-{chunk.chunk_id}-", suffix=".jsonl", dir=self.directory
        )
        try:
            try:
                _write_payload(fd, payload)
            finally:
                os.close(fd)
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        _fsync_directory(self.directory)
        return target

    def read(self, chunk: SweepChunk) -> list[dict]:
        """The records of a completed chunk, validated against its footer.

        Raises ``ValueError`` on an unparseable line, a missing/foreign
        footer, or a record count that disagrees with the footer — any of
        which means the file is not the chunk :meth:`write` published
        (truncated in transit, tampered, or written by pre-footer code) and
        must not be merged.  The lines are parsed as one JSON array in one
        ``json.loads``; only a file that is not one JSON value per line
        takes the line-by-line parse that names the bad line.
        """
        path = self.path_for(chunk)
        lines = path.read_text().split("\n")
        rows = [line for line in lines if line.strip()]
        try:
            records = json.loads("[" + ",".join(rows) + "]")
        except ValueError:
            records = None
        if records is None or len(records) != len(rows):
            # Not one JSON value per line: parse line by line to name the
            # first bad one.
            records = []
            for number, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    raise ValueError(
                        f"{path.name}: line {number} is not valid JSON - the "
                        "chunk file is corrupt; delete it and re-run the chunk"
                    ) from None
        if not records or self.FOOTER_KEY not in records[-1]:
            raise ValueError(
                f"{path.name}: missing record-count footer - the file is "
                "truncated (e.g. an interrupted copy) or was written by an "
                "older version; delete it and re-run the chunk"
            )
        footer = records.pop()
        if footer[self.FOOTER_KEY] != chunk.chunk_id:
            raise ValueError(
                f"{path.name}: footer names chunk {footer[self.FOOTER_KEY]!r}, "
                f"expected {chunk.chunk_id!r} - the file belongs to a "
                "different chunk"
            )
        if footer.get("records") != len(records):
            raise ValueError(
                f"{path.name}: holds {len(records)} records but the footer "
                f"promises {footer.get('records')} - partial chunk payload; "
                "delete it and re-run the chunk"
            )
        return records


def read_chunks(store: ChunkStore, manifest, *, partial: bool = False) -> list[dict]:
    """The records of ``manifest``'s published chunks, in chunk order.

    Lists the store once and never writes to it.  Unless ``partial``, an
    unpublished chunk raises ``FileNotFoundError``; chunk files of no chunk
    of ``manifest`` add a note, since a changed code version or parameter
    renames every chunk id and "run the workers" alone would redo the work.
    """
    published = store.completed_ids()
    if not partial:
        missing = [c.chunk_id for c in manifest.chunks if c.chunk_id not in published]
        if missing:
            message = (
                f"{len(missing)} of {len(manifest.chunks)} chunks incomplete "
                f"(e.g. {missing[:3]}); run fleet workers on the store first"
            )
            orphans = published - {c.chunk_id for c in manifest.chunks}
            if orphans:
                message += (
                    f"; NOTE: the store also holds {len(orphans)} chunk "
                    "file(s) from a different manifest — the code version or "
                    "the parameters (chunk size among them) likely changed "
                    "since they were written (current code version: "
                    f"{manifest.code_version})"
                )
            raise FileNotFoundError(message)
    return [
        record
        for chunk in manifest.chunks
        if chunk.chunk_id in published
        for record in store.read(chunk)
    ]


class StoreIdentityError(RuntimeError):
    """A store directory's ``manifest.json`` disagrees with the caller's manifest.

    Raised instead of letting a relaunch with different parameters silently
    match zero completed chunks (and rerun everything) or pile a second,
    differently named chunk set into the same directory.
    """


#: Name of the identity file :func:`ensure_store_identity` keeps per store.
STORE_IDENTITY_NAME = "manifest.json"


def _shown(key: str, value) -> str:
    """An identity field's value in a mismatch message: the chunk ids by
    their count and first id, not the whole list."""
    if key == "chunk_ids" and isinstance(value, list) and value:
        return f"{len(value)} ids from {value[0]}"
    return repr(value)


def ensure_store_identity(store: ChunkStore, identity: dict) -> None:
    """Persist or verify a store directory's manifest identity.

    On the first write into an out-dir the identity (every parameter that
    renames the chunk ids — see :meth:`ChunkManifest.identity` /
    :meth:`repro.simulation.sharding.ReplicaChunkManifest.identity`) is
    published atomically as ``manifest.json``.  Every later run or merge
    against the same directory must present the same identity;  a
    mismatch raises :class:`StoreIdentityError` naming the differing fields
    *before* any work runs.  Concurrent fleet workers race benignly: they
    derive byte-identical identities, so whichever ``os.replace`` lands last
    publishes the same content.
    """
    path = store.directory / STORE_IDENTITY_NAME
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            raise StoreIdentityError(
                f"{path}: existing identity file is not valid JSON; "
                "the store directory is corrupt"
            ) from None
        if existing != identity:
            fields = [
                key
                for key in sorted(set(existing) | set(identity))
                if existing.get(key) != identity.get(key)
            ]
            detail = ", ".join(
                f"{key}: store has {_shown(key, existing.get(key))}, caller has "
                f"{_shown(key, identity.get(key))}"
                for key in fields
            )
            raise StoreIdentityError(
                f"{path} does not match the requested manifest ({detail}); "
                "the store was built with different parameters or code - "
                "use a fresh --out-dir, or relaunch with the original "
                "parameters"
            )
        return
    payload = (json.dumps(identity, indent=2, sort_keys=True) + "\n").encode()
    fd, tmp_name = tempfile.mkstemp(
        prefix=".tmp-manifest-", suffix=".json", dir=store.directory
    )
    try:
        try:
            _write_payload(fd, payload)
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_directory(store.directory)


class SplitVerdictCache:
    """On-disk memo of ``h_diameter`` verdicts for OTIS splits.

    One JSON-lines file per ``(d, target_D, code_version)`` triple, holding
    ``{"p": p, "q": q, "verdict": v}`` records.  The key design points:

    * the **code version is part of the file name**, not of each record:
      bumping it (any edit to a verdict-defining source) makes the cache
      start cold in a fresh file, so a verdict computed by old code can
      never satisfy a lookup from new code — correctness does not depend on
      anyone remembering to clear a directory;
    * records are *appended*, a chunk's fresh verdicts together as **one
      ``os.write`` on an ``O_APPEND`` file descriptor** (:meth:`put_many`):
      POSIX serialises same-filesystem ``O_APPEND`` writes, so concurrent
      fleet workers sharing a ``--cache-dir`` interleave whole chunks of
      lines and can never tear each other's records (a buffered text-mode
      ``open("a")`` offers no such guarantee — its flush may split one line
      across several writes).  A worker that dies mid-chunk has written
      none of that chunk's verdicts; they are recomputed.  Duplicated
      entries are harmless (last one wins on load, and verdicts are
      deterministic so duplicates always agree);
    * a malformed line (torn write from a crashed or pre-fix writer) is
      skipped on load — but *counted*, and a :class:`RuntimeWarning` says
      how many verdicts were dropped instead of silently swallowing them.

    ``hits`` / ``misses`` counters are exposed for the cold-vs-warm
    benchmark (``benchmarks/test_sweep_cache.py``).
    """

    def __init__(
        self,
        directory: str | Path,
        d: int,
        target_diameter: int,
        *,
        version: str | None = None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.d = d
        self.target_diameter = target_diameter
        self.version = code_version() if version is None else version
        self.path = (
            self.directory
            / f"verdicts-d{d}-D{target_diameter}-{self.version}.jsonl"
        )
        self.hits = 0
        self.misses = 0
        self._memory: dict[tuple[int, int], int] = {}
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        lines = [line for line in self.path.read_text().split("\n") if line.strip()]
        try:  # one json.loads, as ChunkStore.read
            records = json.loads("[" + ",".join(lines) + "]")
        except ValueError:
            records = []
        if len(records) != len(lines):  # some line is not one JSON value
            records = []
            for line in lines:
                try:
                    records.append(json.loads(line))
                except ValueError:
                    records.append(None)
        dropped = 0
        for record in records:
            try:
                self._memory[(int(record["p"]), int(record["q"]))] = int(
                    record["verdict"]
                )
            except (ValueError, KeyError, TypeError):
                dropped += 1  # torn line from a crashed writer
        if dropped:
            warnings.warn(
                f"{self.path.name}: dropped {dropped} unparseable cache "
                "line(s) (torn write from a crashed writer, or a file shared "
                "with a pre-O_APPEND version); the affected verdicts will be "
                "recomputed",
                RuntimeWarning,
                stacklevel=3,
            )

    def __len__(self) -> int:
        return len(self._memory)

    def get(self, p: int, q: int) -> int | None:
        """The memoised verdict for split ``(p, q)``, or None on a miss."""
        verdict = self._memory.get((p, q))
        if verdict is None:
            self.misses += 1
        else:
            self.hits += 1
        return verdict

    def put(self, p: int, q: int, verdict: int) -> None:
        """Record one verdict: the one-entry case of :meth:`put_many`."""
        self.put_many(((p, q, verdict),))

    def put_many(self, entries) -> None:
        """Record ``(p, q, verdict)`` entries in memory and in the cache file.

        Entries already memoised are skipped.  The new ones go to disk in
        their given order, one line each, as a **single ``os.write``** on an
        ``O_APPEND`` descriptor: the kernel serialises the seek-to-end and
        the write, so concurrent fleet workers appending to one cache file
        emit whole, untorn lines.  :func:`run_chunk` hands over a chunk's
        fresh verdicts in one call, so a chunk costs one open and one write
        (a few kilobytes, far below any filesystem's atomicity limit).
        """
        lines = []
        for p, q, verdict in entries:
            if (p, q) not in self._memory:
                self._memory[(p, q)] = verdict
                lines.append(
                    _COMPACT.encode({"p": p, "q": q, "verdict": verdict}) + "\n"
                )
        if not lines:
            return
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            os.write(fd, "".join(lines).encode())
        finally:
            os.close(fd)


def run_chunk(
    d: int,
    diameter: int,
    items: tuple[WorkItem, ...],
    cache: SplitVerdictCache | None = None,
) -> list[dict]:
    """Compute the verdict records of one chunk's ``(n, p, q)`` items.

    ``cache``, when given, is read for every item first; the chunk's fresh
    verdicts are then handed to :meth:`SplitVerdictCache.put_many` in one
    call, in item order (one append per chunk).  Passing one open cache
    across chunks keeps a single hit/miss ledger.

    Under a compiled backend the cache misses are screened in one
    ``screen_splits`` call (stages 1-2 of
    :func:`~repro.otis.search.h_diameter` for every split, tables built in
    C), and ``h_digraph`` plus the eccentricity stage run only for the
    splits that pass.  Under ``numpy`` each miss takes the per-split
    ``h_diameter``.  The records are identical either way.
    """
    from repro import kernels
    from repro.otis.h_digraph import h_digraph
    from repro.otis.search import eccentricity_verdict, h_diameter

    backend = kernels.resolve_backend()
    kern = kernels.get_kernels(backend)
    verdicts = [
        None if cache is None else cache.get(p, q) for _, p, q in items
    ]
    misses = [k for k, verdict in enumerate(verdicts) if verdict is None]
    if misses and kern is None:
        for k in misses:
            _, p, q = items[k]
            verdicts[k] = h_diameter(h_digraph(p, q, d), diameter, backend=backend)
    elif misses:
        status = kern.screen_splits(
            [items[k][1] for k in misses], [items[k][2] for k in misses],
            d, diameter,
        )
        for k, code in zip(misses, status.tolist()):
            _, p, q = items[k]
            if code < 0:
                verdict = -1
            elif code > 0:
                verdict = diameter + 1
            else:
                verdict = eccentricity_verdict(
                    h_digraph(p, q, d), diameter, backend=backend
                )
            verdicts[k] = verdict
    if misses and cache is not None:
        cache.put_many((items[k][1], items[k][2], verdicts[k]) for k in misses)
    return [
        {"n": n, "p": p, "q": q, "verdict": verdict}
        for (n, p, q), verdict in zip(items, verdicts)
    ]


def fold_records(
    records: list[dict],
    *,
    d: int,
    diameter: int,
    require_exact: bool,
    n_range: tuple[int, int],
):
    """Fold verdict records into a :class:`DegreeDiameterResult`.

    Applies the ``require_exact`` filter (exactly ``diameter``, else at
    most), groups by ``n`` and orders rows by ``n`` and splits by ``p`` —
    the parameters that define the result, so the in-process search and a
    merged store (:meth:`ChunkManifest.fold`) give the same rows.
    """
    from repro.otis.search import DegreeDiameterResult

    kept: dict[int, list[tuple[int, int]]] = {}
    for record in sorted(records, key=lambda r: (r["n"], r["p"], r["q"])):
        verdict = record["verdict"]
        if verdict < 0 or verdict > diameter:
            continue
        if require_exact and verdict != diameter:
            continue
        kept.setdefault(record["n"], []).append((record["p"], record["q"]))
    return DegreeDiameterResult(
        d=d, diameter=diameter, rows=sorted(kept.items()), n_range=n_range
    )


def merge_sweep(
    manifest: ChunkManifest,
    store: ChunkStore | str | Path,
    *,
    partial: bool = False,
):
    """Fold a store's chunk files into a :class:`DegreeDiameterResult`.

    Raises :class:`StoreIdentityError` before anything else when the
    store's ``manifest.json`` was written for different parameters, then
    reads through :func:`read_chunks`: an unpublished chunk raises
    ``FileNotFoundError``.  ``partial=True`` folds the completed chunks
    only, for progress reports over a store fleet workers are still
    filling (``fleet sweep --merge --partial`` prints the coverage next to
    the table, so a partial report can never pass for a finished sweep).
    """
    if not isinstance(store, ChunkStore):
        store = ChunkStore(store)
    ensure_store_identity(store, manifest.identity())
    return manifest.fold(read_chunks(store, manifest, partial=partial))
