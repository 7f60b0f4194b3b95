"""Graph Challenge interchange format (TSV) with a binary sidecar cache.

Layout on disk (mirrors the official distribution):

    <directory>/
        neuron<N>-l<i>.tsv     one file per layer, lines "row<TAB>col<TAB>weight",
                               1-based indices
        neuron<N>-meta.tsv     one line: neurons, layers, threshold, bias[0]
        neuron<N>-cache.npz    binary sidecar (optional): every layer's CSR
                               arrays, written by save/load so repeated runs
                               skip TSV parsing entirely

TSV paths are fully vectorized and chunked by :data:`TSV_CHUNK_ROWS`
entries, so a 65536-neuron layer file never needs a per-line Python loop
*or* an unbounded buffer.  Writes encode the canonical CSR directly:
index fields from a lookup table, each distinct value formatted once,
one join per chunk -- the bytes ``np.savetxt`` wrote over the coalesced
COO triples, at a small fraction of its cost.  Reads go through chunked
``np.loadtxt``.

The ``.npz`` sidecar stores each layer's canonical CSR arrays
(``l<i>_indptr`` / ``l<i>_indices`` / ``l<i>_data``) uncompressed.  It is
consulted only when *fresh* -- at least as new as every source TSV --
and rebuilt from the TSVs otherwise, so editing a layer file invalidates
the cache by mtime alone.  Because ``np.savez`` members are stored
uncompressed, fresh cache reads memory-map the arrays straight out of
the zip archive (falling back to a plain read where mapping is not
possible), which makes repeated benchmark runs on big networks
effectively free of I/O parsing cost.

:func:`iter_challenge_layers` is the streaming entry point for *reads*:
it yields one ``(weight, bias)`` pair at a time (from the cache when
fresh, from the TSVs otherwise) so
:func:`repro.challenge.inference.streaming_inference` can start the
first chunk before later layers are even read.
:func:`save_challenge_layers` is its *write* counterpart: it consumes a
lazy layer stream (e.g.
:func:`repro.challenge.generator.iter_generate_challenge_layers`) and
writes each layer's TSV -- and its sidecar members, incrementally --
before pulling the next, so official-scale networks reach disk with only
one layer's nnz resident.
"""

from __future__ import annotations

import functools
import os
import warnings
import zipfile
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.errors import SerializationError
from repro.challenge.generator import ChallengeNetwork
from repro.sparse.csr import CSRMatrix
from repro.topology.fnnt import FNNT

CACHE_VERSION = 1

# lines per np.loadtxt call when parsing a layer TSV, and per join when
# encoding one; bounds the buffer for arbitrarily large layer files
TSV_CHUNK_ROWS = 1 << 16


def _layer_path(directory: Path, neurons: int, index: int) -> Path:
    return directory / f"neuron{neurons}-l{index}.tsv"


def _meta_path(directory: Path, neurons: int) -> Path:
    return directory / f"neuron{neurons}-meta.tsv"


def cache_path(directory: str | os.PathLike, neurons: int) -> Path:
    """Location of the binary sidecar cache for a saved network."""
    return Path(directory) / f"neuron{neurons}-cache.npz"


# --------------------------------------------------------------------------- #
# metadata
# --------------------------------------------------------------------------- #
class ChallengeMeta(NamedTuple):
    """The contents of a saved network's ``neuron<N>-meta.tsv`` file."""

    neurons: int
    num_layers: int
    threshold: float
    bias_value: float


def read_challenge_meta(directory: str | os.PathLike, neurons: int) -> ChallengeMeta:
    """Read a saved network's metadata (neurons, layers, threshold, bias).

    The public face of the meta file: pipeline drivers need the layer
    count and threshold before deciding how (or whether) to stream the
    weights themselves.
    """
    return ChallengeMeta(*_read_meta(Path(directory), neurons))


def _read_meta(directory: Path, neurons: int) -> tuple[int, int, float, float]:
    meta_path = _meta_path(directory, neurons)
    if not meta_path.exists():
        raise SerializationError(f"metadata file not found: {meta_path}")
    fields = meta_path.read_text(encoding="utf-8").strip().split("\t")
    if len(fields) != 4:
        raise SerializationError(f"malformed metadata file: {meta_path}")
    try:
        n, num_layers = int(fields[0]), int(fields[1])
        threshold, bias_value = float(fields[2]), float(fields[3])
    except ValueError as exc:
        raise SerializationError(f"malformed metadata file: {meta_path}: {exc}") from None
    if n != int(neurons):
        raise SerializationError(
            f"metadata neuron count {n} does not match requested {neurons}"
        )
    return n, num_layers, threshold, bias_value


# --------------------------------------------------------------------------- #
# vectorized TSV parsing
# --------------------------------------------------------------------------- #
def _parse_layer_tsv(path: Path, neurons: int) -> CSRMatrix:
    """Parse one 1-based ``row<TAB>col<TAB>weight`` layer file into CSR.

    Reads in bounded chunks of :data:`TSV_CHUNK_ROWS` lines via
    ``np.loadtxt`` -- no per-line Python loop, no unbounded buffer.
    """
    if not path.exists():
        raise SerializationError(f"layer file not found: {path}")
    blocks: list[np.ndarray] = []
    try:
        with path.open("r", encoding="utf-8") as handle, warnings.catch_warnings():
            # loadtxt warns on an exhausted handle; an empty tail (or an
            # empty zero-nnz layer file) is expected here
            warnings.simplefilter("ignore", UserWarning)
            while True:
                block = np.loadtxt(
                    handle, dtype=np.float64, delimiter="\t",
                    ndmin=2, max_rows=TSV_CHUNK_ROWS,
                )
                if block.size == 0:
                    break
                if block.shape[1] != 3:
                    raise SerializationError(
                        f"{path}: expected 3 tab-separated fields per line, "
                        f"got {block.shape[1]}"
                    )
                blocks.append(block)
                if block.shape[0] < TSV_CHUNK_ROWS:
                    break
    except ValueError as exc:
        raise SerializationError(f"{path}: malformed layer file: {exc}") from None
    if not blocks:
        return CSRMatrix.zeros((neurons, neurons))
    triples = np.concatenate(blocks, axis=0)
    if not np.all(triples[:, :2] == np.floor(triples[:, :2])):
        raise SerializationError(
            f"{path}: row/col indices must be integers"
        )
    rows = triples[:, 0].astype(np.int64) - 1
    cols = triples[:, 1].astype(np.int64) - 1
    vals = triples[:, 2]
    if rows.size and (
        rows.min() < 0 or rows.max() >= neurons or cols.min() < 0 or cols.max() >= neurons
    ):
        raise SerializationError(f"{path}: index out of range for {neurons} neurons")
    # canonical CSR via lexsort + segment sum: entries may arrive in any
    # order, and duplicate (row, col) pairs coalesce by summation (the
    # COO convention, as in the official interchange files)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    keys = rows * neurons + cols
    firsts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    rows, cols = rows[firsts], cols[firsts]
    vals = np.add.reduceat(vals, firsts)
    indptr = np.zeros(neurons + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=neurons), out=indptr[1:])
    return CSRMatrix((neurons, neurons), indptr, cols, vals)


# --------------------------------------------------------------------------- #
# binary sidecar cache
# --------------------------------------------------------------------------- #
def _source_paths(directory: Path, neurons: int, num_layers: int) -> list[Path]:
    return [_meta_path(directory, neurons)] + [
        _layer_path(directory, neurons, i) for i in range(1, num_layers + 1)
    ]


def cache_is_fresh(directory: str | os.PathLike, neurons: int, num_layers: int) -> bool:
    """True when the sidecar exists and is at least as new as every source TSV."""
    directory = Path(directory)
    sidecar = cache_path(directory, neurons)
    if not sidecar.exists():
        return False
    cache_mtime = sidecar.stat().st_mtime_ns
    for source in _source_paths(directory, neurons, num_layers):
        # ">=", not ">": a TSV edited within the filesystem's mtime
        # granularity of the sidecar write must count as newer -- the
        # failure mode is silently serving stale weights, so ties go to
        # reparsing.  Nanosecond timestamps (st_mtime_ns, not the float
        # st_mtime, which cannot resolve sub-microsecond differences)
        # pair with the save path's commit nudge (_SidecarWriter.close)
        # to keep a just-saved network fresh on any filesystem with
        # sub-write resolution.
        if source.exists() and source.stat().st_mtime_ns >= cache_mtime:
            return False
    return True


class _SidecarWriter:
    """Incrementally build the uncompressed ``.npz`` sidecar, layer by layer.

    The streaming replacement for a one-shot ``np.savez``: each layer's
    CSR arrays are appended to the (temporary) zip archive as soon as
    they exist, so a network generated or copied layer by layer never
    needs all weights resident to get a sidecar.  Members are stored
    uncompressed (``ZIP_STORED``), exactly like ``np.savez``, so the
    mmap fast path of :func:`_mmap_npz_member` applies unchanged.

    Weights only: threshold/bias stay in the (freshness-checked) meta
    TSV, which every load path reads -- duplicating them here would just
    create a second, possibly desynced source of truth.  The archive is
    written to a temp name and renamed into place on :meth:`close`
    (write-then-rename, so networks already holding memmaps into the old
    sidecar keep reading the old inode instead of seeing their bytes
    rewritten); :meth:`abort` discards it.
    """

    def __init__(self, directory: Path, neurons: int, num_layers: int) -> None:
        self.directory = directory
        self.neurons = int(neurons)
        self.num_layers = int(num_layers)
        self.final = cache_path(directory, neurons)
        self.temp = self.final.with_name(self.final.name + ".tmp.npz")
        self._zip = zipfile.ZipFile(self.temp, "w", zipfile.ZIP_STORED)
        self._write_array(
            "meta", np.array([neurons, num_layers, CACHE_VERSION], dtype=np.int64)
        )

    def _write_array(self, name: str, array: np.ndarray) -> None:
        # force_zip64: member sizes are unknown up front in streaming
        # write mode, and official-depth archives can exceed 4 GB
        with self._zip.open(f"{name}.npy", "w", force_zip64=True) as member:
            np.lib.format.write_array(
                member, np.ascontiguousarray(array), allow_pickle=False
            )

    def add_layer(self, index: int, weight: CSRMatrix) -> None:
        self._write_array(f"l{index}_indptr", weight.indptr)
        self._write_array(f"l{index}_indices", weight.indices)
        self._write_array(f"l{index}_data", weight.data)

    def close(self) -> Path:
        self._zip.close()
        os.replace(self.temp, self.final)
        # File timestamps have kernel-tick granularity, so a source TSV
        # (or the meta file) written in the same tick as the archive
        # would *tie* with it -- and cache_is_fresh resolves ties to
        # "stale".  Nudge the sidecar strictly past its sources so a
        # just-saved network is always fresh.
        newest = max(
            (
                source.stat().st_mtime_ns
                for source in _source_paths(self.directory, self.neurons, self.num_layers)
                if source.exists()
            ),
            default=0,
        )
        stat = self.final.stat()
        if stat.st_mtime_ns <= newest:
            os.utime(self.final, ns=(stat.st_atime_ns, newest + 1))
        return self.final

    def abort(self) -> None:
        try:
            self._zip.close()
        except OSError:
            # cleanup must not mask the error that triggered the abort
            pass
        self.temp.unlink(missing_ok=True)


def write_cache(network: ChallengeNetwork, directory: str | os.PathLike) -> Path:
    """Write the binary sidecar cache of ``network``; returns its path."""
    writer = _SidecarWriter(Path(directory), network.neurons, network.num_layers)
    try:
        for i, weight in enumerate(network.weights, start=1):
            writer.add_layer(i, weight)
        return writer.close()
    except BaseException:
        writer.abort()
        raise


def _mmap_npz_member(path: Path, archive: zipfile.ZipFile, name: str) -> np.ndarray | None:
    """Memory-map one uncompressed member of an open ``.npz`` archive.

    ``np.load(..., mmap_mode=...)`` does not map into zip archives, but
    ``np.savez`` stores members uncompressed, so the raw ``.npy`` bytes
    sit contiguously in the file: locate them through the (already
    parsed) zip directory, parse the npy header, and hand the remainder
    to ``np.memmap``.  Returns ``None`` whenever any assumption fails
    (compressed member, unexpected npy version, ...); callers fall back
    to a plain read.
    """
    try:
        info = archive.getinfo(f"{name}.npy")
        if info.compress_type != zipfile.ZIP_STORED:
            return None
        with path.open("rb") as handle:
            handle.seek(info.header_offset)
            local_header = handle.read(30)
            if len(local_header) != 30 or local_header[:4] != b"PK\x03\x04":
                return None
            name_len = int.from_bytes(local_header[26:28], "little")
            extra_len = int.from_bytes(local_header[28:30], "little")
            handle.seek(info.header_offset + 30 + name_len + extra_len)
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
            else:
                return None
            if fortran or dtype.hasobject:
                return None
            offset = handle.tell()
        return np.memmap(path, dtype=dtype, mode="r", shape=shape, offset=offset)
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
        return None


class _CacheReader:
    """Fresh-sidecar reader: memory-mapped members with a plain-read fallback.

    Close after use: the memmaps handed out by :meth:`array` hold their
    own file handles, so the reader's archive handle is only needed while
    arrays are being read.
    """

    def __init__(self, path: Path, *, mmap: bool = True) -> None:
        self.path = path
        self.mmap = mmap
        self._npz = np.load(path)
        # np.load already parsed the archive's directory; reuse it for
        # member lookups instead of re-opening the zip per array
        self._archive = getattr(self._npz, "zip", None) if mmap else None
        self._own_archive = False
        if mmap and self._archive is None:  # pragma: no cover - older numpy
            self._archive = zipfile.ZipFile(path)
            self._own_archive = True

    def array(self, name: str) -> np.ndarray:
        if self._archive is not None:
            mapped = _mmap_npz_member(self.path, self._archive, name)
            if mapped is not None:
                return mapped
        return self._npz[name]

    def close(self) -> None:
        if self._own_archive and self._archive is not None:  # pragma: no cover
            self._archive.close()
        self._npz.close()  # also closes the archive np.load opened
        self._archive = None

    def layer(self, index: int, neurons: int) -> CSRMatrix:
        return CSRMatrix(
            (neurons, neurons),
            self.array(f"l{index}_indptr"),
            self.array(f"l{index}_indices"),
            self.array(f"l{index}_data"),
        )

    def matches(self, neurons: int, num_layers: int) -> bool:
        try:
            meta = np.asarray(self._npz["meta"])
            return (
                meta.shape == (3,)
                and int(meta[0]) == neurons
                and int(meta[1]) == num_layers
                and int(meta[2]) == CACHE_VERSION
            )
        except (KeyError, ValueError):
            return False


def _open_fresh_cache(
    directory: Path, neurons: int, num_layers: int, *, mmap: bool
) -> _CacheReader | None:
    if not cache_is_fresh(directory, neurons, num_layers):
        return None
    try:
        reader = _CacheReader(cache_path(directory, neurons), mmap=mmap)
    except (OSError, ValueError, zipfile.BadZipFile):
        return None  # unreadable sidecar: treat as absent, reparse the TSVs
    if not reader.matches(neurons, num_layers):
        return None
    return reader


# --------------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=4)
def _label_table(size: int) -> np.ndarray:
    """``"1\\t" .. "<size>\\t"``: the 1-based index fields, formatted once."""
    table = np.array(["%d\t" % i for i in range(1, size + 1)], dtype=object)
    table.flags.writeable = False  # cached: shared by every caller
    return table


def _is_canonical(weight: CSRMatrix) -> bool:
    """True when column indices strictly increase within every row.

    :class:`CSRMatrix` documents canonical form but does not enforce it,
    so the encoder checks before trusting the CSR order as the file order.
    """
    indices = weight.indices
    if indices.size < 2:
        return True
    increasing = indices[1:] > indices[:-1]
    # a row boundary may step down: exempt the pair straddling each one
    starts = weight.indptr[1:-1]
    increasing[starts[(starts > 0) & (starts < indices.size)] - 1] = True
    return bool(increasing.all())


def _write_layer_tsv(path: Path, weight: CSRMatrix) -> None:
    """Write one layer in the official 1-based ``row<TAB>col<TAB>weight`` format.

    The bytes are those of ``np.savetxt`` with ``fmt=("%d", "%d",
    "%.17g")`` over the coalesced COO triples (the golden-file tests pin
    them), produced without a per-line Python loop.  The 1-based index
    fields come from a lookup table built once per width; the entries are
    encoded :data:`TSV_CHUNK_ROWS` at a time -- each distinct value of the
    chunk formatted once, the three fields of every entry gathered, one
    join -- so the encoding buffer stays bounded however large the layer.
    Canonical CSR is read directly; any other input (unsorted or
    duplicate columns) is coalesced first.  Shared by the materialized
    and streaming save paths, so both produce byte-identical files.
    """
    if _is_canonical(weight):
        rows = np.repeat(np.arange(weight.shape[0]), np.diff(weight.indptr))
        cols, values = weight.indices, weight.data
    else:
        coo = weight.to_coo().coalesce()
        rows, cols, values = coo.rows, coo.cols, coo.values
    labels = _label_table(max(weight.shape))
    fields = np.empty(3 * min(rows.size, TSV_CHUNK_ROWS), dtype=object)
    with path.open("wb") as handle:
        for start in range(0, rows.size, TSV_CHUNK_ROWS):
            stop = min(start + TSV_CHUNK_ROWS, rows.size)
            # 0.0 + x matches coalesce's summation into zeros (-0.0 is
            # written as 0); each distinct value is formatted once
            distinct, which = np.unique(0.0 + values[start:stop], return_inverse=True)
            value_fields = np.array(["%.17g\n" % v for v in distinct.tolist()], dtype=object)
            chunk = fields[: 3 * (stop - start)]
            chunk[0::3] = labels[rows[start:stop]]
            chunk[1::3] = labels[cols[start:stop]]
            chunk[2::3] = value_fields[which]
            # str.join, not bytes.join: the latter allocates a buffer
            # descriptor per piece, several times the text it joins
            handle.write("".join(chunk.tolist()).encode("ascii"))


def save_challenge_layers(
    directory: str | os.PathLike,
    layers: Iterable[tuple[CSRMatrix, np.ndarray]],
    *,
    neurons: int,
    num_layers: int,
    threshold: float,
    write_sidecar: bool = True,
) -> Path:
    """Stream ``(weight, bias)`` layers to the challenge TSV format.

    The fully streaming counterpart of :func:`save_challenge_network`:
    ``layers`` is consumed one pair at a time, and each layer's TSV file
    (and, unless ``write_sidecar`` is false, its binary sidecar members)
    is written before the next layer is pulled -- so pairing this with
    :func:`repro.challenge.generator.iter_generate_challenge_layers`
    writes official-scale networks (16384/65536 neurons) with only a
    single layer's nnz ever resident.

    ``neurons``, ``num_layers``, and ``threshold`` describe the stream
    (the TSV layout needs them in file names and metadata before the
    layers exist); the iterator must yield exactly ``num_layers`` pairs
    of ``(neurons x neurons)`` weights with constant biases (the official
    meta format stores a single bias value per network), and a
    :class:`SerializationError` is raised -- and the partial sidecar
    discarded -- on any mismatch.  Returns the directory.
    """
    from repro.utils.validation import check_positive_int

    n = check_positive_int(neurons, "neurons")
    expected_layers = check_positive_int(num_layers, "num_layers")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    # The meta file is the commit record: remove any previous one *before*
    # touching layer files, and (re)write it only after every layer landed.
    # A save that fails or is interrupted midway over an existing network
    # therefore leaves a directory that loads with a loud "metadata file
    # not found" instead of silently serving a mix of new and old layers.
    _meta_path(directory, n).unlink(missing_ok=True)
    sidecar = _SidecarWriter(directory, n, expected_layers) if write_sidecar else None
    bias_value: float | None = None
    try:
        count = 0
        for weight, bias in layers:
            count += 1
            if count > expected_layers:
                raise SerializationError(
                    f"layer iterator produced more than the declared "
                    f"{expected_layers} layers"
                )
            if weight.shape != (n, n):
                raise SerializationError(
                    f"layer {count} has shape {weight.shape}, expected ({n}, {n})"
                )
            bias_arr = np.asarray(bias, dtype=np.float64).ravel()
            value = float(bias_arr[0]) if bias_arr.size else 0.0
            if bias_arr.size != n or not np.all(bias_arr == value):
                raise SerializationError(
                    f"layer {count}: bias must be a constant length-{n} vector "
                    "(the challenge meta format stores one bias value)"
                )
            if bias_value is not None and value != bias_value:
                raise SerializationError(
                    f"layer {count}: bias value {value} differs from earlier "
                    f"layers' {bias_value} (the challenge meta format stores one "
                    "bias value for the whole network)"
                )
            bias_value = value
            _write_layer_tsv(_layer_path(directory, n, count), weight)
            if sidecar is not None:
                sidecar.add_layer(count, weight)
        if count != expected_layers:
            raise SerializationError(
                f"layer iterator produced {count} layers, expected {expected_layers}"
            )
        # meta before the sidecar commit: the sidecar must end up at
        # least as new as every source TSV or the next load reparses
        _meta_path(directory, n).write_text(
            f"{n}\t{expected_layers}\t{float(threshold):.17g}\t{bias_value:.17g}\n",
            encoding="utf-8",
        )
        if sidecar is not None:
            sidecar.close()
    except BaseException:
        # abort() after a failed close() is safe: the temp unlink
        # tolerates a missing file and re-closing the archive is a no-op
        if sidecar is not None:
            sidecar.abort()
        raise
    return directory


def save_challenge_network(
    network: ChallengeNetwork,
    directory: str | os.PathLike,
    *,
    write_sidecar: bool = True,
) -> Path:
    """Write a challenge network to a directory of TSV files; returns the directory.

    Delegates to the streaming :func:`save_challenge_layers` (the two
    paths produce byte-identical files).  Unless ``write_sidecar`` is
    false, the binary ``.npz`` cache is written alongside, so the first
    :func:`load_challenge_network` already skips TSV parsing.
    """
    return save_challenge_layers(
        directory,
        zip(network.weights, network.biases),
        neurons=network.neurons,
        num_layers=network.num_layers,
        threshold=network.threshold,
        write_sidecar=write_sidecar,
    )


def read_layer(
    directory: str | os.PathLike,
    neurons: int,
    index: int,
    *,
    use_cache: bool = True,
    mmap: bool = True,
) -> CSRMatrix:
    """Random-access read of one layer's weight matrix (1-based ``index``).

    The seek primitive of the resumable pipeline: a run restarting from
    a checkpoint at layer ``k`` reads layer ``k+1`` directly -- from the
    fresh sidecar (memory-mapped where possible) or that single layer's
    TSV -- without parsing any of the layers already applied.
    """
    directory = Path(directory)
    n, num_layers, _, _ = _read_meta(directory, neurons)
    if not 1 <= int(index) <= num_layers:
        raise SerializationError(
            f"layer index {index} out of range 1..{num_layers} for {directory}"
        )
    reader = (
        _open_fresh_cache(directory, n, num_layers, mmap=mmap) if use_cache else None
    )
    try:
        if reader is not None:
            return reader.layer(int(index), n)
        return _parse_layer_tsv(_layer_path(directory, n, int(index)), n)
    finally:
        if reader is not None:
            # safe to close before the arrays are consumed: the memmaps
            # handed out by the reader hold their own file handles
            reader.close()


def iter_challenge_layers(
    directory: str | os.PathLike,
    neurons: int,
    *,
    start: int = 0,
    use_cache: bool = True,
    mmap: bool = True,
) -> Iterator[tuple[CSRMatrix, np.ndarray]]:
    """Yield ``(weight, bias)`` one layer at a time, never all resident.

    Layers come from the binary sidecar when it is fresh (memory-mapped
    where possible) and from chunked TSV parsing otherwise.  ``start``
    skips that many leading layers *without reading them* (layer files
    are independent, so the seek is free) -- this is how a checkpointed
    run resumes from layer ``start + 1``.  Feed this directly to
    :func:`repro.challenge.inference.streaming_inference`::

        result = streaming_inference(
            iter_challenge_layers(directory, 1024), batch, threshold=32.0
        )

    The meta file and ``start`` are checked *eagerly* (at the call, not
    on first ``next()``): under :class:`repro.challenge.pipeline.LoadStage`
    the first ``next()`` runs on the prefetch thread, and a missing
    directory must fail where the stream is set up.
    """
    directory = Path(directory)
    n, num_layers, _, bias_value = _read_meta(directory, neurons)
    if not 0 <= int(start) <= num_layers:
        raise SerializationError(
            f"start={start} out of range 0..{num_layers} for {directory}"
        )

    def _layers() -> Iterator[tuple[CSRMatrix, np.ndarray]]:
        # the sidecar opens on first next(), so a stream that is never
        # consumed holds no file handle
        reader = (
            _open_fresh_cache(directory, n, num_layers, mmap=mmap) if use_cache else None
        )
        try:
            for i in range(int(start) + 1, num_layers + 1):
                if reader is not None:
                    weight = reader.layer(i, n)
                else:
                    weight = _parse_layer_tsv(_layer_path(directory, n, i), n)
                yield weight, np.full(n, bias_value)
        finally:
            if reader is not None:
                reader.close()

    return _layers()


def load_challenge_network(
    directory: str | os.PathLike,
    neurons: int,
    *,
    use_cache: bool = True,
    mmap: bool = True,
) -> ChallengeNetwork:
    """Load a challenge network previously written by :func:`save_challenge_network`.

    When a fresh ``.npz`` sidecar is present the weights come straight
    from it (memory-mapped where possible); otherwise the TSVs are parsed
    with the vectorized chunked reader and -- unless ``use_cache`` is
    false -- the sidecar is (re)written so the next load skips parsing.
    """
    directory = Path(directory)
    n, num_layers, threshold, bias_value = _read_meta(directory, neurons)
    reader = (
        _open_fresh_cache(directory, n, num_layers, mmap=mmap) if use_cache else None
    )
    weights: list[CSRMatrix] = []
    submatrices: list[CSRMatrix] = []
    biases: list[np.ndarray] = []
    try:
        for i in range(1, num_layers + 1):
            if reader is not None:
                weight = reader.layer(i, n)
            else:
                weight = _parse_layer_tsv(_layer_path(directory, n, i), n)
            weights.append(weight)
            submatrices.append(weight.astype_binary())
            biases.append(np.full(n, bias_value))
    finally:
        if reader is not None:
            reader.close()
    topology = FNNT(submatrices, validate=False, name=f"graph-challenge-{n}x{num_layers}")
    network = ChallengeNetwork(
        topology=topology,
        weights=tuple(weights),
        biases=tuple(biases),
        threshold=threshold,
    )
    if use_cache and reader is None:
        try:
            write_cache(network, directory)
        except OSError:
            # the sidecar is an opportunistic speed-up; loading from a
            # read-only directory must still succeed
            pass
    return network
