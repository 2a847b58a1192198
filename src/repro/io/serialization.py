"""Index persistence: save/load to a single ``.npz`` file.

Operational completeness for the reproduction: a trained index (k-means
output + codes + attribute map) is expensive to build, so deployments need
to persist it.  The format is one compressed numpy archive holding the
trained quantizers, the encoded storage, the attribute map, and a JSON
metadata record (format version, index kind, parameters).

Trees are *not* serialized node-by-node: both RangePQ's BST and RangePQ+'s
bucket layer rebuild deterministically from the (attr, oid, cluster) triples
in ``O(n log n)``, which keeps the format simple and version-stable.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from ..core import AdaptiveLPolicy, FixedLPolicy, LPolicy, RangePQ, RangePQPlus
from ..ivf import IVFPQIndex

__all__ = [
    "FORMAT_VERSION",
    "save_index",
    "load_index",
    "SerializationError",
]

FORMAT_VERSION = 1


class SerializationError(RuntimeError):
    """Raised when an archive is missing, corrupt, or from a newer format."""


def _policy_to_dict(policy: LPolicy) -> dict:
    if isinstance(policy, AdaptiveLPolicy):
        return {"kind": "adaptive", "l_base": policy.l_base, "r_base": policy.r_base}
    if isinstance(policy, FixedLPolicy):
        return {"kind": "fixed", "l": policy.l}
    raise SerializationError(
        f"cannot serialize custom L policy {type(policy).__name__}"
    )


def _policy_from_dict(data: dict) -> LPolicy:
    if data["kind"] == "adaptive":
        return AdaptiveLPolicy(l_base=data["l_base"], r_base=data["r_base"])
    if data["kind"] == "fixed":
        return FixedLPolicy(l=data["l"])
    raise SerializationError(f"unknown L policy kind {data['kind']!r}")


def _pack_ivf(ivf: IVFPQIndex) -> dict[str, np.ndarray]:
    """Arrays fully describing a trained, populated IVFPQIndex."""
    if not ivf.is_trained:
        raise SerializationError("cannot save an untrained index")
    from ..quantization import ProductQuantizer

    if type(ivf.pq) is not ProductQuantizer:
        # An OPQ (or other codec) has state beyond the codebooks (e.g. the
        # rotation matrix); loading it as a plain PQ would silently corrupt
        # distances, so refuse instead.
        raise SerializationError(
            f"archive format v{FORMAT_VERSION} only stores plain "
            f"ProductQuantizer codecs, not {type(ivf.pq).__name__}"
        )
    oids = np.asarray(ivf.ids(), dtype=np.int64)
    rows = np.asarray([ivf._row_of[int(oid)] for oid in oids], dtype=np.int64)
    return {
        "codebooks": ivf.pq.codebooks,
        "coarse_centers": ivf.coarse.centers,
        "oids": oids,
        "codes": ivf._codes[rows],
        "clusters": ivf._clusters[rows],
    }


def _unpack_ivf(archive, meta: dict, *, codes: np.ndarray | None = None) -> IVFPQIndex:
    """Rebuild an IVFPQIndex from archive arrays.

    Rows are assigned ``0..n-1`` in archive order (exactly what the
    free-list pop order of ``_grow`` from empty produces), which lets the
    row-keyed arrays be adopted wholesale — including a read-only
    ``codes`` memmap passed by :func:`load_index`'s ``mmap_mode`` path.
    """
    ivf = IVFPQIndex(
        int(meta["num_subspaces"]),
        num_clusters=int(meta["num_clusters"]),
        num_codewords=int(meta["num_codewords"]),
        seed=meta.get("seed"),
    )
    ivf.pq.codebooks = archive["codebooks"]
    ivf.pq._dim = int(meta["dim"])
    from ..ivf.coarse import CoarseQuantizer

    coarse = CoarseQuantizer(int(meta["num_clusters"]), seed=meta.get("seed"))
    coarse.centers = archive["coarse_centers"]
    ivf.coarse = coarse

    oids = np.asarray(archive["oids"], dtype=np.int64)
    # The in-core cluster plane is deliberately int32 (cluster ids are
    # small); the shm publish path widens to int64 at the boundary.
    clusters = np.asarray(archive["clusters"], dtype=np.int32)  # repro: noqa-D001
    if codes is None:
        codes = np.ascontiguousarray(archive["codes"], dtype=ivf.pq.code_dtype)
    ivf._codes = codes
    ivf._clusters = clusters.copy()
    ivf._oid_of_row = oids.copy()
    ivf._row_of = {int(oid): row for row, oid in enumerate(oids.tolist())}
    ivf._free_rows = []
    return ivf


def save_index(
    index: RangePQ | RangePQPlus,
    path: str | Path,
    *,
    compressed: bool = True,
) -> Path:
    """Persist a RangePQ or RangePQ+ index to ``path`` (``.npz``).

    The archive is written to a temporary file in the destination
    directory, fsynced, and atomically moved into place with
    :func:`os.replace` — a crash mid-save can leave a stray temp file but
    never a corrupt or partial archive at ``path``.  The WAL recovery path
    (:mod:`repro.service.wal`) relies on this: the newest snapshot in a
    service directory is always complete.

    Args:
        index: A populated index.
        path: Destination; a ``.npz`` suffix is appended if missing.
        compressed: Deflate the archive members (the default).  Pass
            ``False`` to store them raw, which makes the ``codes``
            payload eligible for ``load_index(..., mmap_mode="r")`` —
            worker processes then map the snapshot read-only instead of
            each copying it.

    Returns:
        The path actually written.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    if isinstance(index, RangePQ):
        kind = "rangepq"
        extra: dict = {"alpha": index.tree.alpha}
    elif isinstance(index, RangePQPlus):
        kind = "rangepq_plus"
        extra = {"alpha": index.alpha, "epsilon": index.epsilon}
    else:
        raise SerializationError(f"unsupported index type {type(index).__name__}")

    ivf = index.ivf
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "num_subspaces": ivf.pq.num_subspaces,
        "num_codewords": ivf.pq.num_codewords,
        "num_clusters": ivf.num_clusters,
        "dim": ivf.pq.dim,
        "seed": ivf.seed,
        "l_policy": _policy_to_dict(index.l_policy),
        **extra,
    }
    arrays = _pack_ivf(ivf)
    attr_oids = np.asarray(list(index._attr), dtype=np.int64)
    attr_values = np.asarray(
        [index._attr[int(oid)] for oid in attr_oids], dtype=np.float64
    )
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            saver = np.savez_compressed if compressed else np.savez
            saver(
                handle,
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                attr_oids=attr_oids,
                attr_values=attr_values,
                **arrays,
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:  # repro: noqa-R004 - temp cleanup, then re-raise
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


def _memmap_member(path: Path, name: str) -> np.ndarray | None:
    """Memory-map one raw-stored ``.npy`` member of a zip archive.

    Returns ``None`` when the member is deflated (compressed archives
    cannot be mapped), absent, or an unsupported npy layout — callers
    fall back to the copying load path.  The member's absolute data
    offset comes from its *local* file header (the central directory's
    name/extra lengths may differ).
    """
    import zipfile

    member = name + ".npy"
    with zipfile.ZipFile(path) as archive_file:
        try:
            info = archive_file.getinfo(member)
        except KeyError:
            return None
        if info.compress_type != zipfile.ZIP_STORED:
            return None
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        local_header = handle.read(30)
        if local_header[:4] != b"PK\x03\x04":
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
        if dtype.hasobject or fortran:
            return None
        offset = handle.tell()
    return np.memmap(path, dtype=dtype, mode="r", shape=shape, offset=offset)


def load_index(
    path: str | Path, *, mmap_mode: str | None = None
) -> RangePQ | RangePQPlus:
    """Load an index saved by :func:`save_index`.

    Args:
        path: An archive written by :func:`save_index`.
        mmap_mode: ``"r"`` maps the ``codes`` payload read-only straight
            from an *uncompressed* archive (``save_index(...,
            compressed=False)``) instead of copying it — several worker
            processes loading the same snapshot then share one page-cache
            copy.  Compressed archives fall back to the copying path.
            The loaded index serves queries normally; row-slot *reuse*
            (an insert after a delete) copies the codes on demand.

    Raises:
        SerializationError: On missing files, foreign archives, a newer
            format version, or an unsupported ``mmap_mode``.
    """
    path = Path(path)
    if mmap_mode not in (None, "r"):
        raise SerializationError(
            f"mmap_mode must be None or 'r', got {mmap_mode!r}"
        )
    if not path.exists():
        raise SerializationError(f"no such file: {path}")
    mapped_codes = (
        _memmap_member(path, "codes") if mmap_mode is not None else None
    )
    with np.load(path) as archive:
        if "meta" not in archive:
            raise SerializationError(f"{path} is not a repro index archive")
        meta = json.loads(bytes(archive["meta"].tobytes()).decode())
        if meta.get("format_version", 0) > FORMAT_VERSION:
            raise SerializationError(
                f"archive format v{meta['format_version']} is newer than "
                f"supported v{FORMAT_VERSION}"
            )
        ivf = _unpack_ivf(archive, meta, codes=mapped_codes)
        policy = _policy_from_dict(meta["l_policy"])
        attrs = dict(
            zip(
                archive["attr_oids"].tolist(),
                archive["attr_values"].tolist(),
            )
        )
        if set(attrs) != set(ivf.ids()):
            raise SerializationError("attribute map and IVF storage disagree")
        kind = meta["kind"]
        if kind == "rangepq":
            index: RangePQ | RangePQPlus = RangePQ(
                ivf, l_policy=policy, alpha=float(meta["alpha"])
            )
            index.tree.build(
                (attr, oid, ivf.cluster_of(oid)) for oid, attr in attrs.items()
            )
            index._attr = attrs
        elif kind == "rangepq_plus":
            index = RangePQPlus(
                ivf,
                epsilon=int(meta["epsilon"]),
                l_policy=policy,
                alpha=float(meta["alpha"]),
            )
            index._attr = attrs
            index._rebucket_all()
        else:
            raise SerializationError(f"unknown index kind {kind!r}")
    return index
