"""Zero-copy shared-memory dataset plane.

The paper's OpenMP threads share one in-memory dataset for the whole
parallel region.  Process workers cannot share an address space, so this
module publishes the dataset's own values once, into a
``multiprocessing.shared_memory`` block, and every worker maps the *same*
physical pages.  The block keeps the dataset's dtype (the smallest
unsigned type covering its arities, 1–2 bytes per value for the catalog
networks) and its storage layout: a variable-major dataset attaches as the
variable-major columns the fused kernel reads in place, and a sample-major
baseline attaches sample-major and keeps its strided columns.

What crosses the process boundary is a :class:`ShmRawHandle` — block
name, dtype, shape, layout, arities and names, a few hundred bytes —
instead of the array.  Workers attach a read-only
:class:`~repro.datasets.dataset.DiscreteDataset` over the block
(:func:`attach_dataset`); no data is copied at attach.

Lifecycle
---------
:func:`export_dataset` returns a :class:`ShmExport` that owns the block.
Exactly one process — the creator — may :meth:`ShmExport.close` (which
unlinks); attachers call :meth:`AttachedBlocks.close` (which never
unlinks).  The worker pools tie the export to their own ``shutdown`` and
a ``weakref.finalize`` guarantees the unlink even when a pool is
garbage-collected after a worker crash, so an interrupted learning run
cannot leak ``/dev/shm`` segments.  When shared memory is unavailable on
the platform (:func:`shared_memory_available`), callers fall back to the
classic pickled-dataset shipping transparently (:func:`try_export_dataset`)
— results are bit-identical either way, only the memory/start-up cost
moves.

Attached segments are unregistered from the per-process
``resource_tracker`` (Python < 3.13 registers them on attach, which would
make the *attaching* process unlink the creator's block at exit —
bpo-39959); ownership stays with the creator alone.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from .dataset import DiscreteDataset

__all__ = [
    "ShmRawHandle",
    "ShmExport",
    "AttachedBlocks",
    "export_dataset",
    "attach_dataset",
    "try_export_dataset",
    "shared_memory_available",
]


def shared_memory_available() -> bool:
    """True when POSIX/Windows shared memory actually works here.

    Probes by round-tripping one tiny block — containerised environments
    sometimes expose the API but mount no usable backing store.
    """
    try:
        block = shared_memory.SharedMemory(create=True, size=16)
    except (OSError, PermissionError, ValueError):
        return False
    try:
        block.buf[0] = 1
        ok = block.buf[0] == 1
    finally:
        block.close()
        block.unlink()
    return bool(ok)


#: Safety margin on top of the requested export size when probing free
#: shared-memory capacity (other writers, tmpfs block rounding).
_CAPACITY_MARGIN_BYTES = 1 << 20


def _check_capacity(nbytes: int) -> None:
    """Refuse an export that could not actually be written.

    On Linux, ``SharedMemory(create=True, size=N)`` succeeds even when
    ``/dev/shm`` is smaller than ``N`` — ``ftruncate`` reserves no pages —
    and the subsequent plane *writes* die with SIGBUS, which no ``except``
    clause can catch (the classic undersized-container ``/dev/shm``
    failure).  Probing free space up front turns that crash into an
    ``OSError`` the transport policy's pickled fallback handles.
    Best-effort: silently passes where the probe is unavailable.
    """
    try:
        st = os.statvfs("/dev/shm")
    except (OSError, AttributeError):  # non-Linux or no tmpfs mount
        return
    free = st.f_bavail * st.f_frsize
    if nbytes + _CAPACITY_MARGIN_BYTES > free:
        raise OSError(
            f"shared memory export needs {nbytes} bytes but /dev/shm has "
            f"only {free} free; falling back to pickled shipping"
        )


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach without registering with this process's resource tracker.

    On Python < 3.13 attaching registers the segment with the tracker,
    and the tracker unlinks everything it knows at process exit — a
    short-lived worker would destroy the creator's live block
    (bpo-39959).  Ownership is the creator's alone, so registration is
    suppressed for the duration of the attach (worker init is
    single-threaded, and the patch window is a few syscalls wide).
    """
    try:  # pragma: no cover - interpreter internals
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shared_memory(name: str, rtype: str) -> None:
            if rtype != "shared_memory":
                original(name, rtype)

        resource_tracker.register = _skip_shared_memory
    except (ImportError, AttributeError):  # interpreter without the tracker
        original = None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        if original is not None:
            from multiprocessing import resource_tracker

            resource_tracker.register = original


@dataclass(frozen=True)
class ShmRawHandle:
    """Picklable description of an exported dataset.

    This is the *entire* payload a worker receives: block name, dtype,
    shape, layout, arities and names, a few hundred bytes regardless of
    ``n_samples``.  The block keeps the dataset's own dtype and layout, so
    the shared copy is never wider than the private copies it replaces.
    """

    values_block: str
    dtype: str
    n_variables: int
    n_samples: int
    layout: str
    arities: tuple[int, ...]
    names: tuple[str, ...]

    @property
    def nbytes(self) -> int:
        """Bytes of shared payload the handle points at (not carries)."""
        return np.dtype(self.dtype).itemsize * self.n_variables * self.n_samples


class ShmExport:
    """Creator-side owner of the exported block.

    ``close()`` (idempotent) releases the creator mapping and unlinks the
    segment; a ``weakref.finalize`` does the same if the owner is dropped
    without closing, so crashes cannot leak ``/dev/shm``.
    """

    def __init__(self, handle: ShmRawHandle, block: shared_memory.SharedMemory) -> None:
        self.handle = handle
        self._block = block
        self._finalizer = weakref.finalize(self, _close_block, block, True)

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Release the creator mapping and unlink the segment."""
        self._finalizer()

    def __enter__(self) -> "ShmExport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getstate__(self):
        # SharedMemory pickles by *name*: an unpickled copy would attach
        # in the child and its __del__ could unmap/unlink the creator's
        # live segment.  Only the handle may cross process boundaries.
        raise TypeError("ShmExport is process-local; ship ShmExport.handle instead")

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{self.handle.nbytes} shared bytes"
        return f"ShmExport({self.handle.values_block!r}, {state})"


class AttachedBlocks:
    """Attacher-side holder keeping the mapped block alive.

    The values of an attached dataset are a view into this mapping, and
    ``SharedMemory.__del__`` *unmaps* it — numpy holds only an object
    reference to the mmap, not a buffer export, so garbage-collecting the
    block would pull physical pages out from under live arrays.  The
    holder is therefore pinned on the attached dataset itself, and must
    not be closed while any view is in use.  ``close()`` never unlinks —
    that is the creator's job.
    """

    def __init__(self, block: shared_memory.SharedMemory) -> None:
        self._block: shared_memory.SharedMemory | None = block

    def close(self) -> None:
        if self._block is not None:
            try:
                self._block.close()
            except BufferError:  # a live view still pins the mapping
                pass
            self._block = None

    def __getstate__(self):
        # See ShmExport.__getstate__: a pickled copy's __del__ would
        # unmap pages under the live views this holder exists to pin.
        raise TypeError("AttachedBlocks is process-local; re-attach from the handle instead")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._block is None else repr(self._block.name)
        return f"AttachedBlocks({state})"


def _close_block(block: shared_memory.SharedMemory, unlink: bool) -> None:
    try:
        block.close()
    except BufferError:  # pragma: no cover - creator views are transient
        pass
    if unlink:
        try:
            block.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def try_export_dataset(
    dataset: DiscreteDataset, use_shm: bool | None = None
) -> ShmExport | None:
    """The one shm-vs-pickled transport policy: the
    :func:`export_dataset` export, or ``None`` for pickled shipping.

    ``None`` (auto) attempts the export and returns ``None`` on platform
    failures (the caller then ships the dataset pickled); ``True``
    requires it (errors surface); ``False`` never exports.

    Fault site ``"shm.export"`` fires before each attempt, so drills can
    fake ``/dev/shm`` exhaustion and exercise both fallback and surfaced
    failure through this exact policy.
    """
    if use_shm is False:
        return None
    from ..engine.faults import injector

    try:
        injector.fire("shm.export")
        return export_dataset(dataset)
    except (OSError, PermissionError, ValueError):
        if use_shm:
            raise
        return None


def export_dataset(dataset: DiscreteDataset) -> ShmExport:
    """Publish a dataset's values (own dtype and layout) into shared memory.

    The shared copy is exactly as large as one private copy.  Raises
    ``OSError`` when the platform cannot provide the memory — callers
    treat that as "use the pickled path" (:func:`try_export_dataset`).
    The returned :class:`ShmExport` owns the block (creator-only unlink).
    """
    values = np.ascontiguousarray(dataset.values)
    _check_capacity(values.nbytes)
    block = shared_memory.SharedMemory(create=True, size=max(values.nbytes, 8))
    try:
        np.ndarray(values.shape, dtype=values.dtype, buffer=block.buf)[...] = values
    except BaseException:
        _close_block(block, unlink=True)
        raise
    handle = ShmRawHandle(
        values_block=block.name,
        dtype=values.dtype.str,
        n_variables=dataset.n_variables,
        n_samples=dataset.n_samples,
        layout=dataset.layout,
        arities=tuple(int(a) for a in dataset.arities),
        names=dataset.names,
    )
    return ShmExport(handle, block)


def attach_dataset(handle: ShmRawHandle) -> DiscreteDataset:
    """Map an export as a read-only :class:`DiscreteDataset`, zero-copy.

    The dataset's values *are* the shared block, in the exporter's dtype
    and layout.  The :class:`AttachedBlocks` holder is pinned on the
    dataset, so anything keeping the dataset alive — a tester, a
    module-global in a worker — keeps the mapping alive.
    """
    block = _attach_block(handle.values_block)
    try:
        shape = (
            (handle.n_variables, handle.n_samples)
            if handle.layout == "variable-major"
            else (handle.n_samples, handle.n_variables)
        )
        values = np.ndarray(shape, dtype=np.dtype(handle.dtype), buffer=block.buf)
        values.setflags(write=False)
        # Trusted path: the handle can only come from export_dataset over
        # an already-validated dataset, and __post_init__'s bounds scan
        # would re-read the whole block in every attaching worker.
        dataset = DiscreteDataset._from_validated(
            values,
            np.asarray(handle.arities, dtype=np.int64),
            handle.layout,
            handle.names,
        )
    except BaseException:
        _close_block(block, unlink=False)
        raise
    object.__setattr__(dataset, "_shm_holder", AttachedBlocks(block))
    return dataset
