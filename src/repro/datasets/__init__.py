"""repro.datasets — the data substrate: containers, encodings, I/O.

Layers, bottom-up (each documented in its module):

* :class:`DiscreteDataset` (:mod:`.dataset`) — integer-coded complete
  data in either storage layout (variable-major is the paper's
  cache-friendly layout; sample-major is the baseline regime the paper
  criticises — the contrast is itself an experiment);
* the **shared-memory dataset plane** (:mod:`.shm`) — publishes a
  dataset's own values (same dtype, same layout) into
  ``multiprocessing.shared_memory`` so process workers attach zero-copy
  views instead of receiving pickled arrays;
* sampling (:mod:`.sampling`), CSV codecs (:mod:`.io`) and BIF network
  I/O (:mod:`.bif`).

Shared-memory lifecycle in one paragraph: the *creator* calls
:func:`~repro.datasets.shm.export_dataset` and owns the returned
:class:`~repro.datasets.shm.ShmExport` — its picklable ``handle`` is all
that crosses process boundaries, and its ``close()`` (tied to
:meth:`WorkerPool.shutdown <repro.parallel.backends.WorkerPool.shutdown>`
/ :meth:`LearningSession.close <repro.engine.session.LearningSession.close>`,
with a finalizer backstop) unlinks the block exactly once.  *Attachers*
call :func:`~repro.datasets.shm.attach_dataset` and only ever close their
own mapping.  When the platform provides no usable shared memory
(:func:`~repro.datasets.shm.shared_memory_available`), every caller falls
back to pickled dataset shipping — bit-identical results, different
memory/start-up cost.
"""

from .bif import load_bif, parse_bif, write_bif
from .dataset import DiscreteDataset, smallest_uint_dtype
from .io import CategoricalCodec, read_codes_csv, read_csv, train_test_split, write_csv
from .sampling import forward_sample
from .shm import ShmExport, ShmRawHandle, shared_memory_available

__all__ = [
    # containers & encodings
    "DiscreteDataset",
    "smallest_uint_dtype",
    # shared-memory dataset plane
    "ShmExport",
    "ShmRawHandle",
    "shared_memory_available",
    # sampling & I/O
    "forward_sample",
    "read_csv",
    "read_codes_csv",
    "write_csv",
    "CategoricalCodec",
    "train_test_split",
    "parse_bif",
    "write_bif",
    "load_bif",
]
