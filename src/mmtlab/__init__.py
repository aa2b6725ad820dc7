"""Desk-scale multimodal bottleneck transformers with missing-modality tools."""

import os

# BLAS on one thread unless the caller chose otherwise: on these small
# shapes extra BLAS threads measured slower and oversubscribe parallel
# sweep workers, and no result depends on the count. It must be set before
# numpy is first imported, which every submodule does.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"
