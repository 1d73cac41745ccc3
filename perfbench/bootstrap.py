"""Process set-up shared by every benchmark script; import it before numpy.

* Pins BLAS to one thread (at most ``nproc``), so the scan's timing does not
  depend on what else the machine runs.
* Puts the checkout's ``src/`` first on ``sys.path`` and refuses to run
  without it, so the benchmark always measures the code beside it and never
  an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent


class MissingProgramError(RuntimeError):
    """The checkout holds no program to measure."""


def import_program():
    """Import ``contrastive_retrieval`` from this checkout's ``src/``."""
    if not (SRC / "contrastive_retrieval" / "__init__.py").is_file():
        raise MissingProgramError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import contrastive_retrieval

    where = Path(contrastive_retrieval.__file__).resolve()
    if SRC not in where.parents:
        raise MissingProgramError(f"imported the program from {where}, not from {SRC}")
    return contrastive_retrieval
