"""Put the checkout's ``src/`` first on ``sys.path`` and pin BLAS threads.

Imported before numpy by every benchmark script.  OpenBLAS reads its
thread count once, at load, so the variables must be set before numpy is
imported; one BLAS thread per process keeps pool workers plus BLAS
threads at or below the CPU count on ``pairs-sweep-j2`` (2 workers x 1).
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

for _name in BLAS_ENV:
    os.environ[_name] = str(BLAS_THREADS)

if not (SRC / "selfbackhaul" / "__init__.py").is_file():
    sys.exit(f"perfbench: no library source at {SRC / 'selfbackhaul'}; "
             "run from a checkout of the repository")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
