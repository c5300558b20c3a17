"""Entry point: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Pins numpy's BLAS to one thread before numpy is imported, and benchmarks
the hgsurv sources of this checkout (``src/hgsurv``), never an installed copy.
The last line of standard output is the JSON result.
"""

import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "hgsurv" / "__init__.py").is_file():
        print(f"error: no hgsurv sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import bench

    sys.exit(bench.main())
