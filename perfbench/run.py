"""Entry point of the ghostmg benchmark.

    python3 perfbench/run.py --workload disk-cold --seed 1 --seconds 20 \
        --trace 0 [--smoke]

Run it from the root of a source checkout: the library is imported from
``src/`` there, never from an installed copy.  BLAS and OpenMP are pinned
to one thread through this process's own environment before numpy loads.
"""

import os
import sys
from pathlib import Path

THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

if __name__ == "__main__":
    os.environ.update(THREADS)
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "ghostmg" / "__init__.py").is_file():
        print(f"no ghostmg sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(here)]
    import ghostmg

    if Path(ghostmg.__file__).resolve().parent != src / "ghostmg":
        print(f"ghostmg imported from {ghostmg.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    import harness

    sys.exit(harness.main(sys.argv[1:]))
