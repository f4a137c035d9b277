"""Pin OpenBLAS to its Haswell kernel before numpy loads.

OpenBLAS picks a kernel for the host at load time, and its kernels round
differently: the `lstsq` slopes of the decay goldens and the SVD behind
the dense line norms differ in their last bits between the SkylakeX
kernel of AVX-512 hosts and the Haswell kernel of hosts without it. The
goldens are recorded under Haswell, which every x86-64 host with AVX2 runs,
so they compare byte for byte on either kind of host. A variable already
set is kept.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin OPENBLAS_CORETYPE")
os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")
