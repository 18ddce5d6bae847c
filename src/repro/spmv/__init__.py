"""The TurboBC SpMV kernels.

The paper implements the masked sparse matrix--vector products of
Algorithm 1 (lines 19 and 37) with three kernels; the SpMV is up to 90 % of
total runtime, so kernel choice decides which TurboBC variant wins a graph:

============  =================  ===========================================
kernel        parallelisation    sweet spot
============  =================  ===========================================
``scCOOC``    thread per edge    regular graphs with degree outliers (the
                                 mawi traces): per-edge work is flat no
                                 matter how skewed the degrees are
``scCSC``     thread per column  regular graphs with near-uniform degrees:
                                 zero redundancy, but a warp stalls on its
                                 largest column (divergence)
``veCSC``     warp per column    irregular graphs: 32 lanes stream a column
                                 cooperatively with coalesced loads and a
                                 shuffle reduction
============  =================  ===========================================

Every kernel multiplies the stored matrix by an ``n x B`` frontier
*matrix* -- one column per BFS source -- in a single launch; the paper's
per-source SpMV is the ``B = 1`` column of that SpMM (Solomonik et al.'s
multi-source formulation), so there is one entry point per product:

========================  ====================================================
``<kernel>_spmm``         masked gather ``Y = A^T X`` (per stored entry
                          ``(r, c)``: ``Y[c] += X[r]``) -- the forward stage,
                          and the backward stage of undirected graphs
``<kernel>_spmm_scatter`` scatter ``Y = A X`` (``Y[r] += X[c]``) -- the
                          backward stage of *directed* graphs; both read the
                          same single stored format, preserving the paper's
                          one-format-per-run memory discipline
``reference_spmm[...]``   the plain NumPy oracles the kernels are tested
                          against
========================  ====================================================

Every kernel function returns ``(Y, KernelLaunch)``: the numerically exact
result, computed once for all kernels in :mod:`repro.spmv._spmm`, and the
launch record carrying the structure-exact hardware statistics of the
equivalent CUDA kernel.  Each kernel module reduces a computed product to
the scalar counts of a :class:`Profile` (``profile(csc, product,
l2_bytes)``) and has one pure cost formula, ``cost(profile, spec) ->
KernelStats``, with a gather and a scatter arm; the adaptive dispatcher
prices the same formulas over expected profiles, which each module's
``expected`` maps from the dispatcher's shared fill.  At ``B = 1`` a formula
is the paper's SpMV cost, and a sparse structure scanned once for the
whole batch with frontier rows loaded B-wide (coalesced) is what makes
wide batches fast.  A lane of a batched product is bit-identical to that
source's ``B = 1`` product.
"""

from repro.spmv._spmm import Profile, any_lane
from repro.spmv.edgecsc import edgecsc_spmm, edgecsc_spmm_scatter
from repro.spmv.sccooc import sccooc_spmm, sccooc_spmm_scatter
from repro.spmv.sccsc import sccsc_spmm, sccsc_spmm_scatter
from repro.spmv.veccsc import veccsc_spmm, veccsc_spmm_scatter
from repro.spmv.pullcsc import pullcsc_spmm, pullcsc_spmm_scatter
from repro.spmv.tcspmm import tcspmm_spmm, tcspmm_spmm_scatter
from repro.spmv.reference import (
    reference_spmm,
    reference_spmm_scatter,
    reference_spmv,
    reference_spmv_scatter,
)

KERNEL_NAMES = ("sccooc", "sccsc", "veccsc")
#: The PR-6 direction-optimised additions: the pull-mode (bottom-up) kernel
#: and the blocked tensor-core kernel.  Kept out of KERNEL_NAMES (the
#: paper's three static variants, which drive ``scf`` selection and the
#: baseline conformance loop) but exercised by their own conformance
#: configs, the kernel differential and the adaptive dispatcher.
EXTENDED_KERNEL_NAMES = KERNEL_NAMES + ("pullcsc", "tcspmm")



__all__ = [
    "KERNEL_NAMES",
    "Profile",
    "any_lane",
    "EXTENDED_KERNEL_NAMES",
    "edgecsc_spmm",
    "edgecsc_spmm_scatter",
    "sccooc_spmm",
    "sccooc_spmm_scatter",
    "sccsc_spmm",
    "sccsc_spmm_scatter",
    "veccsc_spmm",
    "veccsc_spmm_scatter",
    "pullcsc_spmm",
    "pullcsc_spmm_scatter",
    "tcspmm_spmm",
    "tcspmm_spmm_scatter",
    "reference_spmm",
    "reference_spmm_scatter",
    "reference_spmv",
    "reference_spmv_scatter",
]
