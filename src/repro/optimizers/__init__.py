"""Post-synthesis circuit optimizers: the PyZX and BQSKit substitutes.

The list-based :func:`fold_phases` remains as the paper's original
PyZX stand-in; :func:`optimize_circuit` is the stronger
commutation-aware optimizer.  It runs the vectorized ``*_table``
kernels of :mod:`repro.optimizers.columnar` over the struct-of-arrays
:class:`repro.circuits.DAGTable`.  The original per-node loops over
:class:`repro.circuits.CircuitDAG` stay in
:mod:`repro.optimizers.dag_passes` as byte-identical ``*_reference``
oracles for the equivalence tests and the ``passes`` speedup bench.
"""

from repro.optimizers.columnar import (
    OptimizeStats,
    cancel_inverses_table,
    collect_two_qubit_blocks_table,
    fold_phases_table,
    merge_rotations_table,
    optimize_table,
)
from repro.optimizers.dag_passes import (
    cancel_inverses_reference,
    collect_two_qubit_blocks_reference,
    fold_phases_dag_reference,
    merge_rotations_reference,
    optimize_circuit,
    optimize_dag_reference,
)
from repro.optimizers.kak import KAKDecomposition, kak_decompose
from repro.optimizers.phase_folding import fold_phases
from repro.optimizers.resynth import partition_two_qubit_blocks, resynthesize

__all__ = [
    "KAKDecomposition",
    "OptimizeStats",
    "cancel_inverses_reference",
    "cancel_inverses_table",
    "collect_two_qubit_blocks_reference",
    "collect_two_qubit_blocks_table",
    "fold_phases",
    "fold_phases_dag_reference",
    "fold_phases_table",
    "kak_decompose",
    "merge_rotations_reference",
    "merge_rotations_table",
    "optimize_circuit",
    "optimize_dag_reference",
    "optimize_table",
    "partition_two_qubit_blocks",
    "resynthesize",
]
