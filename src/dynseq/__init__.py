"""Dynamic LIS / distance-to-monotonicity estimators, grid packing, and
monotone partitioning, with work-unit instrumentation throughout."""

from .array_packing import ArrayPacking, ArraySegment, build_array_packing
from .block_scheduler import (ContractViolationError, GeneratorBlock,
                              WrappedEstimator)
from .exact_lis import ExactDynamicLis
from .classic import (OracleScaleError, brute_dtm, brute_lis, levels,
                      lis_extract, lis_length, weighted_dtm, weighted_his)
from .dynamic_dtm import (CoverContractError, DtmDynamic, InversionMatching,
                          exact_from_cover_labels, exact_from_cover_vc,
                          sequential_dtm, stack_matching)
from .dynamic_lis import (GridLis, HierarchyLis, NaiveLis, SqrtLis, extract,
                          grid_engine, hierarchy_engine, naive_engine,
                          sqrt_engine)
from .grid_packing import (GridPacking, GridSegment, build_grid_packing,
                           non_conflicting, precedes, table_score)
from .indexed_sequence import (DeadHandleError, DuplicateValueError,
                               IndexedSeq, Operation, PositionError, dele,
                               ins)
from .lis_plus import InsertOnlyError, LisPlus
from .partitioner import (Partition, partition_baseline, partition_dynamic,
                          partition_is_valid)
from .streams import generate_stream, parse_stream, serialize_stream
from .work import WorkMeter

__version__ = "0.1.0"

__all__ = [
    "ArrayPacking", "ArraySegment", "ExactDynamicLis", "GeneratorBlock",
    "ContractViolationError", "CoverContractError", "DeadHandleError",
    "DtmDynamic", "DuplicateValueError", "GridLis", "GridPacking",
    "GridSegment", "HierarchyLis", "IndexedSeq", "InsertOnlyError",
    "InversionMatching", "LisPlus", "NaiveLis", "Operation",
    "OracleScaleError", "Partition", "PositionError", "SqrtLis",
    "WorkMeter", "WrappedEstimator", "brute_dtm", "brute_lis",
    "build_array_packing", "build_grid_packing", "dele",
    "exact_from_cover_labels", "exact_from_cover_vc", "extract",
    "generate_stream", "grid_engine", "hierarchy_engine", "ins", "levels",
    "lis_extract", "lis_length", "naive_engine", "non_conflicting",
    "parse_stream", "partition_baseline", "partition_dynamic",
    "partition_is_valid", "precedes", "sequential_dtm", "serialize_stream",
    "sqrt_engine", "stack_matching", "table_score", "weighted_dtm",
    "weighted_his",
]
