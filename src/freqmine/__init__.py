"""Frequent-itemset and association-rule mining toolkit.

Two miners (levelwise Apriori and FP-Growth) guaranteed to agree, a
brute-force reference they are checked against, rule generation with exact
confidence arithmetic, a survey-to-transactions recoder, and a benchmark
harness for comparing the miners on synthetic workloads.
"""

__version__ = "0.1.0"

from .apriori import (
    AprioriStats,
    FrequentItemsets,
    apriori_mine,
    read_support_csv,
    write_frequent_csv,
)
from .bench import (
    BenchReport,
    ReportRow,
    SynthParams,
    TrialMeasurement,
    emit_report,
    generate_synthetic,
    run_trial,
    sweep,
)
from .dataset import (
    ItemCatalog,
    SurveySchema,
    TransactionDb,
    bucket_age,
    item_frequencies,
    parse_alias_csv,
    parse_survey,
    parse_transactions,
    serialize_transactions,
)
from .errors import (
    ClosureViolationError,
    ContractViolationError,
    CsvParseError,
    MiningError,
    SchemaError,
    ValidationError,
)
from .fpgrowth import (
    FPTree,
    TreeStats,
    build_conditional_tree,
    build_fptree,
    conditional_pattern_base,
    dump_tree,
    fpgrowth_mine,
)
from .oracle import brute_force_frequent, brute_force_rules
from .rules import (
    ACCEPTED,
    REJECTED,
    AssociationRule,
    generate_rules,
    meets_confidence,
    write_rules_csv,
)

__all__ = [
    "ACCEPTED",
    "REJECTED",
    "AprioriStats",
    "AssociationRule",
    "BenchReport",
    "ClosureViolationError",
    "ContractViolationError",
    "CsvParseError",
    "FPTree",
    "FrequentItemsets",
    "ItemCatalog",
    "MiningError",
    "ReportRow",
    "SchemaError",
    "SurveySchema",
    "SynthParams",
    "TransactionDb",
    "TreeStats",
    "TrialMeasurement",
    "ValidationError",
    "apriori_mine",
    "brute_force_frequent",
    "brute_force_rules",
    "bucket_age",
    "build_conditional_tree",
    "build_fptree",
    "conditional_pattern_base",
    "dump_tree",
    "emit_report",
    "fpgrowth_mine",
    "generate_rules",
    "generate_synthetic",
    "item_frequencies",
    "meets_confidence",
    "parse_alias_csv",
    "parse_survey",
    "parse_transactions",
    "read_support_csv",
    "run_trial",
    "serialize_transactions",
    "sweep",
    "write_frequent_csv",
    "write_rules_csv",
]
