"""Micro-behavior data substrate: schema, generators, preprocessing, batching."""

from .augment import AugmentConfig, augment_batch, augment_views, view_generator
from .dataset import DataLoader, SessionBatch, collate
from .io import (
    EventLogFormat,
    iter_event_log,
    iter_sessions_jsonl,
    load_event_log,
    load_sessions_jsonl,
    load_trivago_log,
    save_sessions_jsonl,
)
from .ingest import pack_sessions_jsonl
from .packed import (
    PackedSplit,
    collate_packed,
    load_packed,
    packed_fingerprint,
    packed_padded_dims,
)
from .preprocess import (
    ItemVocab,
    PreparedDataset,
    augment_prefixes,
    prepare_dataset,
    single_operation_view,
)
from .schema import (
    DatasetFormatError,
    SessionFormatError,
    JD_OPERATIONS,
    TRIVAGO_OPERATIONS,
    Interaction,
    MacroSession,
    OperationVocab,
    Session,
    merge_successive,
)
from .stats import DatasetStats, compute_stats
from .validation import ValidationIssue, ValidationReport, validate_dataset
from .synthetic import (
    GeneratorConfig,
    Persona,
    SyntheticSessionGenerator,
    generate_dataset,
    jd_appliances_config,
    jd_computers_config,
    trivago_config,
)

__all__ = [
    "DatasetFormatError",
    "SessionFormatError",
    "Interaction",
    "Session",
    "MacroSession",
    "OperationVocab",
    "JD_OPERATIONS",
    "TRIVAGO_OPERATIONS",
    "merge_successive",
    "Persona",
    "GeneratorConfig",
    "SyntheticSessionGenerator",
    "generate_dataset",
    "jd_appliances_config",
    "jd_computers_config",
    "trivago_config",
    "ItemVocab",
    "PreparedDataset",
    "prepare_dataset",
    "augment_prefixes",
    "single_operation_view",
    "SessionBatch",
    "collate",
    "DataLoader",
    "AugmentConfig",
    "augment_batch",
    "augment_views",
    "view_generator",
    "DatasetStats",
    "EventLogFormat",
    "load_event_log",
    "iter_event_log",
    "load_trivago_log",
    "save_sessions_jsonl",
    "load_sessions_jsonl",
    "iter_sessions_jsonl",
    "PackedSplit",
    "load_packed",
    "collate_packed",
    "packed_padded_dims",
    "packed_fingerprint",
    "pack_sessions_jsonl",
    "compute_stats",
    "ValidationIssue",
    "ValidationReport",
    "validate_dataset",
]
