"""Logic optimization operators: refactor, rewrite, resubstitution,
balance, and flow scripting (registry-driven, session-owned resources)."""

from .balance import balance
from .flow import (
    COMPRESS2,
    NAMED_SCRIPTS,
    RESYN2,
    FlowReport,
    FlowStep,
    canonical_command,
    run_flow,
)
from .npn_library import LibraryEntry, NpnLibrary, default_library
from .refactor import RefactorParams, RefactorStats, commit_tree, refactor, refactor_node
from .registry import (
    CommandFlags,
    CommandRegistry,
    CommandSpec,
    ResolvedCommand,
    ScriptNeeds,
    default_registry,
)
from .resub import ResubParams, ResubStats, resub
from .rewrite import RewriteParams, RewriteStats, rewrite
from .session import FlowContext, OptSession, SessionStats

__all__ = [
    "COMPRESS2",
    "CommandFlags",
    "CommandRegistry",
    "CommandSpec",
    "FlowContext",
    "FlowReport",
    "FlowStep",
    "LibraryEntry",
    "NAMED_SCRIPTS",
    "NpnLibrary",
    "OptSession",
    "RESYN2",
    "RefactorParams",
    "RefactorStats",
    "ResolvedCommand",
    "ResubParams",
    "ResubStats",
    "RewriteParams",
    "RewriteStats",
    "ScriptNeeds",
    "SessionStats",
    "balance",
    "canonical_command",
    "commit_tree",
    "default_library",
    "default_registry",
    "refactor",
    "refactor_node",
    "resub",
    "rewrite",
    "run_flow",
]
