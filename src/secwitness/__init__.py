"""Static secrecy analysis for cryptographic protocols.

The analyzer reads a protocol description, projects it into per-agent role
views, collects the encrypted patterns those views exchange, and compares
two information-flow bounds for every value an agent sends: who the
protecting pattern could be addressing, against who could have authored the
material the agent was given.  When the first reads at least as tightly as
the second on every send, the protocol keeps its declared secrets; when it
does not, the analyzer reports the names it could not justify and makes no
claim either way.
"""

from .context import TOP, SecurityLevel, VerificationContext, make_context
from .errors import AnalyzerError
from .roles import Protocol, load_protocol, parse_protocol, roles_for
from .selection import value_function
from .witness import (
    AnalysisReport,
    CriterionRow,
    analyze,
    render_table,
    to_json_lines,
)

# The submodules (terms, unify, derive, ...) hold the rest of the library;
# no function is bound here under the name of a submodule.
__all__ = [
    "AnalysisReport",
    "AnalyzerError",
    "CriterionRow",
    "Protocol",
    "SecurityLevel",
    "TOP",
    "VerificationContext",
    "analyze",
    "load_protocol",
    "make_context",
    "parse_protocol",
    "render_table",
    "roles_for",
    "to_json_lines",
    "value_function",
]
__version__ = "0.1.0"
