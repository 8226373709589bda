"""Shared budget defaults and failure types for enumeration and search.

The defaults live here, not in the layers that spend them, so `config`
can fill in a document's budgets without loading any layer.
"""

DEFAULT_TABLE_BUDGET = 2_000_000
DEFAULT_BFS_STATES = 5_000_000
DEFAULT_RADIUS = 14
# ball_growth fits lines over radii max(2, radius // 2)..radius, and a line
# needs two of them
MIN_GROWTH_RADIUS = 3
# Z^d builds d basis tuples of length d, so a document's rank is capped
MAX_FREE_ABELIAN_RANK = 256


class BudgetExceededError(RuntimeError):
    """An enumeration or search outgrew its configured budget.

    Carries enough context to let callers report a truncated result
    instead of a silently wrong one.
    """

    def __init__(self, kind: str, limit: int, attempted: int, context: str):
        self.kind = kind
        self.limit = limit
        self.attempted = attempted
        self.context = context
        try:
            needed = str(attempted)
        except ValueError:
            # more digits than the interpreter will print
            needed = f"at least 2**{attempted.bit_length() - 1}"
        super().__init__(f"{kind} budget exceeded: needed {needed}, limit {limit} ({context})")


class ConfigError(ValueError):
    """A configuration document failed validation; the message names the element."""
